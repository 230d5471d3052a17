// Unit tests for core/loss_cache: hit/miss accounting, matrix
// interning/deduplication, agreement with the direct Algorithm-1
// evaluation, the generic-LFP oracle regression, and thread safety.

#include "core/loss_cache.h"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "common/random.h"
#include "lp/tpl_lfp.h"
#include "markov/stochastic_matrix.h"

namespace tcdp {
namespace {

StochasticMatrix Fig3Matrix() {
  return StochasticMatrix::FromRows({{0.8, 0.2}, {0.0, 1.0}});
}

TEST(TemporalLossCache, FirstEvaluationMissesSecondHits) {
  TemporalLossCache cache;
  auto loss = cache.Intern(Fig3Matrix());
  const double first = loss->Evaluate(0.5);
  auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 1u);

  const double second = loss->Evaluate(0.5);
  stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(first, second);  // bitwise: same memoized value
}

TEST(TemporalLossCache, ZeroAlphaShortCircuits) {
  TemporalLossCache cache;
  auto loss = cache.Intern(Fig3Matrix());
  EXPECT_EQ(loss->Evaluate(0.0), 0.0);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 0u);
}

TEST(TemporalLossCache, InternDeduplicatesEqualMatrices) {
  TemporalLossCache cache;
  auto a = cache.Intern(Fig3Matrix());
  auto b = cache.Intern(Fig3Matrix());  // distinct object, same contents
  EXPECT_EQ(cache.stats().distinct_matrices, 1u);

  a->Evaluate(0.7);  // miss, populates the shared table
  b->Evaluate(0.7);  // hit through the other handle
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(TemporalLossCache, DistinctMatricesGetDistinctTables) {
  TemporalLossCache cache;
  auto a = cache.Intern(Fig3Matrix());
  auto b = cache.Intern(StochasticMatrix::Identity(2));
  EXPECT_EQ(cache.stats().distinct_matrices, 2u);
  a->Evaluate(0.4);
  b->Evaluate(0.4);
  EXPECT_EQ(cache.stats().misses, 2u);  // no cross-matrix sharing
}

TEST(TemporalLossCache, NeverUnderestimatesAndStaysNearDirect) {
  TemporalLossCache::Options options;
  options.alpha_resolution = 1e-9;
  TemporalLossCache cache(options);
  const auto matrix = Fig3Matrix();
  auto cached = cache.Intern(matrix);
  TemporalLossFunction direct(matrix);
  // The cache evaluates at the grid point >= alpha, so it must never
  // round a leakage down, and L's 1-Lipschitz bound keeps it within
  // two grid steps of the exact value.
  for (double alpha : {0.001, 0.1, 0.5, 1.0, 2.0, 10.0}) {
    const double got = cached->Evaluate(alpha);
    const double want = direct.Evaluate(alpha);
    EXPECT_GE(got, want) << "alpha=" << alpha;
    EXPECT_NEAR(got, want, 2e-9) << "alpha=" << alpha;
  }
}

TEST(TemporalLossCache, QuantizationErrorIsBounded) {
  TemporalLossCache::Options options;
  options.alpha_resolution = 1e-6;
  TemporalLossCache cache(options);
  const auto matrix = Fig3Matrix();
  auto cached = cache.Intern(matrix);
  TemporalLossFunction direct(matrix);
  Rng rng(20260728);
  for (int i = 0; i < 50; ++i) {
    const double alpha = rng.Uniform(1e-3, 5.0);
    // L is 1-Lipschitz in alpha, so the upward grid snap raises the
    // value by at most ~one resolution step — and never lowers it.
    const double got = cached->Evaluate(alpha);
    const double want = direct.Evaluate(alpha);
    EXPECT_GE(got, want) << "alpha=" << alpha;
    EXPECT_NEAR(got, want, 2e-6) << "alpha=" << alpha;
  }
}

TEST(TemporalLossCache, DisabledQuantizationUsesExactBits) {
  TemporalLossCache::Options options;
  options.alpha_resolution = 0.0;
  TemporalLossCache cache(options);
  auto cached = cache.Intern(Fig3Matrix());
  TemporalLossFunction direct(Fig3Matrix());
  const double alpha = 0.1 + 1e-13;  // off any coarse grid
  EXPECT_EQ(cached->Evaluate(alpha), direct.Evaluate(alpha));
}

// Satellite regression: cached L(alpha) agrees with the generic-LFP
// route (the paper's Figure 5 baseline) on small matrices.
TEST(TemporalLossCache, MatchesTemporalLossViaLfpOnSmallMatrices) {
  TemporalLossCache cache;
  Rng rng(42);
  for (std::size_t n : {2u, 3u, 4u}) {
    const auto matrix = StochasticMatrix::Random(n, &rng);
    auto cached = cache.Intern(matrix);
    for (double alpha : {0.1, 0.5, 1.0}) {
      auto oracle = TemporalLossViaLfp(matrix, alpha, LfpMethod::kCharnesCooper,
                                       LfpFormulation::kPairwise);
      ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
      EXPECT_NEAR(cached->Evaluate(alpha), *oracle, 1e-6)
          << "n=" << n << " alpha=" << alpha;
    }
  }
}

TEST(TemporalLossCache, EvaluatorOutlivesCacheHandle) {
  std::shared_ptr<const LossEvaluator> loss;
  double direct = 0.0;
  {
    TemporalLossCache cache;
    loss = cache.Intern(Fig3Matrix());
    direct = TemporalLossFunction(Fig3Matrix()).Evaluate(0.25);
  }
  EXPECT_NEAR(loss->Evaluate(0.25), direct, 2e-9);
}

TEST(TemporalLossCache, ConcurrentEvaluationsAgree) {
  TemporalLossCache cache;
  auto loss = cache.Intern(Fig3Matrix());
  // The grid-snapped reference: whatever the cache computes once, every
  // thread must observe bitwise.
  const double expected = loss->Evaluate(0.5);
  std::vector<std::thread> threads;
  std::vector<double> results(8, -1.0);
  for (std::size_t i = 0; i < results.size(); ++i) {
    threads.emplace_back([&loss, &results, i] {
      for (int rep = 0; rep < 100; ++rep) results[i] = loss->Evaluate(0.5);
    });
  }
  for (auto& t : threads) t.join();
  for (double r : results) EXPECT_EQ(r, expected);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.hits, 0u);
}

}  // namespace
}  // namespace tcdp
