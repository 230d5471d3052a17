// Unit tests for core/loss_cache: hit/miss accounting, matrix
// interning/deduplication, agreement with the direct Algorithm-1
// evaluation, the generic-LFP oracle regression, thread safety, and
// the memo's memory bound under eviction.

#include "core/loss_cache.h"

#include <gtest/gtest.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
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

/// Bytes the process holds from malloc: arena chunks plus the mmapped
/// ones (glibc only; the bound below is checked only there).
std::size_t HeapBytesInUse() {
#if defined(__GLIBC__)
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
#else
  return 0;
#endif
}

std::uint64_t Bits(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// Four threads race 200k distinct grid points, four times the memo's
// slots, through one matrix: reads meet inserts in the same sets, ways
// are evicted, and inserts are dropped while another thread holds a
// set. None of that may show in a value, and the cache's memory must
// not grow with the key count.
TEST(TemporalLossCache, EvictionUnderRaceStaysBitwiseAndBounded) {
  constexpr std::size_t kAlphas = 200000;
  constexpr std::size_t kThreads = 4;
  const StochasticMatrix matrix = Fig3Matrix();
  TemporalLossFunction direct(matrix);
  // Grid points k * 1e-9 snap to themselves, so the cache evaluates
  // exactly these arguments.
  std::vector<double> alphas(kAlphas);
  std::vector<std::uint64_t> expected(kAlphas);
  for (std::size_t i = 0; i < kAlphas; ++i) {
    alphas[i] = static_cast<double>(100000000 + 37 * i) * 1e-9;
    expected[i] = Bits(direct.Evaluate(alphas[i]));
  }
  std::vector<std::size_t> mismatches(kThreads, 0);
  TemporalLossCache cache;
  auto loss = cache.Intern(matrix);
  const std::size_t heap_before = HeapBytesInUse();
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        // Each thread starts 1000 keys further along: the trailing
        // threads hit keys the leading one has just inserted, while it
        // keeps inserting into the same sets.
        for (std::size_t j = 0; j < kAlphas; ++j) {
          const std::size_t i = (j + t * 1000) % kAlphas;
          if (Bits(loss->Evaluate(alphas[i])) != expected[i]) {
            ++mismatches[t];
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
  }
  auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kAlphas);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_LE(stats.entries, TemporalLossCache::kMemoSlots);

  // Evicted or not, a key comes back with the same bits.
  for (std::size_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(Bits(loss->Evaluate(alphas[i])), expected[i]) << "i=" << i;
  }
  stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kAlphas + 1000);

#if defined(__GLIBC__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
  // The memo table, the matrix's aggregate table, and slack for the
  // threads' bookkeeping: nothing per key.
  const std::size_t heap_after = HeapBytesInUse();
  EXPECT_LE(heap_after, heap_before + TemporalLossCache::kMemoBytes +
                            stats.table_bytes + 64 * 1024)
      << "grew by "
      << static_cast<double>(heap_after) - static_cast<double>(heap_before);
#else
  (void)heap_before;
#endif
}

}  // namespace
}  // namespace tcdp
