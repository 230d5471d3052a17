// Differential tests for TemporalLossFunction's aggregate table:
// Evaluate(alpha), answered from the table, must be the same double as
// EvaluateDetailed(alpha).loss, the per-alpha Algorithm 1 scan, bit for
// bit, over awkward matrices and awkward alphas; and the lazy table
// build must be safe when threads race the first call.

#include "core/privacy_loss.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench/suites/common.h"
#include "common/random.h"
#include "core/loss_cache.h"
#include "markov/stochastic_matrix.h"

namespace tcdp {
namespace {

std::uint64_t Bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

struct NamedMatrix {
  std::string name;
  StochasticMatrix matrix;
};

StochasticMatrix Exact(const std::vector<std::vector<double>>& rows) {
  Matrix m(rows.size(), rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < rows.size(); ++c) m.At(r, c) = rows[r][c];
  }
  auto matrix = StochasticMatrix::CreateExact(std::move(m));
  EXPECT_TRUE(matrix.ok()) << matrix.status().ToString();
  return *matrix;
}

/// A random matrix with about half its entries zeroed, renormalized.
StochasticMatrix SparseRandom(std::size_t n, Rng* rng) {
  Matrix m(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    m.At(r, rng->UniformInt(0, static_cast<std::int64_t>(n) - 1)) = 1.0;
    double sum = 1.0;
    for (std::size_t c = 0; c < n; ++c) {
      if (rng->Uniform() < 0.5) {
        const double add = rng->Uniform();
        m.At(r, c) += add;
        sum += add;
      }
    }
    for (std::size_t c = 0; c < n; ++c) m.At(r, c) /= sum;
  }
  return *StochasticMatrix::Create(std::move(m));
}

std::vector<NamedMatrix> Matrices() {
  std::vector<NamedMatrix> out;
  Rng rng(20171018);
  for (std::size_t n : {2, 3, 5, 8, 16, 50}) {
    out.push_back({"random_n" + std::to_string(n),
                   StochasticMatrix::Random(n, &rng)});
  }
  for (std::size_t n : {8, 16}) {
    bench::ServiceWorkload shape;
    shape.profiles = 8;
    shape.matrix_size = n;
    shape.seed = 2017;
    const auto profiles = bench::MakeServiceProfiles(shape);
    for (std::size_t p = 0; p < profiles.size(); ++p) {
      out.push_back({"profile_n" + std::to_string(n) + "_" +
                         std::to_string(p),
                     profiles[p].backward()});
    }
  }
  out.push_back({"identity", StochasticMatrix::Identity(4)});
  out.push_back(
      {"permutation", *StochasticMatrix::Permutation({2, 0, 3, 1, 4})});
  out.push_back({"uniform", StochasticMatrix::Uniform(5)});
  out.push_back({"absorbing_fig3",
                 StochasticMatrix::FromRows({{0.8, 0.2}, {0.0, 1.0}})});
  out.push_back({"absorbing_chain",
                 StochasticMatrix::FromRows({{0.5, 0.3, 0.2, 0.0},
                                             {0.0, 0.6, 0.3, 0.1},
                                             {0.0, 0.0, 0.7, 0.3},
                                             {0.0, 0.0, 0.0, 1.0}})});
  for (std::size_t n : {4, 16}) {
    out.push_back({"sparse_n" + std::to_string(n), SparseRandom(n, &rng)});
  }
  out.push_back({"duplicate_rows",
                 StochasticMatrix::FromRows({{0.1, 0.6, 0.3},
                                             {0.1, 0.6, 0.3},
                                             {0.5, 0.25, 0.25}})});
  // Rows one ulp apart: the only candidate coordinates differ by one
  // ulp, so every aggregate sits at the bottom of double precision.
  const double a = 0.3, b = 0.7;
  out.push_back({"rows_one_ulp_apart",
                 Exact({{std::nextafter(a, 1.0), std::nextafter(b, 0.0)},
                        {a, b}})});
  out.push_back(
      {"rows_one_ulp_apart_n3",
       Exact({{0.25, std::nextafter(0.5, 1.0), std::nextafter(0.25, 0.0)},
              {0.25, 0.5, 0.25},
              {std::nextafter(0.25, 1.0), std::nextafter(0.5, 0.0), 0.25}})});
  return out;
}

std::vector<double> Alphas() {
  std::vector<double> out = {0.0, 1e-300};
  // Points of the loss cache's default 1e-9 grid, formed as it forms
  // them (key * resolution).
  for (std::int64_t key : {1LL, 2LL, 7LL, 1000LL, 123456789LL,
                           5000000001LL, 29999999999LL}) {
    out.push_back(static_cast<double>(key) * 1e-9);
  }
  for (double v = 0.05; v <= 8.0; v *= 1.5) out.push_back(v);
  out.push_back(8.0);
  out.push_back(29.999);
  out.push_back(std::nextafter(30.0, 0.0));
  for (double v : {30.0, 31.0, 1e3, 1e6, 9e9}) out.push_back(v);
  out.push_back(std::numeric_limits<double>::infinity());
  return out;
}

void ExpectTableMatchesScan(const TemporalLossFunction& loss,
                            const std::string& name,
                            const std::vector<double>& alphas) {
  for (double alpha : alphas) {
    const double table = loss.Evaluate(alpha);
    const double scan = loss.EvaluateDetailed(alpha).loss;
    EXPECT_EQ(Bits(table), Bits(scan))
        << name << " alpha=" << alpha << " table=" << table
        << " scan=" << scan;
  }
}

TEST(LossTable, EvaluateIsBitwiseAlgorithm1) {
  const std::vector<double> alphas = Alphas();
  for (const NamedMatrix& m : Matrices()) {
    TemporalLossFunction loss(m.matrix);
    ExpectTableMatchesScan(loss, m.name, alphas);
  }
}

TEST(LossTable, RandomAlphasAcrossScales) {
  Rng rng(42);
  std::vector<double> alphas;
  for (int i = 0; i < 300; ++i) {
    alphas.push_back(std::pow(10.0, rng.Uniform(-12.0, 4.0)));
  }
  for (std::size_t n : {3, 8, 16}) {
    for (int rep = 0; rep < 4; ++rep) {
      TemporalLossFunction loss(StochasticMatrix::Random(n, &rng));
      ExpectTableMatchesScan(loss, "random_n" + std::to_string(n), alphas);
    }
  }
}

TEST(LossTable, BuiltOnFirstPositiveEvaluateOnly) {
  Rng rng(7);
  TemporalLossFunction loss(StochasticMatrix::Random(8, &rng));
  EXPECT_EQ(loss.table_bytes(), 0u);
  EXPECT_EQ(loss.Evaluate(0.0), 0.0);
  EXPECT_EQ(loss.table_bytes(), 0u);
  (void)loss.EvaluateDetailed(1.0);
  EXPECT_EQ(loss.table_bytes(), 0u);
  (void)loss.Evaluate(1.0);
  const std::size_t bytes = loss.table_bytes();
  EXPECT_GT(bytes, 0u);
  // Bounded by n^2 (n-1) / 2 aggregates of 16 B plus 12 B per corner.
  EXPECT_LE(bytes, 8u * 8u * 7u / 2u * 28u + 1024u);
  // Copies share the table.
  const TemporalLossFunction copy = loss;
  EXPECT_EQ(copy.table_bytes(), bytes);
}

TEST(LossTable, LargeOrSubnormalMatricesKeepTheScan) {
  Rng rng(11);
  TemporalLossFunction large(StochasticMatrix::Random(
      TemporalLossFunction::kMaxTableStates + 1, &rng));
  EXPECT_EQ(Bits(large.Evaluate(2.0)),
            Bits(large.EvaluateDetailed(2.0).loss));
  EXPECT_EQ(large.table_bytes(), 0u);

  const double tiny = std::numeric_limits<double>::denorm_min() * 3.0;
  TemporalLossFunction subnormal(
      Exact({{0.5, 0.5 - tiny, tiny}, {0.2, 0.3, 0.5}, {0.0, 1.0, 0.0}}));
  ExpectTableMatchesScan(subnormal, "subnormal", Alphas());
  EXPECT_EQ(subnormal.table_bytes(), 0u);
}

TEST(LossTable, CacheReportsTableBytes) {
  TemporalLossCache cache;
  Rng rng(3);
  const auto evaluator = cache.Intern(StochasticMatrix::Random(16, &rng));
  EXPECT_EQ(cache.stats().table_bytes, 0u);
  (void)evaluator->Evaluate(0.5);
  EXPECT_GT(cache.stats().table_bytes, 0u);
}

TEST(LossTable, ThreadsRacingTheFirstEvaluateAgree) {
  constexpr int kThreads = 8;
  Rng rng(99);
  for (int round = 0; round < 4; ++round) {
    const StochasticMatrix matrix = StochasticMatrix::Random(16, &rng);
    const TemporalLossFunction reference(matrix);
    std::vector<double> alphas(kThreads);
    std::vector<std::uint64_t> expected(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      alphas[t] = 0.01 + 0.37 * t;
      expected[t] = Bits(reference.EvaluateDetailed(alphas[t]).loss);
    }
    const TemporalLossFunction fresh(matrix);
    std::atomic<int> ready{0};
    std::vector<std::uint64_t> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) {
        }
        got[t] = Bits(fresh.Evaluate(alphas[t]));
      });
    }
    for (auto& thread : threads) thread.join();
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(got[t], expected[t]) << "round " << round << " thread " << t;
    }
  }
}

}  // namespace
}  // namespace tcdp
