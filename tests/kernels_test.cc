// src/kernels/: the determinism contract. Each kernel must give the
// bits of the plain loop that spells out its order of operations
// (kernels.h): one IEEE operation per element for the elementwise
// kernels, blocked-4 lanes for the two reductions. ExpandMaskEpsilon
// guards mask word bounds.

#include "kernels/kernels.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace tcdp {
namespace kernels {
namespace {

// Bitwise comparison: operator== on doubles would accept -0.0 == 0.0
// and reject NaN == NaN; the contract is bit equality.
::testing::AssertionResult BitsEqual(const std::vector<double>& a,
                                     const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "size " << a.size() << " vs "
                                         << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "index " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

::testing::AssertionResult BitsEqual(double a, double b) {
  if (!SameBits(a, b)) {
    return ::testing::AssertionFailure() << a << " vs " << b;
  }
  return ::testing::AssertionSuccess();
}

/// Every size from empty through several blocks of four with each tail
/// length, plus one large size.
std::vector<std::size_t> Sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 67; ++n) sizes.push_back(n);
  sizes.push_back(1000);
  return sizes;
}

struct Inputs {
  std::vector<double> loss, add, q, d, x, seed_out;
  Inputs(std::size_t n, std::uint64_t seed)
      : loss(n), add(n), q(n), d(n), x(n), seed_out(n) {
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
      loss[i] = rng.Uniform() < 0.2 ? 0.0 : rng.Uniform();
      add[i] = rng.Uniform() < 0.5 ? 0.0 : rng.Uniform(0.01, 0.5);
      // Magnitudes spread over six decades, so that summing in another
      // order changes the rounding.
      q[i] = std::pow(10.0, rng.Uniform(-3.0, 3.0));
      d[i] = std::pow(10.0, rng.Uniform(-3.0, 3.0));
      x[i] = rng.Uniform(-3.0, 3.0);
      seed_out[i] = rng.Uniform(-1.0, 1.0);
    }
  }
};

/// a * b rounded on its own: a global -mfma must not fuse the
/// reference's products into its adds.
double Product(double a, double b) {
  const volatile double p = a * b;
  return p;
}

/// The blocked-4 canonical order written out: element i goes to lane
/// i % 4, in index order, and the lanes fold as (l0 + l1) + (l2 + l3).
double BlockedFourSum(const std::vector<double>& terms) {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < terms.size(); ++i) lane[i % 4] += terms[i];
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

double SequentialSum(const std::vector<double>& terms) {
  double sum = 0.0;
  for (double t : terms) sum += t;
  return sum;
}

TEST(KernelsOrder, DotIsBlockedFour) {
  std::size_t order_visible = 0;
  for (std::size_t n : Sizes()) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const Inputs in(n, 0xC0FFEE + n);
    std::vector<double> products(n);
    for (std::size_t i = 0; i < n; ++i) products[i] = Product(in.x[i], in.q[i]);
    const double expected = BlockedFourSum(products);
    EXPECT_TRUE(BitsEqual(Dot(in.x.data(), in.q.data(), n), expected));
    order_visible += !SameBits(SequentialSum(products), expected);
  }
  // The inputs tell the two orders apart, so a kernel that summed in
  // index order would fail above.
  EXPECT_GT(order_visible, 10u);
}

TEST(KernelsOrder, GatherPairSumsIsBlockedFour) {
  std::size_t order_visible = 0;
  for (std::size_t m : Sizes()) {
    SCOPED_TRACE("m=" + std::to_string(m));
    const std::size_t n = 2 * m + 1;
    const Inputs in(n, 7919 + m);
    Rng rng(m);
    std::vector<std::uint32_t> idx(m);
    std::vector<double> q_terms(m), d_terms(m);
    for (std::size_t i = 0; i < m; ++i) {
      idx[i] = static_cast<std::uint32_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(n) - 1));
      q_terms[i] = in.q[idx[i]];
      d_terms[i] = in.d[idx[i]];
    }
    double q_sum = -1.0, d_sum = -1.0;
    GatherPairSums(in.q.data(), in.d.data(), idx.data(), m, &q_sum, &d_sum);
    EXPECT_TRUE(BitsEqual(q_sum, BlockedFourSum(q_terms))) << "q";
    EXPECT_TRUE(BitsEqual(d_sum, BlockedFourSum(d_terms))) << "d";
    order_visible += !SameBits(SequentialSum(q_terms), q_sum);
  }
  EXPECT_GT(order_visible, 10u);
}

TEST(KernelsOrder, ElementwiseKernelsMatchNaiveLoops) {
  const double eps = 0.125;
  const double a = -0.375;
  for (std::size_t n : Sizes()) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const Inputs in(n, 31 * n + 5);
    std::vector<double> bpl(n, -7.0), eps_sum = in.seed_out;
    std::vector<double> want_bpl(n), want_eps_sum = in.seed_out;

    FusedLossAdd(in.loss.data(), in.add.data(), bpl.data(), eps_sum.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      want_bpl[i] = in.loss[i] + in.add[i];
      want_eps_sum[i] += in.add[i];
    }
    EXPECT_TRUE(BitsEqual(bpl, want_bpl)) << "FusedLossAdd bpl";
    EXPECT_TRUE(BitsEqual(eps_sum, want_eps_sum)) << "FusedLossAdd eps_sum";

    FusedLossAddUniform(in.loss.data(), eps, bpl.data(), eps_sum.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      want_bpl[i] = in.loss[i] + eps;
      want_eps_sum[i] += eps;
    }
    EXPECT_TRUE(BitsEqual(bpl, want_bpl)) << "FusedLossAddUniform bpl";
    EXPECT_TRUE(BitsEqual(eps_sum, want_eps_sum))
        << "FusedLossAddUniform eps_sum";

    FusedFillAdd(in.add.data(), bpl.data(), eps_sum.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      want_bpl[i] = in.add[i];
      want_eps_sum[i] += in.add[i];
    }
    EXPECT_TRUE(BitsEqual(bpl, want_bpl)) << "FusedFillAdd bpl";
    EXPECT_TRUE(BitsEqual(eps_sum, want_eps_sum)) << "FusedFillAdd eps_sum";

    FusedFillUniform(eps, bpl.data(), eps_sum.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      want_bpl[i] = eps;
      want_eps_sum[i] += eps;
    }
    EXPECT_TRUE(BitsEqual(bpl, want_bpl)) << "FusedFillUniform bpl";
    EXPECT_TRUE(BitsEqual(eps_sum, want_eps_sum))
        << "FusedFillUniform eps_sum";

    std::vector<double> out = in.seed_out, want_out = in.seed_out;
    Axpy(a, in.x.data(), out.data(), n);
    for (std::size_t i = 0; i < n; ++i) want_out[i] += Product(a, in.x[i]);
    EXPECT_TRUE(BitsEqual(out, want_out)) << "Axpy";
  }
}

TEST(KernelsOrder, SelectionKernelsMatchNaiveLoops) {
  for (std::size_t n : Sizes()) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const Inputs in(n, 104729 + n);
    std::vector<std::uint32_t> idx(n);
    const std::size_t m = SelectGreater(in.q.data(), in.d.data(), n, idx.data());
    idx.resize(m);
    std::vector<std::uint32_t> want_idx;
    for (std::size_t j = 0; j < n; ++j) {
      if (in.q[j] > in.d[j]) want_idx.push_back(static_cast<std::uint32_t>(j));
    }
    EXPECT_EQ(idx, want_idx) << "SelectGreater";

    // FilterGt: in-place compaction, +inf entries always survive.
    std::vector<double> value(m);
    for (std::size_t i = 0; i < m; ++i) {
      value[i] = i % 11 == 3 ? std::numeric_limits<double>::infinity()
                             : in.x[idx[i]];
    }
    std::vector<double> want_value;
    want_idx.clear();
    for (std::size_t i = 0; i < m; ++i) {
      if (value[i] > 0.25) {
        want_value.push_back(value[i]);
        want_idx.push_back(idx[i]);
      }
    }
    const std::size_t kept = FilterGt(value.data(), idx.data(), m, 0.25);
    value.resize(kept);
    idx.resize(kept);
    EXPECT_TRUE(BitsEqual(value, want_value)) << "FilterGt values";
    EXPECT_EQ(idx, want_idx) << "FilterGt indices";
  }
}

// ----------------------------------------------------- ExpandMaskEpsilon

TEST(KernelsMask, ExpandMaskEpsilonMatchesNaiveAndGuardsBounds) {
  Rng rng(2026);
  const double eps = 0.25;
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t users_in_mask = 1 + static_cast<std::size_t>(
                                              rng.UniformInt(0, 200));
    const std::size_t mask_words = (users_in_mask + 63) / 64;
    std::vector<std::uint64_t> mask(mask_words, 0);
    for (std::size_t u = 0; u < users_in_mask; ++u) {
      if (rng.Uniform() < 0.5) mask[u / 64] |= std::uint64_t{1} << (u % 64);
    }
    // Slot users deliberately include ids past the mask width: the
    // kernel must read them as "not participating", never out of
    // bounds (the ASan leg of CI enforces the latter).
    const std::size_t n = 1 + static_cast<std::size_t>(rng.UniformInt(0, 50));
    std::vector<std::uint32_t> users(n);
    for (std::size_t i = 0; i < n; ++i) {
      users[i] = static_cast<std::uint32_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(users_in_mask) + 80));
    }
    std::vector<double> add(n, -1.0);
    ExpandMaskEpsilon(mask.data(), mask.size(), users.data(), n, eps,
                      add.data());
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t u = users[i];
      const bool bit = u < users_in_mask &&
                       (mask[u / 64] >> (u % 64) & 1) != 0;
      EXPECT_EQ(add[i], bit ? eps : 0.0) << "slot " << i << " user " << u;
    }
  }
}

}  // namespace
}  // namespace kernels
}  // namespace tcdp
