// Property-based tests (parameterized gtest sweeps) over randomized
// inputs. The centerpiece: Algorithm 1's polynomial-time subset solution
// must agree with the generic LFP solvers (Charnes-Cooper simplex and
// Dinkelbach) on the paper's linear-fractional program — the same
// equivalence the paper verifies experimentally in Section VI-A.

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "core/budget_allocation.h"
#include "core/privacy_loss.h"
#include "core/supremum.h"
#include "core/tpl_accountant.h"
#include "lp/tpl_lfp.h"
#include "markov/smoothing.h"
#include "markov/stochastic_matrix.h"
#include "release/w_event.h"

namespace tcdp {
namespace {

// ----------------------------------------------------------------------
// Algorithm 1 vs generic LFP solvers.

using LossOracleParam = std::tuple<int /*n*/, double /*alpha*/, int /*seed*/>;

class LossOracleTest : public ::testing::TestWithParam<LossOracleParam> {};

TEST_P(LossOracleTest, Algorithm1MatchesCharnesCooper) {
  const auto [n, alpha, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  auto matrix = StochasticMatrix::Random(static_cast<std::size_t>(n), &rng);
  TemporalLossFunction loss(matrix);
  const double fast = loss.Evaluate(alpha);
  auto oracle = TemporalLossViaLfp(matrix, alpha, LfpMethod::kCharnesCooper,
                                   LfpFormulation::kPairwise);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  EXPECT_NEAR(fast, *oracle, 1e-6)
      << "n=" << n << " alpha=" << alpha << " seed=" << seed;
}

TEST_P(LossOracleTest, Algorithm1MatchesDinkelbach) {
  const auto [n, alpha, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) + 1000);
  auto matrix = StochasticMatrix::Random(static_cast<std::size_t>(n), &rng);
  TemporalLossFunction loss(matrix);
  const double fast = loss.Evaluate(alpha);
  auto oracle = TemporalLossViaLfp(matrix, alpha, LfpMethod::kDinkelbach,
                                   LfpFormulation::kPairwise);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  EXPECT_NEAR(fast, *oracle, 1e-6);
}

TEST_P(LossOracleTest, CompactFormulationAgrees) {
  const auto [n, alpha, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) + 2000);
  auto matrix = StochasticMatrix::Random(static_cast<std::size_t>(n), &rng);
  TemporalLossFunction loss(matrix);
  const double fast = loss.Evaluate(alpha);
  auto oracle = TemporalLossViaLfp(matrix, alpha, LfpMethod::kCharnesCooper,
                                   LfpFormulation::kCompact);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  EXPECT_NEAR(fast, *oracle, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    RandomMatrices, LossOracleTest,
    ::testing::Combine(::testing::Values(2, 3, 5),
                       ::testing::Values(0.1, 1.0, 4.0),
                       ::testing::Values(1, 2, 3)));

// Smoothed (structured) matrices, which stress the subset-removal path
// harder than uniform-random rows.
using SmoothedParam = std::tuple<double /*s*/, double /*alpha*/>;

class SmoothedOracleTest : public ::testing::TestWithParam<SmoothedParam> {};

TEST_P(SmoothedOracleTest, Algorithm1MatchesLfpOnSmoothedMatrices) {
  const auto [s, alpha] = GetParam();
  auto matrix = SmoothedCorrelationMatrix(4, s);
  ASSERT_TRUE(matrix.ok());
  TemporalLossFunction loss(*matrix);
  auto oracle = TemporalLossViaLfp(*matrix, alpha, LfpMethod::kCharnesCooper,
                                   LfpFormulation::kPairwise);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  EXPECT_NEAR(loss.Evaluate(alpha), *oracle, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(SmoothedMatrices, SmoothedOracleTest,
                         ::testing::Combine(::testing::Values(0.01, 0.1, 1.0),
                                            ::testing::Values(0.1, 0.5, 2.0)));

// ----------------------------------------------------------------------
// Remark 1 bounds and structural invariants of the loss function.

class LossBoundsTest : public ::testing::TestWithParam<int /*seed*/> {};

TEST_P(LossBoundsTest, LossWithinRemark1Bounds) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  auto matrix = StochasticMatrix::Random(5, &rng);
  TemporalLossFunction loss(matrix);
  for (double alpha : {0.0, 0.05, 0.5, 2.0, 10.0, 50.0}) {
    const double v = loss.Evaluate(alpha);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, alpha + 1e-9);
  }
}

TEST_P(LossBoundsTest, SortedPrefixSolverMatchesIterative) {
  // The O(n log n) threshold-set scan must agree with the paper's
  // iterative refinement on every pair, for random and structured
  // matrices alike.
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 300);
  for (const StochasticMatrix& matrix :
       {StochasticMatrix::Random(6, &rng),
        SmoothedCorrelationMatrix(6, 0.02).value(),
        StochasticMatrix::Uniform(6)}) {
    TemporalLossFunction loss(matrix);
    for (double alpha : {0.05, 0.8, 5.0}) {
      LossEvalOptions iterative;
      iterative.method = PairLossMethod::kIterativeRefinement;
      LossEvalOptions sorted;
      sorted.method = PairLossMethod::kSortedPrefix;
      const auto a = loss.EvaluateDetailed(alpha, sorted);
      const auto b = loss.EvaluateDetailed(alpha, iterative);
      EXPECT_NEAR(a.loss, b.loss, 1e-12) << "alpha=" << alpha;
      EXPECT_NEAR(a.q_sum, b.q_sum, 1e-12);
      EXPECT_NEAR(a.d_sum, b.d_sum, 1e-12);
    }
  }
}

TEST_P(LossBoundsTest, SortedPrefixMatchesIterativePerPair) {
  // Per-pair agreement including the selected subset (up to ties).
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 350);
  auto matrix = StochasticMatrix::Random(5, &rng);
  for (double alpha : {0.1, 2.0}) {
    for (std::size_t a = 0; a < 5; ++a) {
      for (std::size_t b = 0; b < 5; ++b) {
        if (a == b) continue;
        auto it = ComputePairLoss(matrix.Row(a), matrix.Row(b), alpha);
        auto sp = ComputePairLossSorted(matrix.Row(a), matrix.Row(b), alpha);
        ASSERT_TRUE(it.ok());
        ASSERT_TRUE(sp.ok());
        EXPECT_NEAR(it->loss, sp->loss, 1e-12)
            << "alpha=" << alpha << " pair " << a << "," << b;
      }
    }
  }
}

TEST_P(LossBoundsTest, LossMonotoneInAlpha) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 500);
  auto matrix = StochasticMatrix::Random(4, &rng);
  TemporalLossFunction loss(matrix);
  double prev = 0.0;
  for (double alpha = 0.0; alpha <= 6.0; alpha += 0.3) {
    const double v = loss.Evaluate(alpha);
    EXPECT_GE(v, prev - 1e-10);
    prev = v;
  }
}

TEST_P(LossBoundsTest, BatchRemovalMatchesOneAtATimeReference) {
  // The paper argues (Lines 8-10 discussion) that removing all violating
  // pairs at once is equivalent to removing them one by one. Reference
  // implementation: remove a single worst violator per pass.
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 900);
  auto matrix = StochasticMatrix::Random(6, &rng);
  const double alpha = 1.5;
  for (std::size_t a = 0; a < 6; ++a) {
    for (std::size_t b = 0; b < 6; ++b) {
      if (a == b) continue;
      const auto q = matrix.Row(a);
      const auto d = matrix.Row(b);
      auto fast = ComputePairLoss(q, d, alpha);
      ASSERT_TRUE(fast.ok());

      // One-at-a-time reference.
      std::vector<std::size_t> subset;
      for (std::size_t j = 0; j < q.size(); ++j) {
        if (q[j] > d[j]) subset.push_back(j);
      }
      while (!subset.empty()) {
        double qs = 0.0, ds = 0.0;
        for (std::size_t j : subset) {
          qs += q[j];
          ds += d[j];
        }
        const double ratio =
            (qs * std::expm1(alpha) + 1.0) / (ds * std::expm1(alpha) + 1.0);
        std::size_t drop = subset.size();
        for (std::size_t k = 0; k < subset.size(); ++k) {
          const std::size_t j = subset[k];
          const double rj = d[j] == 0.0 ? 1e300 : q[j] / d[j];
          if (rj <= ratio) {
            drop = k;
            break;
          }
        }
        if (drop == subset.size()) {
          EXPECT_NEAR(fast->loss, std::log(ratio), 1e-9);
          break;
        }
        subset.erase(subset.begin() + static_cast<long>(drop));
      }
      if (subset.empty()) {
        EXPECT_NEAR(fast->loss, 0.0, 1e-12);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LossBoundsTest,
                         ::testing::Range(1, 11));

// ----------------------------------------------------------------------
// Supremum: closed form vs fixpoint iteration across random matrices.

class SupremumAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(SupremumAgreementTest, ClosedFormMatchesIteration) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 7000);
  auto matrix = StochasticMatrix::Random(4, &rng);
  TemporalLossFunction loss(matrix);
  for (double eps : {0.05, 0.2, 1.0}) {
    auto closed = ComputeSupremum(loss, eps);
    ASSERT_TRUE(closed.ok());
    auto fix = IterateLeakageToFixpoint(loss, eps);
    if (closed->exists) {
      ASSERT_TRUE(fix.converged) << "eps=" << eps;
      EXPECT_NEAR(closed->value, fix.value, 1e-6);
      // A supremum is a fixpoint: L(sup) + eps == sup.
      EXPECT_NEAR(loss.Evaluate(closed->value) + eps, closed->value, 1e-6);
    } else {
      EXPECT_FALSE(fix.converged);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SupremumAgreementTest,
                         ::testing::Range(1, 9));

// ----------------------------------------------------------------------
// Allocation invariants across random correlations and targets.

using AllocationParam = std::tuple<double /*alpha*/, int /*seed*/>;

class AllocationInvariantTest
    : public ::testing::TestWithParam<AllocationParam> {};

TEST_P(AllocationInvariantTest, SchedulesNeverExceedAlpha) {
  const auto [alpha, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) + 11000);
  auto pb = StochasticMatrix::Random(3, &rng);
  auto pf = StochasticMatrix::Random(3, &rng);
  auto corr = TemporalCorrelations::Both(pb, pf);
  ASSERT_TRUE(corr.ok());
  auto alloc = BudgetAllocator::Create(*corr, alpha);
  ASSERT_TRUE(alloc.ok()) << alloc.status();

  for (std::size_t horizon : {1u, 3u, 17u, 60u}) {
    // Algorithm 2.
    {
      TplAccountant acc(*corr);
      for (double e : alloc->UpperBoundSchedule(horizon)) {
        ASSERT_TRUE(acc.RecordRelease(e).ok());
      }
      EXPECT_LE(acc.MaxTpl(), alpha + 1e-7)
          << "ub horizon=" << horizon << " alpha=" << alpha;
    }
    // Algorithm 3: exact alpha.
    {
      auto sched = alloc->QuantifiedSchedule(horizon);
      ASSERT_TRUE(sched.ok());
      TplAccountant acc(*corr);
      for (double e : *sched) ASSERT_TRUE(acc.RecordRelease(e).ok());
      EXPECT_LE(acc.MaxTpl(), alpha + 1e-7);
      if (horizon >= 2) {
        EXPECT_NEAR(acc.MaxTpl(), alpha, 1e-5)
            << "q horizon=" << horizon << " alpha=" << alpha;
      }
    }
  }
}

TEST_P(AllocationInvariantTest, SteadyBudgetIsSupremumInverse) {
  const auto [alpha, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) + 12000);
  auto pb = StochasticMatrix::Random(3, &rng);
  auto corr = TemporalCorrelations::BackwardOnly(pb);
  auto alloc = BudgetAllocator::Create(corr, alpha);
  ASSERT_TRUE(alloc.ok());
  // Backward-only: alpha_b == alpha and the BPL supremum under the steady
  // budget must equal alpha.
  EXPECT_NEAR(alloc->budget().alpha_b, alpha, 1e-6);
  TemporalLossFunction lb(pb);
  auto sup = ComputeSupremum(lb, alloc->budget().eps_steady);
  ASSERT_TRUE(sup.ok());
  ASSERT_TRUE(sup->exists);
  EXPECT_NEAR(sup->value, alpha, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllocationInvariantTest,
    ::testing::Combine(::testing::Values(0.5, 1.0, 2.0),
                       ::testing::Values(1, 2, 3, 4)));

// ----------------------------------------------------------------------
// Accountant consistency: TPL identity and composition coherence.

class AccountantInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(AccountantInvariantTest, TplIdentityAndMonotoneBpl) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 15000);
  auto pb = StochasticMatrix::Random(4, &rng);
  auto pf = StochasticMatrix::Random(4, &rng);
  auto corr = TemporalCorrelations::Both(pb, pf);
  ASSERT_TRUE(corr.ok());
  TplAccountant acc(*corr);
  std::vector<double> epsilons;
  for (int t = 0; t < 12; ++t) {
    const double eps = 0.05 + 0.3 * rng.Uniform();
    epsilons.push_back(eps);
    ASSERT_TRUE(acc.RecordRelease(eps).ok());
  }
  auto bpl = acc.BplSeries();
  auto fpl = acc.FplSeries();
  auto tpl = acc.TplSeries();
  for (std::size_t i = 0; i < tpl.size(); ++i) {
    // Equation 10.
    EXPECT_NEAR(tpl[i], bpl[i] + fpl[i] - epsilons[i], 1e-12);
    // Leakage dominates the per-step budget.
    EXPECT_GE(bpl[i] + 1e-12, epsilons[i]);
    EXPECT_GE(fpl[i] + 1e-12, epsilons[i]);
    // Remark 1 upper bounds: cumulative sums.
    double prefix = 0.0;
    for (std::size_t k = 0; k <= i; ++k) prefix += epsilons[k];
    EXPECT_LE(bpl[i], prefix + 1e-9);
  }
  // User-level = sum (Corollary 1) >= every event-level TPL.
  for (double v : tpl) EXPECT_LE(v, acc.UserLevelTpl() + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AccountantInvariantTest,
                         ::testing::Range(1, 9));

// ----------------------------------------------------------------------
// Exhaustive oracle for Theorem 4's subset selection: for small n,
// enumerate EVERY subset of coordinates and maximize the objective
// directly; Algorithm 1's iterative refinement must find the same
// optimum.

class SubsetOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(SubsetOracleTest, IterativeRefinementMatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 40000);
  const std::size_t n = 7;
  auto matrix = StochasticMatrix::Random(n, &rng);
  for (double alpha : {0.05, 0.7, 3.0, 12.0}) {
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = 0; b < n; ++b) {
        if (a == b) continue;
        const auto q = matrix.Row(a);
        const auto d = matrix.Row(b);
        auto fast = ComputePairLoss(q, d, alpha);
        ASSERT_TRUE(fast.ok());
        // Brute force over all 2^n subsets.
        double best = 0.0;
        for (std::size_t mask = 0; mask < (1u << n); ++mask) {
          double qs = 0.0, ds = 0.0;
          for (std::size_t j = 0; j < n; ++j) {
            if (mask & (1u << j)) {
              qs += q[j];
              ds += d[j];
            }
          }
          const double value = LogLinearInExpAlpha(qs, alpha) -
                               LogLinearInExpAlpha(ds, alpha);
          best = std::max(best, value);
        }
        EXPECT_NEAR(fast->loss, best, 1e-9)
            << "alpha=" << alpha << " rows " << a << "," << b;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubsetOracleTest, ::testing::Range(1, 6));

// ----------------------------------------------------------------------
// w-event mechanisms: the window-budget invariant must survive any
// (window, strategy, stream-volatility) combination.

using WEventParam = std::tuple<int /*window*/, int /*mechanism*/,
                               int /*volatility*/>;

class WEventInvariantTest : public ::testing::TestWithParam<WEventParam> {};

TEST_P(WEventInvariantTest, WindowBudgetInvariant) {
  const auto [window, mechanism, volatility] = GetParam();
  const double eps = 0.8;
  WEventOptions options;
  options.window = static_cast<std::size_t>(window);
  options.epsilon = eps;

  std::unique_ptr<WEventMechanism> mech;
  if (mechanism == 0) {
    auto m = BudgetDistributionMechanism::Create(
        options, std::make_unique<HistogramQuery>());
    ASSERT_TRUE(m.ok());
    mech = std::move(m).value();
  } else {
    auto m = BudgetAbsorptionMechanism::Create(
        options, std::make_unique<HistogramQuery>());
    ASSERT_TRUE(m.ok());
    mech = std::move(m).value();
  }

  Rng rng(static_cast<std::uint64_t>(window * 100 + volatility));
  std::vector<std::size_t> values(30, 0);
  for (int t = 0; t < 50; ++t) {
    // Volatility 0: static; 1: drift a few users; 2: full reshuffle.
    if (volatility == 1) {
      for (int k = 0; k < 3; ++k) {
        values[static_cast<std::size_t>(rng.UniformInt(0, 29))] =
            static_cast<std::size_t>(rng.UniformInt(0, 2));
      }
    } else if (volatility == 2) {
      for (auto& v : values) {
        v = static_cast<std::size_t>(rng.UniformInt(0, 2));
      }
    }
    auto db = Database::Create(values, 3);
    ASSERT_TRUE(db.ok());
    auto r = mech->Process(*db, &rng);
    ASSERT_TRUE(r.ok());
    // Released vector always well-formed.
    ASSERT_EQ(r->released_values.size(), 3u);
  }
  EXPECT_LE(mech->MaxWindowSpend(), eps + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WEventInvariantTest,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(0, 1),
                       ::testing::Values(0, 1, 2)));

}  // namespace
}  // namespace tcdp
