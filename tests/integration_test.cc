// Integration tests: full pipelines across modules — the Figure 1
// scenario end to end, adversary estimation feeding the allocator, and
// the release/audit loop.

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "core/accountant_bank.h"
#include "core/adversary_sim.h"
#include "core/dpt_mechanism.h"
#include "core/tpl_accountant.h"
#include "dp/budget.h"
#include "markov/estimation.h"
#include "markov/reversal.h"
#include "markov/smoothing.h"
#include "workload/generators.h"

namespace tcdp {
namespace {

// End to end on the paper's Figure 1 scenario: build the series, derive
// the backward correlation by Bayes, release with a naive eps-DP
// mechanism, and quantify how the leakage exceeds eps.
TEST(Integration, Figure1NaiveReleaseLeaksMoreThanEpsilon) {
  auto scenario = MakeFigure1Scenario();
  ASSERT_TRUE(scenario.ok());
  const double eps = 0.5;

  // Adversary derives P^B from P^F and a uniform prior (Section III-A).
  std::vector<double> prior(5, 0.2);
  auto backward = ReverseWithPrior(scenario->forward_correlation, prior);
  ASSERT_TRUE(backward.ok());
  auto corr =
      TemporalCorrelations::Both(*backward, scenario->forward_correlation);
  ASSERT_TRUE(corr.ok());

  TplAccountant acc(*corr);
  ASSERT_TRUE(
      acc.RecordUniformReleases(eps, scenario->series.horizon()).ok());
  // The naive mechanism promises eps-DP per time point, but the actual
  // temporal leakage is strictly larger at every time point.
  for (std::size_t t = 1; t <= scenario->series.horizon(); ++t) {
    EXPECT_GT(*acc.Tpl(t), eps) << "t=" << t;
  }
}

// The paper's fix: wrap the same release in the quantified allocator and
// the audited leakage comes back exactly at the target.
TEST(Integration, Figure1DptMechanismRestoresGuarantee) {
  auto scenario = MakeFigure1Scenario();
  ASSERT_TRUE(scenario.ok());
  std::vector<double> prior(5, 0.2);
  auto backward = ReverseWithPrior(scenario->forward_correlation, prior);
  ASSERT_TRUE(backward.ok());
  auto corr =
      TemporalCorrelations::Both(*backward, scenario->forward_correlation);
  ASSERT_TRUE(corr.ok());

  Rng rng(80);
  const double alpha = 0.5;
  auto mech = DptMechanism::Create(*corr, alpha, DptStrategy::kQuantified);
  ASSERT_TRUE(mech.ok()) << mech.status();
  auto result = mech->ReleaseSeries(scenario->series,
                                    std::make_unique<HistogramQuery>(), &rng);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_LE(result->max_tpl, alpha + 1e-6);
  EXPECT_NEAR(result->max_tpl, alpha, 1e-5);
  EXPECT_EQ(result->releases.size(), 3u);
}

// Adversary-side pipeline: learn correlations from public trajectories
// via MLE, then feed them into the allocator — the loop a deployment
// would actually run.
TEST(Integration, EstimatedCorrelationsDriveAllocation) {
  auto road = RingRoadNetwork(6, 0.5, 0.2);
  ASSERT_TRUE(road.ok());
  auto chain = MarkovChain::WithUniformInitial(*road);
  Rng rng(81);
  auto trajectories = SimulateTrajectories(chain, 300, 100, &rng);

  auto forward = EstimateForwardTransition(trajectories, 6);
  auto backward = EstimateBackwardTransition(trajectories, 6);
  ASSERT_TRUE(forward.ok());
  ASSERT_TRUE(backward.ok());
  EXPECT_LT(forward->matrix().MaxAbsDiff(road->matrix()), 0.05);

  auto corr = TemporalCorrelations::Both(*backward, *forward);
  ASSERT_TRUE(corr.ok());
  auto alloc = BudgetAllocator::Create(*corr, 1.0);
  ASSERT_TRUE(alloc.ok()) << alloc.status();
  EXPECT_GT(alloc->budget().eps_steady, 0.0);
  EXPECT_LT(alloc->budget().eps_steady, 1.0);

  // Audit the quantified schedule under the *true* correlations: the
  // estimate is close enough that the overshoot is small.
  auto true_backward = ReverseAtStationarity(*road);
  ASSERT_TRUE(true_backward.ok());
  auto true_corr = TemporalCorrelations::Both(*true_backward, *road);
  ASSERT_TRUE(true_corr.ok());
  auto sched = alloc->QuantifiedSchedule(20);
  ASSERT_TRUE(sched.ok());
  TplAccountant acc(*true_corr);
  for (double e : *sched) ASSERT_TRUE(acc.RecordRelease(e).ok());
  EXPECT_LT(acc.MaxTpl(), 1.1);
}

// Release + Bayesian adversary: the operational attack on the actual
// noisy outputs stays within the analytic TPL of the schedule.
TEST(Integration, OperationalAdversaryBoundedByAccountant) {
  const auto backward = StochasticMatrix::FromRows({{0.85, 0.15},
                                                    {0.25, 0.75}});
  auto corr = TemporalCorrelations::BackwardOnly(backward);
  const double eps = 0.4;
  const std::size_t horizon = 10;

  TplAccountant acc(corr);
  ASSERT_TRUE(acc.RecordUniformReleases(eps, horizon).ok());

  // Population of one target user (state path all-zeros) among others.
  // The adversary observes the FULL histogram, so the eps-DP release must
  // use the strict L1 sensitivity of 2 (a value change moves one user
  // across two bins); Lap(1/eps) per bin would only be 2eps-DP against
  // this adversary. See dp/query.h HistogramSensitivity.
  const double kSensitivity = 2.0;
  const double scale = kSensitivity / eps;
  Rng rng(82);
  const std::vector<double> others = {7.0, 3.0};
  for (int trial = 0; trial < 100; ++trial) {
    BayesianAdversary adv(backward);
    for (std::size_t t = 1; t <= horizon; ++t) {
      std::vector<double> noisy = {others[0] + 1.0 + rng.Laplace(scale),
                                   others[1] + rng.Laplace(scale)};
      auto densities =
          HistogramLogDensities(noisy, others, eps, kSensitivity);
      ASSERT_TRUE(densities.ok());
      ASSERT_TRUE(adv.Observe(*densities).ok());
      EXPECT_LE(adv.RealizedLeakage(), *acc.Bpl(t) + 1e-9);
    }
  }
}

// Personalized accounting (Section III-D): users with weaker correlations
// enjoy strictly smaller leakage under the same schedule.
TEST(Integration, PersonalizedLeakageOrdering) {
  AccountantBank pop;
  auto strong = SmoothedCorrelationMatrix(4, 0.01);
  auto weak = SmoothedCorrelationMatrix(4, 1.0);
  ASSERT_TRUE(strong.ok());
  ASSERT_TRUE(weak.ok());
  auto cs = TemporalCorrelations::Both(*strong, *strong);
  auto cw = TemporalCorrelations::Both(*weak, *weak);
  ASSERT_TRUE(cs.ok());
  ASSERT_TRUE(cw.ok());
  const std::size_t strongly = pop.AddUser(*cs);
  const std::size_t weakly = pop.AddUser(*cw);
  for (int t = 0; t < 15; ++t) ASSERT_TRUE(pop.RecordRelease(0.2).ok());
  EXPECT_GT(pop.MaxTplFor(strongly), pop.MaxTplFor(weakly));
  EXPECT_DOUBLE_EQ(pop.OverallAlpha(), pop.MaxTplFor(strongly));
}

// w-event view (Table II): on independent data the ledger's window spend
// matches the accountant's sequence TPL for uncorrelated users.
TEST(Integration, WEventMatchesSequenceTplWithoutCorrelations) {
  TplAccountant acc(TemporalCorrelations::None());
  BudgetLedger ledger;
  const std::vector<double> eps = {0.1, 0.3, 0.2, 0.15, 0.25};
  for (double e : eps) {
    ASSERT_TRUE(acc.RecordRelease(e).ok());
    ASSERT_TRUE(ledger.Spend(e).ok());
  }
  // Window [2..4] (w=3 starting at t=2): sum = 0.3+0.2+0.15.
  auto seq = acc.SequenceTpl(2, 2);
  ASSERT_TRUE(seq.ok());
  EXPECT_NEAR(*seq, 0.65, 1e-12);
  auto window = ledger.WindowSpend(3);
  ASSERT_TRUE(window.ok());
  EXPECT_NEAR(*window, 0.65, 1e-12);  // max window happens to be [2..4]
}

}  // namespace
}  // namespace tcdp
