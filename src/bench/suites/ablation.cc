// Implementation ablations (DESIGN.md Sections 4.1/4.2/4.4), one
// suite with three panels:
//
//   * lfp agreement — Algorithm 1, the paper's pairwise LFP and the
//     compact reformulation agree on L(alpha).
//   * pair solver — the paper's iterative removal loop vs the
//     sorted-prefix scan: identical losses, different speed; plus the
//     aggregate table `Evaluate` answers from, bitwise the scan's loss.
//   * supremum — Theorem 5's closed form vs fixpoint iteration, and
//     the analytic budget inverse eps = alpha - L(alpha) vs bisection.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/suites/suites.h"
#include "common/random.h"
#include "core/privacy_loss.h"
#include "core/supremum.h"
#include "lp/tpl_lfp.h"
#include "markov/smoothing.h"
#include "markov/stochastic_matrix.h"

namespace tcdp {
namespace bench {
namespace {

StochasticMatrix MakeMatrix(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return StochasticMatrix::Random(n, &rng);
}

Status LfpAgreement(SuiteContext* ctx) {
  double dev_pair = 0.0, dev_compact = 0.0, dev_dink = 0.0;
  const std::vector<std::size_t> sizes =
      ctx->smoke() ? std::vector<std::size_t>{3, 5}
                   : std::vector<std::size_t>{3, 5, 8};
  for (std::size_t n : sizes) {
    for (double alpha : {0.1, 1.0, 5.0}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const auto matrix = MakeMatrix(n, seed * 97);
        TemporalLossFunction loss(matrix);
        const double reference = loss.Evaluate(alpha);
        TCDP_ASSIGN_OR_RETURN(
            const double pair,
            TemporalLossViaLfp(matrix, alpha, LfpMethod::kCharnesCooper,
                               LfpFormulation::kPairwise));
        TCDP_ASSIGN_OR_RETURN(
            const double compact,
            TemporalLossViaLfp(matrix, alpha, LfpMethod::kCharnesCooper,
                               LfpFormulation::kCompact));
        TCDP_ASSIGN_OR_RETURN(
            const double dink,
            TemporalLossViaLfp(matrix, alpha, LfpMethod::kDinkelbach,
                               LfpFormulation::kPairwise));
        dev_pair = std::max(dev_pair, std::fabs(pair - reference));
        dev_compact = std::max(dev_compact, std::fabs(compact - reference));
        dev_dink = std::max(dev_dink, std::fabs(dink - reference));
      }
    }
  }
  ctx->Record("lfp_agreement",
              {{"max_n", static_cast<double>(sizes.back())},
               {"seeds", 3.0}},
              {{"dev_pairwise", dev_pair},
               {"dev_compact", dev_compact},
               {"dev_dinkelbach", dev_dink}});
  return Status::OK();
}

Status PairSolver(SuiteContext* ctx) {
  const std::size_t n = ctx->smoke() ? 50 : 100;
  Rng rng(1234 + n);
  const auto matrix = StochasticMatrix::Random(n, &rng);
  TemporalLossFunction loss(matrix);
  LossEvalOptions iterative;
  iterative.method = PairLossMethod::kIterativeRefinement;
  LossEvalOptions sorted;
  sorted.method = PairLossMethod::kSortedPrefix;
  double iterative_loss = 0.0, sorted_loss = 0.0, table_loss = 0.0;
  const double iterative_seconds = ctx->TimeBestOf(
      [&] { iterative_loss = loss.EvaluateDetailed(10.0, iterative).loss; });
  const double sorted_seconds = ctx->TimeBestOf(
      [&] { sorted_loss = loss.EvaluateDetailed(10.0, sorted).loss; });
  // The table answers the same question: bitwise the scan's loss over
  // an alpha grid spanning both sides of the alpha = 30 switch (the
  // first call builds the table, so the timing below excludes it).
  bool table_bitwise = true;
  for (double alpha : {1e-9, 0.001, 0.05, 0.3, 1.0, 2.5, 10.0, 29.999,
                       30.0, 100.0, 1e4}) {
    const double table = loss.Evaluate(alpha);
    const double scan = loss.EvaluateDetailed(alpha, sorted).loss;
    table_bitwise &= std::memcmp(&table, &scan, sizeof(double)) == 0;
  }
  const double table_seconds =
      ctx->TimeBestOf([&] { table_loss = loss.Evaluate(10.0); });
  table_bitwise &= std::memcmp(&table_loss, &sorted_loss, sizeof(double)) == 0;
  ctx->Record("pair_solver",
              {{"n", static_cast<double>(n)}, {"alpha", 10.0}},
              {{"dev", std::fabs(iterative_loss - sorted_loss)},
               {"iterative_ms", iterative_seconds * 1e3},
               {"sorted_ms", sorted_seconds * 1e3},
               {"table_ms", table_seconds * 1e3},
               {"table_bitwise", table_bitwise ? 1.0 : 0.0}});
  return Status::OK();
}

Status Supremum(SuiteContext* ctx) {
  std::vector<StochasticMatrix> cases;
  cases.push_back(StochasticMatrix::FromRows({{0.8, 0.2}, {0.0, 1.0}}));
  cases.push_back(StochasticMatrix::FromRows({{0.8, 0.2}, {0.1, 0.9}}));
  for (double s : {0.01, 0.1}) {
    TCDP_ASSIGN_OR_RETURN(const auto m, SmoothedCorrelationMatrix(10, s));
    cases.push_back(m);
  }
  // Closed form vs fixpoint iteration: existence and value must agree
  // wherever the supremum exists.
  double max_dev = 0.0;
  bool existence_agrees = true;
  for (const auto& matrix : cases) {
    TemporalLossFunction loss(matrix);
    for (double eps : {0.05, 0.1, 0.2}) {
      TCDP_ASSIGN_OR_RETURN(const auto closed, ComputeSupremum(loss, eps));
      const auto fix = IterateLeakageToFixpoint(loss, eps);
      existence_agrees &= closed.exists == fix.converged;
      if (closed.exists && fix.converged) {
        max_dev = std::max(max_dev, std::fabs(closed.value - fix.value));
      }
    }
  }
  // The analytic budget inverse vs bisection over iterated suprema.
  double inverse_dev = 0.0;
  for (const auto& matrix : cases) {
    TemporalLossFunction loss(matrix);
    for (double alpha : {0.5, 1.0}) {
      TCDP_ASSIGN_OR_RETURN(const double analytic,
                            EpsilonForSupremum(loss, alpha));
      double lo = 1e-9, hi = alpha;
      for (int iter = 0; iter < 60; ++iter) {
        const double mid = 0.5 * (lo + hi);
        const auto fix =
            IterateLeakageToFixpoint(loss, mid, 100000, 1e-10, 10 * alpha);
        if (!fix.converged || fix.value > alpha) {
          hi = mid;
        } else {
          lo = mid;
        }
      }
      inverse_dev = std::max(inverse_dev,
                             std::fabs(analytic - 0.5 * (lo + hi)));
    }
  }
  ctx->Record("supremum",
              {{"matrices", static_cast<double>(cases.size())}},
              {{"existence_agrees", existence_agrees ? 1.0 : 0.0},
               {"max_dev", max_dev},
               {"inverse_dev", inverse_dev}});
  return Status::OK();
}

Status RunSuite(SuiteContext* ctx) {
  TCDP_RETURN_IF_ERROR(LfpAgreement(ctx));
  TCDP_RETURN_IF_ERROR(PairSolver(ctx));
  TCDP_RETURN_IF_ERROR(Supremum(ctx));
  return Status::OK();
}

}  // namespace

void RegisterAblationSuite(Harness* harness) {
  SuiteSpec spec;
  spec.name = "ablation";
  spec.description =
      "implementation ablations: LFP-route agreement, pair-solver "
      "equivalence and speed, supremum closed form vs fixpoint";
  spec.repetitions = 3;
  spec.metric_policies = {
      {"iterative_ms", MetricPolicy::Latency()},
      {"sorted_ms", MetricPolicy::Latency()},
      {"table_ms", MetricPolicy::Latency()},
  };
  spec.gates = {
      // All three routes to L(alpha) agree (DESIGN.md 4.1).
      {"lfp_routes_agree",
       "lfp_agreement.dev_pairwise <= 1e-6 && "
       "lfp_agreement.dev_compact <= 1e-6 && "
       "lfp_agreement.dev_dinkelbach <= 1e-6"},
      // The two exact pair solvers return identical losses (4.4).
      {"pair_solvers_agree", "pair_solver.dev <= 1e-9"},
      // Evaluate's aggregate table returns Algorithm 1's loss bit for
      // bit.
      {"table_matches_algorithm1", "pair_solver.table_bitwise == 1"},
      // Theorem 5 matches the iterated recurrence on existence and
      // value, and the analytic inverse matches bisection (4.2).
      {"supremum_routes_agree",
       "supremum.existence_agrees == 1 && supremum.max_dev <= 1e-6 && "
       "supremum.inverse_dev <= 1e-6"},
  };
  harness->Register(std::move(spec), RunSuite);
}

}  // namespace bench
}  // namespace tcdp
