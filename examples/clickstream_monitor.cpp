// Clickstream monitoring: continuous release of page-visit counts (the
// web-analytics workload from the paper's introduction), with
// *personalized* temporal privacy accounting (Section III-D).
//
// Users differ in how predictable their browsing is; the population-level
// alpha-DP_T guarantee is driven by the most predictable user, while less
// correlated users enjoy strictly smaller leakage under the same noise.
//
// Run: ./build/examples/clickstream_monitor

#include <cstdio>
#include <memory>

#include "common/table.h"
#include "core/accountant_bank.h"
#include "core/budget_allocation.h"
#include "markov/smoothing.h"
#include "release/release_engine.h"
#include "workload/generators.h"

namespace {

int Fail(const tcdp::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main() {
  using namespace tcdp;
  const std::size_t num_pages = 6;
  const std::size_t horizon = 20;
  const double alpha = 1.5;

  std::printf("Clickstream monitor: %zu pages, T=%zu, population "
              "alpha=%.1f\n\n",
              num_pages, horizon, alpha);

  // Three user profiles with different browsing predictability, modeled
  // by Laplacian-smoothing the clickstream graph at different strengths.
  auto base = ClickstreamModel(num_pages, /*home_prob=*/0.35,
                               /*link_prob=*/0.45);
  if (!base.ok()) return Fail(base.status());

  struct Profile {
    const char* name;
    double smoothing;  // larger = less predictable
  };
  const Profile profiles[] = {
      {"habitual reader", 0.0},
      {"average visitor", 0.3},
      {"erratic browser", 3.0},
  };

  // One bank holds the population; direct (uncached) loss evaluation
  // keeps every series exactly the single-user accountant's.
  AccountantBankOptions bank_options;
  bank_options.share_loss_cache = false;
  AccountantBank population(bank_options);
  std::vector<TemporalCorrelations> correlations;
  for (const Profile& p : profiles) {
    auto smoothed = LaplacianSmooth(*base, p.smoothing);
    if (!smoothed.ok()) return Fail(smoothed.status());
    auto both = TemporalCorrelations::Both(*smoothed, *smoothed);
    if (!both.ok()) return Fail(both.status());
    correlations.push_back(*both);
    population.AddUser(*both);
  }

  // Population-level schedule: every user's allocator must be satisfied,
  // so take the per-time minimum (Algorithms 2/3, Line 11).
  std::vector<std::vector<double>> schedules;
  for (const auto& corr : correlations) {
    auto alloc = BudgetAllocator::Create(corr, alpha);
    if (!alloc.ok()) return Fail(alloc.status());
    auto sched = alloc->QuantifiedSchedule(horizon);
    if (!sched.ok()) return Fail(sched.status());
    schedules.push_back(*sched);
  }
  auto schedule = MinSchedule(schedules);
  if (!schedule.ok()) return Fail(schedule.status());

  for (double eps : *schedule) {
    Status s = population.RecordRelease(eps);
    if (!s.ok()) return Fail(s);
  }

  std::printf("Released %zu private count vectors with budgets "
              "eps_1=%.4f, eps_mid=%.4f, eps_T=%.4f\n\n",
              horizon, schedule->front(), (*schedule)[horizon / 2],
              schedule->back());

  Table table({"user profile", "correlation degree", "max BPL", "max FPL",
               "max TPL", "guarantee"});
  for (std::size_t u = 0; u < population.num_users(); ++u) {
    double max_bpl = 0.0, max_fpl = 0.0;
    for (double v : population.BplSeriesFor(u)) max_bpl = std::max(max_bpl, v);
    for (double v : population.FplSeriesFor(u)) max_fpl = std::max(max_fpl, v);
    const double max_tpl = population.MaxTplFor(u);
    table.AddRow();
    table.AddCell(profiles[u].name);
    table.AddNumber(
        CorrelationDegree(correlations[u].backward()), 3);
    table.AddNumber(max_bpl, 4);
    table.AddNumber(max_fpl, 4);
    table.AddNumber(max_tpl, 4);
    table.AddCell(max_tpl <= alpha + 1e-9 ? "within alpha" : "VIOLATED");
  }
  std::printf("%s\n", table.ToAlignedString().c_str());
  std::printf("Population alpha (max over users) = %.4f <= %.1f\n\n",
              population.OverallAlpha(), alpha);

  // Demonstrate the actual private stream on simulated browsing.
  Rng rng(7);
  auto chain = MarkovChain::WithUniformInitial(*base);
  auto series = SimulatePopulation(chain, /*num_users=*/300, horizon, &rng);
  if (!series.ok()) return Fail(series.status());
  ReleaseEngine engine(std::make_unique<HistogramQuery>(), &rng);
  auto releases = engine.ReleaseSeries(*series, *schedule);
  if (!releases.ok()) return Fail(releases.status());
  std::printf("Sample release at t=1 (true vs noisy, first 4 pages):\n");
  for (std::size_t p = 0; p < 4; ++p) {
    std::printf("  page%zu: %5.0f  ->  %8.2f\n", p + 1,
                (*releases)[0].true_values[p],
                (*releases)[0].noisy_values[p]);
  }
  std::printf("\nEmpirical mean absolute error across the stream: %.2f\n",
              MeanAbsoluteError(*releases));
  return 0;
}
