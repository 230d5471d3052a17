// Fleet accountant-bank throughput (ported from the standalone
// bench_fleet_throughput emitter; workloads and acceptance gates
// unchanged):
//
//   uniform — 1000 users sharing ONE n=16 transition matrix: cohort
//             batching + the loss cache remove nearly all solve work;
//             cached must stay >= 5x the per-user AoS baseline.
//   hetero  — many cohorts of DISTINCT matrices under a sparse
//             schedule: per-release work is real, and multi-threaded
//             recording must beat 1 thread (full runs on >= 2 cores).
//
// Bitwise serial/parallel equality is gated in every mode.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench/suites/suites.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/accountant_bank.h"
#include "core/tpl_accountant.h"
#include "workload/generators.h"

namespace tcdp {
namespace bench {
namespace {

struct FleetWorkload {
  std::string name;
  std::size_t users = 0;
  std::size_t cohorts = 0;      // distinct matrix pairs
  std::size_t matrix_size = 0;  // n
  std::size_t horizon = 0;
  double sparsity = 0.0;  // per-user skip probability per release
  double epsilon = 0.1;
  std::uint64_t seed = 20260728;
};

struct FleetRun {
  std::size_t threads = 0;
  double seconds = 0.0;
  double users_per_sec = 0.0;
  double overall_alpha = 0.0;
  std::vector<double> tpl_user0;
};

StatusOr<std::vector<TemporalCorrelations>> MakeProfiles(
    const FleetWorkload& workload) {
  std::vector<TemporalCorrelations> profiles;
  Rng rng(workload.seed);
  for (std::size_t c = 0; c < workload.cohorts; ++c) {
    StochasticMatrix m;
    if (workload.cohorts == 1) {
      TCDP_ASSIGN_OR_RETURN(m, ClickstreamModel(workload.matrix_size));
    } else {
      m = StochasticMatrix::Random(workload.matrix_size, &rng);
    }
    TCDP_ASSIGN_OR_RETURN(auto corr, TemporalCorrelations::Both(m, m));
    profiles.push_back(std::move(corr));
  }
  return profiles;
}

double UsersPerSecond(const FleetWorkload& workload, double seconds) {
  return seconds > 0.0
             ? static_cast<double>(workload.users * workload.horizon) /
                   seconds
             : 0.0;
}

/// The pre-bank array-of-structs reference: one standalone accountant
/// per user — what every release cost before cohort batching.
StatusOr<FleetRun> RunAosBaseline(const FleetWorkload& workload) {
  TCDP_ASSIGN_OR_RETURN(const auto profiles, MakeProfiles(workload));
  std::vector<TplAccountant> population;
  population.reserve(workload.users);
  for (std::size_t u = 0; u < workload.users; ++u) {
    population.emplace_back(profiles[u % workload.cohorts]);
  }
  WallTimer timer;
  for (std::size_t t = 0; t < workload.horizon; ++t) {
    for (TplAccountant& user : population) {
      TCDP_RETURN_IF_ERROR(user.RecordRelease(workload.epsilon));
    }
  }
  FleetRun run;
  run.threads = 1;
  run.seconds = timer.ElapsedSeconds();
  run.users_per_sec = UsersPerSecond(workload, run.seconds);
  for (const TplAccountant& user : population) {
    run.overall_alpha = std::max(run.overall_alpha, user.MaxTpl());
  }
  run.tpl_user0 = population.front().TplSeries();
  return run;
}

StatusOr<FleetRun> RunFleet(const FleetWorkload& workload, bool use_cache,
                            std::size_t threads) {
  AccountantBankOptions options;
  options.share_loss_cache = use_cache;
  AccountantBank bank(options);
  // 0 threads = hardware concurrency; 1 runs the per-user loop inline.
  std::unique_ptr<ThreadPool> pool;
  if (threads != 1) {
    pool = std::make_unique<ThreadPool>(threads);
    bank.set_pool(pool.get());
  }
  TCDP_ASSIGN_OR_RETURN(const auto profiles, MakeProfiles(workload));
  for (std::size_t u = 0; u < workload.users; ++u) {
    bank.AddUser(profiles[u % workload.cohorts]);
  }
  // Participation masks are regenerated identically for every thread
  // count (seeded independently of the matrix stream). Only the
  // RecordRelease calls are timed, not mask generation.
  Rng mask_rng(workload.seed + 1);
  std::vector<std::size_t> participants;
  FleetRun run;
  for (std::size_t t = 0; t < workload.horizon; ++t) {
    if (workload.sparsity > 0.0) {
      participants.clear();
      for (std::size_t u = 0; u < workload.users; ++u) {
        if (mask_rng.Uniform() >= workload.sparsity) {
          participants.push_back(u);
        }
      }
    }
    WallTimer timer;
    TCDP_RETURN_IF_ERROR(
        workload.sparsity > 0.0
            ? bank.RecordRelease(workload.epsilon, participants)
            : bank.RecordRelease(workload.epsilon));
    run.seconds += timer.ElapsedSeconds();
  }
  run.threads = threads;
  run.users_per_sec = UsersPerSecond(workload, run.seconds);
  run.overall_alpha = bank.OverallAlpha();
  run.tpl_user0 = bank.TplSeriesFor(0);
  return run;
}

std::map<std::string, double> Params(const FleetWorkload& workload,
                                     bool cache, std::size_t threads) {
  return {{"users", static_cast<double>(workload.users)},
          {"cohorts", static_cast<double>(workload.cohorts)},
          {"matrix_size", static_cast<double>(workload.matrix_size)},
          {"horizon", static_cast<double>(workload.horizon)},
          {"sparsity", workload.sparsity},
          {"cache", cache ? 1.0 : 0.0},
          {"threads", static_cast<double>(threads)}};
}

std::map<std::string, double> Metrics(const FleetRun& run) {
  return {{"seconds", run.seconds},
          {"users_per_sec", run.users_per_sec},
          {"overall_alpha", run.overall_alpha}};
}

Status RunSuite(SuiteContext* ctx) {
  FleetWorkload uniform;
  uniform.name = "uniform";
  uniform.users = ctx->smoke() ? 60 : 1000;
  uniform.cohorts = 1;
  uniform.matrix_size = 16;
  uniform.horizon = ctx->smoke() ? 6 : 24;

  FleetWorkload hetero;
  hetero.name = "hetero";
  hetero.users = ctx->smoke() ? 48 : 960;
  hetero.cohorts = ctx->smoke() ? 8 : 48;
  hetero.matrix_size = ctx->smoke() ? 8 : 16;
  hetero.horizon = ctx->smoke() ? 4 : 10;
  hetero.sparsity = 0.35;

  // Regime 1: uniform fleet — cohort batching collapses the fleet's
  // identical solves into one per release; the AoS baseline shows what
  // that saved.
  TCDP_ASSIGN_OR_RETURN(const FleetRun aos, RunAosBaseline(uniform));
  TCDP_ASSIGN_OR_RETURN(const FleetRun uncached,
                        RunFleet(uniform, /*use_cache=*/false, 1));
  TCDP_ASSIGN_OR_RETURN(const FleetRun cached,
                        RunFleet(uniform, /*use_cache=*/true, 1));
  TCDP_ASSIGN_OR_RETURN(const FleetRun cached_par,
                        RunFleet(uniform, /*use_cache=*/true, 0));
  ctx->Record("uniform_aos_baseline", Params(uniform, false, 1),
              Metrics(aos));
  ctx->Record("uniform_bank_uncached", Params(uniform, false, 1),
              Metrics(uncached));
  ctx->Record("uniform_bank_cached", Params(uniform, true, 1),
              Metrics(cached));
  ctx->Record("uniform_bank_cached_parallel", Params(uniform, true, 0),
              Metrics(cached_par));
  ctx->Derived("cached_speedup",
               aos.users_per_sec > 0.0
                   ? cached.users_per_sec / aos.users_per_sec
                   : 0.0);
  ctx->Derived("uniform_series_match",
               (cached.tpl_user0 == cached_par.tpl_user0 &&
                cached.overall_alpha == cached_par.overall_alpha)
                   ? 1.0
                   : 0.0);

  // Regime 2: heterogeneous cohorts + sparse schedules — the workload
  // where per-release work is real and parallelism must pay.
  const std::vector<std::size_t> thread_counts =
      ctx->smoke() ? std::vector<std::size_t>{1, 2}
                   : std::vector<std::size_t>{1, 2, 4};
  double serial_ups = 0.0;
  double best_parallel_ups = 0.0;
  std::vector<double> serial_tpl0;
  double serial_alpha = 0.0;
  bool hetero_match = true;
  for (std::size_t threads : thread_counts) {
    TCDP_ASSIGN_OR_RETURN(const FleetRun run,
                          RunFleet(hetero, /*use_cache=*/true, threads));
    ctx->Record("hetero_threads" + std::to_string(threads),
                Params(hetero, true, threads), Metrics(run));
    if (threads == 1) {
      serial_ups = run.users_per_sec;
      serial_tpl0 = run.tpl_user0;
      serial_alpha = run.overall_alpha;
    } else {
      best_parallel_ups = std::max(best_parallel_ups, run.users_per_sec);
      hetero_match &= run.tpl_user0 == serial_tpl0 &&
                      run.overall_alpha == serial_alpha;
    }
  }
  ctx->Derived("hetero_series_match", hetero_match ? 1.0 : 0.0);
  ctx->Derived("parallel_speedup",
               serial_ups > 0.0 ? best_parallel_ups / serial_ups : 0.0);

  // Regime 3: bulk enrollment. AddUser used to rebuild the flat-slot
  // offset table eagerly — O(cohorts) per user, O(users x cohorts) for
  // a fleet join — and now just marks it dirty (rebuilt lazily by the
  // first release). Enrolling 4x the users into 4x the cohorts must
  // therefore cost ~4x, not ~16x; the gate allows generous slack for
  // hashing noise but fails the quadratic regime outright.
  {
    const std::size_t base_users = ctx->smoke() ? 3000 : 12000;
    const std::size_t base_cohorts = ctx->smoke() ? 750 : 3000;
    double base_seconds = 0.0;
    double scaled_seconds = 0.0;
    for (const std::size_t scale : {std::size_t{1}, std::size_t{4}}) {
      const std::size_t users = base_users * scale;
      const std::size_t cohorts = base_cohorts * scale;
      // Distinct tiny matrices (built outside the timer) force one
      // cohort per profile; the timed loop is pure enrollment.
      std::vector<TemporalCorrelations> profiles;
      profiles.reserve(cohorts);
      Rng rng(20260808 + scale);
      for (std::size_t c = 0; c < cohorts; ++c) {
        const StochasticMatrix m = StochasticMatrix::Random(2, &rng);
        TCDP_ASSIGN_OR_RETURN(auto corr, TemporalCorrelations::Both(m, m));
        profiles.push_back(std::move(corr));
      }
      const double seconds = ctx->TimeBestOf([&] {
        AccountantBank bank;
        for (std::size_t u = 0; u < users; ++u) {
          bank.AddUser(profiles[u % cohorts]);
        }
      });
      ctx->Record("enroll_" + std::to_string(users) + "users",
                  {{"users", static_cast<double>(users)},
                   {"cohorts", static_cast<double>(cohorts)}},
                  {{"seconds", seconds},
                   {"users_per_sec",
                    seconds > 0.0 ? static_cast<double>(users) / seconds
                                  : 0.0}});
      if (scale == 1) {
        base_seconds = seconds;
      } else {
        scaled_seconds = seconds;
      }
    }
    // Linear enrollment -> ratio ~4; the old eager rebuild -> ~16.
    ctx->Derived("enroll_scaling_ratio",
                 base_seconds > 0.0 ? scaled_seconds / base_seconds : 0.0);
  }
  return Status::OK();
}

}  // namespace

void RegisterFleetSuite(Harness* harness) {
  SuiteSpec spec;
  spec.name = "fleet";
  spec.description =
      "accountant-bank throughput: uniform cached fleet vs AoS baseline, "
      "heterogeneous sparse cohorts by thread count";
  spec.metric_policies = {
      {"users_per_sec", MetricPolicy::Throughput()},
      {"seconds", MetricPolicy::Latency()},
      {"overall_alpha", MetricPolicy::Exact()},
  };
  spec.gates = {
      // Bitwise determinism: parallel recording must not change any
      // series, in every mode.
      {"serial_parallel_bitwise",
       "uniform_series_match == 1 && hetero_series_match == 1"},
      // PR-1 acceptance bar: the cached bank stays >= 5x the per-user
      // AoS baseline (timing-based: full runs only).
      {"cached_speedup_vs_aos_baseline", "cached_speedup >= 5",
       /*min_cores=*/0, /*full_only=*/true},
      // ROADMAP success condition: parallelism pays on the hetero
      // workload — meaningless on a 1-core host, so the spec encodes
      // the requirement and the harness skips with a reason there.
      {"parallel_beats_serial", "parallel_speedup > 1",
       /*min_cores=*/2, /*full_only=*/true},
      // ISSUE 7 satellite: bulk enrollment is linear. 4x users into 4x
      // cohorts costs ~4x (the eager offset rebuild made it ~16x); 10
      // leaves room for allocator/hash noise while rejecting quadratic.
      {"enrollment_not_quadratic",
       "enroll_scaling_ratio > 0 && enroll_scaling_ratio < 10",
       /*min_cores=*/0, /*full_only=*/true},
  };
  harness->Register(std::move(spec), RunSuite);
}

}  // namespace bench
}  // namespace tcdp
