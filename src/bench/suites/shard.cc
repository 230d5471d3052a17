// Sharded release service throughput + recovery (ported from the
// standalone bench_shard_service emitter):
//
//   * requests/sec over a shard-count x batch-window grid against a
//     single-threaded AccountantBank driven with the identical batched
//     event sequence (PR 3 acceptance: best multi-shard beats the
//     baseline on >= 2 cores, full runs only).
//   * recovery time and disk footprint vs WAL length: full replay vs
//     snapshot + suffix vs a compacted log — compaction must shrink
//     the on-disk WAL in every mode (the workload is deterministic).
//
// Bitwise service/baseline alpha equality is gated in every mode.

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/suites/common.h"
#include "bench/suites/suites.h"
#include "common/timer.h"
#include "core/accountant_bank.h"
#include "server/sharded_service.h"

namespace tcdp {
namespace bench {
namespace {

struct RunResult {
  double seconds = 0.0;
  double requests_per_sec = 0.0;
  double overall_alpha = 0.0;
  std::size_t global_releases = 0;
};

/// One inline bank, no shards, no queue, no WAL: the bar the sharded
/// service has to clear. (The record keeps its historical name,
/// `fleet_engine_baseline`, so baseline diffs line up.)
StatusOr<RunResult> RunBankBaseline(const ServiceWorkload& workload,
                                    std::size_t batch_window) {
  const auto profiles = MakeServiceProfiles(workload);
  const auto requests = MakeServiceRequests(workload);
  const auto releases = BatchServiceRequests(requests, batch_window);
  AccountantBank bank;
  for (std::size_t u = 0; u < workload.users; ++u) {
    bank.AddUser(profiles[u % workload.profiles]);
  }
  WallTimer timer;
  for (const GlobalRelease& release : releases) {
    TCDP_RETURN_IF_ERROR(
        bank.RecordRelease(release.epsilon, release.participants));
  }
  RunResult result;
  result.seconds = timer.ElapsedSeconds();
  result.requests_per_sec =
      result.seconds > 0.0
          ? static_cast<double>(requests.size()) / result.seconds
          : 0.0;
  result.overall_alpha = bank.OverallAlpha();
  result.global_releases = releases.size();
  return result;
}

StatusOr<RunResult> RunService(const ServiceWorkload& workload,
                               std::size_t shards, std::size_t batch_window,
                               const std::string& log_dir,
                               std::size_t threads_per_shard = 1) {
  const auto profiles = MakeServiceProfiles(workload);
  const auto requests = MakeServiceRequests(workload);
  server::ShardedServiceOptions options;
  options.num_shards = shards;
  options.batch_window = batch_window;
  options.threads_per_shard = threads_per_shard;
  TCDP_ASSIGN_OR_RETURN(
      auto service, server::ShardedReleaseService::Create(log_dir, options));
  for (std::size_t u = 0; u < workload.users; ++u) {
    TCDP_RETURN_IF_ERROR(
        service->Join(BenchUserName(u), profiles[u % workload.profiles]));
  }
  TCDP_RETURN_IF_ERROR(service->Flush());  // joins applied before timing
  WallTimer timer;
  for (const ReleaseRequest& request : requests) {
    TCDP_RETURN_IF_ERROR(
        service->Release(BenchUserName(request.user), request.epsilon));
  }
  TCDP_RETURN_IF_ERROR(service->Flush());
  RunResult result;
  result.seconds = timer.ElapsedSeconds();
  result.requests_per_sec =
      result.seconds > 0.0
          ? static_cast<double>(requests.size()) / result.seconds
          : 0.0;
  TCDP_ASSIGN_OR_RETURN(result.overall_alpha, service->OverallAlpha());
  result.global_releases = service->stats().global_releases;
  TCDP_RETURN_IF_ERROR(service->Close());
  return result;
}

Status RunSuite(SuiteContext* ctx) {
  ServiceWorkload workload;
  workload.users = ctx->smoke() ? 32 : 256;
  workload.profiles = ctx->smoke() ? 4 : 16;
  workload.matrix_size = ctx->smoke() ? 6 : 16;
  workload.requests = ctx->smoke() ? 120 : 1000;

  const std::size_t batch_window = ctx->smoke() ? 8 : 16;
  const std::vector<std::size_t> shard_counts =
      ctx->smoke() ? std::vector<std::size_t>{1, 2}
                   : std::vector<std::size_t>{1, 2, 4};
  const std::vector<std::size_t> windows =
      ctx->smoke() ? std::vector<std::size_t>{batch_window}
                   : std::vector<std::size_t>{batch_window, 64};

  auto params = [&](std::size_t shards, std::size_t window,
                    std::size_t threads_per_shard = 1) {
    return std::map<std::string, double>{
        {"users", static_cast<double>(workload.users)},
        {"profiles", static_cast<double>(workload.profiles)},
        {"matrix_size", static_cast<double>(workload.matrix_size)},
        {"requests", static_cast<double>(workload.requests)},
        {"shards", static_cast<double>(shards)},
        {"batch_window", static_cast<double>(window)},
        {"threads_per_shard", static_cast<double>(threads_per_shard)}};
  };
  auto metrics = [](const RunResult& run) {
    return std::map<std::string, double>{
        {"seconds", run.seconds},
        {"requests_per_sec", run.requests_per_sec},
        {"global_releases", static_cast<double>(run.global_releases)}};
  };

  TCDP_ASSIGN_OR_RETURN(const RunResult baseline,
                        RunBankBaseline(workload, batch_window));
  ctx->Record("fleet_engine_baseline", params(1, batch_window),
              metrics(baseline));

  bool alpha_match = true;
  double best_multi_shard = 0.0;
  for (std::size_t window : windows) {
    for (std::size_t shards : shard_counts) {
      TCDP_ASSIGN_OR_RETURN(const RunResult run,
                            RunService(workload, shards, window, ""));
      ctx->Record("service_shards" + std::to_string(shards) + "_window" +
                      std::to_string(window),
                  params(shards, window), metrics(run));
      // Only same-window runs count toward the gate: a coarser window
      // does less accounting work per request and would flatter the
      // comparison.
      if (shards > 1 && window == batch_window) {
        best_multi_shard = std::max(best_multi_shard, run.requests_per_sec);
      }
      // Determinism: every same-window configuration must agree with
      // the baseline on the fleet's overall alpha, bitwise.
      if (window == batch_window) {
        alpha_match &= run.overall_alpha == baseline.overall_alpha;
      }
    }
  }
  // Hybrid shard x bank parallelism: fixed shard count, per-shard bank
  // pools of K threads. Every hybrid run joins the bitwise alpha gate;
  // the speedup gate compares against the K=1 run of the SAME shard
  // count (the shard-count speedup is gated separately above).
  const std::size_t hybrid_shards = 2;
  const std::vector<std::size_t> hybrid_threads =
      ctx->smoke() ? std::vector<std::size_t>{1, 2}
                   : std::vector<std::size_t>{1, 2, 4};
  double hybrid_single = 0.0;
  double hybrid_best = 0.0;
  for (std::size_t tps : hybrid_threads) {
    TCDP_ASSIGN_OR_RETURN(
        const RunResult run,
        RunService(workload, hybrid_shards, batch_window, "", tps));
    ctx->Record("service_hybrid_shards" + std::to_string(hybrid_shards) +
                    "_tps" + std::to_string(tps),
                params(hybrid_shards, batch_window, tps), metrics(run));
    alpha_match &= run.overall_alpha == baseline.overall_alpha;
    if (tps == 1) {
      hybrid_single = run.requests_per_sec;
    } else {
      hybrid_best = std::max(hybrid_best, run.requests_per_sec);
    }
  }
  ctx->Derived("alpha_match", alpha_match ? 1.0 : 0.0);
  ctx->Derived("multi_shard_speedup",
               baseline.requests_per_sec > 0.0
                   ? best_multi_shard / baseline.requests_per_sec
                   : 0.0);
  ctx->Derived("hybrid_speedup",
               hybrid_single > 0.0 ? hybrid_best / hybrid_single : 0.0);

  // Durable run + recovery scaling: half and full logs, full log with
  // snapshots cutting the replay, and the snapshotted log after a WAL
  // compaction.
  const std::string base_dir =
      (std::filesystem::temp_directory_path() / "tcdp_bench_shard_logs")
          .string();
  struct RecoveryCase {
    const char* name;
    std::size_t requests;
    std::size_t snapshot_every;
    bool compact;
  };
  const RecoveryCase cases[] = {
      {"half_log", workload.requests / 2, 0, false},
      {"full_log", workload.requests, 0, false},
      {"full_log_snapshots", workload.requests, 25, false},
      {"full_log_compacted", workload.requests, 25, true},
  };
  std::uint64_t snapshotted_bytes = 0;
  std::uint64_t compacted_bytes = 0;
  for (const RecoveryCase& c : cases) {
    std::filesystem::remove_all(base_dir);
    ServiceWorkload durable = workload;
    durable.requests = c.requests;
    double compact_seconds = 0.0;
    {
      const auto profiles = MakeServiceProfiles(durable);
      const auto requests = MakeServiceRequests(durable);
      server::ShardedServiceOptions options;
      options.num_shards = 2;
      options.batch_window = batch_window;
      options.snapshot_every = c.snapshot_every;
      TCDP_ASSIGN_OR_RETURN(
          auto service,
          server::ShardedReleaseService::Create(base_dir, options));
      for (std::size_t u = 0; u < durable.users; ++u) {
        TCDP_RETURN_IF_ERROR(
            service->Join(BenchUserName(u), profiles[u % durable.profiles]));
      }
      for (const ReleaseRequest& request : requests) {
        TCDP_RETURN_IF_ERROR(
            service->Release(BenchUserName(request.user), request.epsilon));
      }
      if (c.compact) {
        TCDP_RETURN_IF_ERROR(service->Flush());
        WallTimer compact_timer;
        TCDP_RETURN_IF_ERROR(service->Compact());
        compact_seconds = compact_timer.ElapsedSeconds();
      }
      TCDP_RETURN_IF_ERROR(service->Close());
    }
    std::uint64_t wal_records = 0;
    std::uint64_t wal_physical_records = 0;
    std::uint64_t wal_bytes = 0;
    {
      TCDP_ASSIGN_OR_RETURN(auto probe,
                            server::ShardedReleaseService::Recover(base_dir));
      for (std::size_t s = 0; s < probe->num_shards(); ++s) {
        const server::ShardStats stats = probe->shard_stats(s);
        wal_records += stats.wal_records;
        wal_physical_records += stats.wal_physical_records;
        wal_bytes += stats.wal_bytes;
      }
      TCDP_RETURN_IF_ERROR(probe->Close());
    }
    if (std::string(c.name) == "full_log_snapshots") {
      snapshotted_bytes = wal_bytes;
    }
    if (c.compact) compacted_bytes = wal_bytes;
    WallTimer recover_timer;
    TCDP_ASSIGN_OR_RETURN(auto recovered,
                          server::ShardedReleaseService::Recover(base_dir));
    const double recover_seconds = recover_timer.ElapsedSeconds();
    TCDP_RETURN_IF_ERROR(recovered->Close());
    ctx->Record(
        std::string("recovery_") + c.name,
        {{"requests", static_cast<double>(c.requests)},
         {"snapshot_every", static_cast<double>(c.snapshot_every)},
         {"compacted", c.compact ? 1.0 : 0.0}},
        {{"wal_records", static_cast<double>(wal_records)},
         {"wal_physical_records", static_cast<double>(wal_physical_records)},
         {"wal_bytes", static_cast<double>(wal_bytes)},
         {"recover_seconds", recover_seconds},
         {"compact_seconds", compact_seconds}});
  }
  std::filesystem::remove_all(base_dir);
  ctx->Derived("uncompacted_wal_bytes",
               static_cast<double>(snapshotted_bytes));
  ctx->Derived("compacted_wal_bytes", static_cast<double>(compacted_bytes));
  return Status::OK();
}

}  // namespace

void RegisterShardSuite(Harness* harness) {
  SuiteSpec spec;
  spec.name = "shard";
  spec.description =
      "sharded release service: requests/sec vs a one-thread bank baseline "
      "over a shard x batch-window grid, WAL recovery and compaction";
  spec.metric_policies = {
      {"requests_per_sec", MetricPolicy::Throughput()},
      {"seconds", MetricPolicy::Latency()},
      {"recover_seconds", MetricPolicy::Latency()},
      {"compact_seconds", MetricPolicy::Latency()},
      // The workload is deterministic, so the log layout is too.
      {"global_releases", MetricPolicy::Exact()},
      {"wal_records", MetricPolicy::Exact()},
      {"wal_physical_records", MetricPolicy::Exact()},
      {"wal_bytes", MetricPolicy::Exact()},
  };
  spec.gates = {
      // Determinism: sharding must not change the fleet's accounting.
      {"alpha_bitwise_invariant", "alpha_match == 1"},
      // ISSUE 5 acceptance: a compacted log is strictly smaller than
      // the same log uncompacted. Deterministic, so always enforced.
      {"compaction_shrinks_wal",
       "compacted_wal_bytes > 0 && "
       "compacted_wal_bytes < uncompacted_wal_bytes"},
      // Acceptance: best multi-shard beats the inline bank (the gate
      // keeps its historical name for baseline diffs). Meaningless on a
      // 1-core host (workers and the ingest loop timeslice one pipe) —
      // min_cores makes the harness skip with that reason instead of
      // failing.
      {"multi_shard_beats_fleet_engine", "multi_shard_speedup > 1",
       /*min_cores=*/2, /*full_only=*/true},
      // ISSUE 7 acceptance: per-shard bank pools pay — S shards x K
      // bank threads beats the same shard count at K=1 by >= 1.5x.
      // Needs S x K real cores to mean anything; skipped below 4.
      {"hybrid_beats_single_thread_per_shard", "hybrid_speedup >= 1.5",
       /*min_cores=*/4, /*full_only=*/true},
  };
  harness->Register(std::move(spec), RunSuite);
}

}  // namespace bench
}  // namespace tcdp
