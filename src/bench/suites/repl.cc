// Replication throughput + failover (ISSUE 10): how fast a follower
// can drain a primary's WAL stream over loopback TCP, and how long
// promotion takes, against the local ingest rate as the bar.
//
//   * ingest: a durable 2-shard service applies the workload locally —
//     the rate the replication stream has to keep up with.
//   * stream: a follower bootstraps from the finished directory over
//     the log stream (deep pipelining: the primary pushes batches up
//     to its write-buffer bound without waiting for acks, >= 8 batches
//     in flight). The acceptance gate requires >= 50% of the local
//     ingest record rate (full runs on >= 2 cores — the tailer,
//     follower and its fdatasyncs timeslice one core otherwise).
//   * live_tail: the same follower shape attached DURING ingest —
//     convergence measured end to end (reported, not gated: it is
//     bounded by the slower of the two sides).
//   * failover: the primary dies, the follower promotes through crash
//     recovery; gated at a generous wall-clock bound.
//   * Correctness rides along in every mode: after convergence the
//     replica directory must be byte-identical to the primary's.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/suites/common.h"
#include "bench/suites/suites.h"
#include "common/timer.h"
#include "replication/follower.h"
#include "replication/log_stream.h"
#include "server/event_log.h"
#include "server/sharded_service.h"

namespace tcdp {
namespace bench {
namespace {

constexpr std::size_t kShards = 2;
constexpr std::size_t kBatchWindow = 16;

std::string ShardWal(const std::string& dir, std::size_t shard) {
  return dir + "/shard-" + std::to_string(shard) + ".wal";
}

StatusOr<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return Status::NotFound("cannot read " + path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

StatusOr<std::vector<std::uint64_t>> WalRecordCounts(
    const std::string& dir) {
  std::vector<std::uint64_t> counts;
  for (std::size_t s = 0; s < kShards; ++s) {
    TCDP_ASSIGN_OR_RETURN(auto read, server::ReadEventLog(ShardWal(dir, s)));
    counts.push_back(read.records.size());
  }
  return counts;
}

/// Applies the workload to a durable service at \p dir. Returns the
/// wall seconds for the timed request phase.
StatusOr<double> RunIngest(const ServiceWorkload& workload,
                           const std::string& dir) {
  std::filesystem::remove_all(dir);
  const auto profiles = MakeServiceProfiles(workload);
  const auto requests = MakeServiceRequests(workload);
  server::ShardedServiceOptions options;
  options.num_shards = kShards;
  options.batch_window = kBatchWindow;
  TCDP_ASSIGN_OR_RETURN(auto service,
                        server::ShardedReleaseService::Create(dir, options));
  for (std::size_t u = 0; u < workload.users; ++u) {
    TCDP_RETURN_IF_ERROR(
        service->Join(BenchUserName(u), profiles[u % workload.profiles]));
  }
  TCDP_RETURN_IF_ERROR(service->Flush());
  WallTimer timer;
  for (const ReleaseRequest& request : requests) {
    TCDP_RETURN_IF_ERROR(
        service->Release(BenchUserName(request.user), request.epsilon));
  }
  TCDP_RETURN_IF_ERROR(service->Flush());
  const double seconds = timer.ElapsedSeconds();
  TCDP_RETURN_IF_ERROR(service->Close());
  return seconds;
}

Status AwaitConverged(replication::Follower* follower,
                      const std::vector<std::uint64_t>& want) {
  for (int i = 0; i < 12000; ++i) {  // ~2 min ceiling
    const replication::FollowerStatus status = follower->status();
    if (status.diverged) {
      return Status::Internal("follower diverged: " +
                              status.last_error.message());
    }
    if (status.durable_records == want) return Status::OK();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return Status::Internal("follower never converged");
}

Status ExpectBitwiseIdentical(const std::string& primary,
                              const std::string& replica, bool* identical) {
  TCDP_ASSIGN_OR_RETURN(const std::string manifest_a,
                        ReadFileBytes(primary + "/MANIFEST"));
  TCDP_ASSIGN_OR_RETURN(const std::string manifest_b,
                        ReadFileBytes(replica + "/MANIFEST"));
  *identical = manifest_a == manifest_b;
  for (std::size_t s = 0; *identical && s < kShards; ++s) {
    TCDP_ASSIGN_OR_RETURN(const std::string a,
                          ReadFileBytes(ShardWal(primary, s)));
    TCDP_ASSIGN_OR_RETURN(const std::string b,
                          ReadFileBytes(ShardWal(replica, s)));
    *identical = a == b;
  }
  return Status::OK();
}

struct StreamResult {
  double seconds = 0.0;          ///< subscribe -> fully acked
  double failover_seconds = 0.0; ///< Promote() wall time
  bool bitwise_identical = false;
};

/// Bootstraps a follower from \p primary_dir over a live log stream,
/// then kills the stream and promotes.
StatusOr<StreamResult> RunStream(const std::string& primary_dir,
                                 const std::string& replica_dir) {
  std::filesystem::remove_all(replica_dir);
  TCDP_ASSIGN_OR_RETURN(const std::vector<std::uint64_t> want,
                        WalRecordCounts(primary_dir));
  replication::LogStreamOptions stream_options;
  stream_options.log_dir = primary_dir;
  TCDP_ASSIGN_OR_RETURN(auto stream,
                        replication::LogStreamServer::Listen(stream_options));
  Status serve_status;
  std::thread serve_thread(
      [&stream, &serve_status] { serve_status = stream->Serve(); });

  replication::FollowerOptions options;
  options.primary_port = stream->port();
  options.log_dir = replica_dir;
  StreamResult result;
  Status inner = Status::OK();
  auto follower = replication::Follower::Open(options);
  if (!follower.ok()) inner = follower.status();
  if (inner.ok()) {
    WallTimer timer;
    inner = (*follower)->Start();
    if (inner.ok()) inner = AwaitConverged(follower->get(), want);
    result.seconds = timer.ElapsedSeconds();
  }
  stream->Stop();
  serve_thread.join();
  TCDP_RETURN_IF_ERROR(inner);
  TCDP_RETURN_IF_ERROR(serve_status);

  TCDP_RETURN_IF_ERROR(ExpectBitwiseIdentical(primary_dir, replica_dir,
                                              &result.bitwise_identical));
  // The primary is gone; promote the replica through crash recovery.
  WallTimer failover;
  TCDP_ASSIGN_OR_RETURN(auto promoted, (*follower)->Promote());
  result.failover_seconds = failover.ElapsedSeconds();
  TCDP_RETURN_IF_ERROR(promoted->Close());
  return result;
}

/// Ingest with the follower attached from the start: end-to-end
/// seconds until the replica has acked everything.
StatusOr<double> RunLiveTail(const ServiceWorkload& workload,
                             const std::string& primary_dir,
                             const std::string& replica_dir) {
  std::filesystem::remove_all(primary_dir);
  std::filesystem::remove_all(replica_dir);
  const auto profiles = MakeServiceProfiles(workload);
  const auto requests = MakeServiceRequests(workload);
  server::ShardedServiceOptions options;
  options.num_shards = kShards;
  options.batch_window = kBatchWindow;
  TCDP_ASSIGN_OR_RETURN(
      auto service,
      server::ShardedReleaseService::Create(primary_dir, options));
  replication::LogStreamOptions stream_options;
  stream_options.log_dir = primary_dir;
  TCDP_ASSIGN_OR_RETURN(auto stream,
                        replication::LogStreamServer::Listen(stream_options));
  Status serve_status;
  std::thread serve_thread(
      [&stream, &serve_status] { serve_status = stream->Serve(); });
  replication::FollowerOptions follower_options;
  follower_options.primary_port = stream->port();
  follower_options.log_dir = replica_dir;
  double seconds = 0.0;
  Status inner = Status::OK();
  auto follower = replication::Follower::Open(follower_options);
  if (!follower.ok()) inner = follower.status();
  if (inner.ok()) inner = (*follower)->Start();
  if (inner.ok()) {
    WallTimer timer;
    for (std::size_t u = 0; inner.ok() && u < workload.users; ++u) {
      inner = service->Join(BenchUserName(u),
                            profiles[u % workload.profiles]);
    }
    if (inner.ok()) inner = service->Flush();
    for (const ReleaseRequest& request : requests) {
      if (!inner.ok()) break;
      inner = service->Release(BenchUserName(request.user), request.epsilon);
    }
    if (inner.ok()) inner = service->Flush();
    if (inner.ok()) {
      auto want = WalRecordCounts(primary_dir);
      if (!want.ok()) {
        inner = want.status();
      } else {
        inner = AwaitConverged(follower->get(), *want);
      }
    }
    seconds = timer.ElapsedSeconds();
    (*follower)->Stop();
  }
  stream->Stop();
  serve_thread.join();
  TCDP_RETURN_IF_ERROR(inner);
  TCDP_RETURN_IF_ERROR(serve_status);
  TCDP_RETURN_IF_ERROR(service->Close());
  return seconds;
}

Status RunSuite(SuiteContext* ctx) {
  ServiceWorkload workload;
  workload.users = ctx->smoke() ? 16 : 64;
  workload.profiles = ctx->smoke() ? 4 : 8;
  workload.matrix_size = ctx->smoke() ? 6 : 8;
  workload.requests = ctx->smoke() ? 200 : 1500;

  const std::string base =
      (std::filesystem::temp_directory_path() / "tcdp_bench_repl").string();
  const std::string primary_dir = base + "_primary";
  const std::string replica_dir = base + "_replica";
  const std::string live_primary_dir = base + "_live_primary";
  const std::string live_replica_dir = base + "_live_replica";

  // The stream pushes batches up to its write-buffer bound without
  // waiting for acks: the effective pipeline depth in batches.
  const double pipeline_depth =
      static_cast<double>(replication::LogStreamServer::kMaxWriteBuffer /
                          replication::LogStreamServer::kMaxBatchBytes);

  auto params = [&](double extra_depth) {
    return std::map<std::string, double>{
        {"users", static_cast<double>(workload.users)},
        {"requests", static_cast<double>(workload.requests)},
        {"shards", static_cast<double>(kShards)},
        {"batch_window", static_cast<double>(kBatchWindow)},
        {"pipeline_depth", extra_depth}};
  };

  TCDP_ASSIGN_OR_RETURN(const double ingest_seconds,
                        RunIngest(workload, primary_dir));
  TCDP_ASSIGN_OR_RETURN(const std::vector<std::uint64_t> counts,
                        WalRecordCounts(primary_dir));
  double total_records = 0.0;
  for (std::uint64_t count : counts) {
    total_records += static_cast<double>(count);
  }
  const double ingest_rate =
      ingest_seconds > 0.0 ? total_records / ingest_seconds : 0.0;
  ctx->Record("ingest", params(0),
              {{"seconds", ingest_seconds},
               {"records_per_sec", ingest_rate}});

  TCDP_ASSIGN_OR_RETURN(const StreamResult stream,
                        RunStream(primary_dir, replica_dir));
  const double stream_rate =
      stream.seconds > 0.0 ? total_records / stream.seconds : 0.0;
  ctx->Record("stream", params(pipeline_depth),
              {{"seconds", stream.seconds},
               {"records_per_sec", stream_rate},
               {"failover_seconds", stream.failover_seconds}});

  TCDP_ASSIGN_OR_RETURN(
      const double live_seconds,
      RunLiveTail(workload, live_primary_dir, live_replica_dir));
  ctx->Record("live_tail", params(pipeline_depth),
              {{"seconds", live_seconds},
               {"records_per_sec",
                live_seconds > 0.0 ? total_records / live_seconds : 0.0}});

  ctx->Derived("repl_throughput_ratio",
               ingest_rate > 0.0 ? stream_rate / ingest_rate : 0.0);
  ctx->Derived("failover_seconds", stream.failover_seconds);
  ctx->Derived("bitwise_identical", stream.bitwise_identical ? 1.0 : 0.0);
  ctx->Derived("stream_pipeline_depth", pipeline_depth);

  for (const std::string& dir :
       {primary_dir, replica_dir, live_primary_dir, live_replica_dir}) {
    std::filesystem::remove_all(dir);
  }
  return Status::OK();
}

}  // namespace

void RegisterReplSuite(Harness* harness) {
  SuiteSpec spec;
  spec.name = "repl";
  spec.description =
      "WAL-streaming replication: follower drain rate vs local ingest, "
      "byte-identical convergence, and failover (promotion) time";
  spec.metric_policies = {
      {"records_per_sec", MetricPolicy::Throughput()},
      {"seconds", MetricPolicy::Latency()},
      {"failover_seconds", MetricPolicy::Latency()},
  };
  spec.gates = {
      // Correctness in every mode: the replica is the primary's bytes.
      {"follower_bitwise_identical", "bitwise_identical == 1"},
      // The stream must admit a deep pipeline (>= 8 batches in flight).
      {"stream_pipeline_at_least_8", "stream_pipeline_depth >= 8"},
      // ISSUE 10 acceptance: streaming sustains >= 50% of local ingest
      // at pipeline depth >= 8. Timing-based — meaningless when the
      // tailer, follower, and both fdatasync paths share one core.
      {"stream_at_least_half_of_ingest", "repl_throughput_ratio >= 0.5",
       /*min_cores=*/2, /*full_only=*/true},
      // Promotion is crash recovery over a small replica: a generous
      // absolute bound still catches a promotion path that re-streams
      // or re-derives the world.
      {"failover_under_five_seconds", "failover_seconds <= 5"},
  };
  harness->Register(std::move(spec), RunSuite);
}

}  // namespace bench
}  // namespace tcdp
