#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "bench/suites/common.h"
#include "core/tpl_accountant.h"
#include "server/sharded_service.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using tcdp::net::Frame;
using tcdp::net::MsgType;

/// A run whose generator framed its ops later than this (p99 over the
/// open-loop slices) fell behind its schedule and is invalid.
constexpr double kMaxLateMs = 20.0;
/// Set-ups per measured run; setup_s is their median.
constexpr int kSetUps = 5;
/// Unmeasured warm-up at the reference rate before anything is timed.
constexpr double kWarmupSeconds = 1.0;
/// A measured round: an open-loop slice of kSliceSeconds, one burst and
/// kQueriesPerRound idle queries; a run has --seconds / kRoundSeconds.
constexpr double kSliceSeconds = 1.0;
constexpr double kRoundSeconds = 1.5;
constexpr std::size_t kQueriesPerRound = 8;
/// Seed of every workload's correlation profiles.
constexpr std::uint64_t kProfileSeed = 2017;
/// The traced run's query probe (workloads whose mix has no queries):
/// 10 queries/s for this share of --seconds.
constexpr double kProbeShare = 0.15;
constexpr double kProbeRate = 10.0;
/// Keep every n-th query report of the mix for verification.
constexpr std::size_t kVerifyEvery = 64;

}  // namespace

StatusOr<Workload> FindWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "ingest") {
    w.users = 10000;
    w.profiles = 8;
    w.matrix_n = 16;
    w.epsilons = {0.05, 0.1, 0.2};
    w.connections = 2;
    w.flush_every = 256;
    w.reference_rate = 8000;
    w.burst_ops = 8192;
  } else if (name == "budget_check") {
    w.users = 2000;
    w.profiles = 64;
    w.matrix_n = 8;
    w.epsilons = {0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5};
    w.connections = 1;
    w.query_share = 0.2;
    w.flush_every = 16;
    w.reference_rate = 800;
    w.burst_ops = 512;
  } else if (name == "durable") {
    w.users = 2000;
    w.profiles = 8;
    w.matrix_n = 8;
    w.epsilons = {0.05, 0.1, 0.2};
    w.connections = 1;
    w.flush_every = 64;
    w.snapshot_every = 4096;
    w.durable = true;
    w.durable_args = {"--sync-every", "1", "--auto-compact", "1"};
    w.reference_rate = 2000;
    w.burst_ops = 2048;
  } else {
    return Status::InvalidArgument("unknown workload '" + name +
                                   "' (ingest, budget_check, durable)");
  }
  return w;
}

Inputs MakeInputs(const Workload& workload) {
  tcdp::bench::ServiceWorkload shape;
  shape.users = workload.users;
  shape.profiles = workload.profiles;
  shape.matrix_size = workload.matrix_n;
  // The profiles are part of the workload, not of the seed: what a
  // release costs depends on its profile, and a seed that redrew them
  // would move every timing by more than the metrics' bounds.
  shape.seed = kProfileSeed;
  Inputs inputs;
  inputs.profiles = tcdp::bench::MakeServiceProfiles(shape);
  for (std::size_t u = 0; u < workload.users; ++u) {
    inputs.join_payloads.push_back(tcdp::net::EncodeJoin(
        tcdp::bench::BenchUserName(u),
        inputs.profiles[u % inputs.profiles.size()]));
    tcdp::net::AppendFrame(&inputs.setup_frames, MsgType::kJoin,
                           inputs.join_payloads.back());
  }
  tcdp::net::AppendFrame(&inputs.setup_frames, MsgType::kFlush, "");
  return inputs;
}

StatusOr<Served> SetUp(const Workload& workload, const Inputs& inputs,
                       const RunContext& ctx, const std::string& dir,
                       const std::vector<std::string>& extra_args) {
  fs::create_directories(dir);
  Served served;
  std::vector<std::string> args = extra_args;
  if (workload.durable) {
    served.log_dir = dir + "/log";
    args.push_back("--log-dir");
    args.push_back(served.log_dir);
    args.insert(args.end(), workload.durable_args.begin(),
                workload.durable_args.end());
  }
  const std::uint64_t start = NowNs();
  TCDP_ASSIGN_OR_RETURN(served.server,
                        ServerProcess::Start(ctx.tcdp, dir, args));
  for (std::size_t c = 0; c < workload.connections; ++c) {
    TCDP_ASSIGN_OR_RETURN(auto conn, Connection::Open(served.server->port()));
    served.raw.push_back(conn.get());
    served.conns.push_back(std::move(conn));
  }
  TCDP_ASSIGN_OR_RETURN(
      const std::vector<Frame> acks,
      served.raw[0]->Exchange(inputs.setup_frames, workload.users + 1));
  served.setup_seconds = static_cast<double>(NowNs() - start) * 1e-9;
  for (const Frame& ack : acks) {
    if (ack.type != MsgType::kOk) {
      return Status::Internal("set-up request refused");
    }
  }
  return served;
}

StatusOr<Served> SetUpRepeatedly(const Workload& workload,
                                 const Inputs& inputs, const RunContext& ctx,
                                 const std::vector<std::string>& extra_args,
                                 double* median_setup_seconds) {
  std::vector<double> times;
  Served kept;
  for (int i = 0; i < kSetUps; ++i) {
    const std::string dir = ctx.dir + "/setup-" + std::to_string(i);
    TCDP_ASSIGN_OR_RETURN(Served served,
                          SetUp(workload, inputs, ctx, dir, extra_args));
    times.push_back(served.setup_seconds);
    if (i + 1 < kSetUps) {
      served.conns.clear();
      served.server->Kill();
      fs::remove_all(dir);
    } else {
      kept = std::move(served);
    }
  }
  *median_setup_seconds = Median(times);
  return kept;
}

MixSource::MixSource(const Workload& workload, std::uint64_t seed)
    : workload_(workload),
      rng_(seed * 104729 + 3),
      releases_since_flush_(workload.connections, 0),
      releases_since_snapshot_(workload.connections, 0) {}

Op MixSource::Next(std::size_t conn) {
  Op op;
  if (workload_.snapshot_every > 0 &&
      releases_since_snapshot_[conn] >= workload_.snapshot_every) {
    releases_since_snapshot_[conn] = 0;
    op.kind = OpKind::kSnapshot;
    return op;
  }
  if (workload_.flush_every > 0 &&
      releases_since_flush_[conn] >= workload_.flush_every) {
    releases_since_flush_[conn] = 0;
    op.kind = OpKind::kFlush;
    return op;
  }
  const auto users = static_cast<std::int64_t>(workload_.users);
  const auto levels = static_cast<std::int64_t>(workload_.epsilons.size());
  if (workload_.query_share > 0 && rng_.Uniform() < workload_.query_share) {
    op.kind = OpKind::kQuery;
    op.user = static_cast<std::uint32_t>(rng_.UniformInt(0, users - 1));
    return op;
  }
  op.kind = OpKind::kRelease;
  op.user = static_cast<std::uint32_t>(rng_.UniformInt(0, users - 1));
  op.epsilon = workload_.epsilons[rng_.UniformInt(0, levels - 1)];
  ++releases_since_flush_[conn];
  ++releases_since_snapshot_[conn];
  return op;
}

void CollectLatencies(const PhaseResult& phase, Latencies* out) {
  for (const std::vector<OpRecord>& records : phase.per_conn) {
    for (const OpRecord& record : records) {
      ++out->attempted;
      if (!record.ok) ++out->failed;
      const double ms =
          static_cast<double>(record.recv_ns - record.sched_ns) * 1e-6;
      out->late_ms.push_back(
          static_cast<double>(record.gen_ns - record.sched_ns) * 1e-6);
      switch (record.op.kind) {
        case OpKind::kFlush:
          out->commit_ms.push_back(ms);
          break;
        case OpKind::kQuery:
          out->query_ms.push_back(ms);
          break;
        case OpKind::kSnapshot:
          break;
        case OpKind::kRelease:
          out->release_ms.push_back(ms);
          break;
      }
    }
  }
}

bool VerifyReport(const Workload& workload, const Inputs& inputs,
                  const tcdp::server::UserReport& report,
                  tcdp::TemporalLossCache* cache) {
  const std::string prefix = "user-";
  if (report.name.rfind(prefix, 0) != 0) return false;
  const std::size_t user = std::stoul(report.name.substr(prefix.size()));
  if (user >= workload.users) return false;
  const tcdp::TemporalCorrelations& profile =
      inputs.profiles[user % inputs.profiles.size()];
  tcdp::TplAccountant reference(profile, cache->Intern(profile.backward()),
                                cache->Intern(profile.forward()),
                                tcdp::TemporalLossCache::Options{}
                                    .alpha_resolution);
  for (double eps : report.epsilons) {
    if (eps == 0.0) {
      if (!reference.RecordSkip().ok()) return false;
      continue;
    }
    if (std::find(workload.epsilons.begin(), workload.epsilons.end(), eps) ==
        workload.epsilons.end()) {
      return false;
    }
    if (!reference.RecordRelease(eps).ok()) return false;
  }
  const std::vector<double> series = reference.TplSeries();
  const double max_tpl = reference.MaxTpl();
  const double spent = reference.UserLevelTpl();
  return report.horizon == report.epsilons.size() &&
         series.size() == report.tpl_series.size() &&
         std::memcmp(series.data(), report.tpl_series.data(),
                     series.size() * sizeof(double)) == 0 &&
         std::memcmp(&max_tpl, &report.max_tpl, sizeof(double)) == 0 &&
         std::memcmp(&spent, &report.user_level_tpl, sizeof(double)) == 0;
}

StatusOr<Frame> Control(Connection* conn, MsgType type,
                        const std::string& payload, MsgType expect) {
  std::string frame;
  tcdp::net::AppendFrame(&frame, type, payload);
  TCDP_ASSIGN_OR_RETURN(std::vector<Frame> responses,
                        conn->Exchange(frame, 1));
  if (responses[0].type != expect) {
    return Status::Internal("unexpected response to control request");
  }
  return std::move(responses[0]);
}

StatusOr<tcdp::obs::MetricsSnapshot> ScrapeMetrics(Connection* conn) {
  TCDP_ASSIGN_OR_RETURN(
      const Frame frame,
      Control(conn, MsgType::kMetrics, "", MsgType::kMetricsReport));
  return tcdp::obs::DecodeMetricsSnapshot(frame.payload);
}

StatusOr<tcdp::net::WireServiceStats> ScrapeStats(Connection* conn) {
  TCDP_ASSIGN_OR_RETURN(
      const Frame frame,
      Control(conn, MsgType::kStats, "", MsgType::kStatsReport));
  return tcdp::net::DecodeStatsReport(frame.payload);
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double P99(const std::vector<double>& values) {
  return values.size() >= 1000 ? Quantile(values, 0.99) : 0.0;
}


StatusOr<ReferenceRun> RunReference(const Workload& workload,
                                    const RunContext& ctx, Served* served,
                                    MixSource* mix, double reference_seconds,
                                    std::size_t keep_reports_every,
                                    const std::function<Status()>& before) {
  const OpSource next_op = [mix](std::size_t conn) { return mix->Next(conn); };
  ReferenceRun run;
  // Warm-up: the loss cache fills its first alpha buckets and the
  // server's lazy state settles before anything is timed.
  PhaseSpec warmup;
  warmup.rate = workload.reference_rate;
  warmup.seconds = kWarmupSeconds;
  TCDP_ASSIGN_OR_RETURN(run.warmup, RunPhase(served->raw, warmup, next_op));
  TCDP_RETURN_IF_ERROR(before());
  run.start_ns = NowNs();
  PhaseSpec reference;
  reference.rate = workload.reference_rate;
  reference.seconds = reference_seconds;
  reference.keep_reports_every = keep_reports_every;
  TCDP_ASSIGN_OR_RETURN(run.reference,
                        RunPhase(served->raw, reference, next_op));
  if (workload.query_share == 0.0) {
    // The curator's budget check at the horizon the phase built.
    tcdp::Rng rng(ctx.seed * 15485863 + 5);
    PhaseSpec probe;
    probe.rate = kProbeRate;
    probe.seconds = ctx.seconds * kProbeShare;
    probe.keep_reports_every = keep_reports_every > 0 ? 4 : 0;
    const OpSource next_query = [&](std::size_t) {
      Op op;
      op.kind = OpKind::kQuery;
      op.user = static_cast<std::uint32_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(workload.users) - 1));
      return op;
    };
    TCDP_ASSIGN_OR_RETURN(run.probe,
                          RunPhase({served->raw[0]}, probe, next_query));
  }
  run.end_ns = NowNs();
  return run;
}

namespace {

/// Server CPU time and the requests it served, summed over rounds.
struct CpuTally {
  double ns = 0.0;
  std::size_t requests = 0;
  double UsPerRequest() const {
    return ns * 1e-3 / static_cast<double>(std::max<std::size_t>(requests, 1));
  }
};

/// One burst of the workload's mix: burst_ops ops and a Flush written
/// at once on connection 0, all answered before it returns (the Flush
/// answers once the server applied everything before it).
Status RunBurst(const Workload& workload, Served* served, MixSource* mix,
                CpuTally* cpu, Latencies* totals) {
  std::string frames;
  std::vector<OpKind> kinds;
  for (std::size_t i = 0; i < workload.burst_ops; ++i) {
    const Op op = mix->Next(0);
    AppendOpFrame(op, &frames);
    kinds.push_back(op.kind);
  }
  tcdp::net::AppendFrame(&frames, MsgType::kFlush, "");
  kinds.push_back(OpKind::kFlush);
  const std::uint64_t start = served->server->CpuNs();
  TCDP_ASSIGN_OR_RETURN(const std::vector<Frame> responses,
                        served->raw[0]->Exchange(frames, kinds.size()));
  cpu->ns += static_cast<double>(served->server->CpuNs() - start);
  cpu->requests += kinds.size();
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    ++totals->attempted;
    const MsgType expect =
        kinds[i] == OpKind::kQuery ? MsgType::kReport : MsgType::kOk;
    if (responses[i].type != expect) ++totals->failed;
  }
  return Status::OK();
}

/// One Query of \p user while nothing else is in flight; its report is
/// kept for verification.
Status IdleQuery(Served* served, std::size_t user, CpuTally* cpu,
                 std::vector<tcdp::server::UserReport>* reports) {
  const std::uint64_t start = served->server->CpuNs();
  TCDP_ASSIGN_OR_RETURN(
      const Frame frame,
      Control(served->raw[0], MsgType::kQuery,
              tcdp::net::EncodeName(tcdp::bench::BenchUserName(user)),
              MsgType::kReport));
  cpu->ns += static_cast<double>(served->server->CpuNs() - start);
  ++cpu->requests;
  TCDP_ASSIGN_OR_RETURN(auto report, tcdp::net::DecodeReport(frame.payload));
  reports->push_back(std::move(report));
  return Status::OK();
}

/// Durable only: after a completed Flush, crash the server, recover its
/// log dir in-process and check that the recovered horizon covers every
/// flushed release and that sampled users' series survived bitwise.
Status CheckRecovery(const Workload& workload, Served* served,
                     Latencies* totals) {
  Connection* control = served->raw[0];
  TCDP_RETURN_IF_ERROR(
      Control(control, MsgType::kFlush, "", MsgType::kOk).status());
  TCDP_ASSIGN_OR_RETURN(const auto stats, ScrapeStats(control));
  std::vector<tcdp::server::UserReport> live;
  for (std::size_t u = 0; u < workload.users; u += workload.users / 8) {
    TCDP_ASSIGN_OR_RETURN(
        const Frame frame,
        Control(control, MsgType::kQuery,
                tcdp::net::EncodeName(tcdp::bench::BenchUserName(u)),
                MsgType::kReport));
    TCDP_ASSIGN_OR_RETURN(auto report, tcdp::net::DecodeReport(frame.payload));
    live.push_back(std::move(report));
  }
  served->conns.clear();
  served->server->Kill();
  TCDP_ASSIGN_OR_RETURN(
      auto recovered,
      tcdp::server::ShardedReleaseService::Recover(served->log_dir));
  ++totals->attempted;
  if (recovered->horizon() < stats.horizon) ++totals->failed;
  for (const tcdp::server::UserReport& before : live) {
    ++totals->attempted;
    auto after = recovered->Query(before.name);
    if (!after.ok() || after->tpl_series.size() != before.tpl_series.size() ||
        std::memcmp(after->tpl_series.data(), before.tpl_series.data(),
                    before.tpl_series.size() * sizeof(double)) != 0) {
      ++totals->failed;
    }
  }
  return recovered->Close();
}

}  // namespace

StatusOr<RunOutcome> RunMeasured(const Workload& workload,
                                 const RunContext& ctx) {
  const Inputs inputs = MakeInputs(workload);
  double setup_s = 0.0;
  TCDP_ASSIGN_OR_RETURN(Served served,
                        SetUpRepeatedly(workload, inputs, ctx, {}, &setup_s));
  MixSource mix(workload, ctx.seed);
  const OpSource next_op = [&mix](std::size_t conn) { return mix.Next(conn); };
  Latencies totals;  // every op the run sent, for the failure count
  PhaseSpec slice;
  slice.rate = workload.reference_rate;
  slice.seconds = kWarmupSeconds;
  TCDP_ASSIGN_OR_RETURN(const PhaseResult warmup,
                        RunPhase(served.raw, slice, next_op));
  CollectLatencies(warmup, &totals);

  // Rounds: an open-loop slice at the reference rate (and a Flush, so
  // its work is done before its CPU is read), a burst, and a few
  // queries of an idle server. Interleaving them spreads each metric
  // over the whole run.
  slice.seconds = kSliceSeconds;
  slice.keep_reports_every = kVerifyEvery;
  tcdp::Rng query_rng(ctx.seed * 15485863 + 5);
  const auto rounds = static_cast<std::size_t>(
      std::max(1.0, std::floor(ctx.seconds / kRoundSeconds)));
  Latencies measured;  // the open-loop slices
  std::vector<tcdp::server::UserReport> reports;
  CpuTally open_loop;
  CpuTally burst;
  CpuTally query;
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::uint64_t start = served.server->CpuNs();
    TCDP_ASSIGN_OR_RETURN(PhaseResult phase,
                          RunPhase(served.raw, slice, next_op));
    TCDP_RETURN_IF_ERROR(
        Control(served.raw[0], MsgType::kFlush, "", MsgType::kOk).status());
    open_loop.ns += static_cast<double>(served.server->CpuNs() - start);
    open_loop.requests += phase.offered + 1;
    ++totals.attempted;
    CollectLatencies(phase, &measured);
    for (auto& report : phase.reports) reports.push_back(std::move(report));

    TCDP_RETURN_IF_ERROR(RunBurst(workload, &served, &mix, &burst, &totals));

    for (std::size_t q = 0; q < kQueriesPerRound; ++q) {
      const auto user = static_cast<std::size_t>(query_rng.UniformInt(
          0, static_cast<std::int64_t>(workload.users) - 1));
      ++totals.attempted;
      TCDP_RETURN_IF_ERROR(IdleQuery(&served, user, &query, &reports));
    }
  }

  // Sampled reports against the TplAccountant reference.
  tcdp::TemporalLossCache verify_cache;
  for (const tcdp::server::UserReport& report : reports) {
    ++totals.attempted;
    if (!VerifyReport(workload, inputs, report, &verify_cache)) {
      ++totals.failed;
    }
  }
  if (workload.durable) {
    TCDP_RETURN_IF_ERROR(CheckRecovery(workload, &served, &totals));
  }

  RunOutcome outcome;
  outcome.attempted = measured.attempted + totals.attempted;
  outcome.failed = measured.failed + totals.failed;
  outcome.correct = outcome.failed == 0;
  // A generator that fell behind its schedule measured itself, not the
  // server: the numbers are flagged, while `correct` stays about output.
  const double late_p99 = Quantile(measured.late_ms, 0.99);
  if (late_p99 >= kMaxLateMs) {
    std::fprintf(stderr,
                 "perfbench: run invalid: generator lateness p99 %.3f ms "
                 "exceeds %.0f ms\n",
                 late_p99, kMaxLateMs);
  }
  outcome.metrics = {
      {"setup_s", setup_s, "s"},
      {"op_cpu_us", open_loop.UsPerRequest(), "us"},
      {"burst_op_cpu_us", burst.UsPerRequest(), "us"},
      {"query_cpu_us", query.UsPerRequest(), "us"},
  };
  return outcome;
}

}  // namespace perfbench
