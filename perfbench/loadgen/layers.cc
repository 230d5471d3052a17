#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>

#include "bench/json.h"
#include "bench/suites/common.h"
#include "core/accountant_bank.h"
#include "net/messages.h"
#include "obs/diff.h"
#include "server/event_log.h"
#include "server/records.h"
#include "server/sharded_service.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using tcdp::net::Frame;
using tcdp::net::MsgType;

/// Share of --seconds each traced-run phase (untraced, then traced) runs.
constexpr double kPhaseShare = 0.25;
constexpr std::size_t kTraceCapacity = 1u << 19;
/// Keep every n-th query report of the traced phase for verification.
constexpr std::size_t kVerifyEvery = 64;
/// Caps on the captured inputs the in-process timings replay.
constexpr std::size_t kMaxReplayReleases = 50000;
constexpr std::size_t kMaxBankReleases = 2000;
constexpr std::size_t kDurableUsers = 500;
constexpr std::size_t kSeriesUsers = 16;
constexpr std::size_t kEvalAlphas = 200;

/// The spans on the paths every workload exercises.
const char* const kSpans[] = {"request", "enqueue", "tick", "shard_tick",
                              "bank_step"};

double Seconds(std::uint64_t from, std::uint64_t to) {
  return static_cast<double>(to - from) * 1e-9;
}

/// Ops of a phase merged across connections in scheduled order.
std::vector<Op> CapturedOps(const PhaseResult& phase) {
  std::vector<const OpRecord*> records;
  for (const auto& lane : phase.per_conn) {
    for (const OpRecord& record : lane) records.push_back(&record);
  }
  std::stable_sort(records.begin(), records.end(),
                   [](const OpRecord* a, const OpRecord* b) {
                     return a->sched_ns < b->sched_ns;
                   });
  std::vector<Op> ops;
  for (const OpRecord* record : records) ops.push_back(record->op);
  return ops;
}

std::vector<tcdp::bench::ReleaseRequest> CapturedReleases(
    const std::vector<Op>& ops, std::size_t max_user, std::size_t cap) {
  std::vector<tcdp::bench::ReleaseRequest> releases;
  for (const Op& op : ops) {
    if (op.kind != OpKind::kRelease || op.user >= max_user) continue;
    releases.push_back({op.user, op.epsilon});
    if (releases.size() >= cap) break;
  }
  return releases;
}

// ------------------------------------------------------------------ trace

struct Span {
  std::string name;
  std::uint32_t tid = 0;
  double start_us = 0.0;
  double dur_us = 0.0;
  double child_us = 0.0;
};

/// Parses the server's Chrome-trace dump (one event per line) and keeps
/// the spans that started inside [from_ns, to_ns).
std::vector<Span> ReadTrace(const std::string& path, std::uint64_t from_ns,
                            std::uint64_t to_ns) {
  std::vector<Span> spans;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    char name[64] = {0};
    double ts = 0.0;
    double dur = 0.0;
    unsigned tid = 0;
    const std::size_t at = line.find("{\"name\"");
    if (at == std::string::npos) continue;
    if (std::sscanf(line.c_str() + at,
                    "{\"name\": \"%63[^\"]\", \"cat\": \"%*[^\"]\", \"ph\": "
                    "\"X\", \"ts\": %lf, \"dur\": %lf, \"pid\": 1, \"tid\": %u",
                    name, &ts, &dur, &tid) != 4) {
      continue;
    }
    if (ts * 1e3 < static_cast<double>(from_ns) ||
        ts * 1e3 >= static_cast<double>(to_ns)) {
      continue;
    }
    spans.push_back(Span{name, tid, ts, dur, 0.0});
  }
  // Self time: a span's duration minus what its children on the same
  // thread cover. Per thread, spans sorted by start nest as a stack.
  std::stable_sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.tid != b.tid ? a.tid < b.tid : a.start_us < b.start_us;
  });
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    while (!open.empty() &&
           (spans[open.back()].tid != spans[i].tid ||
            spans[open.back()].start_us + spans[open.back()].dur_us <=
                spans[i].start_us)) {
      open.pop_back();
    }
    if (!open.empty()) spans[open.back()].child_us += spans[i].dur_us;
    open.push_back(i);
  }
  return spans;
}

// ------------------------------------------------------- metric helpers

double HistogramP50(const tcdp::obs::MetricsDelta& delta,
                    const std::string& name) {
  for (const auto& [key, histogram] : delta.histograms) {
    if (key == name) return histogram.Quantile(0.5);
  }
  return 0.0;
}

std::uint64_t HistogramCount(const tcdp::obs::MetricsDelta& delta,
                             const std::string& name) {
  for (const auto& [key, histogram] : delta.histograms) {
    if (key == name) return histogram.count();
  }
  return 0;
}

std::int64_t MaxGauge(const tcdp::obs::MetricsDelta& delta,
                      const std::string& prefix) {
  std::int64_t best = 0;
  for (const auto& [key, value] : delta.gauges) {
    if (key.rfind(prefix, 0) == 0) best = std::max(best, value);
  }
  return best;
}

std::uint64_t DirBytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

/// Runs \p body \p reps times and returns the median of its results.
template <typename Body>
double MedianOf(int reps, Body body) {
  std::vector<double> values;
  for (int i = 0; i < reps; ++i) values.push_back(body());
  return Median(values);
}

// ------------------------------------------------- in-process timings

struct NetTimings {
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  double join_decode_us = 0.0;
};

NetTimings TimeNet(const std::vector<Op>& ops, const Inputs& inputs) {
  NetTimings t;
  std::string stream;
  t.encode_ns = MedianOf(5, [&] {
    stream.clear();
    const std::uint64_t start = NowNs();
    for (const Op& op : ops) AppendOpFrame(op, &stream);
    return static_cast<double>(NowNs() - start) / ops.size();
  });
  t.decode_ns = MedianOf(5, [&] {
    const std::uint64_t start = NowNs();
    tcdp::net::FrameDecoder decoder(/*expect_preamble=*/false);
    std::size_t frames = 0;
    for (std::size_t at = 0; at < stream.size(); at += 64 * 1024) {
      (void)decoder.Feed(stream.data() + at,
                         std::min<std::size_t>(64 * 1024, stream.size() - at));
      while (decoder.has_frame()) {
        const Frame frame = decoder.PopFrame();
        if (frame.type == MsgType::kRelease) {
          (void)tcdp::net::DecodeRelease(frame.payload);
        } else if (frame.type == MsgType::kQuery) {
          (void)tcdp::net::DecodeName(frame.payload);
        }
        ++frames;
      }
    }
    return static_cast<double>(NowNs() - start) /
           static_cast<double>(std::max<std::size_t>(frames, 1));
  });
  const std::size_t joins = std::min<std::size_t>(inputs.join_payloads.size(),
                                                  1000);
  t.join_decode_us = MedianOf(3, [&] {
    const std::uint64_t start = NowNs();
    for (std::size_t u = 0; u < joins; ++u) {
      (void)tcdp::net::DecodeJoin(inputs.join_payloads[u]);
    }
    return static_cast<double>(NowNs() - start) * 1e-3 / joins;
  });
  return t;
}

struct BatcherTimings {
  double accept_ns = 0.0;
  double tick_us = 0.0;
};

/// ShardedReleaseService::Release over the captured releases, split by
/// whether the call closed the batch window (and so ran the tick).
StatusOr<BatcherTimings> TimeBatcher(
    const Workload& workload, const Inputs& inputs,
    const std::vector<tcdp::bench::ReleaseRequest>& releases) {
  tcdp::server::ShardedServiceOptions options;
  options.num_shards = 2;
  options.batch_window = 16;
  TCDP_ASSIGN_OR_RETURN(auto service,
                        tcdp::server::ShardedReleaseService::Create("", options));
  for (std::size_t u = 0; u < workload.users; ++u) {
    TCDP_RETURN_IF_ERROR(service->Join(
        tcdp::bench::BenchUserName(u),
        inputs.profiles[u % inputs.profiles.size()]));
  }
  TCDP_RETURN_IF_ERROR(service->Flush());
  std::vector<std::string> names;
  for (const auto& release : releases) {
    names.push_back(tcdp::bench::BenchUserName(release.user));
  }
  std::vector<double> accept_ns;
  std::vector<double> tick_us;
  for (std::size_t i = 0; i < releases.size(); ++i) {
    const std::uint64_t start = NowNs();
    TCDP_RETURN_IF_ERROR(service->Release(names[i], releases[i].epsilon));
    const double ns = static_cast<double>(NowNs() - start);
    if ((i + 1) % options.batch_window == 0) {
      tick_us.push_back(ns * 1e-3);
    } else {
      accept_ns.push_back(ns);
    }
  }
  TCDP_RETURN_IF_ERROR(service->Close());
  return BatcherTimings{Median(accept_ns), Median(tick_us)};
}

struct WalTimings {
  double append_us = 0.0;
  double fsync_ms = 0.0;
};

/// EventLogWriter::Append/Sync over shard 0's release records of the
/// captured global release sequence, into a scratch file.
StatusOr<WalTimings> TimeWal(
    const Workload& workload,
    const std::vector<tcdp::bench::GlobalRelease>& global,
    const std::string& dir) {
  std::vector<std::size_t> local(workload.users, SIZE_MAX);
  std::size_t shard_users = 0;
  for (std::size_t u = 0; u < workload.users; ++u) {
    if (tcdp::server::ShardedReleaseService::ShardOf(
            tcdp::bench::BenchUserName(u), 2) == 0) {
      local[u] = shard_users++;
    }
  }
  std::vector<std::string> payloads;
  for (const auto& release : global) {
    std::vector<std::uint64_t> words((shard_users + 63) / 64, 0);
    for (std::size_t u : release.participants) {
      if (local[u] != SIZE_MAX) {
        words[local[u] >> 6] |= std::uint64_t{1} << (local[u] & 63u);
      }
    }
    tcdp::server::ReleaseRecord record;
    record.epsilon = release.epsilon;
    record.mask = tcdp::PackedMask::FromWords(std::move(words));
    payloads.push_back(tcdp::server::EncodeRelease(record));
  }
  const std::string path = dir + "/wal-timing.wal";
  TCDP_ASSIGN_OR_RETURN(auto writer,
                        tcdp::server::EventLogWriter::Create(path));
  WalTimings t;
  const std::uint64_t start = NowNs();
  for (const std::string& payload : payloads) {
    TCDP_RETURN_IF_ERROR(
        writer.Append(tcdp::server::EventType::kRelease, payload));
  }
  TCDP_RETURN_IF_ERROR(writer.Flush());
  t.append_us = static_cast<double>(NowNs() - start) * 1e-3 /
                static_cast<double>(std::max<std::size_t>(payloads.size(), 1));
  std::vector<double> syncs;
  for (std::size_t i = 0; i < 32 && i < payloads.size(); ++i) {
    TCDP_RETURN_IF_ERROR(
        writer.Append(tcdp::server::EventType::kRelease, payloads[i]));
    const std::uint64_t sync_start = NowNs();
    TCDP_RETURN_IF_ERROR(writer.Sync());
    syncs.push_back(static_cast<double>(NowNs() - sync_start) * 1e-6);
  }
  t.fsync_ms = Median(syncs);
  TCDP_RETURN_IF_ERROR(writer.Close());
  fs::remove(path);
  return t;
}

struct DurableTimings {
  double snapshot_ms = 0.0;
  double compact_ms = 0.0;
  double compact_bytes = 0.0;
  double recover_ms = 0.0;
  double replayed_records = 0.0;
  double from_snapshot = 0.0;
  double wal_bytes_per_release = 0.0;
};

/// Recovers \p log_dir in-process, timed, with the shards' replay counts.
StatusOr<DurableTimings> TimeRecover(const std::string& log_dir,
                                     DurableTimings t) {
  const std::uint64_t start = NowNs();
  TCDP_ASSIGN_OR_RETURN(
      auto recovered, tcdp::server::ShardedReleaseService::Recover(log_dir));
  t.recover_ms = static_cast<double>(NowNs() - start) * 1e-6;
  for (std::size_t s = 0; s < recovered->num_shards(); ++s) {
    const auto stats = recovered->shard_stats(s);
    t.replayed_records += static_cast<double>(stats.replayed_records);
    t.from_snapshot += stats.restored_from_snapshot ? 1.0 : 0.0;
  }
  t.from_snapshot /= static_cast<double>(recovered->num_shards());
  TCDP_RETURN_IF_ERROR(recovered->Close());
  return t;
}

/// Snapshot() and Compact() of a durable in-process service fed the
/// captured releases of its first kDurableUsers users.
StatusOr<DurableTimings> TimeDurable(
    const Workload& workload, const Inputs& inputs,
    const std::vector<tcdp::bench::ReleaseRequest>& releases,
    const std::string& log_dir) {
  tcdp::server::ShardedServiceOptions options;
  options.num_shards = 2;
  options.batch_window = 16;
  TCDP_ASSIGN_OR_RETURN(
      auto service,
      tcdp::server::ShardedReleaseService::Create(log_dir, options));
  const std::size_t users = std::min(workload.users, kDurableUsers);
  for (std::size_t u = 0; u < users; ++u) {
    TCDP_RETURN_IF_ERROR(service->Join(
        tcdp::bench::BenchUserName(u),
        inputs.profiles[u % inputs.profiles.size()]));
  }
  const std::size_t half = releases.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    TCDP_RETURN_IF_ERROR(service->Release(
        tcdp::bench::BenchUserName(releases[i].user), releases[i].epsilon));
  }
  TCDP_RETURN_IF_ERROR(service->Flush());
  DurableTimings t;
  std::uint64_t start = NowNs();
  TCDP_RETURN_IF_ERROR(service->Snapshot());
  t.snapshot_ms = static_cast<double>(NowNs() - start) * 1e-6;
  for (std::size_t i = half; i < releases.size(); ++i) {
    TCDP_RETURN_IF_ERROR(service->Release(
        tcdp::bench::BenchUserName(releases[i].user), releases[i].epsilon));
  }
  TCDP_RETURN_IF_ERROR(service->Flush());
  start = NowNs();
  TCDP_RETURN_IF_ERROR(service->Compact());
  t.compact_ms = static_cast<double>(NowNs() - start) * 1e-6;
  for (std::size_t s = 0; s < service->num_shards(); ++s) {
    t.compact_bytes += static_cast<double>(service->shard_stats(s).wal_bytes);
  }
  TCDP_RETURN_IF_ERROR(service->Close());
  t.wal_bytes_per_release =
      static_cast<double>(DirBytes(log_dir)) /
      static_cast<double>(std::max<std::size_t>(releases.size(), 1));
  return t;
}

struct CoreTimings {
  double step_ns_per_user = 0.0;
  double series_us = 0.0;
  double join_us = 0.0;
  double loss_eval_us = 0.0;
};

/// AccountantBank replaying the captured global releases over every
/// user, then series queries at that horizon, enrollment, and cold loss
/// evaluations at alphas the replay produced.
CoreTimings TimeCore(const Workload& workload, const Inputs& inputs,
                     const std::vector<tcdp::bench::GlobalRelease>& global) {
  CoreTimings t;
  tcdp::AccountantBank bank;
  for (std::size_t u = 0; u < workload.users; ++u) {
    bank.AddUser(inputs.profiles[u % inputs.profiles.size()]);
  }
  const std::size_t steps = std::min(global.size(), kMaxBankReleases);
  const std::uint64_t start = NowNs();
  for (std::size_t i = 0; i < steps; ++i) {
    (void)bank.RecordRelease(global[i].epsilon, global[i].participants);
  }
  t.step_ns_per_user =
      static_cast<double>(NowNs() - start) /
      static_cast<double>(std::max<std::size_t>(steps, 1) * workload.users);

  double sink = 0.0;  // keeps the timed calls' results alive
  std::vector<double> series_us;
  for (std::size_t k = 0; k < kSeriesUsers; ++k) {
    const std::size_t user = k * workload.users / kSeriesUsers;
    const std::uint64_t series_start = NowNs();
    const std::vector<double> series = bank.TplSeriesFor(user);
    const double max_tpl = bank.MaxTplFor(user);
    series_us.push_back(static_cast<double>(NowNs() - series_start) * 1e-3);
    sink += max_tpl + static_cast<double>(series.size());
  }
  t.series_us = Median(series_us);

  const std::size_t joins = std::min<std::size_t>(workload.users, 2000);
  t.join_us = MedianOf(3, [&] {
    tcdp::AccountantBank fresh;
    tcdp::TemporalLossCache cache;
    const std::uint64_t join_start = NowNs();
    for (std::size_t u = 0; u < joins; ++u) {
      const auto& profile = inputs.profiles[u % inputs.profiles.size()];
      fresh.AddUser(profile);
      (void)cache.Intern(profile.backward());
    }
    return static_cast<double>(NowNs() - join_start) * 1e-3 / joins;
  });

  std::vector<double> alphas;
  for (std::size_t user = 0; user < workload.users && alphas.size() <
                                                          kEvalAlphas;
       user += workload.users / 8) {
    for (double alpha : bank.BplSeriesFor(user)) {
      if (alphas.size() < kEvalAlphas) alphas.push_back(alpha);
    }
  }
  std::sort(alphas.begin(), alphas.end());
  alphas.erase(std::unique(alphas.begin(), alphas.end()), alphas.end());
  tcdp::TemporalLossCache cold;
  const auto evaluator = cold.Intern(inputs.profiles[0].backward());
  const std::uint64_t eval_start = NowNs();
  for (double alpha : alphas) sink += evaluator->Evaluate(alpha);
  t.loss_eval_us = static_cast<double>(NowNs() - eval_start) * 1e-3 /
                   static_cast<double>(std::max<std::size_t>(alphas.size(), 1));
  if (!(sink >= 0.0)) t.loss_eval_us = -1.0;
  return t;
}

/// Parses the serve --json summary for the counters only it reports.
struct ServeSummary {
  double backpressure_pauses = 0.0;
  double compactions = 0.0;
};

StatusOr<ServeSummary> ParseServeSummary(const std::string& text) {
  TCDP_ASSIGN_OR_RETURN(const tcdp::bench::Json json,
                        tcdp::bench::Json::Parse(text));
  ServeSummary summary;
  TCDP_ASSIGN_OR_RETURN(const tcdp::bench::Json* net,
                        tcdp::bench::GetMember(json, "net"));
  TCDP_ASSIGN_OR_RETURN(summary.backpressure_pauses,
                        tcdp::bench::GetNumber(*net, "backpressure_pauses"));
  TCDP_ASSIGN_OR_RETURN(const tcdp::bench::Json* shards,
                        tcdp::bench::GetMember(json, "shard_stats"));
  for (const tcdp::bench::Json& shard : shards->as_array()) {
    TCDP_ASSIGN_OR_RETURN(const double compactions,
                          tcdp::bench::GetNumber(shard, "compactions"));
    summary.compactions = std::max(summary.compactions, compactions);
  }
  return summary;
}

}  // namespace

StatusOr<RunOutcome> RunTraced(const Workload& workload,
                               const RunContext& ctx) {
  const Inputs inputs = MakeInputs(workload);
  RunOutcome outcome;

  // 1. The untraced comparison run: the p50 the trace overhead is
  //    measured against, and the release p99 (a per-layer number here).
  Latencies untraced;
  {
    TCDP_ASSIGN_OR_RETURN(
        Served served,
        SetUp(workload, inputs, ctx, ctx.dir + "/untraced", {}));
    MixSource mix(workload, ctx.seed);
    TCDP_ASSIGN_OR_RETURN(
        const ReferenceRun run,
        RunReference(workload, ctx, &served, &mix, ctx.seconds * kPhaseShare,
                     0, [] { return Status::OK(); }));
    CollectLatencies(run.reference, &untraced);
    CollectLatencies(run.probe, &untraced);
    served.conns.clear();
    served.server->Kill();
    fs::remove_all(ctx.dir + "/untraced");
  }

  // 2. The traced run: spans armed, metrics and stats scraped around
  //    the measured phases.
  const std::string dir = ctx.dir + "/traced";
  const std::string trace_path = dir + "/trace.json";
  TCDP_ASSIGN_OR_RETURN(
      Served served,
      SetUp(workload, inputs, ctx, dir,
            {"--trace-out", trace_path, "--trace-capacity",
             std::to_string(kTraceCapacity)}));
  MixSource mix(workload, ctx.seed);
  tcdp::obs::MetricsSnapshot metrics_before;
  tcdp::net::WireServiceStats stats_before;
  TCDP_ASSIGN_OR_RETURN(
      const ReferenceRun run,
      RunReference(workload, ctx, &served, &mix, ctx.seconds * kPhaseShare,
                   kVerifyEvery, [&]() {
                     TCDP_ASSIGN_OR_RETURN(metrics_before,
                                           ScrapeMetrics(served.raw[0]));
                     TCDP_ASSIGN_OR_RETURN(stats_before,
                                           ScrapeStats(served.raw[0]));
                     return Status::OK();
                   }));
  TCDP_ASSIGN_OR_RETURN(const auto metrics_after,
                        ScrapeMetrics(served.raw[0]));
  TCDP_ASSIGN_OR_RETURN(const auto stats_after, ScrapeStats(served.raw[0]));
  TCDP_RETURN_IF_ERROR(Control(served.raw[0], MsgType::kTraceDump, "",
                               MsgType::kTraceDumpReport)
                           .status());
  const tcdp::obs::MetricsDelta delta = tcdp::obs::DiffMetricsSnapshots(
      metrics_before, metrics_after, Seconds(run.start_ns, run.end_ns));
  served.conns.clear();
  TCDP_ASSIGN_OR_RETURN(const std::string summary_text,
                        served.server->Shutdown());
  TCDP_ASSIGN_OR_RETURN(const ServeSummary summary,
                        ParseServeSummary(summary_text));

  Latencies traced;
  CollectLatencies(run.reference, &traced);
  CollectLatencies(run.probe, &traced);
  outcome.attempted = untraced.attempted + traced.attempted;
  outcome.failed = untraced.failed + traced.failed;
  // Sampled reports of the traced phases against TplAccountant.
  tcdp::TemporalLossCache verify_cache;
  for (const PhaseResult* phase : {&run.reference, &run.probe}) {
    for (const tcdp::server::UserReport& report : phase->reports) {
      ++outcome.attempted;
      if (!VerifyReport(workload, inputs, report, &verify_cache)) {
        ++outcome.failed;
      }
    }
  }
  Latencies ref_only;
  CollectLatencies(run.reference, &ref_only);
  const double traced_p50 = Median(ref_only.release_ms);
  const double untraced_p50 = Median(untraced.release_ms);
  const PhaseResult& ref_phase = run.reference;
  const double achieved =
      static_cast<double>(ref_phase.offered) /
      Seconds(ref_phase.start_ns, ref_phase.end_ns);

  // 3. Spans: self time per span name, and its share of the e2e p50.
  const std::vector<Span> spans =
      ReadTrace(trace_path, run.start_ns, run.end_ns);
  std::map<std::string, std::vector<double>> self_us;
  for (const Span& span : spans) {
    self_us[span.name].push_back(std::max(0.0, span.dur_us - span.child_us));
  }

  // 4. In-process timings over the captured inputs.
  const std::vector<Op> ops = CapturedOps(ref_phase);
  const auto releases =
      CapturedReleases(ops, workload.users, kMaxReplayReleases);
  const auto global = tcdp::bench::BatchServiceRequests(releases, 16);
  const NetTimings net = TimeNet(ops, inputs);
  TCDP_ASSIGN_OR_RETURN(const BatcherTimings batcher,
                        TimeBatcher(workload, inputs, releases));
  TCDP_ASSIGN_OR_RETURN(const WalTimings wal, TimeWal(workload, global, dir));
  TCDP_ASSIGN_OR_RETURN(
      DurableTimings durable,
      TimeDurable(workload, inputs,
                  CapturedReleases(ops, kDurableUsers, 4096),
                  dir + "/inproc-log"));
  // The durable workload recovers its own log dir; the others recover
  // the in-process replay's.
  std::string recover_dir = dir + "/inproc-log";
  if (workload.durable) {
    recover_dir = served.log_dir;
    durable.wal_bytes_per_release =
        static_cast<double>(DirBytes(served.log_dir)) /
        std::max(static_cast<double>(stats_after.release_requests), 1.0);
  }
  TCDP_ASSIGN_OR_RETURN(durable, TimeRecover(recover_dir, durable));
  const CoreTimings core = TimeCore(workload, inputs, global);

  const double release_requests = static_cast<double>(
      stats_after.release_requests - stats_before.release_requests);
  const double hits = static_cast<double>(
      delta.CounterValue("tcdp_loss_cache_hits_total"));
  const double misses = static_cast<double>(
      delta.CounterValue("tcdp_loss_cache_misses_total"));
  auto request_p50_us = [&](const char* type) {
    return HistogramP50(delta, std::string("tcdp_net_request_seconds{type=\"") +
                                   type + "\"}") *
           1e6;
  };

  outcome.metrics = {
      {"gen.late_p99_ms", Quantile(traced.late_ms, 0.99), "ms"},
      {"gen.achieved_rps", achieved, "req/s"},
      {"gen.release_p50_ms", untraced_p50, "ms"},
      {"gen.release_p99_ms", P99(untraced.release_ms), "ms"},
      {"gen.query_p50_ms", Median(untraced.query_ms), "ms"},
      {"gen.commit_p50_ms", Median(untraced.commit_ms), "ms"},
      {"net.encode_ns_per_frame", net.encode_ns, "ns"},
      {"net.decode_ns_per_frame", net.decode_ns, "ns"},
      {"net.server_p50_us.release", request_p50_us("release"), "us"},
      {"net.server_p50_us.query", request_p50_us("query"), "us"},
      {"net.server_p50_us.flush", request_p50_us("flush"), "us"},
      {"net.backpressure_pauses", summary.backpressure_pauses, "count"},
      {"net.bytes_per_request",
       static_cast<double>(ref_phase.bytes_out) /
           static_cast<double>(std::max<std::size_t>(ref_phase.offered, 1)),
       "B"},
      {"net.join_decode_us", net.join_decode_us, "us"},
      {"server.accept_ns", batcher.accept_ns, "ns"},
      {"server.tick_us", batcher.tick_us, "us"},
      {"server.global_releases_per_request",
       static_cast<double>(stats_after.global_releases -
                           stats_before.global_releases) /
           std::max(release_requests, 1.0),
       "ratio"},
      {"server.enqueue_blocks",
       static_cast<double>(delta.CounterSum("tcdp_shard_enqueue_blocks_total")),
       "count"},
      {"server.queue_depth_hwm",
       static_cast<double>(MaxGauge(delta, "tcdp_shard_queue_depth_hwm")),
       "count"},
      {"server.wal_append_us", wal.append_us, "us"},
      {"server.wal_fsync_ms", wal.fsync_ms, "ms"},
      {"server.fsyncs_per_release",
       static_cast<double>(HistogramCount(delta, "tcdp_wal_fsync_seconds")) /
           std::max(release_requests, 1.0),
       "ratio"},
      {"server.wal_bytes_per_release", durable.wal_bytes_per_release, "B"},
      {"server.snapshot_ms", durable.snapshot_ms, "ms"},
      {"server.compact_ms", durable.compact_ms, "ms"},
      {"server.compactions", summary.compactions, "count"},
      {"server.compact_bytes_rewritten", durable.compact_bytes, "B"},
      {"server.recover_ms", durable.recover_ms, "ms"},
      {"server.recover_replayed_records", durable.replayed_records, "count"},
      {"server.recover_from_snapshot", durable.from_snapshot, "ratio"},
      {"core.bank_step_ns_per_user", core.step_ns_per_user, "ns"},
      {"core.loss_cache_hit_ratio",
       hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio"},
      {"core.loss_cache_misses", misses, "count"},
      {"core.loss_eval_us", core.loss_eval_us, "us"},
      {"core.series_us", core.series_us, "us"},
      {"core.join_us", core.join_us, "us"},
      {"obs.trace_overhead_frac",
       untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1.0 : 0.0, "ratio"},
  };
  for (const char* name : kSpans) {
    const double p50 = Median(self_us[name]);
    outcome.metrics.push_back(
        {std::string("span.") + name + "_self_p50_us", p50, "us"});
    outcome.metrics.push_back(
        {std::string("share.") + name,
         traced_p50 > 0 ? p50 * 1e-3 / traced_p50 : 0.0, "ratio"});
  }
  outcome.correct = outcome.failed == 0;
  return outcome;
}

}  // namespace perfbench
