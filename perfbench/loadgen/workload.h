#ifndef PERFBENCH_LOADGEN_WORKLOAD_H_
#define PERFBENCH_LOADGEN_WORKLOAD_H_

/// \file
/// The three workloads, the inputs each derives from the seed, server
/// set-up, the op mix, latency collection and output verification.
/// Rates are constants written here, never calibrated at run time, so
/// a faster build is never handed a heavier load.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/loss_cache.h"
#include "core/temporal_correlations.h"
#include "net/messages.h"
#include "obs/metrics.h"
#include "open_loop.h"

namespace perfbench {

struct Workload {
  std::string name;
  std::size_t users = 0;
  std::size_t profiles = 0;
  std::size_t matrix_n = 0;
  std::vector<double> epsilons;
  std::size_t connections = 1;
  /// Share of main-mix ops that are a Query of a random user.
  double query_share = 0.0;
  /// A Flush after every this many releases on a connection.
  std::size_t flush_every = 0;
  /// A Snapshot (and, with --auto-compact, a compaction) after every
  /// this many releases on a connection; 0 never.
  std::size_t snapshot_every = 0;
  /// Runs with a log dir (plus durable_args) when set.
  bool durable = false;
  std::vector<std::string> durable_args;
  /// Offered ops/s of the open-loop slices (all connections).
  double reference_rate = 0.0;
  /// Ops of the mix in one burst (written at once, then a Flush).
  std::size_t burst_ops = 0;
};

StatusOr<Workload> FindWorkload(const std::string& name);

struct RunContext {
  std::string tcdp;  ///< the `tcdp` binary
  std::string dir;   ///< scratch directory of this run
  std::uint64_t seed = 1;
  double seconds = 10.0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOutcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// The workload's users and their correlation profiles, which are the
/// same for every seed (the seed draws the op stream, MixSource).
struct Inputs {
  std::vector<tcdp::TemporalCorrelations> profiles;  ///< user u: u % size
  std::vector<std::string> join_payloads;            ///< per user
  std::string setup_frames;  ///< every kJoin, then one kFlush
};
Inputs MakeInputs(const Workload& workload);

/// A set-up server with the workload's client connections.
struct Served {
  std::unique_ptr<ServerProcess> server;
  std::vector<std::unique_ptr<Connection>> conns;
  std::vector<Connection*> raw;  ///< views of conns
  std::string log_dir;           ///< empty when ephemeral
  double setup_seconds = 0.0;    ///< server start -> joins flushed
};

/// Starts a server in \p dir (plus \p extra_args), joins every user and
/// flushes. Set-up time runs from the start of the server process.
StatusOr<Served> SetUp(const Workload& workload, const Inputs& inputs,
                       const RunContext& ctx, const std::string& dir,
                       const std::vector<std::string>& extra_args);

/// Sets up several times and keeps the last server: the median of the
/// set-up times is the run's set-up time.
StatusOr<Served> SetUpRepeatedly(const Workload& workload,
                                 const Inputs& inputs, const RunContext& ctx,
                                 const std::vector<std::string>& extra_args,
                                 double* median_setup_seconds);

/// The main op mix of a workload, drawn from a seeded stream.
class MixSource {
 public:
  MixSource(const Workload& workload, std::uint64_t seed);
  Op Next(std::size_t conn);

 private:
  const Workload& workload_;
  tcdp::Rng rng_;
  std::vector<std::size_t> releases_since_flush_;
  std::vector<std::size_t> releases_since_snapshot_;
};

/// Latencies (ms, from scheduled send) and counts of one or more phases.
struct Latencies {
  std::vector<double> release_ms;
  std::vector<double> commit_ms;  ///< Flush: everything before it applied
  std::vector<double> query_ms;
  std::vector<double> late_ms;    ///< generator lateness
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};
void CollectLatencies(const PhaseResult& phase, Latencies* out);

/// Rebuilds \p report's series with TplAccountant from its own spend
/// schedule and the user's profile; true iff it matches bitwise and
/// every spend is one of the workload's budgets.
bool VerifyReport(const Workload& workload, const Inputs& inputs,
                  const tcdp::server::UserReport& report,
                  tcdp::TemporalLossCache* cache);

/// One control request on \p conn; fails unless the response has
/// \p expect type.
StatusOr<tcdp::net::Frame> Control(Connection* conn, tcdp::net::MsgType type,
                        const std::string& payload,
                        tcdp::net::MsgType expect);
StatusOr<tcdp::obs::MetricsSnapshot> ScrapeMetrics(Connection* conn);
StatusOr<tcdp::net::WireServiceStats> ScrapeStats(Connection* conn);

/// The measured phases of a run, in order.
struct ReferenceRun {
  PhaseResult warmup;     ///< unmeasured, at the reference rate
  PhaseResult reference;  ///< the workload's mix at the reference rate
  PhaseResult probe;      ///< queries, where the mix has none of its own
  std::uint64_t start_ns = 0;  ///< end of the warm-up
  std::uint64_t end_ns = 0;
};

/// Warm-up, \p before (e.g. a metrics scrape), the reference phase of
/// \p reference_seconds and, where the mix has no queries, the query
/// probe. Keeps every n-th query report when \p keep_reports_every > 0.
StatusOr<ReferenceRun> RunReference(const Workload& workload,
                                    const RunContext& ctx, Served* served,
                                    MixSource* mix, double reference_seconds,
                                    std::size_t keep_reports_every,
                                    const std::function<Status()>& before);

/// The untraced run: set-ups, then rounds of an open-loop slice, a
/// burst and idle queries; every end-to-end metric.
StatusOr<RunOutcome> RunMeasured(const Workload& workload,
                                 const RunContext& ctx);

/// The median of \p values (0 when empty).
double Median(std::vector<double> values);
/// The p99, reported only with at least 10 samples above it (else 0).
double P99(const std::vector<double>& values);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_WORKLOAD_H_
