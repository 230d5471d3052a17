#ifndef TCDP_SERVER_SHARDED_SERVICE_H_
#define TCDP_SERVER_SHARDED_SERVICE_H_

/// \file
/// ShardedReleaseService: the fleet accounting engine behind a durable,
/// horizontally partitioned request front.
///
///   requests ──► router (hash by user name) ──► micro-batcher
///                                                  │ tick
///                          ┌───────────────────────┼──────────────┐
///                          ▼                       ▼              ▼
///                    shard 0 queue           shard 1 queue   ... shard N-1
///                    worker thread           worker thread
///                    WAL ► bank              WAL ► bank
///
/// **Partitioning.** Users are hash-partitioned by name (FNV-1a mod N).
/// Each shard owns an AccountantBank, its user names, and a dedicated
/// worker thread consuming a bounded command queue — enqueueing blocks
/// when the queue is full (backpressure), so a slow shard throttles
/// ingest instead of buffering unboundedly.
///
/// **Micro-batching.** Per-user release requests coalesce: every
/// `batch_window` requests (or an explicit Flush/Close) ends a batch
/// with a *tick*. A tick dispatches, per distinct epsilon in
/// first-seen order, ONE global release: every shard receives a
/// RecordRelease(eps, local participants) command — shards without
/// participants record the release with an empty participant list, so
/// every user's skip-leakage still propagates and all shards share one
/// global time axis. Joins dispatch at the head of the tick that closes
/// their window (a user can join and release in the same window).
/// Batching is purely count/flush-driven — never wall-clock — so a
/// request stream maps to one deterministic event sequence, and
/// per-user series are **bitwise independent of the shard count**
/// (property-tested against the serial TplAccountant reference).
///
/// **Durability.** Each shard write-ahead logs every command to its
/// event log before applying it (src/server/event_log.h), fdatasyncing
/// every `sync_every` releases, and writes a point-in-time snapshot
/// (src/server/snapshot.h) every `snapshot_every` releases. `Recover`
/// reads every shard's valid WAL prefix, aligns all shards to the
/// minimum common horizon (a global release is committed only once
/// every shard has logged it), truncates torn or over-the-horizon
/// tails, restores from snapshots when they fit under that horizon
/// (replaying only the WAL suffix), and resumes appending. Recovered
/// per-user TPL series are bitwise identical to the uninterrupted
/// run's at the recovered horizon.
///
/// Thread-compatible like the bank: calls on one service must be
/// externally serialized (the internal shard parallelism is the
/// service's own).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/loss_cache.h"
#include "core/temporal_correlations.h"
#include "kernels/kernels.h"

namespace tcdp {
namespace server {

/// Retention policy for snapshot-anchored WAL compaction
/// (server/compaction.h; on-disk format in docs/DURABILITY.md).
struct CompactionOptions {
  /// Compact every shard right after a service-level Snapshot()
  /// completes (the snapshot just written is the anchor, so the
  /// rewritten WAL holds only the manifest + compaction records).
  bool after_snapshot = false;
  /// Auto-compact when any shard's on-disk WAL exceeds this many
  /// bytes; 0 disables. Checked at micro-batch tick boundaries
  /// against worker-published gauges, so the trigger point is
  /// approximate — benign, since compaction never changes accounting
  /// state, only disk layout.
  std::uint64_t max_wal_bytes = 0;
  /// Same, for on-disk (physical) WAL record count; 0 disables.
  std::uint64_t max_wal_records = 0;
};

struct ShardedServiceOptions {
  std::size_t num_shards = 1;
  /// Requests (joins + releases) coalesced per micro-batch tick.
  std::size_t batch_window = 64;
  /// Commands a shard queue buffers before enqueueing blocks.
  std::size_t queue_capacity = 256;
  /// Releases between automatic per-shard snapshots; 0 disables.
  std::size_t snapshot_every = 0;
  /// Releases between WAL fdatasyncs; 0 syncs only at snapshot/close.
  std::size_t sync_every = 0;
  /// WAL retention (log compaction) policy; off by default.
  CompactionOptions compaction;
  /// Hybrid shard×bank parallelism: worker threads each shard's bank
  /// fans its column updates out to, so S shards × K bank threads
  /// scale together. 1 (or 0) runs the bank inline on the shard
  /// worker. Persisted in the MANIFEST; per-user series are bitwise
  /// invariant to this knob (property-tested), so recovery at a
  /// different setting is still exact.
  std::size_t threads_per_shard = 1;
  /// Kernel dispatch mode Create() applies process-wide
  /// (kernels::SetKernelMode): kAuto picks the best vector backend the
  /// host supports, kScalar pins the reference. Backends are bitwise
  /// identical, so this is purely a performance knob; it is NOT
  /// persisted, and Recover leaves the process-wide mode untouched.
  TcdpKernelMode kernel_mode = TcdpKernelMode::kAuto;
  bool share_loss_cache = true;
  TemporalLossCache::Options cache;
};

/// Point-in-time view of one user's accounting (Query result).
struct UserReport {
  std::string name;
  std::size_t shard = 0;
  std::size_t join_release = 0;
  std::size_t horizon = 0;       ///< length of the user's own series
  double max_tpl = 0.0;          ///< event-level alpha
  double user_level_tpl = 0.0;   ///< Corollary 1 budget sum
  std::vector<double> epsilons;  ///< effective spend sequence (0 = skip)
  std::vector<double> tpl_series;
};

struct ShardStats {
  std::size_t users = 0;
  std::size_t horizon = 0;
  /// *Logical* WAL records (manifest included): monotone across
  /// compactions — the horizon snapshots and compaction bases key on.
  std::uint64_t wal_records = 0;
  /// Records physically on disk (== wal_records until a compaction
  /// rewrites the prefix away).
  std::uint64_t wal_physical_records = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t compactions = 0;  ///< WAL rewrites performed
  std::uint64_t snapshots_written = 0;
  std::uint64_t replayed_records = 0;   ///< WAL records applied by Recover
  bool restored_from_snapshot = false;
  /// Commands waiting in the shard queue when the stats call entered
  /// (before it drains the shard). Read from a gauge the producers and
  /// worker maintain atomically, so the value is a consistent point
  /// read, not a racy peek at the deque.
  std::size_t queue_depth = 0;
  /// Deepest the queue has ever been (backpressure high watermark).
  std::size_t queue_depth_hwm = 0;
  /// Enqueues that blocked on a full queue (backpressure events).
  std::uint64_t enqueue_blocks = 0;
};

struct ServiceStats {
  std::uint64_t join_requests = 0;
  std::uint64_t release_requests = 0;
  std::uint64_t ticks = 0;
  std::uint64_t global_releases = 0;  ///< global time steps dispatched
  /// TemporalLossCache totals aggregated over every shard's bank
  /// (zero when share_loss_cache is off — the banks run direct
  /// evaluators and nothing is memoized).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_entries = 0;
  std::uint64_t cache_distinct_matrices = 0;
};

class ShardedReleaseService {
 public:
  /// Starts a fresh service. \p log_dir empty runs ephemeral (no
  /// durability); otherwise the directory is created, a MANIFEST and
  /// per-shard WALs are laid down, and AlreadyExists is returned if a
  /// MANIFEST is already present (use Recover for that).
  static StatusOr<std::unique_ptr<ShardedReleaseService>> Create(
      const std::string& log_dir, ShardedServiceOptions options = {});

  /// Rebuilds a service from \p log_dir (options come from its
  /// MANIFEST): per shard, snapshot restore when usable plus WAL
  /// replay, torn tails truncated, shards aligned to the minimum
  /// common horizon. The service resumes accepting requests.
  ///
  /// Shard replay fans out over \p recovery_threads (0 picks
  /// hardware_concurrency, 1 replays serially) — shards are
  /// independent, so the recovered state is bitwise identical at any
  /// thread count (property-tested).
  static StatusOr<std::unique_ptr<ShardedReleaseService>> Recover(
      const std::string& log_dir, std::size_t recovery_threads = 0);

  ~ShardedReleaseService();
  ShardedReleaseService(const ShardedReleaseService&) = delete;
  ShardedReleaseService& operator=(const ShardedReleaseService&) = delete;

  /// Enrolls a user (effective at the tick closing this window).
  /// AlreadyExists for duplicate names.
  Status Join(const std::string& name, TemporalCorrelations correlations);

  /// One per-user release request: \p name spends \p epsilon at the
  /// global time step its batch tick creates. NotFound for unknown
  /// users (a join in the same window is visible).
  Status Release(const std::string& name, double epsilon);

  /// Requests \p epsilon for every user enrolled at tick time.
  Status ReleaseAll(double epsilon);

  /// Forces the pending window to tick and drains every shard.
  Status Flush();

  /// Flush + snapshot every shard now. When the compaction policy's
  /// `after_snapshot` is set, also compacts every shard's WAL against
  /// the snapshot just written.
  Status Snapshot();

  /// Flush, fdatasync every shard's WAL at the current horizon (the
  /// floor no recovery can fall below), then rewrite every shard's WAL
  /// to manifest + compaction record + the records past its newest
  /// snapshot (server/compaction.h). A shard that has never
  /// snapshotted writes one first. FailedPrecondition on an ephemeral
  /// service. Accounting state is untouched; only disk layout changes.
  Status Compact();

  /// Drains the user's shard and reports its accounting.
  StatusOr<UserReport> Query(const std::string& name);

  /// Exports one user as a standalone "tcdp-accountant-v2" blob (the
  /// bank's SerializeUser hook): TplAccountant::Deserialize on it
  /// replays the user's sub-schedule through an identically quantized
  /// cache and reproduces the service's series bitwise — `tcdp replay
  /// --verify` is built on this.
  StatusOr<std::string> ExportUser(const std::string& name);

  /// Final tick, drain, fdatasync, join worker threads. Idempotent;
  /// also run by the destructor.
  Status Close();

  std::size_t num_shards() const { return shards_.size(); }
  /// Effective options (MANIFEST-recovered values after Recover,
  /// clamps applied) — lets tests assert the durable round-trip.
  const ShardedServiceOptions& options() const { return options_; }
  std::size_t num_users() const { return registry_.size(); }
  /// Global releases applied (uniform across shards after Flush).
  /// Drains every shard first so the read does not race the workers;
  /// note it does NOT tick the pending window.
  std::size_t horizon();
  const std::string& log_dir() const { return log_dir_; }

  /// Max over users and t of TPL (drains all shards first).
  StatusOr<double> OverallAlpha();
  /// (name, event-level alpha) for every user, shard-major order.
  StatusOr<std::vector<std::pair<std::string, double>>> PersonalizedAlphas();

  /// Drains \p shard first so the snapshot of its counters is not read
  /// mid-apply.
  ShardStats shard_stats(std::size_t shard);
  /// Request/tick totals plus the aggregated loss-cache stats (the
  /// cache counters are thread-safe reads, so this does not drain).
  ServiceStats stats() const;

  /// Shard index \p name routes to, given \p num_shards (exposed so
  /// tools and tests agree with the service's partitioning).
  static std::size_t ShardOf(const std::string& name,
                             std::size_t num_shards);

  /// Per-shard diagnostic text assembled ONLY from worker-published
  /// atomics (queue depth/HWM, WAL gauges, published horizon) — safe
  /// to call from the watchdog/flight-recorder thread while another
  /// thread drives the service, unlike shard_stats (which drains).
  std::string DiagnosticStateText() const;

  /// Test-only fault injection: while set, \p shard's worker spins
  /// between popping a command and applying it, freezing its progress
  /// heartbeat with work pending — exactly the signature the watchdog
  /// classifies as a stall. Cleared automatically by Close().
  void SetShardStallForTesting(std::size_t shard, bool stalled);

 private:
  struct Shard;
  struct PendingGroup;

  explicit ShardedReleaseService(ShardedServiceOptions options);

  Status InitShardsFresh(const std::string& log_dir);
  /// The pending window's group for \p epsilon (created on first use).
  PendingGroup& GroupFor(double epsilon);
  Status Tick();
  /// Counts one request into the micro-batch window; ticks (and runs
  /// the retention check) when the window fills.
  Status EndRequestWindow();
  /// Flush + snapshot every shard (no compaction hook): afterwards
  /// every shard's WAL is fdatasynced at the same horizon and carries
  /// a snapshot of it.
  Status SnapshotAllShards();
  /// Compact() phase 2 alone: every shard rewrites against its newest
  /// snapshot. Callers must have made the current horizon durable on
  /// EVERY shard first (sync or snapshot commands, drained).
  Status CompactShards();
  /// Retention check: when a shard's published WAL gauges exceed the
  /// thresholds, snapshot every shard (fresh anchors at the current
  /// horizon — anchoring a stale snapshot could leave the log over
  /// the threshold and re-trigger forever) and compact. Called at
  /// tick boundaries and after every Flush.
  Status MaybeAutoCompact();
  Status DrainShard(std::size_t shard);
  Status DrainAll();

  ShardedServiceOptions options_;
  std::string log_dir_;  // empty = ephemeral
  std::vector<std::unique_ptr<Shard>> shards_;
  /// name -> (shard, local index); local indices assigned at request
  /// time (the shard's AddUser order matches dispatch order).
  std::unordered_map<std::string, std::pair<std::uint32_t, std::uint32_t>>
      registry_;
  /// Users assigned to each shard so far (pending joins included).
  std::vector<std::uint32_t> shard_user_count_;

  // Micro-batch state (requests since the last tick).
  struct PendingJoin {
    std::string name;
    TemporalCorrelations correlations;
    std::size_t shard;
  };
  std::vector<PendingJoin> pending_joins_;
  std::vector<std::unique_ptr<PendingGroup>> pending_groups_;
  std::size_t window_count_ = 0;

  ServiceStats stats_;
  /// Re-entrancy guard: Compact() flushes, and Flush() checks the
  /// retention thresholds — without this a threshold-triggered
  /// compaction would recurse into itself.
  bool compacting_ = false;
  bool closed_ = false;
};

}  // namespace server
}  // namespace tcdp

#endif  // TCDP_SERVER_SHARDED_SERVICE_H_
