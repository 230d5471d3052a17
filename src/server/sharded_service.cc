#include "server/sharded_service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_set>
#include <utility>

#include "common/hash.h"
#include "core/accountant_bank.h"
#include "core/privacy_loss.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "server/event_log.h"
#include "server/log_dir.h"
#include "server/records.h"

namespace tcdp {
namespace server {
// ---------------------------------------------------------------- commands

namespace {

struct ShardCommand {
  enum class Kind { kAddUser, kRelease, kSnapshot, kSync, kCompact };
  Kind kind = Kind::kRelease;
  // kAddUser
  std::string name;
  TemporalCorrelations correlations = TemporalCorrelations::None();
  // kRelease
  double epsilon = 0.0;
  bool all = false;
  std::vector<std::size_t> participants;  ///< shard-local indices
};

}  // namespace

struct ShardedReleaseService::PendingGroup {
  double epsilon = 0.0;
  bool all = false;
  std::vector<std::vector<std::size_t>> per_shard;  ///< local indices
  std::unordered_set<std::uint64_t> seen;           ///< dedup keys
};

// ------------------------------------------------------------------ shard

/// A shard: its accounting state and files (log_dir.h) plus its
/// worker thread and bounded command queue.
struct ShardedReleaseService::Shard : ShardState {
  const ShardedServiceOptions* options = nullptr;

  /// On-disk footprint gauges, published by the worker after each
  /// apply so the service thread can check retention thresholds at
  /// tick boundaries without draining the shard.
  std::atomic<std::uint64_t> published_wal_bytes{0};
  std::atomic<std::uint64_t> published_wal_records{0};
  /// Bank horizon as of the last applied command — the lock-free read
  /// the flight recorder's state text uses (the bank itself belongs to
  /// the worker thread).
  std::atomic<std::uint64_t> published_horizon{0};
  /// 1 while the worker is between pop and apply-complete; the
  /// watchdog's pending probe counts it so a command stuck *in* Apply
  /// (not just behind it) still reads as outstanding work.
  std::atomic<std::size_t> applying{0};
  /// Test-only fault injection (SetShardStallForTesting): while set,
  /// the worker holds before applying its next command.
  std::atomic<bool> test_hold{false};
  obs::HeartbeatHandle heartbeat;

  std::mutex mu;
  std::condition_variable cv_push;  ///< producers wait for queue space
  std::condition_variable cv_pop;   ///< worker waits for commands
  std::condition_variable cv_idle;  ///< Drain waits for quiescence
  std::deque<ShardCommand> queue;
  std::uint64_t enqueue_blocks = 0;  ///< Pushes that found the queue full
  /// Maintained queue-depth gauge + high watermark: updated (under mu)
  /// by every push and pop, so stats reads are consistent point reads
  /// instead of racy peeks at the deque, and the watermark survives
  /// the drain a stats call performs.
  std::atomic<std::size_t> queue_depth{0};
  std::atomic<std::size_t> queue_depth_hwm{0};
  bool busy = false;
  bool stop = false;
  Status first_error;
  std::thread worker;

  /// Per-shard obs instruments, resolved once by InitObs() (after the
  /// shard index is known). Never null afterwards; instrument updates
  /// are relaxed atomics, guarded by obs::MetricsEnabled() where a
  /// clock read is involved.
  obs::Gauge* obs_queue_depth = nullptr;
  obs::Gauge* obs_queue_depth_hwm = nullptr;
  obs::Counter* obs_enqueue_blocks = nullptr;
  obs::Histogram* obs_tick_seconds = nullptr;
  obs::Histogram* obs_batch_size = nullptr;

  void InitObs() {
    const std::string label = std::to_string(index);
    obs::Registry& registry = obs::Registry::Default();
    obs_queue_depth = registry.GetGauge(
        obs::WithLabel("tcdp_shard_queue_depth", "shard", label));
    obs_queue_depth_hwm = registry.GetGauge(
        obs::WithLabel("tcdp_shard_queue_depth_hwm", "shard", label));
    obs_enqueue_blocks = registry.GetCounter(
        obs::WithLabel("tcdp_shard_enqueue_blocks_total", "shard", label));
    obs_tick_seconds = registry.GetHistogram(
        obs::WithLabel("tcdp_shard_tick_seconds", "shard", label));
    obs::HistogramOptions batch;
    batch.min_value = 1.0;
    batch.max_value = 1e9;
    obs_batch_size = registry.GetHistogram(
        obs::WithLabel("tcdp_shard_batch_size", "shard", label), batch);
  }

  /// Called with mu held after every queue mutation.
  void UpdateDepthLocked() {
    const std::size_t depth = queue.size();
    queue_depth.store(depth, std::memory_order_relaxed);
    std::size_t hwm = queue_depth_hwm.load(std::memory_order_relaxed);
    while (depth > hwm && !queue_depth_hwm.compare_exchange_weak(
                              hwm, depth, std::memory_order_relaxed)) {
    }
    if (obs_queue_depth != nullptr) {
      obs_queue_depth->Set(static_cast<std::int64_t>(depth));
      obs_queue_depth_hwm->Set(static_cast<std::int64_t>(
          queue_depth_hwm.load(std::memory_order_relaxed)));
    }
  }

  Shard(const ShardedServiceOptions& opts, ShardState state)
      : ShardState(std::move(state)), options(&opts) {
    InitObs();
    if (durable()) PublishGauges();
  }

  ~Shard() { StopAndJoin(); }

  void Start() {
    obs::HeartbeatInfo info;
    info.name = "shard-" + std::to_string(index);
    info.kind = obs::HeartbeatKind::kWorker;
    // Atomics-only probe: invoked from the watchdog thread; valid
    // until StopAndJoin unregisters the handle (before members die).
    info.pending = [this] {
      return static_cast<std::uint64_t>(
          queue_depth.load(std::memory_order_relaxed) +
          applying.load(std::memory_order_relaxed));
    };
    heartbeat = obs::HeartbeatRegistry::Default().Register(std::move(info));
    worker = std::thread([this] { Loop(); });
  }

  void Push(ShardCommand command) {
    obs::ScopedSpan span("enqueue", "shard", index);
    std::unique_lock<std::mutex> lock(mu);
    if (queue.size() >= options->queue_capacity && !stop) {
      ++enqueue_blocks;
      if (obs_enqueue_blocks != nullptr) obs_enqueue_blocks->Increment();
    }
    cv_push.wait(lock, [this] {
      return queue.size() < options->queue_capacity || stop;
    });
    if (stop) return;
    queue.push_back(std::move(command));
    UpdateDepthLocked();
    cv_pop.notify_one();
  }

  /// Blocks until the queue is empty and the worker idle.
  Status Drain() {
    std::unique_lock<std::mutex> lock(mu);
    cv_idle.wait(lock, [this] { return (queue.empty() && !busy) || stop; });
    return first_error;
  }

  void StopAndJoin() {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (stop && !worker.joinable()) return;
      stop = true;
    }
    // Release an injected stall so shutdown cannot hang on it.
    test_hold.store(false, std::memory_order_release);
    cv_pop.notify_all();
    cv_push.notify_all();
    if (worker.joinable()) worker.join();
    // Unregister before members the pending probe reads are destroyed.
    heartbeat.Unregister();
  }

  void Loop() {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      cv_pop.wait(lock, [this] { return stop || !queue.empty(); });
      if (queue.empty()) return;  // stop requested and queue drained
      ShardCommand command = std::move(queue.front());
      queue.pop_front();
      UpdateDepthLocked();
      busy = true;
      applying.store(1, std::memory_order_relaxed);
      lock.unlock();
      cv_push.notify_one();
      // Fault injection (tests only): hold here, with the command
      // popped and the heartbeat frozen — exactly the signature the
      // watchdog classifies as a worker stall. StopAndJoin releases
      // the hold so shutdown cannot hang.
      while (test_hold.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      // Fail-stop: after the first error the shard consumes (and
      // drops) commands so producers never deadlock, but neither the
      // WAL nor the bank advance — a half-applied shard would no
      // longer match its own log.
      Status applied = Status::OK();
      {
        std::lock_guard<std::mutex> peek(mu);
        applied = first_error;
      }
      if (applied.ok()) applied = Apply(std::move(command));
      published_horizon.store(bank.horizon(), std::memory_order_relaxed);
      applying.store(0, std::memory_order_relaxed);
      heartbeat.Beat();
      lock.lock();
      if (!applied.ok() && first_error.ok()) first_error = applied;
      busy = false;
      if (queue.empty()) cv_idle.notify_all();
    }
  }

  Status Apply(ShardCommand command) {
    Status applied = Status::Internal("unknown shard command");
    switch (command.kind) {
      case ShardCommand::Kind::kAddUser:
        applied = ApplyAddUser(std::move(command));
        break;
      case ShardCommand::Kind::kRelease:
        applied = ApplyRelease(std::move(command));
        break;
      case ShardCommand::Kind::kSnapshot:
        applied = SnapshotShard(this);
        break;
      case ShardCommand::Kind::kSync:
        applied = SyncShardWal(this);
        break;
      case ShardCommand::Kind::kCompact:
        applied = CompactShard(this, *options);
        break;
    }
    if (durable() && applied.ok()) PublishGauges();
    return applied;
  }

  void PublishGauges() {
    published_wal_bytes.store(wal.bytes_written(),
                              std::memory_order_relaxed);
    published_wal_records.store(wal.records_written(),
                                std::memory_order_relaxed);
  }

  Status ApplyAddUser(ShardCommand command) {
    if (durable()) {
      TCDP_RETURN_IF_ERROR(SettleShardSync(this, *options));
      AddUserRecord record;
      record.name = command.name;
      record.image.correlations = command.correlations;
      record.image.cache_alpha_resolution = bank.cache_alpha_resolution();
      TCDP_RETURN_IF_ERROR(
          wal.Append(EventType::kAddUser, EncodeAddUser(record)));
      ++wal_records;
    }
    bank.AddUser(std::move(command.correlations));
    names.push_back(std::move(command.name));
    return Status::OK();
  }

  Status ApplyRelease(ShardCommand command) {
    // "Tick latency" for this shard: one global release applied end to
    // end (WAL append + bank step + flush/sync policy).
    obs::ScopedLatencyTimer tick_timer(obs_tick_seconds);
    obs::ScopedSpan span("shard_tick", "shard", index);
    if (obs_batch_size != nullptr && obs::MetricsEnabled()) {
      obs_batch_size->Observe(command.all
                                  ? static_cast<double>(bank.num_users())
                                  : static_cast<double>(
                                        command.participants.size()));
    }
    if (durable()) {
      obs::ScopedSpan append_span("wal_append", "wal", index);
      ReleaseRecord record;
      record.epsilon = command.epsilon;
      record.all = command.all;
      if (!command.all) {
        std::vector<std::uint64_t> words((names.size() + 63) / 64, 0);
        for (std::size_t local : command.participants) {
          words[local >> 6] |= std::uint64_t{1} << (local & 63u);
        }
        record.mask = PackedMask::FromWords(std::move(words));
      }
      TCDP_RETURN_IF_ERROR(
          wal.Append(EventType::kRelease, EncodeRelease(record)));
      ++wal_records;
    }
    {
      obs::ScopedSpan step_span("bank_step", "bank", index);
      TCDP_RETURN_IF_ERROR(command.all
                               ? bank.RecordRelease(command.epsilon)
                               : bank.RecordRelease(command.epsilon,
                                                    command.participants));
    }
    // Decided now, not at the pop: a command that arrived during the
    // apply joins this release's sync group. Only this thread pops, so
    // a nonzero depth is a command that will run and carry the sync.
    return EndShardRelease(this, *options,
                           queue_depth.load(std::memory_order_relaxed) > 0);
  }
};

// ---------------------------------------------------------------- service

std::size_t ShardedReleaseService::ShardOf(const std::string& name,
                                           std::size_t num_shards) {
  return num_shards <= 1 ? 0
                         : static_cast<std::size_t>(Fnv1a64(name) % num_shards);
}

ShardedReleaseService::ShardedReleaseService(ShardedServiceOptions options)
    : options_(std::move(options)) {
  if (options_.num_shards == 0) options_.num_shards = 1;
  if (options_.batch_window == 0) options_.batch_window = 1;
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  if (options_.threads_per_shard == 0) options_.threads_per_shard = 1;
}

ShardedReleaseService::~ShardedReleaseService() { (void)Close(); }

Status ShardedReleaseService::StartShard(ShardState state) {
  const std::size_t i = shards_.size();
  auto shard = std::make_unique<Shard>(options_, std::move(state));
  for (std::size_t u = 0; u < shard->names.size(); ++u) {
    auto [it, inserted] = registry_.try_emplace(
        shard->names[u], static_cast<std::uint32_t>(i),
        static_cast<std::uint32_t>(u));
    if (!inserted) {
      return Status::InvalidArgument("user '" + shard->names[u] +
                                     "' appears on two shards");
    }
  }
  shard_user_count_.push_back(static_cast<std::uint32_t>(shard->names.size()));
  shard->Start();
  shards_.push_back(std::move(shard));
  return Status::OK();
}

StatusOr<std::unique_ptr<ShardedReleaseService>> ShardedReleaseService::Create(
    const std::string& log_dir, ShardedServiceOptions options) {
  TCDP_RETURN_IF_ERROR(CheckThreadBound(options));
  std::unique_ptr<ShardedReleaseService> service(
      new ShardedReleaseService(std::move(options)));
  service->log_dir_ = log_dir;
  const ShardedServiceOptions& effective = service->options_;
  std::vector<EventLogWriter> wals;
  if (!log_dir.empty()) {
    TCDP_ASSIGN_OR_RETURN(wals, CreateLogDir(log_dir, effective,
                                             FormatManifest(effective),
                                             /*manifest_records=*/true));
  }
  for (std::size_t i = 0; i < effective.num_shards; ++i) {
    ShardState state = EmptyShard(effective, log_dir, i);
    if (!wals.empty()) {
      state.wal = std::move(wals[i]);
      state.wal_records = 1;  // the manifest record
    }
    TCDP_RETURN_IF_ERROR(service->StartShard(std::move(state)));
  }
  return service;
}

StatusOr<std::unique_ptr<ShardedReleaseService>>
ShardedReleaseService::Recover(const std::string& log_dir,
                               std::size_t recovery_threads) {
  TCDP_ASSIGN_OR_RETURN(ShardedServiceOptions options,
                        ReadManifest(log_dir));
  std::unique_ptr<ShardedReleaseService> service(
      new ShardedReleaseService(std::move(options)));
  service->log_dir_ = log_dir;
  TCDP_ASSIGN_OR_RETURN(
      std::vector<ShardState> states,
      RecoverShards(log_dir, service->options_, recovery_threads));
  // Registration is serial, so registry order is shard-major whichever
  // shard finished recovering first.
  for (ShardState& state : states) {
    TCDP_RETURN_IF_ERROR(service->StartShard(std::move(state)));
  }
  return service;
}

Status ShardedReleaseService::Join(const std::string& name,
                                   TemporalCorrelations correlations) {
  if (closed_) {
    return Status::FailedPrecondition("service is closed");
  }
  constexpr std::size_t kMaxStates = TemporalLossFunction::kMaxTableStates;
  if ((correlations.has_backward() &&
       correlations.backward().size() > kMaxStates) ||
      (correlations.has_forward() &&
       correlations.forward().size() > kMaxStates)) {
    return Status::InvalidArgument(
        "Join: '" + name + "' has a matrix of more than " +
        std::to_string(kMaxStates) + " states");
  }
  const std::size_t shard = ShardOf(name, shards_.size());
  const std::uint32_t local = shard_user_count_[shard];
  auto [it, inserted] = registry_.try_emplace(
      name, static_cast<std::uint32_t>(shard), local);
  if (!inserted) {
    return Status::AlreadyExists("user '" + name + "' already joined");
  }
  ++shard_user_count_[shard];
  pending_joins_.push_back(
      PendingJoin{name, std::move(correlations), shard});
  ++stats_.join_requests;
  return EndRequestWindow();
}

Status ShardedReleaseService::Release(const std::string& name,
                                      double epsilon) {
  if (closed_) {
    return Status::FailedPrecondition("service is closed");
  }
  if (!(epsilon > 0.0) || !std::isfinite(epsilon)) {
    return Status::InvalidArgument(
        "Release: epsilon must be finite and > 0");
  }
  const auto it = registry_.find(name);
  if (it == registry_.end()) {
    return Status::NotFound("user '" + name + "' has not joined");
  }
  PendingGroup& group = GroupFor(epsilon);
  if (!group.all) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(it->second.first) << 32) |
        it->second.second;
    if (group.seen.insert(key).second) {
      group.per_shard[it->second.first].push_back(it->second.second);
    }
  }
  ++stats_.release_requests;
  return EndRequestWindow();
}

Status ShardedReleaseService::ReleaseAll(double epsilon) {
  if (closed_) {
    return Status::FailedPrecondition("service is closed");
  }
  if (!(epsilon > 0.0) || !std::isfinite(epsilon)) {
    return Status::InvalidArgument(
        "ReleaseAll: epsilon must be finite and > 0");
  }
  GroupFor(epsilon).all = true;
  ++stats_.release_requests;
  return EndRequestWindow();
}

ShardedReleaseService::PendingGroup& ShardedReleaseService::GroupFor(
    double epsilon) {
  for (auto& candidate : pending_groups_) {
    if (candidate->epsilon == epsilon) return *candidate;
  }
  auto fresh = std::make_unique<PendingGroup>();
  fresh->epsilon = epsilon;
  fresh->per_shard.resize(shards_.size());
  pending_groups_.push_back(std::move(fresh));
  return *pending_groups_.back();
}

Status ShardedReleaseService::EndRequestWindow() {
  if (++window_count_ < options_.batch_window) return Status::OK();
  TCDP_RETURN_IF_ERROR(Tick());
  return MaybeAutoCompact();
}

Status ShardedReleaseService::Tick() {
  const std::size_t window = window_count_;
  window_count_ = 0;
  if (pending_joins_.empty() && pending_groups_.empty()) {
    return Status::OK();
  }
  obs::ScopedSpan span("tick", "service", window);
  if (obs::MetricsEnabled()) {
    static obs::Histogram* tick_requests = [] {
      obs::HistogramOptions options;
      options.min_value = 1.0;
      options.max_value = 1e9;
      return obs::Registry::Default().GetHistogram(
          "tcdp_service_tick_requests", options);
    }();
    tick_requests->Observe(static_cast<double>(window));
  }
  for (PendingJoin& join : pending_joins_) {
    ShardCommand command;
    command.kind = ShardCommand::Kind::kAddUser;
    command.name = std::move(join.name);
    command.correlations = std::move(join.correlations);
    shards_[join.shard]->Push(std::move(command));
  }
  pending_joins_.clear();
  for (auto& group : pending_groups_) {
    // One global time step: EVERY shard records this release, so all
    // users' skip-leakage propagates and shards share one time axis.
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      ShardCommand command;
      command.kind = ShardCommand::Kind::kRelease;
      command.epsilon = group->epsilon;
      command.all = group->all;
      if (!group->all) {
        command.participants = std::move(group->per_shard[s]);
      }
      shards_[s]->Push(std::move(command));
    }
    ++stats_.global_releases;
  }
  pending_groups_.clear();
  ++stats_.ticks;
  return Status::OK();
}

Status ShardedReleaseService::DrainShard(std::size_t shard) {
  return shards_[shard]->Drain();
}

Status ShardedReleaseService::DrainAll() {
  Status first = Status::OK();
  for (auto& shard : shards_) {
    const Status drained = shard->Drain();
    if (!drained.ok() && first.ok()) first = drained;
  }
  return first;
}

Status ShardedReleaseService::Flush() {
  if (closed_) {
    return Status::FailedPrecondition("service is closed");
  }
  TCDP_RETURN_IF_ERROR(Tick());
  TCDP_RETURN_IF_ERROR(DrainAll());
  // The drain made the gauges exact, so this is where a retention
  // threshold reliably engages even when the tick-time (lag-prone)
  // checks kept missing it — e.g. a producer outrunning the workers on
  // a loaded host.
  return MaybeAutoCompact();
}

Status ShardedReleaseService::Snapshot() {
  if (log_dir_.empty()) {
    // Reject up front: pushing the command would store FailedPrecondition
    // as every shard's first_error and fail-stop the whole service.
    return Status::FailedPrecondition(
        "snapshot requested on an ephemeral service (no log dir)");
  }
  TCDP_RETURN_IF_ERROR(SnapshotAllShards());
  // Every shard just fdatasynced its WAL (snapshots sync first) at the
  // same horizon, so the rewrite precondition holds without an extra
  // sync round.
  if (options_.compaction.after_snapshot) return CompactShards();
  return Status::OK();
}

Status ShardedReleaseService::SnapshotAllShards() {
  TCDP_RETURN_IF_ERROR(Flush());
  for (auto& shard : shards_) {
    ShardCommand command;
    command.kind = ShardCommand::Kind::kSnapshot;
    shard->Push(std::move(command));
  }
  return DrainAll();
}

Status ShardedReleaseService::Compact() {
  if (closed_) {
    return Status::FailedPrecondition("service is closed");
  }
  if (log_dir_.empty()) {
    return Status::FailedPrecondition(
        "compaction requested on an ephemeral service (no log dir)");
  }
  compacting_ = true;
  struct Unguard {
    bool* flag;
    ~Unguard() { *flag = false; }
  } unguard{&compacting_};
  TCDP_RETURN_IF_ERROR(Flush());
  // Phase 1: make the current horizon durable on EVERY shard. Only
  // then may any shard drop records beneath it — otherwise a crash
  // could leave another shard's durable log below this shard's
  // compaction floor and recovery's alignment would have nowhere to go.
  for (auto& shard : shards_) {
    ShardCommand command;
    command.kind = ShardCommand::Kind::kSync;
    shard->Push(std::move(command));
  }
  TCDP_RETURN_IF_ERROR(DrainAll());
  return CompactShards();
}

Status ShardedReleaseService::CompactShards() {
  for (auto& shard : shards_) {
    ShardCommand command;
    command.kind = ShardCommand::Kind::kCompact;
    shard->Push(std::move(command));
  }
  return DrainAll();
}

Status ShardedReleaseService::MaybeAutoCompact() {
  const CompactionOptions& policy = options_.compaction;
  if (compacting_ || log_dir_.empty() ||
      (policy.max_wal_bytes == 0 && policy.max_wal_records == 0)) {
    return Status::OK();
  }
  bool over = false;
  for (const auto& shard : shards_) {
    const std::uint64_t bytes =
        shard->published_wal_bytes.load(std::memory_order_relaxed);
    const std::uint64_t records =
        shard->published_wal_records.load(std::memory_order_relaxed);
    if ((policy.max_wal_bytes > 0 && bytes >= policy.max_wal_bytes) ||
        (policy.max_wal_records > 0 && records >= policy.max_wal_records)) {
      over = true;
      break;
    }
  }
  if (!over) return Status::OK();
  // Fresh snapshots, not whatever anchor happens to exist: a stale
  // anchor could leave the post-anchor suffix still over the
  // threshold, and the check would re-trigger a full (useless)
  // rewrite every window. Snapshotting first collapses each WAL to
  // its floor, so one pass always converges; it also satisfies the
  // cross-shard durability precondition of CompactShards.
  compacting_ = true;
  struct Unguard {
    bool* flag;
    ~Unguard() { *flag = false; }
  } unguard{&compacting_};
  TCDP_RETURN_IF_ERROR(SnapshotAllShards());
  return CompactShards();
}

namespace {

/// \p to's scalar fields from \p from (the series are the caller's).
template <typename To, typename From>
To WithReportFields(const From& from) {
  To to;
  to.name = from.name;
  to.shard = from.shard;
  to.join_release = from.join_release;
  to.horizon = from.horizon;
  to.max_tpl = from.max_tpl;
  to.user_level_tpl = from.user_level_tpl;
  return to;
}

}  // namespace

UserReport ExpandReport(const UserReportRuns& runs) {
  UserReport report = WithReportFields<UserReport>(runs);
  ExpandRuns(runs.epsilons, &report.epsilons);
  ExpandRuns(runs.tpl_series, &report.tpl_series);
  return report;
}

UserReportRuns ToRunReport(const UserReport& report) {
  UserReportRuns runs = WithReportFields<UserReportRuns>(report);
  ToRuns(report.epsilons, &runs.epsilons);
  ToRuns(report.tpl_series, &runs.tpl_series);
  return runs;
}

Status ShardedReleaseService::Query(const std::string& name,
                                    UserReportRuns* out) {
  if (closed_) {
    return Status::FailedPrecondition("service is closed");
  }
  const auto it = registry_.find(name);
  if (it == registry_.end()) {
    return Status::NotFound("user '" + name + "' has not joined");
  }
  // A query closes the current window: everything submitted before it
  // is assigned a time step and applied before we read.
  TCDP_RETURN_IF_ERROR(Tick());
  TCDP_RETURN_IF_ERROR(DrainShard(it->second.first));
  const Shard& shard = *shards_[it->second.first];
  const std::size_t local = it->second.second;
  if (local >= shard.bank.num_users()) {
    return Status::Internal("user '" + name + "' not applied after drain");
  }
  out->name = name;
  out->shard = it->second.first;
  out->join_release = shard.bank.join_release(local);
  out->horizon = shard.bank.user_horizon(local);
  out->max_tpl = shard.bank.SeriesRunsFor(local, &out->epsilons, nullptr,
                                          nullptr, &out->tpl_series);
  out->user_level_tpl = shard.bank.UserEpsSum(local);
  return Status::OK();
}

StatusOr<UserReport> ShardedReleaseService::Query(const std::string& name) {
  UserReportRuns runs;
  TCDP_RETURN_IF_ERROR(Query(name, &runs));
  return ExpandReport(runs);
}

StatusOr<std::string> ShardedReleaseService::ExportUser(
    const std::string& name) {
  if (closed_) {
    return Status::FailedPrecondition("service is closed");
  }
  const auto it = registry_.find(name);
  if (it == registry_.end()) {
    return Status::NotFound("user '" + name + "' has not joined");
  }
  TCDP_RETURN_IF_ERROR(Tick());
  TCDP_RETURN_IF_ERROR(DrainShard(it->second.first));
  const Shard& shard = *shards_[it->second.first];
  if (it->second.second >= shard.bank.num_users()) {
    return Status::Internal("user '" + name + "' not applied after drain");
  }
  return shard.bank.SerializeUser(it->second.second);
}

std::size_t ShardedReleaseService::horizon() {
  if (!closed_) (void)DrainAll();
  std::size_t h = SIZE_MAX;
  for (const auto& shard : shards_) {
    h = std::min(h, shard->bank.horizon());
  }
  return shards_.empty() || h == SIZE_MAX ? 0 : h;
}

StatusOr<double> ShardedReleaseService::OverallAlpha() {
  TCDP_RETURN_IF_ERROR(Flush());
  double best = 0.0;
  for (const auto& shard : shards_) {
    best = std::max(best, shard->bank.OverallAlpha());
  }
  return best;
}

StatusOr<std::vector<std::pair<std::string, double>>>
ShardedReleaseService::PersonalizedAlphas() {
  TCDP_RETURN_IF_ERROR(Flush());
  std::vector<std::pair<std::string, double>> alphas;
  alphas.reserve(registry_.size());
  for (const auto& shard : shards_) {
    const std::vector<double> local = shard->bank.PersonalizedAlphas();
    for (std::size_t u = 0; u < local.size(); ++u) {
      alphas.emplace_back(shard->names[u], local[u]);
    }
  }
  return alphas;
}

ShardStats ShardedReleaseService::shard_stats(std::size_t shard) {
  ShardStats stats;
  {
    // Depth is sampled before the drain below empties the queue — it
    // answers "how backed up was this shard when you asked". The gauge
    // and watermark are maintained atomics, so no lock is needed for
    // them; enqueue_blocks is still guarded by mu.
    Shard& live = *shards_[shard];
    stats.queue_depth = live.queue_depth.load(std::memory_order_relaxed);
    stats.queue_depth_hwm =
        live.queue_depth_hwm.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(live.mu);
    stats.enqueue_blocks = live.enqueue_blocks;
  }
  if (!closed_) (void)DrainShard(shard);
  const Shard& s = *shards_[shard];
  stats.users = s.bank.num_users();
  stats.horizon = s.bank.horizon();
  stats.wal_records = s.wal_records;
  stats.wal_physical_records = s.durable() ? s.wal.records_written() : 0;
  stats.wal_bytes = s.durable() ? s.wal.bytes_written() : 0;
  stats.snapshots_written = s.snapshots_written;
  stats.compactions = s.compactions;
  stats.replayed_records = s.replayed_records;
  stats.restored_from_snapshot = s.restored_from_snapshot;
  return stats;
}

ServiceStats ShardedReleaseService::stats() const {
  ServiceStats stats = stats_;
  for (const auto& shard : shards_) {
    const TemporalLossCache::Stats cache = shard->bank.cache_stats();
    stats.cache_hits += cache.hits;
    stats.cache_misses += cache.misses;
    stats.cache_entries += cache.entries;
    stats.cache_distinct_matrices += cache.distinct_matrices;
  }
  return stats;
}

std::string ShardedReleaseService::DiagnosticStateText() const {
  // Everything here is a worker-published atomic: no locks, no drains,
  // so the flight recorder can snapshot a wedged service without
  // queueing behind the shard it is diagnosing.
  std::ostringstream out;
  out << "shards=" << shards_.size() << " log_dir="
      << (log_dir_.empty() ? "<ephemeral>" : log_dir_) << "\n";
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& s = *shards_[i];
    out << "shard " << i << ": queue_depth="
        << s.queue_depth.load(std::memory_order_relaxed)
        << " queue_depth_hwm="
        << s.queue_depth_hwm.load(std::memory_order_relaxed)
        << " applying=" << s.applying.load(std::memory_order_relaxed)
        << " horizon=" << s.published_horizon.load(std::memory_order_relaxed)
        << " wal_bytes="
        << s.published_wal_bytes.load(std::memory_order_relaxed)
        << " wal_records="
        << s.published_wal_records.load(std::memory_order_relaxed) << "\n";
  }
  return out.str();
}

void ShardedReleaseService::SetShardStallForTesting(std::size_t shard,
                                                    bool stalled) {
  shards_[shard]->test_hold.store(stalled, std::memory_order_release);
}

Status ShardedReleaseService::Close() {
  if (closed_) return Status::OK();
  Status first = Tick();
  for (auto& shard : shards_) {
    shard->StopAndJoin();
  }
  for (auto& shard : shards_) {
    if (!shard->first_error.ok() && first.ok()) first = shard->first_error;
    if (shard->durable() && shard->wal.is_open()) {
      const Status synced = shard->wal.Sync();
      if (!synced.ok() && first.ok()) first = synced;
      const Status closed = shard->wal.Close();
      if (!closed.ok() && first.ok()) first = closed;
    }
  }
  closed_ = true;
  return first;
}

}  // namespace server
}  // namespace tcdp
