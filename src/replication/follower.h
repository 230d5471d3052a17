#ifndef TCDP_REPLICATION_FOLLOWER_H_
#define TCDP_REPLICATION_FOLLOWER_H_

/// \file
/// Follower: the replica side of WAL-streaming replication.
///
/// A follower maintains a *byte-identical* copy of a primary's log
/// directory: it subscribes to the primary's LogStreamServer with its
/// per-shard (record, chain CRC) cursors, appends every kLogBatch
/// record through the same EventLogWriter framing the primary used
/// (the re-framing is deterministic, so the copies are bitwise equal),
/// fdatasyncs, and acks its durable horizon. Promotion is crash
/// recovery: ShardedReleaseService::Recover over the replica directory
/// — the single snapshot-restore + replay path — which makes the
/// promoted service's state bitwise identical to what the primary
/// would recover to at the acked horizon (property-tested in
/// tests/failover_test.cc).
///
/// Divergence is terminal by design: a chain-CRC mismatch between the
/// local log and the primary's stream means the two histories forked
/// (e.g. the primary lost an acked tail and wrote different records
/// over it). The follower then refuses to apply anything further,
/// latches `diverged`, publishes the tcdp_repl_diverged gauge, and
/// logs loudly — it never truncates its own log to match, and never
/// silently forks state (tests/divergence_test.cc). Transport
/// failures, by contrast, just reconnect and resubscribe.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "server/sharded_service.h"

namespace tcdp {
namespace replication {

struct FollowerOptions {
  std::string primary_host = "127.0.0.1";
  std::uint16_t primary_port = 0;
  /// Replica log directory. Empty or MANIFEST-less bootstraps from the
  /// primary (shard count + MANIFEST arrive in kSubscribeOk); an
  /// existing replica resumes from its local cursors.
  std::string log_dir;
  int connect_attempts = 40;
  int connect_retry_delay_ms = 50;
  /// Reconnect + resubscribe after transport failures. Divergence
  /// never reconnects regardless.
  bool reconnect = true;
  int reconnect_delay_ms = 50;
};

struct FollowerStatus {
  bool running = false;
  bool connected = false;
  bool subscribed = false;
  /// Terminal: local history forked from the primary's.
  bool diverged = false;
  Status last_error = Status::OK();
  std::size_t num_shards = 0;
  /// Per-shard records appended + fdatasynced (== the acked cursor).
  std::vector<std::uint64_t> durable_records;
  /// Release horizon those prefixes commit (min over shards).
  std::uint64_t release_horizon = 0;
  std::uint64_t batches_applied = 0;
  std::uint64_t records_applied = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t reconnects = 0;
};

class Follower {
 public:
  /// Validates (and for an existing replica, scans + torn-tail-truncates)
  /// the local directory. Does not connect.
  static StatusOr<std::unique_ptr<Follower>> Open(FollowerOptions options);

  ~Follower();
  Follower(const Follower&) = delete;
  Follower& operator=(const Follower&) = delete;

  /// Spawns the streaming thread (connect, subscribe, apply, ack).
  Status Start();

  /// Stops the streaming thread and closes the WAL writers. Idempotent.
  void Stop();

  /// Stop + ShardedReleaseService::Recover over the replica directory:
  /// the follower becomes a primary through the crash-recovery path.
  /// The Follower holds no state afterwards (one-shot).
  StatusOr<std::unique_ptr<server::ShardedReleaseService>> Promote();

  FollowerStatus status() const;

 private:
  struct ShardState;

  Follower() = default;

  Status RunOnce();  ///< one connect/subscribe/stream session
  void Run();        ///< session loop with reconnect policy
  Status LoadLocalState();
  Status BootstrapFromManifest(const std::string& manifest_text,
                               std::size_t num_shards);
  Status HandleBatch(const std::string& payload, bool* applied);
  Status SyncAndAck(int fd);
  void SetError(const Status& error);
  void MarkDiverged(const Status& why);

  FollowerOptions options_;
  std::vector<std::unique_ptr<ShardState>> shards_;
  bool bootstrap_ = false;

  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<int> fd_{-1};
  bool started_ = false;

  mutable std::mutex mutex_;
  FollowerStatus status_;
};

}  // namespace replication
}  // namespace tcdp

#endif  // TCDP_REPLICATION_FOLLOWER_H_
