#ifndef TCDP_REPLICATION_LOG_STREAM_H_
#define TCDP_REPLICATION_LOG_STREAM_H_

/// \file
/// LogStreamServer: the primary side of WAL-streaming replication.
///
/// The server is a pure *file tailer*: it watches the shard WALs of a
/// live (or even dead) `tcdp serve` log directory and streams every
/// committed record to subscribed followers over the TCDPNET1 framing
/// (kSubscribe / kSubscribeOk / kLogBatch / kAckHorizon — grammar in
/// docs/REPLICATION.md). It never touches the service itself, holds no
/// lock the ingest path can contend on, and cannot perturb the
/// primary's accounting state by construction — the fault-injection
/// tests (tests/replication_test.cc) prove the stronger claim that no
/// follower misbehavior changes a single byte of the primary's WALs.
///
/// Positions are (record index, chain CRC) pairs: the chain folds every
/// record's frame CRC in order (repl_messages.h), so a subscriber's
/// cursor asserts *content*, not just length. A cursor whose chain the
/// primary cannot reproduce is answered with a "diverged:" kError and
/// the connection is closed — a forked follower is refused, never
/// resynchronized silently.
///
/// Runs on a net::EventLoop like net::NetServer: Serve() on a dedicated
/// thread, Stop() from anywhere. stats() is thread-safe.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/event_loop.h"

namespace tcdp {
namespace replication {

struct LogStreamOptions {
  /// The primary's log directory (MANIFEST + shard-<i>.wal files).
  std::string log_dir;
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port (see port()).
  std::uint16_t port = 0;
};

/// One subscribed follower, as seen by the primary.
struct FollowerRow {
  bool subscribed = false;
  /// Sum over shards of records the follower has fdatasynced.
  std::uint64_t durable_records = 0;
  /// The release horizon those durable prefixes commit.
  std::uint64_t release_horizon = 0;
  /// Sum over shards of (primary records - follower durable records).
  std::uint64_t lag_records = 0;
};

struct LogStreamStats {
  std::size_t num_shards = 0;
  std::size_t followers = 0;
  /// Sum over shards of committed records visible to the tailer.
  std::uint64_t primary_records = 0;
  std::uint64_t subscribes = 0;
  std::uint64_t batches_sent = 0;
  std::uint64_t records_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t divergences = 0;
  /// Min over followers of release_horizon (0 with no followers).
  std::uint64_t min_acked_release_horizon = 0;
  /// Max over followers of lag_records (0 with no followers).
  std::uint64_t max_lag_records = 0;
  std::vector<FollowerRow> follower_rows;
};

class LogStreamServer : private net::EventLoop::Handler {
 public:
  /// \name Bounds (docs/ARCHITECTURE.md, "Network frontend").
  /// @{
  static constexpr int kListenBacklog = 16;
  static constexpr std::size_t kMaxFollowers = 16;
  /// Per-kLogBatch budget. Bytes are capped well under the frame limit
  /// so a batch plus its framing always fits kMaxFramePayload.
  static constexpr std::size_t kMaxBatchRecords = 256;
  static constexpr std::size_t kMaxBatchBytes = 256 * 1024;
  /// Per-follower write backlog bound; a follower at the bound is not
  /// sent further batches until it drains (backpressure, not OOM).
  /// Its acks are still read: they produce no output.
  static constexpr std::size_t kMaxWriteBuffer = 4 * 1024 * 1024;
  /// Poll timeout: the latency floor for noticing WAL growth.
  static constexpr int kPollIntervalMs = 20;
  /// @}

  /// Validates the log directory (MANIFEST readable, every shard WAL
  /// openable) and binds the replication listener.
  static StatusOr<std::unique_ptr<LogStreamServer>> Listen(
      LogStreamOptions options);

  ~LogStreamServer() override;
  LogStreamServer(const LogStreamServer&) = delete;
  LogStreamServer& operator=(const LogStreamServer&) = delete;

  /// Runs the accept/tail/stream loop until Stop(). Call on a
  /// dedicated thread; returns only fatal listener errors.
  Status Serve();

  /// Thread-safe, idempotent, callable before Serve().
  void Stop() { loop_->Stop(); }

  std::uint16_t port() const { return loop_->port(); }
  std::size_t num_shards() const { return num_shards_; }

  /// Thread-safe snapshot of streaming/ack state (refreshed every
  /// poll round by the serve loop).
  LogStreamStats stats() const;

 private:
  struct ShardTail;
  struct Follower;

  LogStreamServer() = default;

  // net::EventLoop::Handler: BeforeRound tails the WALs, OnFrames
  // handles subscribe/ack and pumps batches, AfterRound publishes stats.
  void OnAccept(net::Connection* conn) override;
  void BeforeRound() override;
  void OnFrames(net::Connection* conn) override;
  bool AfterRound() override;

  /// Incremental WAL scan for one shard; extends the record index and
  /// chain. Detects rewrites (compaction) and corruption.
  void ScanShard(std::size_t shard);
  /// Drops every follower with a kError explaining \p why.
  void DropAllFollowers(const Status& why);
  void HandleSubscribe(net::Connection* conn, Follower* follower,
                       const std::string& payload);
  void HandleAck(net::Connection* conn, Follower* follower,
                 const std::string& payload);
  /// Queues kLogBatch frames for every shard the follower is behind
  /// on, up to the write-buffer bound. Returns true if any were queued.
  bool PumpBatches(net::Connection* conn, Follower* follower);
  void RefreshStats();

  LogStreamOptions options_;
  std::size_t num_shards_ = 0;
  std::string manifest_text_;
  /// Transport counters (not published; LogStreamStats is the view).
  net::EventLoopStats loop_stats_;
  std::unique_ptr<net::EventLoop> loop_;

  std::vector<std::unique_ptr<ShardTail>> tails_;
  /// Some follower was sent a batch this round (heartbeat progress).
  bool pumped_ = false;

  // Loop-thread counters, published into stats_ under stats_mutex_.
  std::uint64_t subscribes_ = 0;
  std::uint64_t batches_sent_ = 0;
  std::uint64_t records_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t acks_received_ = 0;
  std::uint64_t divergences_ = 0;

  mutable std::mutex stats_mutex_;
  LogStreamStats stats_;
};

}  // namespace replication
}  // namespace tcdp

#endif  // TCDP_REPLICATION_LOG_STREAM_H_
