#include "replication/log_stream.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/binary_io.h"
#include "common/logging.h"
#include "net/messages.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "replication/repl_messages.h"

namespace tcdp {
namespace replication {
namespace {

constexpr char kWalMagic[8] = {'T', 'C', 'D', 'P', 'W', 'A', 'L', '1'};
constexpr std::size_t kWalMagicBytes = sizeof(kWalMagic);
constexpr std::size_t kWalHeaderBytes = 1 + 4 + 4;  // type + len + crc
constexpr char kManifestHeader[] = "tcdp-shard-manifest-v1";

using net::ErrnoStatus;

/// Replication-primary instruments (obs/METRICS naming conventions).
struct ReplObs {
  obs::Gauge* followers;
  obs::Gauge* lag_records;
  obs::Gauge* min_acked_horizon;
  obs::Gauge* primary_records;
  obs::Counter* batches;
  obs::Counter* records;
  obs::Counter* bytes;
  obs::Counter* acks;
  obs::Counter* divergences;
  static const ReplObs& Get() {
    static const ReplObs instruments = [] {
      obs::Registry& registry = obs::Registry::Default();
      ReplObs o;
      o.followers = registry.GetGauge("tcdp_repl_followers");
      o.lag_records = registry.GetGauge("tcdp_repl_lag_records");
      o.min_acked_horizon =
          registry.GetGauge("tcdp_repl_min_acked_horizon");
      o.primary_records = registry.GetGauge("tcdp_repl_primary_records");
      o.batches = registry.GetCounter("tcdp_repl_batches_total");
      o.records = registry.GetCounter("tcdp_repl_records_total");
      o.bytes = registry.GetCounter("tcdp_repl_bytes_total");
      o.acks = registry.GetCounter("tcdp_repl_acks_total");
      o.divergences = registry.GetCounter("tcdp_repl_divergences_total");
      return o;
    }();
    return instruments;
  }
};

/// Reads a file whole (the directory MANIFEST: a few hundred bytes).
StatusOr<std::string> ReadFileText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  return contents;
}

/// Pulls `shards N` out of the MANIFEST text. The replication layer
/// needs only the shard count; everything else is the service's
/// business and travels to followers verbatim.
StatusOr<std::size_t> ParseManifestShards(const std::string& text) {
  std::istringstream in(text);
  std::string header;
  if (!std::getline(in, header) || header != kManifestHeader) {
    return Status::InvalidArgument("bad manifest header");
  }
  std::string key;
  while (in >> key) {
    if (key == "shards") {
      std::size_t shards = 0;
      if (!(in >> shards) || shards == 0) {
        return Status::InvalidArgument("malformed manifest 'shards' value");
      }
      return shards;
    }
    std::string skipped;
    if (!(in >> skipped)) break;
  }
  return Status::InvalidArgument("manifest carries no 'shards' key");
}

/// Answers \p conn with a kError and closes it once that flushes.
void Refuse(net::Connection* conn, const Status& why) {
  net::AppendFrame(conn->out(), net::MsgType::kError, net::EncodeError(why));
  conn->CloseAfterFlush();
}

}  // namespace

/// One shard WAL as the tailer sees it: an open fd, the scanned
/// (CRC-verified) record index, and the cursor chain at every prefix.
struct LogStreamServer::ShardTail {
  std::string path;
  int fd = -1;
  bool magic_checked = false;
  /// Byte offset just past the last fully-scanned record.
  std::uint64_t scan_offset = 0;
  /// record_end[i]: byte offset just past record i (record 0 starts at
  /// the magic boundary) — the pread ranges for batch building.
  std::vector<std::uint64_t> record_end;
  /// chain_after[i]: cursor chain CRC after records [0, i].
  std::vector<std::uint32_t> chain_after;
  /// Running kRelease count per prefix: releases_through[i] = kRelease
  /// records among [0, i] (the ack release-horizon bookkeeping).
  std::vector<std::uint64_t> releases_through;
  /// Record 1 is a kCompaction record: bootstraps must be refused (the
  /// rewritten prefix lives only in the primary's snapshot, which this
  /// stream does not carry).
  bool compacted = false;
  /// Unrecoverable tail problem (corruption past the committed
  /// prefix); streaming this shard stops and followers are dropped.
  Status error = Status::OK();

  ~ShardTail() {
    if (fd >= 0) ::close(fd);
  }

  std::uint64_t records() const { return record_end.size(); }
  std::uint32_t chain_at(std::uint64_t next_record) const {
    return next_record == 0 ? kChainSeed : chain_after[next_record - 1];
  }
  std::uint64_t record_start(std::uint64_t index) const {
    return index == 0 ? kWalMagicBytes : record_end[index - 1];
  }
};

/// One follower connection's streaming cursors and acked-durability
/// view (the connection itself is the event loop's).
struct LogStreamServer::Follower : net::ConnectionState {
  bool subscribed = false;
  /// Next record to send / the chain there, per shard.
  std::vector<std::uint64_t> next_record;
  /// Acked durability, per shard, from the latest kAckHorizon.
  std::vector<std::uint64_t> durable;
  std::uint64_t release_horizon = 0;
};

LogStreamServer::~LogStreamServer() = default;

StatusOr<std::unique_ptr<LogStreamServer>> LogStreamServer::Listen(
    LogStreamOptions options) {
  if (options.log_dir.empty()) {
    return Status::InvalidArgument("LogStreamServer: empty log_dir");
  }
  std::unique_ptr<LogStreamServer> server(new LogStreamServer());
  server->options_ = std::move(options);

  TCDP_ASSIGN_OR_RETURN(
      server->manifest_text_,
      ReadFileText(server->options_.log_dir + "/MANIFEST"));
  TCDP_ASSIGN_OR_RETURN(server->num_shards_,
                        ParseManifestShards(server->manifest_text_));
  if (server->manifest_text_.size() > net::kMaxFramePayload / 2) {
    return Status::InvalidArgument(
        "LogStreamServer: MANIFEST too large to stream");
  }
  for (std::size_t i = 0; i < server->num_shards_; ++i) {
    auto tail = std::make_unique<ShardTail>();
    tail->path = server->options_.log_dir + "/shard-" + std::to_string(i) +
                 ".wal";
    tail->fd = ::open(tail->path.c_str(), O_RDONLY);
    if (tail->fd < 0) {
      return ErrnoStatus("LogStreamServer: open " + tail->path);
    }
    server->tails_.push_back(std::move(tail));
  }

  net::EventLoopOptions loop;
  loop.name = "LogStreamServer";
  loop.host = server->options_.host;
  loop.port = server->options_.port;
  loop.listen_backlog = kListenBacklog;
  loop.max_connections = kMaxFollowers;
  loop.poll_interval_ms = kPollIntervalMs;
  loop.heartbeat = "repl-stream";
  // A follower that hangs up is owed nothing, and a stopped stream
  // resumes from the followers' cursors: no half-close, no drain.
  loop.close_on_peer_eof = true;
  TCDP_ASSIGN_OR_RETURN(server->loop_,
                        net::EventLoop::Listen(std::move(loop), server.get(),
                                               &server->loop_stats_));
  return server;
}

void LogStreamServer::OnAccept(net::Connection* conn) {
  conn->set_state(std::make_unique<Follower>());
}

void LogStreamServer::ScanShard(std::size_t shard) {
  ShardTail* tail = tails_[shard].get();
  if (!tail->error.ok()) return;

  // Compaction rewrites the WAL via rename: our fd keeps the old
  // inode. An inode change (or a same-inode shrink) means the record
  // index no longer describes the file — every cursor into it is
  // invalid, so followers are dropped (manual resync is the documented
  // recovery; docs/REPLICATION.md) and the tailer restarts on the new
  // file.
  struct stat by_path {};
  struct stat by_fd {};
  if (::stat(tail->path.c_str(), &by_path) != 0 ||
      ::fstat(tail->fd, &by_fd) != 0) {
    tail->error = ErrnoStatus("stat " + tail->path);
    return;
  }
  if (by_path.st_ino != by_fd.st_ino ||
      static_cast<std::uint64_t>(by_fd.st_size) < tail->scan_offset) {
    TCDP_LOG(kWarning) << "repl: shard " << shard
                       << " WAL was rewritten (compaction); dropping "
                          "followers";
    DropAllFollowers(Status::FailedPrecondition(
        "diverged: primary rewrote shard " + std::to_string(shard) +
        " WAL (compaction); followers must resync from scratch"));
    const int fd = ::open(tail->path.c_str(), O_RDONLY);
    if (fd < 0) {
      tail->error = ErrnoStatus("reopen " + tail->path);
      return;
    }
    ::close(tail->fd);
    tail->fd = fd;
    tail->magic_checked = false;
    tail->scan_offset = 0;
    tail->record_end.clear();
    tail->chain_after.clear();
    tail->releases_through.clear();
    tail->compacted = false;
    if (::fstat(tail->fd, &by_fd) != 0) {
      tail->error = ErrnoStatus("fstat " + tail->path);
      return;
    }
  }
  const std::uint64_t size = static_cast<std::uint64_t>(by_fd.st_size);

  if (!tail->magic_checked) {
    if (size < kWalMagicBytes) return;  // writer has not flushed yet
    char magic[kWalMagicBytes];
    if (::pread(tail->fd, magic, kWalMagicBytes, 0) !=
            static_cast<ssize_t>(kWalMagicBytes) ||
        std::memcmp(magic, kWalMagic, kWalMagicBytes) != 0) {
      tail->error = Status::InvalidArgument(tail->path +
                                            " is not a tcdp event log");
      return;
    }
    tail->magic_checked = true;
    tail->scan_offset = kWalMagicBytes;
  }

  while (tail->scan_offset + kWalHeaderBytes <= size) {
    char header[kWalHeaderBytes];
    if (::pread(tail->fd, header, kWalHeaderBytes,
                static_cast<off_t>(tail->scan_offset)) !=
        static_cast<ssize_t>(kWalHeaderBytes)) {
      tail->error = ErrnoStatus("pread " + tail->path);
      return;
    }
    const std::uint8_t type_byte = static_cast<std::uint8_t>(header[0]);
    std::uint32_t payload_len = 0;
    std::uint32_t stored_crc = 0;
    BinaryCursor cursor(header + 1, kWalHeaderBytes - 1);
    (void)cursor.ReadFixed32(&payload_len);
    (void)cursor.ReadFixed32(&stored_crc);
    const std::uint64_t end =
        tail->scan_offset + kWalHeaderBytes + payload_len;
    if (end > size) return;  // partial record: wait for the writer
    // The record's bytes are all durable in the file now (the writer
    // appends via a retrying write loop, so a record fully inside the
    // file size is final). A CRC mismatch here is real corruption, not
    // an in-progress append.
    std::string payload(payload_len, '\0');
    if (payload_len > 0 &&
        ::pread(tail->fd, &payload[0], payload_len,
                static_cast<off_t>(tail->scan_offset + kWalHeaderBytes)) !=
            static_cast<ssize_t>(payload_len)) {
      tail->error = ErrnoStatus("pread " + tail->path);
      return;
    }
    std::uint32_t crc = Crc32(&type_byte, 1);
    crc = Crc32(payload.data(), payload.size(), crc);
    if (crc != stored_crc) {
      tail->error = Status::Internal(
          tail->path + ": CRC mismatch at offset " +
          std::to_string(tail->scan_offset) + " (committed prefix)");
      TCDP_LOG(kWarning) << "repl: " << tail->error.message();
      DropAllFollowers(tail->error);
      return;
    }
    const std::uint64_t index = tail->records();
    if (index == 1 &&
        static_cast<server::EventType>(type_byte) ==
            server::EventType::kCompaction) {
      tail->compacted = true;
    }
    const std::uint64_t prior_releases =
        index == 0 ? 0 : tail->releases_through[index - 1];
    tail->releases_through.push_back(
        prior_releases + (static_cast<server::EventType>(type_byte) ==
                                  server::EventType::kRelease
                              ? 1
                              : 0));
    tail->chain_after.push_back(AdvanceChainCrc(tail->chain_at(index), crc));
    tail->record_end.push_back(end);
    tail->scan_offset = end;
  }
}

void LogStreamServer::BeforeRound() {
  // Tail the WALs every round: the poll timeout doubles as the
  // growth-detection cadence.
  for (std::size_t i = 0; i < tails_.size(); ++i) ScanShard(i);
}

void LogStreamServer::DropAllFollowers(const Status& why) {
  for (const auto& conn : loop_->connections()) {
    if (!conn->closing()) Refuse(conn.get(), why);
  }
}

void LogStreamServer::OnFrames(net::Connection* conn) {
  Follower* follower = static_cast<Follower*>(conn->state());
  net::Frame frame;
  while (conn->NextFrame(&frame)) {
    if (!follower->subscribed) {
      if (frame.type != net::MsgType::kSubscribe) {
        Refuse(conn,
               Status::InvalidArgument(
                   "replication stream expects kSubscribe first, got type " +
                   std::to_string(static_cast<unsigned>(frame.type))));
        return;
      }
      HandleSubscribe(conn, follower, frame.payload);
      continue;
    }
    if (frame.type != net::MsgType::kAckHorizon) {
      Refuse(conn,
             Status::InvalidArgument(
                 "subscribed replication stream accepts only kAckHorizon, "
                 "got type " +
                 std::to_string(static_cast<unsigned>(frame.type))));
      return;
    }
    HandleAck(conn, follower, frame.payload);
  }
  if (follower->subscribed && !conn->closing() &&
      PumpBatches(conn, follower)) {
    pumped_ = true;
  }
}

void LogStreamServer::HandleSubscribe(net::Connection* conn, Follower* follower,
                                      const std::string& payload) {
  ++subscribes_;
  auto request = DecodeSubscribe(payload);
  if (!request.ok()) {
    Refuse(conn, request.status());
    return;
  }
  const bool bootstrap = request->cursors.empty();
  if (!bootstrap && request->cursors.size() != num_shards_) {
    Refuse(conn,
           Status::InvalidArgument(
               "subscribe carries " + std::to_string(request->cursors.size()) +
               " cursors for a " + std::to_string(num_shards_) +
               "-shard primary"));
    return;
  }
  for (std::size_t i = 0; i < num_shards_; ++i) {
    const ShardTail& tail = *tails_[i];
    if (!tail.error.ok()) {
      Refuse(conn, tail.error);
      return;
    }
    const std::uint64_t next =
        bootstrap ? 0 : request->cursors[i].next_record;
    if (tail.compacted && next < 2) {
      // Records before the compaction base live only in the primary's
      // snapshot, which this stream does not carry.
      Refuse(conn,
             Status::FailedPrecondition(
                 "cannot bootstrap from a compacted primary (shard " +
                 std::to_string(i) +
                 "); copy the log directory for the initial sync"));
      return;
    }
    if (bootstrap) continue;
    if (next > tail.records() ||
        request->cursors[i].chain_crc != tail.chain_at(next)) {
      ++divergences_;
      if (obs::MetricsEnabled()) ReplObs::Get().divergences->Increment();
      const std::string reason =
          next > tail.records()
              ? "cursor is ahead of the primary's log"
              : "cursor chain CRC does not match the primary's history";
      TCDP_LOG(kWarning) << "repl: refusing diverged follower on shard "
                         << i << " (" << reason << ")";
      Refuse(conn, Status::FailedPrecondition("diverged: shard " +
                                              std::to_string(i) + " " +
                                              reason));
      return;
    }
  }
  follower->next_record.assign(num_shards_, 0);
  follower->durable.assign(num_shards_, 0);
  if (!bootstrap) {
    for (std::size_t i = 0; i < num_shards_; ++i) {
      follower->next_record[i] = request->cursors[i].next_record;
      follower->durable[i] = request->cursors[i].next_record;
    }
  }
  SubscribeOk ok;
  ok.num_shards = num_shards_;
  ok.manifest_text = manifest_text_;
  net::AppendFrame(conn->out(), net::MsgType::kSubscribeOk,
                   EncodeSubscribeOk(ok));
  follower->subscribed = true;
}

void LogStreamServer::HandleAck(net::Connection* conn, Follower* follower,
                                const std::string& payload) {
  auto ack = DecodeAckHorizon(payload);
  if (!ack.ok()) {
    Refuse(conn, ack.status());
    return;
  }
  if (ack->durable_records.size() != num_shards_) {
    Refuse(conn,
           Status::InvalidArgument(
               "ack carries " + std::to_string(ack->durable_records.size()) +
               " shard horizons for a " + std::to_string(num_shards_) +
               "-shard primary"));
    return;
  }
  for (std::size_t i = 0; i < num_shards_; ++i) {
    // Acks only advance; a horizon moving backwards (or past what was
    // ever sent) is a protocol violation.
    if (ack->durable_records[i] < follower->durable[i] ||
        ack->durable_records[i] > follower->next_record[i]) {
      Refuse(conn, Status::InvalidArgument(
                       "ack horizon for shard " + std::to_string(i) +
                       " is not monotonic within the streamed range"));
      return;
    }
    follower->durable[i] = ack->durable_records[i];
  }
  follower->release_horizon = ack->release_horizon;
  ++acks_received_;
  if (obs::MetricsEnabled()) ReplObs::Get().acks->Increment();
}

bool LogStreamServer::PumpBatches(net::Connection* conn, Follower* follower) {
  bool queued = false;
  for (std::size_t i = 0; i < num_shards_; ++i) {
    ShardTail& tail = *tails_[i];
    if (!tail.error.ok()) continue;
    while (follower->next_record[i] < tail.records() &&
           conn->pending_out() < kMaxWriteBuffer) {
      const std::uint64_t from = follower->next_record[i];
      LogBatch batch;
      batch.shard = i;
      batch.first_record = from;
      batch.prev_chain_crc = tail.chain_at(from);
      // Walk forward under both budgets. A record's encoded size is
      // its payload plus a ~6-byte type/length envelope, so budgeting
      // on raw WAL span keeps the encoded batch inside the frame cap.
      std::uint64_t end_record = from;
      const std::uint64_t start_offset = tail.record_start(from);
      while (end_record < tail.records() &&
             end_record - from < kMaxBatchRecords) {
        const std::uint64_t span =
            tail.record_end[end_record] - start_offset;
        if (end_record > from && span > kMaxBatchBytes) break;
        ++end_record;
      }
      const std::uint64_t span =
          tail.record_end[end_record - 1] - start_offset;
      std::string bytes(span, '\0');
      if (::pread(tail.fd, &bytes[0], span,
                  static_cast<off_t>(start_offset)) !=
          static_cast<ssize_t>(span)) {
        tail.error = ErrnoStatus("pread " + tail.path);
        DropAllFollowers(tail.error);
        return queued;
      }
      // Re-frame the raw span into batch records (headers were CRC-
      // verified at scan time).
      std::size_t pos = 0;
      for (std::uint64_t r = from; r < end_record; ++r) {
        const std::uint8_t type_byte = static_cast<std::uint8_t>(bytes[pos]);
        BinaryCursor header(bytes.data() + pos + 1, 8);
        std::uint32_t payload_len = 0;
        (void)header.ReadFixed32(&payload_len);
        server::EventRecord record;
        record.type = static_cast<server::EventType>(type_byte);
        record.payload.assign(bytes, pos + kWalHeaderBytes, payload_len);
        batch.records.push_back(std::move(record));
        pos += kWalHeaderBytes + payload_len;
      }
      const std::string encoded = EncodeLogBatch(batch);
      if (encoded.size() > net::kMaxFramePayload) {
        // A single WAL record too large for one frame (a >1 MiB join).
        // Nothing smaller can carry it; the stream cannot proceed.
        tail.error = Status::ResourceExhausted(
            tail.path + ": record " + std::to_string(from) +
            " exceeds the replication frame limit");
        DropAllFollowers(tail.error);
        return queued;
      }
      net::AppendFrame(conn->out(), net::MsgType::kLogBatch, encoded);
      follower->next_record[i] = end_record;
      ++batches_sent_;
      records_sent_ += batch.records.size();
      bytes_sent_ += encoded.size();
      if (obs::MetricsEnabled()) {
        const ReplObs& repl_obs = ReplObs::Get();
        repl_obs.batches->Increment();
        repl_obs.records->Add(batch.records.size());
        repl_obs.bytes->Add(encoded.size());
      }
      queued = true;
    }
  }
  return queued;
}

void LogStreamServer::RefreshStats() {
  LogStreamStats stats;
  stats.num_shards = num_shards_;
  stats.subscribes = subscribes_;
  stats.batches_sent = batches_sent_;
  stats.records_sent = records_sent_;
  stats.bytes_sent = bytes_sent_;
  stats.acks_received = acks_received_;
  stats.divergences = divergences_;
  for (const auto& tail : tails_) stats.primary_records += tail->records();
  bool first = true;
  for (const auto& conn : loop_->connections()) {
    const Follower* follower = static_cast<Follower*>(conn->state());
    if (!follower->subscribed || conn->closing()) continue;
    FollowerRow row;
    row.subscribed = true;
    for (std::size_t i = 0; i < num_shards_; ++i) {
      row.durable_records += follower->durable[i];
      row.lag_records += tails_[i]->records() - follower->durable[i];
    }
    row.release_horizon = follower->release_horizon;
    stats.min_acked_release_horizon =
        first ? row.release_horizon
              : std::min(stats.min_acked_release_horizon,
                         row.release_horizon);
    stats.max_lag_records = std::max(stats.max_lag_records, row.lag_records);
    first = false;
    ++stats.followers;
    stats.follower_rows.push_back(row);
  }
  if (obs::MetricsEnabled()) {
    const ReplObs& repl_obs = ReplObs::Get();
    repl_obs.followers->Set(static_cast<std::int64_t>(stats.followers));
    repl_obs.lag_records->Set(
        static_cast<std::int64_t>(stats.max_lag_records));
    repl_obs.min_acked_horizon->Set(
        static_cast<std::int64_t>(stats.min_acked_release_horizon));
    repl_obs.primary_records->Set(
        static_cast<std::int64_t>(stats.primary_records));
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_ = std::move(stats);
}

LogStreamStats LogStreamServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

bool LogStreamServer::AfterRound() {
  RefreshStats();
  const bool pumped = pumped_;
  pumped_ = false;
  return pumped;
}

Status LogStreamServer::Serve() {
  const Status status = loop_->Run();
  RefreshStats();
  return status;
}

}  // namespace replication
}  // namespace tcdp
