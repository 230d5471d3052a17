#include "replication/follower.h"

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <utility>

#include "common/logging.h"
#include "net/event_loop.h"
#include "net/messages.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/watchdog.h"
#include "replication/repl_messages.h"
#include "server/event_log.h"
#include "server/log_dir.h"

namespace tcdp {
namespace replication {
namespace {

using net::ErrnoStatus;

/// Follower-side instruments.
struct FollowerObs {
  obs::Gauge* diverged;
  obs::Counter* batches;
  obs::Counter* records;
  obs::Counter* acks;
  obs::Counter* reconnects;
  static const FollowerObs& Get() {
    static const FollowerObs instruments = [] {
      obs::Registry& registry = obs::Registry::Default();
      FollowerObs o;
      o.diverged = registry.GetGauge("tcdp_repl_diverged");
      o.batches =
          registry.GetCounter("tcdp_repl_follower_batches_total");
      o.records =
          registry.GetCounter("tcdp_repl_follower_records_total");
      o.acks = registry.GetCounter("tcdp_repl_follower_acks_total");
      o.reconnects =
          registry.GetCounter("tcdp_repl_follower_reconnects_total");
      return o;
    }();
    return instruments;
  }
};

/// Is this kError a divergence verdict (terminal) rather than a
/// transient transport/availability problem? The primary prefixes
/// every fork-refusal with "diverged:" (docs/REPLICATION.md).
bool IsDivergenceError(const Status& status) {
  return status.message().find("diverged:") != std::string::npos;
}

}  // namespace

/// One replicated shard WAL: writer + cursor + release count.
struct Follower::ShardState {
  server::EventLogWriter writer;
  std::uint64_t records = 0;
  std::uint32_t chain = kChainSeed;
  std::uint64_t releases = 0;
  bool dirty = false;  ///< appended since the last Sync
};

Follower::~Follower() { Stop(); }

StatusOr<std::unique_ptr<Follower>> Follower::Open(FollowerOptions options) {
  if (options.log_dir.empty()) {
    return Status::InvalidArgument("Follower: empty log_dir");
  }
  std::unique_ptr<Follower> follower(new Follower());
  follower->options_ = std::move(options);
  TCDP_RETURN_IF_ERROR(follower->LoadLocalState());
  return follower;
}

Status Follower::LoadLocalState() {
  StatusOr<server::ShardedServiceOptions> manifest =
      server::ReadManifest(options_.log_dir);
  if (manifest.status().code() == StatusCode::kNotFound) {
    // Fresh replica: the shard count and MANIFEST text arrive in
    // kSubscribeOk. Make sure the directory exists.
    if (::mkdir(options_.log_dir.c_str(), 0755) != 0 && errno != EEXIST) {
      return ErrnoStatus("Follower: mkdir " + options_.log_dir);
    }
    bootstrap_ = true;
    return Status::OK();
  }
  TCDP_RETURN_IF_ERROR(manifest.status());
  const std::size_t num_shards = manifest->num_shards;
  for (std::size_t i = 0; i < num_shards; ++i) {
    const std::string path = server::ShardWalPath(options_.log_dir, i);
    TCDP_ASSIGN_OR_RETURN(server::ReadLogResult log,
                          server::ReadEventLog(path));
    if (!log.clean) {
      // A torn tail is what a follower crash looks like: cut it and
      // resume — exactly the primary's own recovery move.
      TCDP_LOG(kWarning) << "repl follower: shard " << i
                         << " torn tail (" << log.tail_error
                         << "); truncating to " << log.valid_bytes
                         << " bytes";
      TCDP_RETURN_IF_ERROR(server::TruncateFile(path, log.valid_bytes));
    }
    auto shard = std::make_unique<ShardState>();
    for (const server::EventRecord& record : log.records) {
      if (record.type == server::EventType::kCompaction) {
        return Status::FailedPrecondition(
            "Follower: " + path +
            " contains a compaction record — not a streamed replica "
            "(replicas are never compacted)");
      }
      shard->chain =
          AdvanceChainCrc(shard->chain, RecordFrameCrc(record));
      if (record.type == server::EventType::kRelease) ++shard->releases;
      ++shard->records;
    }
    TCDP_ASSIGN_OR_RETURN(
        shard->writer,
        server::EventLogWriter::OpenForAppend(path, log.valid_bytes,
                                              shard->records));
    shards_.push_back(std::move(shard));
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    status_.num_shards = num_shards;
    status_.durable_records.assign(num_shards, 0);
    std::uint64_t horizon = 0;
    for (std::size_t i = 0; i < num_shards; ++i) {
      status_.durable_records[i] = shards_[i]->records;
      horizon = i == 0 ? shards_[i]->releases
                       : std::min(horizon, shards_[i]->releases);
    }
    status_.release_horizon = horizon;
  }
  return Status::OK();
}

Status Follower::BootstrapFromManifest(const std::string& manifest_text,
                                       std::size_t num_shards) {
  // The one MANIFEST parser, with its shard and thread bounds: a
  // primary cannot make this replica lay down a directory the service
  // could not recover.
  TCDP_ASSIGN_OR_RETURN(
      const server::ShardedServiceOptions manifest,
      server::ParseManifest(manifest_text, "kSubscribeOk MANIFEST"));
  if (manifest.num_shards != num_shards) {
    return Status::InvalidArgument(
        "Follower: kSubscribeOk shard count " + std::to_string(num_shards) +
        " disagrees with its own manifest (" +
        std::to_string(manifest.num_shards) + ")");
  }
  // Every WAL (magic only, synced) before the MANIFEST, which lands
  // verbatim so the replica directory is byte-for-byte the primary's:
  // a directory is well-formed from the instant its MANIFEST exists,
  // and a failed attempt leaves none, so the next one starts over.
  TCDP_ASSIGN_OR_RETURN(
      std::vector<server::EventLogWriter> wals,
      server::CreateLogDir(options_.log_dir, manifest, manifest_text,
                           /*manifest_records=*/false));
  for (server::EventLogWriter& wal : wals) {
    shards_.push_back(std::make_unique<ShardState>());
    shards_.back()->writer = std::move(wal);
  }
  bootstrap_ = false;
  std::lock_guard<std::mutex> lock(mutex_);
  status_.num_shards = num_shards;
  status_.durable_records.assign(num_shards, 0);
  return Status::OK();
}

Status Follower::Start() {
  if (started_) {
    return Status::FailedPrecondition("Follower::Start already ran");
  }
  started_ = true;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    status_.running = true;
  }
  thread_ = std::thread([this] { Run(); });
  return Status::OK();
}

void Follower::Stop() {
  stop_.store(true);
  const int fd = fd_.load();
  if (fd >= 0) (void)::shutdown(fd, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  for (auto& shard : shards_) {
    if (shard->writer.is_open()) (void)shard->writer.Close();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  status_.running = false;
  status_.connected = false;
  status_.subscribed = false;
}

StatusOr<std::unique_ptr<server::ShardedReleaseService>>
Follower::Promote() {
  Stop();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (status_.diverged) {
      return Status::FailedPrecondition(
          "Follower::Promote: replica diverged from the primary; its "
          "state is not a prefix of any primary history");
    }
    if (bootstrap_) {
      // No MANIFEST ever arrived, so there is nothing to recover. The
      // reason is the primary's refusal (a compacted primary cannot
      // seed a follower), not the empty directory.
      if (!status_.last_error.ok()) return status_.last_error;
      return Status::FailedPrecondition(
          "Follower::Promote: nothing streamed from the primary yet");
    }
  }
  return server::ShardedReleaseService::Recover(options_.log_dir);
}

FollowerStatus Follower::status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return status_;
}

void Follower::MarkDiverged(const Status& why) {
  TCDP_LOG(kError) << "repl follower: DIVERGED from primary "
                   << options_.primary_host << ":"
                   << options_.primary_port << " — " << why.message()
                   << " (refusing to apply further records; manual resync "
                      "required)";
  if (obs::MetricsEnabled()) FollowerObs::Get().diverged->Set(1);
  std::lock_guard<std::mutex> lock(mutex_);
  status_.diverged = true;
  status_.last_error = why;
}

Status Follower::HandleBatch(const std::string& payload, bool* applied) {
  TCDP_ASSIGN_OR_RETURN(LogBatch batch, DecodeLogBatch(payload));
  if (batch.shard >= shards_.size()) {
    return Status::InvalidArgument(
        "kLogBatch for shard " + std::to_string(batch.shard) + " of " +
        std::to_string(shards_.size()));
  }
  ShardState* shard = shards_[batch.shard].get();
  if (batch.first_record != shard->records) {
    // Out-of-sequence within a connection: a primary bug or a stale
    // stream. Transport-level — reconnect and resubscribe.
    return Status::Internal(
        "kLogBatch starts at record " + std::to_string(batch.first_record) +
        ", expected " + std::to_string(shard->records));
  }
  if (batch.prev_chain_crc != shard->chain) {
    const Status why = Status::FailedPrecondition(
        "diverged: shard " + std::to_string(batch.shard) +
        " local chain CRC does not match the primary's stream at record " +
        std::to_string(batch.first_record));
    MarkDiverged(why);
    return why;
  }
  for (const server::EventRecord& record : batch.records) {
    // Append through the standard writer: the framing (and therefore
    // the file bytes) is exactly what the primary wrote.
    TCDP_RETURN_IF_ERROR(shard->writer.Append(record.type, record.payload));
    shard->chain = AdvanceChainCrc(shard->chain, RecordFrameCrc(record));
    if (record.type == server::EventType::kRelease) ++shard->releases;
    ++shard->records;
  }
  shard->dirty = true;
  *applied = true;
  if (obs::MetricsEnabled()) {
    FollowerObs::Get().batches->Increment();
    FollowerObs::Get().records->Add(batch.records.size());
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++status_.batches_applied;
  status_.records_applied += batch.records.size();
  return Status::OK();
}

Status Follower::SyncAndAck(int fd) {
  AckHorizon ack;
  ack.durable_records.reserve(shards_.size());
  std::uint64_t horizon = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    ShardState* shard = shards_[i].get();
    if (shard->dirty) {
      TCDP_RETURN_IF_ERROR(shard->writer.Sync());
      shard->dirty = false;
    }
    ack.durable_records.push_back(shard->records);
    horizon = i == 0 ? shard->releases : std::min(horizon, shard->releases);
  }
  ack.release_horizon = horizon;
  std::string bytes;
  net::AppendFrame(&bytes, net::MsgType::kAckHorizon,
                   EncodeAckHorizon(ack));
  TCDP_RETURN_IF_ERROR(net::SendAll(fd, bytes));
  if (obs::MetricsEnabled()) FollowerObs::Get().acks->Increment();
  std::lock_guard<std::mutex> lock(mutex_);
  status_.durable_records = ack.durable_records;
  status_.release_horizon = horizon;
  ++status_.acks_sent;
  return Status::OK();
}

Status Follower::RunOnce() {
  TCDP_ASSIGN_OR_RETURN(
      const int fd,
      net::Dial(options_.primary_host, options_.primary_port,
                options_.connect_attempts, options_.connect_retry_delay_ms,
                [this] { return stop_.load(); }));
  // A bounded recv timeout keeps the loop responsive to Stop() even if
  // the shutdown() race loses.
  timeval timeout{0, 100 * 1000};
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                     sizeof(timeout));
  fd_.store(fd);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    status_.connected = true;
  }
  // Socket closed (and fd_ cleared) on every exit path below.
  auto close_fd = [this, fd] {
    fd_.store(-1);
    ::close(fd);
    std::lock_guard<std::mutex> lock(mutex_);
    status_.connected = false;
    status_.subscribed = false;
  };

  std::string hello;
  net::AppendPreamble(&hello);
  SubscribeRequest subscribe;
  if (!bootstrap_) {
    subscribe.cursors.reserve(shards_.size());
    for (const auto& shard : shards_) {
      ShardCursor cursor;
      cursor.next_record = shard->records;
      cursor.chain_crc = shard->chain;
      subscribe.cursors.push_back(cursor);
    }
  }
  net::AppendFrame(&hello, net::MsgType::kSubscribe,
                   EncodeSubscribe(subscribe));
  {
    const Status sent = net::SendAll(fd, hello);
    if (!sent.ok()) {
      close_fd();
      return sent;
    }
  }

  net::FrameDecoder decoder;
  bool have_subscribe_ok = false;
  bool batch_since_ack = false;
  Status result = Status::OK();
  while (!stop_.load()) {
    // Drain queued frames first; ack once the decoder runs dry so one
    // fdatasync covers every batch the read pulled in.
    bool progressed = false;
    while (decoder.has_frame()) {
      const net::Frame frame = decoder.PopFrame();
      progressed = true;
      if (frame.type == net::MsgType::kError) {
        Status error = Status::Internal("primary sent kError");
        (void)net::DecodeError(frame.payload, &error);
        if (IsDivergenceError(error)) {
          MarkDiverged(error);
        }
        close_fd();
        return error;
      }
      if (!have_subscribe_ok) {
        if (frame.type != net::MsgType::kSubscribeOk) {
          close_fd();
          return Status::Internal(
              "expected kSubscribeOk, got type " +
              std::to_string(static_cast<unsigned>(frame.type)));
        }
        auto ok = DecodeSubscribeOk(frame.payload);
        if (!ok.ok()) {
          close_fd();
          return ok.status();
        }
        if (bootstrap_) {
          const Status bootstrapped =
              BootstrapFromManifest(ok->manifest_text, ok->num_shards);
          if (!bootstrapped.ok()) {
            close_fd();
            return bootstrapped;
          }
        } else if (ok->num_shards != shards_.size()) {
          close_fd();
          return Status::FailedPrecondition(
              "primary has " + std::to_string(ok->num_shards) +
              " shards, replica has " + std::to_string(shards_.size()));
        }
        have_subscribe_ok = true;
        std::lock_guard<std::mutex> lock(mutex_);
        status_.subscribed = true;
        continue;
      }
      if (frame.type != net::MsgType::kLogBatch) {
        close_fd();
        return Status::Internal(
            "unexpected frame type " +
            std::to_string(static_cast<unsigned>(frame.type)) +
            " on a subscribed stream");
      }
      bool applied = false;
      const Status handled = HandleBatch(frame.payload, &applied);
      if (!handled.ok()) {
        close_fd();
        return handled;
      }
      if (applied) batch_since_ack = true;
    }
    if (batch_since_ack && !decoder.has_frame()) {
      const Status acked = SyncAndAck(fd);
      if (!acked.ok()) {
        close_fd();
        return acked;
      }
      batch_since_ack = false;
    }
    (void)progressed;

    char buffer[64 * 1024];
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;  // timeout tick: re-check stop_
      }
      result = ErrnoStatus("recv");
      break;
    }
    if (n == 0) {
      result = Status::Internal("primary closed the replication stream");
      break;
    }
    const Status fed = decoder.Feed(buffer, static_cast<std::size_t>(n));
    if (!fed.ok()) {
      result = fed;
      break;
    }
  }
  close_fd();
  if (stop_.load()) return Status::OK();
  return result;
}

void Follower::Run() {
  while (!stop_.load()) {
    const Status session = RunOnce();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (status_.diverged) break;  // terminal; never reconnect
      if (!session.ok()) status_.last_error = session;
    }
    if (stop_.load() || !options_.reconnect) {
      if (!session.ok()) {
        TCDP_LOG(kWarning) << "repl follower: session ended: "
                           << session.message();
      }
      break;
    }
    if (!session.ok()) {
      TCDP_LOG(kInfo) << "repl follower: reconnecting after: "
                      << session.message();
    }
    if (obs::MetricsEnabled()) FollowerObs::Get().reconnects->Increment();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++status_.reconnects;
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.reconnect_delay_ms));
  }
  // Whether the loop ended by Stop(), divergence, or a dead session
  // with reconnects off, the thread is done: let pollers (the CLI's
  // `tcdp follow` wait loop) observe it.
  std::lock_guard<std::mutex> lock(mutex_);
  status_.running = false;
  status_.connected = false;
  status_.subscribed = false;
}

}  // namespace replication
}  // namespace tcdp
