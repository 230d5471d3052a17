// Divergence tests (ISSUE 10): a follower whose local history
// disagrees with the primary's must refuse to apply, report unhealthy
// loudly, and never silently fork — and the primary must refuse the
// forked follower symmetrically.
//
// Divergence is asserted by CONTENT, not length: subscribe cursors and
// kLogBatch prefixes carry chain CRCs (repl_messages.h), so two
// histories with the same record count but different bytes are caught
// at the first handshake. The dual of divergence also matters: an
// out-of-sequence batch (record-count mismatch) is a TRANSPORT error —
// reconnect and resubscribe — because it carries no evidence the
// histories differ, only that the stream is stale. These tests pin
// down both classifications.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/wire.h"
#include "replication/follower.h"
#include "replication/log_stream.h"
#include "replication/repl_messages.h"
#include "server/event_log.h"
#include "server/sharded_service.h"
#include "workload/generators.h"

namespace tcdp {
namespace replication {
namespace {

constexpr std::size_t kShards = 2;

std::string UserName(std::size_t u) { return "user-" + std::to_string(u); }

TemporalCorrelations Profile(std::size_t u) {
  auto matrix = ClickstreamModel(3 + u % 3, 0.2 + 0.05 * (u % 4));
  EXPECT_TRUE(matrix.ok());
  return TemporalCorrelations::Both(*matrix, *matrix).value();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::string ShardWal(const std::string& dir, std::size_t shard) {
  return dir + "/shard-" + std::to_string(shard) + ".wal";
}

/// Runs the shared workload, then one final ReleaseAll(tail_epsilon):
/// two dirs built with different tails share a WAL byte prefix and
/// fork at the last release records.
void RunForkedService(const std::string& dir, double tail_epsilon) {
  std::filesystem::remove_all(dir);
  server::ShardedServiceOptions options;
  options.num_shards = kShards;
  options.batch_window = 4;
  auto service = server::ShardedReleaseService::Create(dir, options);
  ASSERT_TRUE(service.ok()) << service.status();
  for (std::size_t u = 0; u < 6; ++u) {
    ASSERT_TRUE((*service)->Join(UserName(u), Profile(u)).ok());
  }
  ASSERT_TRUE((*service)->Flush().ok());
  for (std::size_t u = 0; u < 6; ++u) {
    ASSERT_TRUE((*service)->Release(UserName(u), 0.1).ok());
  }
  ASSERT_TRUE((*service)->Flush().ok());
  ASSERT_TRUE((*service)->ReleaseAll(tail_epsilon).ok());
  ASSERT_TRUE((*service)->Flush().ok());
  ASSERT_TRUE((*service)->Close().ok());
}

std::vector<std::uint64_t> WalRecordCounts(const std::string& dir) {
  std::vector<std::uint64_t> counts;
  for (std::size_t s = 0; s < kShards; ++s) {
    auto read = server::ReadEventLog(ShardWal(dir, s));
    EXPECT_TRUE(read.ok()) << read.status();
    EXPECT_TRUE(read->clean);
    counts.push_back(read->records.size());
  }
  return counts;
}

/// Streams \p primary_dir into \p replica_dir until the follower has
/// acked every record, then tears the stream down.
void ReplicateFully(const std::string& primary_dir,
                    const std::string& replica_dir) {
  LogStreamOptions stream_options;
  stream_options.log_dir = primary_dir;
  auto stream = LogStreamServer::Listen(stream_options);
  ASSERT_TRUE(stream.ok()) << stream.status();
  Status serve_status;
  std::thread serve_thread(
      [&stream, &serve_status] { serve_status = (*stream)->Serve(); });

  FollowerOptions options;
  options.primary_port = (*stream)->port();
  options.log_dir = replica_dir;
  auto follower = Follower::Open(options);
  ASSERT_TRUE(follower.ok()) << follower.status();
  ASSERT_TRUE((*follower)->Start().ok());
  const std::vector<std::uint64_t> want = WalRecordCounts(primary_dir);
  for (int i = 0; i < 500; ++i) {
    if ((*follower)->status().durable_records == want) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  (*follower)->Stop();
  ASSERT_EQ((*follower)->status().durable_records, want)
      << "replica never caught up for the test setup";
  ASSERT_FALSE((*follower)->status().diverged);
  (*stream)->Stop();
  serve_thread.join();
  ASSERT_TRUE(serve_status.ok()) << serve_status;
}

/// Starts a stream server over \p primary_dir and points a follower
/// with reconnect ENABLED at it; returns after the follower's thread
/// has terminated on its own (divergence must end the session loop
/// even though reconnecting is allowed). Fails the test on timeout.
FollowerStatus AttemptSync(const std::string& primary_dir,
                           const std::string& replica_dir,
                           std::uint64_t* primary_divergences,
                           Status* promote_status) {
  LogStreamOptions stream_options;
  stream_options.log_dir = primary_dir;
  auto stream = LogStreamServer::Listen(stream_options);
  EXPECT_TRUE(stream.ok()) << stream.status();
  Status serve_status;
  std::thread serve_thread(
      [&stream, &serve_status] { serve_status = (*stream)->Serve(); });

  FollowerOptions options;
  options.primary_port = (*stream)->port();
  options.log_dir = replica_dir;
  options.reconnect = true;  // divergence must trump the reconnect policy
  options.reconnect_delay_ms = 10;
  auto follower = Follower::Open(options);
  EXPECT_TRUE(follower.ok()) << follower.status();
  EXPECT_TRUE((*follower)->Start().ok());
  bool stopped = false;
  for (int i = 0; i < 500; ++i) {
    if (!(*follower)->status().running) {
      stopped = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(stopped)
      << "a diverged follower must terminate, not keep reconnecting";
  const FollowerStatus status = (*follower)->status();
  *promote_status = (*follower)->Promote().status();
  *primary_divergences = (*stream)->stats().divergences;
  (*stream)->Stop();
  serve_thread.join();
  EXPECT_TRUE(serve_status.ok()) << serve_status;
  return status;
}

TEST(DivergenceTest, ForkedHistoryIsRefusedAtSubscribe) {
  const std::string dir_a = "/tmp/tcdp_diverge_a";
  const std::string dir_b = "/tmp/tcdp_diverge_b";
  const std::string replica_dir = "/tmp/tcdp_diverge_replica";
  std::filesystem::remove_all(replica_dir);
  // Two primaries with a common history that forks at the tail: the
  // same record COUNTS, different record BYTES.
  RunForkedService(dir_a, 0.2);
  RunForkedService(dir_b, 0.9);
  ASSERT_EQ(WalRecordCounts(dir_a), WalRecordCounts(dir_b));
  const std::string wal_a = ReadFileBytes(ShardWal(dir_a, 0));
  const std::string wal_b = ReadFileBytes(ShardWal(dir_b, 0));
  ASSERT_EQ(wal_a.size(), wal_b.size());
  ASSERT_NE(wal_a, wal_b) << "the tails must actually fork";
  ASSERT_EQ(wal_a.compare(0, 64, wal_b, 0, 64), 0)
      << "the histories must share a real common prefix";

  ReplicateFully(dir_a, replica_dir);
  std::vector<std::string> replica_before;
  for (std::size_t s = 0; s < kShards; ++s) {
    replica_before.push_back(ReadFileBytes(ShardWal(replica_dir, s)));
  }

  // Point the A-replica at B: the subscribe cursor's chain CRC cannot
  // match B's history, so B must refuse it and the follower must latch
  // diverged without applying (or truncating) anything.
  std::uint64_t divergences = 0;
  Status promote_status = Status::OK();
  const FollowerStatus status =
      AttemptSync(dir_b, replica_dir, &divergences, &promote_status);
  EXPECT_TRUE(status.diverged);
  EXPECT_EQ(status.reconnects, 0u);
  EXPECT_EQ(status.records_applied, 0u);
  EXPECT_FALSE(status.last_error.ok());
  EXPECT_NE(status.last_error.message().find("diverged:"),
            std::string::npos)
      << status.last_error;
  EXPECT_GE(divergences, 1u) << "the primary must count the refusal";
  EXPECT_FALSE(promote_status.ok())
      << "a diverged replica must refuse promotion";

  // Not one byte of the replica moved: no truncate-to-match, no
  // partial apply, no silent fork.
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(ReadFileBytes(ShardWal(replica_dir, s)), replica_before[s])
        << "shard " << s;
  }
  std::filesystem::remove_all(dir_a);
  std::filesystem::remove_all(dir_b);
  std::filesystem::remove_all(replica_dir);
}

TEST(DivergenceTest, ReplicaAheadOfPrimaryIsRefused) {
  const std::string dir_full = "/tmp/tcdp_diverge_full";
  const std::string dir_short = "/tmp/tcdp_diverge_short";
  const std::string replica_dir = "/tmp/tcdp_diverge_ahead_replica";
  std::filesystem::remove_all(dir_short);
  std::filesystem::remove_all(replica_dir);
  RunForkedService(dir_full, 0.2);
  ReplicateFully(dir_full, replica_dir);

  // "The primary lost its acked tail": rebuild the primary's directory
  // minus the last record of every shard — byte-identical prefix, so
  // only the replica-is-ahead check can catch it.
  std::filesystem::create_directories(dir_short);
  {
    std::ofstream manifest(dir_short + "/MANIFEST", std::ios::binary);
    manifest << ReadFileBytes(dir_full + "/MANIFEST");
  }
  for (std::size_t s = 0; s < kShards; ++s) {
    auto read = server::ReadEventLog(ShardWal(dir_full, s));
    ASSERT_TRUE(read.ok()) << read.status();
    auto writer = server::EventLogWriter::Create(ShardWal(dir_short, s));
    ASSERT_TRUE(writer.ok()) << writer.status();
    for (std::size_t r = 0; r + 1 < read->records.size(); ++r) {
      ASSERT_TRUE(
          writer->Append(read->records[r].type, read->records[r].payload)
              .ok());
    }
    ASSERT_TRUE(writer->Close().ok());
  }

  std::uint64_t divergences = 0;
  Status promote_status = Status::OK();
  const FollowerStatus status =
      AttemptSync(dir_short, replica_dir, &divergences, &promote_status);
  EXPECT_TRUE(status.diverged);
  EXPECT_EQ(status.records_applied, 0u);
  EXPECT_NE(status.last_error.message().find("diverged:"),
            std::string::npos)
      << status.last_error;
  EXPECT_GE(divergences, 1u);
  EXPECT_FALSE(promote_status.ok());
  // The replica keeps its longer history intact.
  EXPECT_EQ(ReadFileBytes(ShardWal(replica_dir, 0)),
            ReadFileBytes(ShardWal(dir_full, 0)));
  std::filesystem::remove_all(dir_full);
  std::filesystem::remove_all(dir_short);
  std::filesystem::remove_all(replica_dir);
}

// ----------------------------------------------------- bootstrap faults

/// Blocks \p replica_dir's shard-1.wal with a directory, so a
/// bootstrap creates shard 0's WAL and then fails on shard 1's.
void BlockShardOneWal(const std::string& replica_dir) {
  std::filesystem::remove_all(replica_dir);
  std::filesystem::create_directories(ShardWal(replica_dir, 1));
}

bool SameDirectoryBytes(const std::string& a, const std::string& b) {
  bool same =
      ReadFileBytes(a + "/MANIFEST") == ReadFileBytes(b + "/MANIFEST");
  for (std::size_t s = 0; s < kShards; ++s) {
    same = same &&
           ReadFileBytes(ShardWal(a, s)) == ReadFileBytes(ShardWal(b, s));
  }
  return same;
}

TEST(DivergenceTest, FailedBootstrapLeavesNoManifestAndReopens) {
  const std::string primary_dir = "/tmp/tcdp_bootstrap_reopen_primary";
  const std::string replica_dir = "/tmp/tcdp_bootstrap_reopen_replica";
  RunForkedService(primary_dir, 0.2);
  BlockShardOneWal(replica_dir);
  {
    LogStreamOptions stream_options;
    stream_options.log_dir = primary_dir;
    auto stream = LogStreamServer::Listen(stream_options);
    ASSERT_TRUE(stream.ok()) << stream.status();
    std::thread serve_thread([&stream] { (void)(*stream)->Serve(); });
    FollowerOptions options;
    options.primary_port = (*stream)->port();
    options.log_dir = replica_dir;
    options.reconnect = false;
    auto follower = Follower::Open(options);
    ASSERT_TRUE(follower.ok()) << follower.status();
    ASSERT_TRUE((*follower)->Start().ok());
    for (int i = 0; i < 500 && (*follower)->status().running; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_FALSE((*follower)->status().last_error.ok());
    (*follower)->Stop();
    (*stream)->Stop();
    serve_thread.join();
  }
  // The MANIFEST commits the directory, so a bootstrap that failed
  // half way must not have written one.
  EXPECT_FALSE(std::filesystem::exists(replica_dir + "/MANIFEST"));

  // Once the fault clears, the replica reopens and bootstraps again
  // from scratch instead of failing for good on the WAL that was never
  // created.
  std::filesystem::remove_all(ShardWal(replica_dir, 1));
  {
    FollowerOptions options;
    options.log_dir = replica_dir;
    auto reopened = Follower::Open(options);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
  }
  ReplicateFully(primary_dir, replica_dir);
  EXPECT_TRUE(SameDirectoryBytes(primary_dir, replica_dir));
  auto promoted = server::ShardedReleaseService::Recover(replica_dir);
  ASSERT_TRUE(promoted.ok()) << promoted.status();
  EXPECT_TRUE((*promoted)->Close().ok());
  std::filesystem::remove_all(primary_dir);
  std::filesystem::remove_all(replica_dir);
}

TEST(DivergenceTest, BootstrapRetriedAfterAFaultPublishesOneShardList) {
  const std::string primary_dir = "/tmp/tcdp_bootstrap_retry_primary";
  const std::string replica_dir = "/tmp/tcdp_bootstrap_retry_replica";
  RunForkedService(primary_dir, 0.2);
  const std::vector<std::uint64_t> want = WalRecordCounts(primary_dir);
  BlockShardOneWal(replica_dir);
  LogStreamOptions stream_options;
  stream_options.log_dir = primary_dir;
  auto stream = LogStreamServer::Listen(stream_options);
  ASSERT_TRUE(stream.ok()) << stream.status();
  std::thread serve_thread([&stream] { (void)(*stream)->Serve(); });

  FollowerOptions options;
  options.primary_port = (*stream)->port();
  options.log_dir = replica_dir;
  options.reconnect = true;
  options.reconnect_delay_ms = 10;
  auto follower = Follower::Open(options);
  ASSERT_TRUE(follower.ok()) << follower.status();
  ASSERT_TRUE((*follower)->Start().ok());
  // Let a few bootstrap attempts fail, then clear the fault while the
  // follower keeps retrying.
  for (int i = 0; i < 500 && (*follower)->status().reconnects < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE((*follower)->status().reconnects, 3u);
  std::filesystem::remove_all(ShardWal(replica_dir, 1));
  for (int i = 0; i < 500; ++i) {
    if ((*follower)->status().durable_records == want) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const FollowerStatus status = (*follower)->status();
  EXPECT_EQ(status.num_shards, kShards);
  EXPECT_EQ(status.durable_records, want)
      << "each failed attempt must leave no shard state behind";
  EXPECT_FALSE(status.diverged);
  auto promoted = (*follower)->Promote();
  (*stream)->Stop();
  serve_thread.join();
  ASSERT_TRUE(promoted.ok()) << promoted.status();
  EXPECT_TRUE((*promoted)->Close().ok());
  EXPECT_TRUE(SameDirectoryBytes(primary_dir, replica_dir));
  std::filesystem::remove_all(primary_dir);
  std::filesystem::remove_all(replica_dir);
}

// ------------------------------------------------------- fake primary

/// A scripted primary: accepts replication connections, waits for the
/// kSubscribe frame, and replies with pre-baked bytes — so tests can
/// say exactly what a (buggy or malicious) primary streams.
class FakePrimary {
 public:
  static std::unique_ptr<FakePrimary> Start(
      std::vector<std::string> responses) {
    auto primary = std::unique_ptr<FakePrimary>(new FakePrimary());
    primary->responses_ = std::move(responses);
    primary->listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (primary->listen_fd_ < 0) return nullptr;
    int reuse = 1;
    ::setsockopt(primary->listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse,
                 sizeof(reuse));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::bind(primary->listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(primary->listen_fd_, 4) != 0) {
      ::close(primary->listen_fd_);
      return nullptr;
    }
    socklen_t len = sizeof(addr);
    ::getsockname(primary->listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                  &len);
    primary->port_ = ntohs(addr.sin_port);
    primary->thread_ = std::thread([raw = primary.get()] { raw->Run(); });
    return primary;
  }

  std::uint16_t port() const { return port_; }
  std::uint64_t connections() const { return connections_.load(); }

  void Stop() {
    stop_.store(true);
    ::shutdown(listen_fd_, SHUT_RDWR);
    if (thread_.joinable()) thread_.join();
  }

  ~FakePrimary() {
    Stop();
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }

 private:
  FakePrimary() = default;

  void ServeConnection(int fd, const std::string& response) {
    timeval timeout{0, 200 * 1000};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    net::FrameDecoder decoder;
    bool have_subscribe = false;
    char buffer[4096];
    while (!stop_.load() && !have_subscribe) {
      const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
      if (n == 0) break;
      if (n < 0) continue;  // timeout: poll stop_ again
      if (!decoder.Feed(buffer, static_cast<std::size_t>(n)).ok()) break;
      while (decoder.has_frame()) {
        if (decoder.PopFrame().type == net::MsgType::kSubscribe) {
          have_subscribe = true;
        }
      }
    }
    if (have_subscribe) {
      std::string out;
      net::AppendPreamble(&out);
      out += response;
      std::size_t sent = 0;
      while (sent < out.size()) {
        const ssize_t w = ::send(fd, out.data() + sent, out.size() - sent,
                                 MSG_NOSIGNAL);
        if (w <= 0) break;
        sent += static_cast<std::size_t>(w);
      }
      // Hold the stream open until the follower reacts (hangs up) or
      // the test stops us — the follower must not need an EOF to
      // classify what it was sent.
      while (!stop_.load() && ::recv(fd, buffer, sizeof(buffer), 0) != 0) {
      }
    }
    ::close(fd);
  }

  void Run() {
    std::size_t served = 0;
    while (!stop_.load()) {
      pollfd listener{listen_fd_, POLLIN, 0};
      if (::poll(&listener, 1, 100) <= 0) continue;
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) continue;
      connections_.fetch_add(1);
      const std::string& response =
          responses_[std::min(served, responses_.size() - 1)];
      ++served;
      ServeConnection(fd, response);
    }
  }

  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::vector<std::string> responses_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> connections_{0};
};

/// A real 1-shard MANIFEST for the fake primary's kSubscribeOk.
std::string SeedManifestText() {
  const std::string dir = "/tmp/tcdp_diverge_seed";
  std::filesystem::remove_all(dir);
  server::ShardedServiceOptions options;
  options.num_shards = 1;
  auto service = server::ShardedReleaseService::Create(dir, options);
  EXPECT_TRUE(service.ok()) << service.status();
  EXPECT_TRUE((*service)->Close().ok());
  const std::string text = ReadFileBytes(dir + "/MANIFEST");
  std::filesystem::remove_all(dir);
  return text;
}

std::string SubscribeOkFrame(const std::string& manifest_text,
                             std::uint64_t num_shards = 1) {
  SubscribeOk ok;
  ok.num_shards = num_shards;
  ok.manifest_text = manifest_text;
  std::string bytes;
  net::AppendFrame(&bytes, net::MsgType::kSubscribeOk,
                   EncodeSubscribeOk(ok));
  return bytes;
}

std::string BatchFrame(std::uint64_t first_record,
                       std::uint32_t prev_chain_crc) {
  LogBatch batch;
  batch.shard = 0;
  batch.first_record = first_record;
  batch.prev_chain_crc = prev_chain_crc;
  server::EventRecord record;
  record.type = server::EventType::kAddUser;
  record.payload = "mallory";
  batch.records.push_back(record);
  std::string bytes;
  net::AppendFrame(&bytes, net::MsgType::kLogBatch, EncodeLogBatch(batch));
  return bytes;
}

TEST(DivergenceTest, MidStreamChainMismatchIsTerminal) {
  const std::string replica_dir = "/tmp/tcdp_diverge_chain_replica";
  std::filesystem::remove_all(replica_dir);
  const std::string manifest = SeedManifestText();
  // A batch whose position is right (record 0 on a fresh replica) but
  // whose chain-CRC claim is a lie: content disagreement, terminal.
  auto primary = FakePrimary::Start(
      {SubscribeOkFrame(manifest) + BatchFrame(0, 0xdeadbeef)});
  ASSERT_NE(primary, nullptr);

  FollowerOptions options;
  options.primary_port = primary->port();
  options.log_dir = replica_dir;
  options.reconnect = true;
  options.reconnect_delay_ms = 10;
  auto follower = Follower::Open(options);
  ASSERT_TRUE(follower.ok()) << follower.status();
  ASSERT_TRUE((*follower)->Start().ok());
  for (int i = 0; i < 500 && (*follower)->status().running; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const FollowerStatus status = (*follower)->status();
  EXPECT_FALSE(status.running) << "divergence must end the session loop";
  EXPECT_TRUE(status.diverged);
  EXPECT_EQ(status.reconnects, 0u)
      << "divergence must never trigger a reconnect";
  EXPECT_EQ(status.records_applied, 0u);
  EXPECT_NE(status.last_error.message().find("diverged:"),
            std::string::npos)
      << status.last_error;
  EXPECT_EQ(primary->connections(), 1u);
  // The lying batch left no trace: the bootstrapped WAL is magic-only.
  EXPECT_EQ(ReadFileBytes(ShardWal(replica_dir, 0)).size(), 8u);
  EXPECT_FALSE((*follower)->Promote().ok());
  primary->Stop();
  std::filesystem::remove_all(replica_dir);
}

TEST(DivergenceTest, OutOfSequenceBatchIsTransportErrorNotDivergence) {
  const std::string replica_dir = "/tmp/tcdp_diverge_seq_replica";
  std::filesystem::remove_all(replica_dir);
  const std::string manifest = SeedManifestText();
  // A batch starting at record 5 on a fresh replica: no content claim
  // about the replica's history, so it is a stale/buggy STREAM — the
  // follower must drop the session and try again, not latch diverged.
  auto primary = FakePrimary::Start(
      {SubscribeOkFrame(manifest) + BatchFrame(5, kChainSeed)});
  ASSERT_NE(primary, nullptr);

  FollowerOptions options;
  options.primary_port = primary->port();
  options.log_dir = replica_dir;
  options.reconnect = true;
  options.reconnect_delay_ms = 10;
  auto follower = Follower::Open(options);
  ASSERT_TRUE(follower.ok()) << follower.status();
  ASSERT_TRUE((*follower)->Start().ok());
  for (int i = 0; i < 500 && primary->connections() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(primary->connections(), 3u)
      << "a transport-classified fault must keep reconnecting";
  (*follower)->Stop();
  const FollowerStatus status = (*follower)->status();
  EXPECT_FALSE(status.diverged);
  EXPECT_GE(status.reconnects, 2u);
  EXPECT_EQ(status.records_applied, 0u);
  primary->Stop();
  std::filesystem::remove_all(replica_dir);
}

TEST(DivergenceTest, SubscribeOkPastTheShardBoundIsRefusedBeforeAnyFile) {
  const std::string replica_dir = "/tmp/tcdp_diverge_bound_replica";
  const std::string manifest = SeedManifestText();
  const std::string shards_line = "shards 1\n";
  const std::size_t at = manifest.find(shards_line);
  ASSERT_NE(at, std::string::npos) << manifest;
  auto with_line = [&](const std::string& line) {
    return std::string(manifest).replace(at, shards_line.size(), line);
  };
  const std::size_t too_many = server::kMaxServiceThreads + 1;
  const std::string bad_window = "batch_window 64\n";
  const std::size_t window_at = manifest.find(bad_window);
  ASSERT_NE(window_at, std::string::npos) << manifest;
  const std::string malformed =
      std::string(manifest).replace(window_at, bad_window.size(),
                                    "batch_window x\n");
  const std::string frames[] = {
      SubscribeOkFrame(with_line("shards " + std::to_string(too_many) + "\n"),
                       too_many),
      SubscribeOkFrame(malformed),
  };
  for (const std::string& frame : frames) {
    std::filesystem::remove_all(replica_dir);
    auto primary = FakePrimary::Start({frame});
    ASSERT_NE(primary, nullptr);
    FollowerOptions options;
    options.primary_port = primary->port();
    options.log_dir = replica_dir;
    options.reconnect = false;
    auto follower = Follower::Open(options);
    ASSERT_TRUE(follower.ok()) << follower.status();
    ASSERT_TRUE((*follower)->Start().ok());
    for (int i = 0; i < 500 && (*follower)->status().running; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    const FollowerStatus status = (*follower)->status();
    EXPECT_FALSE(status.running);
    EXPECT_EQ(status.last_error.code(), StatusCode::kInvalidArgument)
        << status.last_error;
    EXPECT_TRUE(std::filesystem::is_empty(replica_dir))
        << "a refused kSubscribeOk must not lay down any file";
    EXPECT_FALSE((*follower)->Promote().ok());
    primary->Stop();
  }
  std::filesystem::remove_all(replica_dir);
}

}  // namespace
}  // namespace replication
}  // namespace tcdp
