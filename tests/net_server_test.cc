// Loopback integration tests for the network frontend (ISSUE 4):
//
//   * N concurrent clients driving disjoint users produce per-user TPL
//     series that are bitwise invariant across server shard counts AND
//     bitwise equal to an in-process ShardedReleaseService run — the
//     wire adds transport, never semantics. Concurrency is made
//     deterministic the same way the service itself is: each phase
//     uses a single epsilon and ends with one flush, so the phase's
//     global release is a participant-set union, insensitive to
//     arrival order.
//   * Malformed input (garbage magic, oversized length, corrupt CRC,
//     truncated frames, non-request frame types) drops the offending
//     connection without crashing the server or perturbing accounting
//     state (asserted bitwise before/after; runs under ASan in CI).
//   * Durable service over the network: WAL + snapshot written through
//     networked requests recover to the same per-user reports.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/privacy_loss.h"
#include "markov/stochastic_matrix.h"
#include "net/client.h"
#include "net/messages.h"
#include "net/server.h"
#include "server/sharded_service.h"
#include "tests/fault_injection.h"
#include "workload/generators.h"

namespace tcdp {
namespace net {
namespace {

constexpr std::size_t kUsers = 12;
constexpr std::size_t kClients = 4;

std::string UserName(std::size_t u) { return "user-" + std::to_string(u); }

TemporalCorrelations Profile(std::size_t u) {
  auto matrix = ClickstreamModel(3 + u % 3, 0.2 + 0.05 * (u % 4));
  EXPECT_TRUE(matrix.ok());
  return TemporalCorrelations::Both(*matrix, *matrix).value();
}

/// One deterministic workload phase: epsilon + the participating users.
struct Phase {
  double epsilon;
  std::vector<std::size_t> users;
};

std::vector<Phase> MakePhases() {
  std::vector<Phase> phases;
  const double epsilons[] = {0.1, 0.2, 0.05, 0.1};
  for (std::size_t p = 0; p < 4; ++p) {
    Phase phase;
    phase.epsilon = epsilons[p];
    for (std::size_t u = 0; u < kUsers; ++u) {
      if ((u + p) % 3 != 0) phase.users.push_back(u);
    }
    phases.push_back(std::move(phase));
  }
  return phases;
}

/// A served ShardedReleaseService with its Serve() loop on a thread.
struct TestServer {
  std::unique_ptr<server::ShardedReleaseService> service;
  std::unique_ptr<NetServer> server;
  std::thread thread;
  Status serve_status;

  static std::unique_ptr<TestServer> Start(std::size_t shards,
                                           std::size_t batch_window,
                                           const std::string& log_dir = "",
                                           NetServerOptions net_options = {}) {
    server::ShardedServiceOptions options;
    options.num_shards = shards;
    options.batch_window = batch_window;
    auto service = server::ShardedReleaseService::Create(log_dir, options);
    EXPECT_TRUE(service.ok()) << service.status();
    if (!service.ok()) return nullptr;
    return Serve(std::move(service).value(), std::move(net_options));
  }

  /// Serves an existing (possibly already driven) service.
  static std::unique_ptr<TestServer> Serve(
      std::unique_ptr<server::ShardedReleaseService> service,
      NetServerOptions net_options = {}) {
    auto ts = std::make_unique<TestServer>();
    ts->service = std::move(service);
    auto server = NetServer::Listen(ts->service.get(), net_options);
    EXPECT_TRUE(server.ok()) << server.status();
    if (!server.ok()) return nullptr;
    ts->server = std::move(server).value();
    ts->thread = std::thread([ts = ts.get()] {
      ts->serve_status = ts->server->Serve();
    });
    return ts;
  }

  std::uint16_t port() const { return server->port(); }

  /// Stops the loop (if a client's Shutdown hasn't already) and joins.
  void Finish() {
    if (thread.joinable()) {
      server->Stop();
      thread.join();
    }
    EXPECT_TRUE(serve_status.ok()) << serve_status;
  }

  ~TestServer() {
    if (thread.joinable()) {
      server->Stop();
      thread.join();
    }
  }
};

StatusOr<std::unique_ptr<NetClient>> Connect(const TestServer& ts,
                                             std::size_t pipeline = 1) {
  NetClientOptions options;
  options.pipeline_depth = pipeline;
  return NetClient::Connect("127.0.0.1", ts.port(), options);
}

/// Collects every user's report through one connection.
std::vector<server::UserReport> QueryAll(NetClient* client) {
  std::vector<server::UserReport> reports;
  for (std::size_t u = 0; u < kUsers; ++u) {
    auto report = client->Query(UserName(u));
    EXPECT_TRUE(report.ok()) << report.status();
    if (report.ok()) reports.push_back(std::move(report).value());
  }
  return reports;
}

/// Drives the phased workload over the network with kClients threads
/// (disjoint user slices) and returns all user reports.
std::vector<server::UserReport> RunNetworkWorkload(std::size_t shards) {
  // A huge batch window: each phase becomes exactly one tick (closed
  // by Flush), so the global schedule is arrival-order independent.
  auto ts = TestServer::Start(shards, 1u << 20);
  EXPECT_NE(ts, nullptr);
  if (ts == nullptr) return {};

  auto control = Connect(*ts);
  EXPECT_TRUE(control.ok()) << control.status();
  for (std::size_t u = 0; u < kUsers; ++u) {
    EXPECT_TRUE((*control)->Join(UserName(u), Profile(u)).ok());
  }
  EXPECT_TRUE((*control)->Flush().ok());

  for (const Phase& phase : MakePhases()) {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        auto client = Connect(*ts, /*pipeline=*/4);
        ASSERT_TRUE(client.ok()) << client.status();
        for (std::size_t u : phase.users) {
          if (u % kClients != c) continue;  // disjoint slices
          ASSERT_TRUE((*client)->Release(UserName(u), phase.epsilon).ok());
        }
        ASSERT_TRUE((*client)->Drain().ok());
      });
    }
    for (std::thread& thread : threads) thread.join();
    // Every phase request is acked (dispatched into the service)
    // before this flush closes the window.
    EXPECT_TRUE((*control)->Flush().ok());
  }

  std::vector<server::UserReport> reports = QueryAll(control->get());
  EXPECT_TRUE((*control)->Shutdown().ok());
  ts->Finish();
  EXPECT_TRUE(ts->service->Close().ok());
  return reports;
}

/// The same workload applied directly to an in-process service.
std::vector<server::UserReport> RunInProcessWorkload(std::size_t shards) {
  server::ShardedServiceOptions options;
  options.num_shards = shards;
  options.batch_window = 1u << 20;
  auto service = server::ShardedReleaseService::Create("", options);
  EXPECT_TRUE(service.ok());
  for (std::size_t u = 0; u < kUsers; ++u) {
    EXPECT_TRUE((*service)->Join(UserName(u), Profile(u)).ok());
  }
  EXPECT_TRUE((*service)->Flush().ok());
  for (const Phase& phase : MakePhases()) {
    for (std::size_t u : phase.users) {
      EXPECT_TRUE((*service)->Release(UserName(u), phase.epsilon).ok());
    }
    EXPECT_TRUE((*service)->Flush().ok());
  }
  std::vector<server::UserReport> reports;
  for (std::size_t u = 0; u < kUsers; ++u) {
    auto report = (*service)->Query(UserName(u));
    EXPECT_TRUE(report.ok());
    if (report.ok()) reports.push_back(std::move(report).value());
  }
  EXPECT_TRUE((*service)->Close().ok());
  return reports;
}

void ExpectSameReports(const std::vector<server::UserReport>& a,
                       const std::vector<server::UserReport>& b,
                       const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name) << label;
    EXPECT_EQ(a[i].horizon, b[i].horizon) << label << " " << a[i].name;
    EXPECT_EQ(a[i].max_tpl, b[i].max_tpl) << label << " " << a[i].name;
    EXPECT_EQ(a[i].user_level_tpl, b[i].user_level_tpl)
        << label << " " << a[i].name;
    EXPECT_EQ(a[i].epsilons, b[i].epsilons) << label << " " << a[i].name;
    EXPECT_EQ(a[i].tpl_series, b[i].tpl_series) << label << " " << a[i].name;
  }
}

TEST(NetServerTest, ConcurrentClientsShardCountInvariantBitwise) {
  const auto reference = RunInProcessWorkload(2);
  ASSERT_EQ(reference.size(), kUsers);
  for (std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    const auto over_wire = RunNetworkWorkload(shards);
    ExpectSameReports(over_wire, reference,
                      "shards=" + std::to_string(shards));
  }
}

TEST(NetServerTest, PipelineDepthDoesNotChangeResults) {
  // One client, depth 1 vs depth 16, identical request order.
  auto run = [](std::size_t depth) {
    auto ts = TestServer::Start(2, 8);
    EXPECT_NE(ts, nullptr);
    auto client = Connect(*ts, depth);
    EXPECT_TRUE(client.ok());
    for (std::size_t u = 0; u < kUsers; ++u) {
      EXPECT_TRUE((*client)->Join(UserName(u), Profile(u)).ok());
    }
    for (int round = 0; round < 3; ++round) {
      for (std::size_t u = 0; u < kUsers; ++u) {
        if ((u + static_cast<std::size_t>(round)) % 2 == 0) {
          EXPECT_TRUE(
              (*client)->Release(UserName(u), 0.1 * (round + 1)).ok());
        }
      }
    }
    EXPECT_TRUE((*client)->Flush().ok());
    auto reports = QueryAll(client->get());
    EXPECT_TRUE((*client)->Shutdown().ok());
    ts->Finish();
    return reports;
  };
  ExpectSameReports(run(16), run(1), "pipeline");
}

TEST(NetServerTest, ServiceErrorsAreReportedAndDoNotKillTheStream) {
  auto ts = TestServer::Start(2, 4);
  ASSERT_NE(ts, nullptr);
  auto client = Connect(*ts);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Join("alice", Profile(0)).ok());
  // Unknown-user queries come back NotFound without latching.
  auto missing = (*client)->Query("nobody");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  auto present = (*client)->Query("alice");
  EXPECT_TRUE(present.ok());
  // A mutation error latches that client...
  auto bad = (*client)->Release("nobody", 0.1);
  EXPECT_FALSE(bad.ok());
  EXPECT_FALSE((*client)->Release("alice", 0.1).ok());
  // ...but the server and other connections are unaffected.
  auto fresh = Connect(*ts);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE((*fresh)->Release("alice", 0.1).ok());
  EXPECT_TRUE((*fresh)->Flush().ok());
  EXPECT_TRUE((*fresh)->Shutdown().ok());
  ts->Finish();
}

TEST(NetServerTest, OversizedMatrixJoinIsRefusedAndTheNextJoinSucceeds) {
  auto ts = TestServer::Start(2, 4);
  ASSERT_NE(ts, nullptr);
  auto client = Connect(*ts);
  ASSERT_TRUE(client.ok());
  const Status refused = (*client)->Join(
      "wide", TemporalCorrelations::BackwardOnly(StochasticMatrix::Identity(
                  TemporalLossFunction::kMaxTableStates + 1)));
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument) << refused;
  // The refusal latches that client only; the server takes the next
  // Join, and the refused name was never registered.
  auto fresh = Connect(*ts);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE((*fresh)->Join("alice", Profile(0)).ok());
  EXPECT_TRUE((*fresh)->ReleaseAll(0.1).ok());
  EXPECT_TRUE((*fresh)->Flush().ok());
  EXPECT_TRUE((*fresh)->Query("alice").ok());
  auto wide = (*fresh)->Query("wide");
  EXPECT_EQ(wide.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE((*fresh)->Shutdown().ok());
  ts->Finish();
}

// --------------------------------------------------------- malformed input

/// A raw TCP connection for crafting hostile bytes.
struct RawConn {
  int fd = -1;

  static RawConn To(std::uint16_t port) {
    RawConn conn;
    conn.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(conn.fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(
        ::connect(conn.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
        0);
    timeval timeout{5, 0};
    ::setsockopt(conn.fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                 sizeof(timeout));
    return conn;
  }

  void Send(const std::string& bytes) {
    ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Half-close: "no more bytes are coming" without closing our read
  /// side, so we can still observe the server's close.
  void ShutdownWrite() { ::shutdown(fd, SHUT_WR); }

  /// Reads until the server closes; returns everything received after
  /// the server's preamble+any frames. Fails the test on timeout.
  bool ClosedByServer() {
    char buffer[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
      if (n == 0) return true;  // orderly close from the server
      if (n < 0) return false;  // timeout or reset without close
    }
  }

  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }
};

TEST(NetServerTest, MalformedInputDropsConnectionWithoutCorruption) {
  auto ts = TestServer::Start(2, 4);
  ASSERT_NE(ts, nullptr);

  // Seed real state through a good client and capture it.
  auto good = Connect(*ts);
  ASSERT_TRUE(good.ok());
  for (std::size_t u = 0; u < 4; ++u) {
    ASSERT_TRUE((*good)->Join(UserName(u), Profile(u)).ok());
  }
  for (int round = 0; round < 2; ++round) {
    for (std::size_t u = 0; u < 4; ++u) {
      ASSERT_TRUE((*good)->Release(UserName(u), 0.1).ok());
    }
  }
  ASSERT_TRUE((*good)->Flush().ok());
  auto before = (*good)->Query(UserName(0));
  ASSERT_TRUE(before.ok());

  std::string preamble;
  AppendPreamble(&preamble);

  {  // Garbage magic.
    RawConn conn = RawConn::To(ts->port());
    conn.Send("this is definitely not the tcdp protocol....");
    EXPECT_TRUE(conn.ClosedByServer());
  }
  {  // Valid preamble, oversized frame length.
    RawConn conn = RawConn::To(ts->port());
    std::string attack = preamble;
    attack.push_back(static_cast<char>(MsgType::kQuery));
    const std::uint32_t huge = kMaxFramePayload + 1;
    attack.append(reinterpret_cast<const char*>(&huge), 4);
    attack.append(4, '\0');
    conn.Send(attack);
    EXPECT_TRUE(conn.ClosedByServer());
  }
  {  // Valid preamble, frame with corrupted CRC.
    RawConn conn = RawConn::To(ts->port());
    std::string attack = preamble;
    AppendFrame(&attack, MsgType::kFlush, "");
    attack.back() = static_cast<char>(attack.back() ^ 0x01);
    conn.Send(attack);
    EXPECT_TRUE(conn.ClosedByServer());
  }
  {  // Truncated frame, then the peer vanishes.
    RawConn conn = RawConn::To(ts->port());
    std::string attack = preamble;
    AppendFrame(&attack, MsgType::kRelease,
                EncodeRelease(UserName(0), 0.1));
    conn.Send(attack.substr(0, attack.size() - 3));
    // Half-closing abandons the partial frame; the server must just
    // discard it (nothing to apply, nothing to answer) and close.
    conn.ShutdownWrite();
    EXPECT_TRUE(conn.ClosedByServer());
  }
  {  // Well-framed but non-request type: answered with kError, closed.
    RawConn conn = RawConn::To(ts->port());
    std::string attack = preamble;
    AppendFrame(&attack, MsgType::kOk, "");
    conn.Send(attack);
    EXPECT_TRUE(conn.ClosedByServer());
  }
  {  // Empty-payload request type carrying junk bytes (misframing).
    RawConn conn = RawConn::To(ts->port());
    std::string attack = preamble;
    AppendFrame(&attack, MsgType::kFlush, "junk payload bytes");
    conn.Send(attack);
    EXPECT_TRUE(conn.ClosedByServer());
  }
  {  // Well-framed request whose payload does not decode — with more
     // frames queued behind it, which the server must discard (a
     // violation connection that waits for its queue to drain would
     // leak: those frames are never answered).
    RawConn conn = RawConn::To(ts->port());
    std::string attack = preamble;
    AppendFrame(&attack, MsgType::kJoin, "not a join payload");
    AppendFrame(&attack, MsgType::kFlush, "");
    AppendFrame(&attack, MsgType::kFlush, "");
    conn.Send(attack);
    EXPECT_TRUE(conn.ClosedByServer());
  }

  // The good connection and the accounting state are untouched.
  auto after = (*good)->Query(UserName(0));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->horizon, before->horizon);
  EXPECT_EQ(after->epsilons, before->epsilons);
  EXPECT_EQ(after->tpl_series, before->tpl_series);
  EXPECT_TRUE((*good)->Release(UserName(1), 0.2).ok());
  EXPECT_TRUE((*good)->Flush().ok());
  EXPECT_TRUE((*good)->Shutdown().ok());
  ts->Finish();
  EXPECT_GE(ts->server->stats().connections_dropped, 5u);
}

TEST(NetServerTest, StatsQueryReportsShardGauges) {
  auto ts = TestServer::Start(3, 4);
  ASSERT_NE(ts, nullptr);
  auto client = Connect(*ts, /*pipeline=*/8);
  ASSERT_TRUE(client.ok());
  for (std::size_t u = 0; u < kUsers; ++u) {
    ASSERT_TRUE((*client)->Join(UserName(u), Profile(u)).ok());
  }
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE((*client)->ReleaseAll(0.1).ok());
  }
  ASSERT_TRUE((*client)->Flush().ok());
  auto stats = (*client)->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->num_shards, 3u);
  EXPECT_EQ(stats->num_users, kUsers);
  EXPECT_EQ(stats->join_requests, kUsers);
  EXPECT_EQ(stats->release_requests, 2u);
  ASSERT_EQ(stats->shards.size(), 3u);
  std::uint64_t users = 0;
  for (const WireShardStats& shard : stats->shards) {
    users += shard.users;
    EXPECT_EQ(shard.horizon, stats->horizon);
    EXPECT_EQ(shard.wal_records, 0u);  // ephemeral service: no WAL
    EXPECT_EQ(shard.queue_depth, 0u);  // drained by the stats read
  }
  EXPECT_EQ(users, kUsers);
  EXPECT_TRUE((*client)->Shutdown().ok());
  ts->Finish();
}

TEST(NetServerTest, OversizedReportIsResourceExhaustedAndStreamSurvives) {
  // A Report carries each series as runs of equal values, 9 bytes a
  // run near this horizon. A user whose epsilon alternates every
  // release has a new run at every release in both series, 18 bytes a
  // release, so past kMaxFramePayload / 18 releases the report no
  // longer fits a frame. The service is driven in-process first: one
  // release per tick (batch window 1), no network round trips.
  const std::size_t releases = kMaxFramePayload / 18 + 64;
  server::ShardedServiceOptions options;
  options.num_shards = 1;
  options.batch_window = 1;
  auto service = server::ShardedReleaseService::Create("", options);
  ASSERT_TRUE(service.ok()) << service.status();
  ASSERT_TRUE((*service)->Join("alice", Profile(0)).ok());
  for (std::size_t r = 0; r < releases; ++r) {
    ASSERT_TRUE((*service)->ReleaseAll(r % 2 ? 0.2 : 0.1).ok());
  }
  ASSERT_TRUE((*service)->Flush().ok());
  ASSERT_EQ((*service)->horizon(), releases);
  auto in_process = (*service)->Query("alice");
  ASSERT_TRUE(in_process.ok()) << in_process.status();
  ASSERT_GT(ReportPayloadSize(*in_process), kMaxFramePayload);

  auto ts = TestServer::Serve(std::move(service).value());
  ASSERT_NE(ts, nullptr);
  auto client = Connect(*ts);
  ASSERT_TRUE(client.ok()) << client.status();

  auto report = (*client)->Query("alice");
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kResourceExhausted)
      << report.status();
  // The error frame leaves the connection usable.
  auto stats = (*client)->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->num_users, 1u);
  EXPECT_EQ(stats->horizon, releases);
  EXPECT_TRUE((*client)->Shutdown().ok());
  ts->Finish();
}

bool SameDoubleBits(const std::vector<double>& a,
                    const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameReportBits(const server::UserReport& a, const server::UserReport& b) {
  return a.name == b.name && a.shard == b.shard &&
         a.join_release == b.join_release && a.horizon == b.horizon &&
         std::memcmp(&a.max_tpl, &b.max_tpl, sizeof(double)) == 0 &&
         std::memcmp(&a.user_level_tpl, &b.user_level_tpl,
                     sizeof(double)) == 0 &&
         SameDoubleBits(a.epsilons, b.epsilons) &&
         SameDoubleBits(a.tpl_series, b.tpl_series);
}

TEST(NetServerTest, ReusedReportAnswersLongShortAndEmptySeriesBitwise) {
  // The server builds every answer in one reused report: its series
  // must shrink and grow with each user's horizon, down to empty.
  server::ShardedServiceOptions options;
  options.num_shards = 2;
  options.batch_window = 1;
  auto service = server::ShardedReleaseService::Create("", options);
  ASSERT_TRUE(service.ok()) << service.status();
  server::ShardedReleaseService& svc = **service;
  ASSERT_TRUE(svc.Join("long", Profile(0)).ok());
  for (int r = 0; r < 400; ++r) {
    if (r == 340) {
      ASSERT_TRUE(svc.Join("short", Profile(1)).ok());
    }
    const char* name = r < 340 || r % 2 ? "long" : "short";
    ASSERT_TRUE(
        (r % 7 == 0 ? svc.ReleaseAll(0.1) : svc.Release(name, 0.2)).ok());
  }
  ASSERT_TRUE(svc.Join("late", Profile(2)).ok());
  ASSERT_TRUE(svc.Flush().ok());
  const std::vector<std::string> names = {"long", "short", "late", "long"};
  std::vector<server::UserReport> expected;
  for (const std::string& name : names) {
    auto report = svc.Query(name);
    ASSERT_TRUE(report.ok()) << report.status();
    expected.push_back(std::move(report).value());
  }
  ASSERT_GT(expected[0].horizon, expected[1].horizon);
  ASSERT_GT(expected[1].horizon, 0u);
  ASSERT_EQ(expected[2].horizon, 0u);

  auto ts = TestServer::Serve(std::move(service).value());
  ASSERT_NE(ts, nullptr);
  auto client = Connect(*ts);
  ASSERT_TRUE(client.ok()) << client.status();
  for (std::size_t i = 0; i < names.size(); ++i) {
    auto report = (*client)->Query(names[i]);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_TRUE(SameReportBits(*report, expected[i]))
        << "query " << i << " (" << names[i] << ")";
  }
  EXPECT_TRUE((*client)->Shutdown().ok());
  ts->Finish();
}

TEST(NetServerTest, SparseUserAtAHundredThousandReleasesGetsItsReport) {
  // 100k releases at 16 bytes each would overflow a frame as dense
  // series. A user who takes part in one release in a thousand has a
  // few runs per participation, so its report is a few KB and arrives
  // bitwise equal to the in-process Query.
  constexpr std::size_t kReleases = 100000;
  static_assert(kReleases * 16 > kMaxFramePayload);
  server::ShardedServiceOptions options;
  options.num_shards = 2;
  options.batch_window = 1;
  auto service = server::ShardedReleaseService::Create("", options);
  ASSERT_TRUE(service.ok()) << service.status();
  server::ShardedReleaseService& svc = **service;
  ASSERT_TRUE(svc.Join("sparse", Profile(0)).ok());
  ASSERT_TRUE(svc.Join("busy", Profile(1)).ok());
  for (std::size_t r = 0; r < kReleases; ++r) {
    ASSERT_TRUE(
        (r % 1000 == 0 ? svc.Release("sparse", r % 3000 ? 0.1 : 0.2)
                       : svc.Release("busy", 0.05))
            .ok());
  }
  ASSERT_TRUE(svc.Flush().ok());
  auto expected = svc.Query("sparse");
  ASSERT_TRUE(expected.ok()) << expected.status();
  ASSERT_EQ(expected->horizon, kReleases);
  EXPECT_LT(ReportPayloadSize(*expected), std::size_t{64} << 10);

  auto ts = TestServer::Serve(std::move(service).value());
  ASSERT_NE(ts, nullptr);
  auto client = Connect(*ts);
  ASSERT_TRUE(client.ok()) << client.status();
  auto report = (*client)->Query("sparse");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(SameReportBits(*report, *expected));
  EXPECT_TRUE((*client)->Shutdown().ok());
  ts->Finish();
}

TEST(NetServerTest, DurableServiceOverNetworkRecovers) {
  const std::string dir = "/tmp/tcdp_net_server_test_logs";
  std::filesystem::remove_all(dir);
  std::vector<server::UserReport> before;
  {
    auto ts = TestServer::Start(2, 4, dir);
    ASSERT_NE(ts, nullptr);
    auto client = Connect(*ts, /*pipeline=*/4);
    ASSERT_TRUE(client.ok());
    for (std::size_t u = 0; u < kUsers; ++u) {
      ASSERT_TRUE((*client)->Join(UserName(u), Profile(u)).ok());
    }
    for (int round = 0; round < 3; ++round) {
      for (std::size_t u = 0; u < kUsers; u += 2) {
        ASSERT_TRUE((*client)->Release(UserName(u), 0.1).ok());
      }
      ASSERT_TRUE((*client)->Flush().ok());
    }
    ASSERT_TRUE((*client)->Snapshot().ok());
    for (std::size_t u = 1; u < kUsers; u += 2) {
      ASSERT_TRUE((*client)->Release(UserName(u), 0.2).ok());
    }
    ASSERT_TRUE((*client)->Flush().ok());
    before = QueryAll(client->get());
    EXPECT_TRUE((*client)->Shutdown().ok());
    ts->Finish();
    EXPECT_TRUE(ts->service->Close().ok());
  }
  auto recovered = server::ShardedReleaseService::Recover(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  std::vector<server::UserReport> after;
  for (std::size_t u = 0; u < kUsers; ++u) {
    auto report = (*recovered)->Query(UserName(u));
    ASSERT_TRUE(report.ok());
    after.push_back(std::move(report).value());
  }
  ExpectSameReports(after, before, "recovered");
  EXPECT_TRUE((*recovered)->Close().ok());
  std::filesystem::remove_all(dir);
}

TEST(NetServerTest, CompactOverNetworkShrinksLogsAndRecovers) {
  const std::string dir = "/tmp/tcdp_net_compact_test_logs";
  std::filesystem::remove_all(dir);
  std::vector<server::UserReport> before;
  {
    auto ts = TestServer::Start(2, 4, dir);
    ASSERT_NE(ts, nullptr);
    auto client = Connect(*ts, /*pipeline=*/4);
    ASSERT_TRUE(client.ok());
    for (std::size_t u = 0; u < kUsers; ++u) {
      ASSERT_TRUE((*client)->Join(UserName(u), Profile(u)).ok());
    }
    for (int round = 0; round < 3; ++round) {
      ASSERT_TRUE((*client)->ReleaseAll(0.1).ok());
      ASSERT_TRUE((*client)->Flush().ok());
    }
    ASSERT_TRUE((*client)->Snapshot().ok());
    // Suffix past the anchor, then the admin request under test.
    ASSERT_TRUE((*client)->ReleaseAll(0.2).ok());
    ASSERT_TRUE((*client)->Flush().ok());
    auto dense = (*client)->Stats();
    ASSERT_TRUE(dense.ok());
    ASSERT_TRUE((*client)->Compact().ok());
    auto compacted = (*client)->Stats();
    ASSERT_TRUE(compacted.ok());
    for (std::size_t s = 0; s < compacted->shards.size(); ++s) {
      EXPECT_LT(compacted->shards[s].wal_bytes, dense->shards[s].wal_bytes)
          << "shard " << s << " did not shrink over the wire";
    }
    // The connection survives the admin request and keeps serving.
    ASSERT_TRUE((*client)->ReleaseAll(0.05).ok());
    ASSERT_TRUE((*client)->Flush().ok());
    before = QueryAll(client->get());
    EXPECT_TRUE((*client)->Shutdown().ok());
    ts->Finish();
    EXPECT_TRUE(ts->service->Close().ok());
  }
  auto recovered = server::ShardedReleaseService::Recover(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  std::vector<server::UserReport> after;
  for (std::size_t u = 0; u < kUsers; ++u) {
    auto report = (*recovered)->Query(UserName(u));
    ASSERT_TRUE(report.ok());
    after.push_back(std::move(report).value());
  }
  ExpectSameReports(after, before, "compacted-recovered");
  EXPECT_TRUE((*recovered)->Close().ok());
  std::filesystem::remove_all(dir);
}

TEST(NetServerTest, CompactOnEphemeralServiceIsAnApplicationError) {
  auto ts = TestServer::Start(1, 4);
  ASSERT_NE(ts, nullptr);
  auto client = Connect(*ts);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Join(UserName(0), Profile(0)).ok());
  const Status compacted = (*client)->Compact();
  EXPECT_FALSE(compacted.ok());
  EXPECT_EQ(compacted.code(), StatusCode::kFailedPrecondition)
      << compacted;
  // Tier-3 error: the error latches in THIS client (its view of
  // applied state is pipelined), but the connection itself stays open
  // and a fresh client keeps working against untouched state.
  auto fresh = Connect(*ts);
  ASSERT_TRUE(fresh.ok());
  auto report = (*fresh)->Query(UserName(0));
  EXPECT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE((*fresh)->Shutdown().ok());
  ts->Finish();
}

TEST(NetServerTest, ScriptedLinkFaultsOnTheClientPathAreContained) {
  // Deterministic link faults (tests/fault_injection.h) between a
  // client and the server: a corrupted mutation must NOT apply (the
  // frame CRC catches it and the connection drops), a mid-response
  // reset must not wedge the server, and a 1-byte-chunked link must
  // behave exactly like a clean one.
  auto ts = TestServer::Start(2, 4);
  ASSERT_NE(ts, nullptr);

  auto good = Connect(*ts);
  ASSERT_TRUE(good.ok());
  for (std::size_t u = 0; u < 4; ++u) {
    ASSERT_TRUE((*good)->Join(UserName(u), Profile(u)).ok());
  }
  for (std::size_t u = 0; u < 4; ++u) {
    ASSERT_TRUE((*good)->Release(UserName(u), 0.1).ok());
  }
  ASSERT_TRUE((*good)->Flush().ok());
  auto before = (*good)->Query(UserName(0));
  ASSERT_TRUE(before.ok());

  // Connection 1: flip a byte inside the first request frame's payload
  // (preamble is 12 bytes, the frame header 9: offset 23 is payload
  // byte 2 of the client's first frame). Connection 2: hard-reset the
  // server->client direction mid-preamble/response. Connection 3+:
  // clean but delivered one byte at a time, both directions.
  std::vector<tcdp::testing::ConnPlan> plans(3);
  plans[0].client_to_server.corrupt_at = 23;
  plans[1].server_to_client.reset_after = 16;
  plans[2].client_to_server.chunk = 1;
  plans[2].server_to_client.chunk = 1;
  auto proxy = tcdp::testing::FaultyProxy::Start(ts->port(), plans);
  ASSERT_NE(proxy, nullptr);

  {
    // The corrupted Release must surface as an error and must not
    // change accounting state (asserted below against `before`).
    auto client = NetClient::Connect("127.0.0.1", proxy->port(), {});
    ASSERT_TRUE(client.ok()) << client.status();
    const Status released = (*client)->Release(UserName(0), 0.9);
    EXPECT_FALSE(released.ok())
        << "a CRC-corrupted mutation must not be acked";
  }
  {
    // The reset lands mid server->client stream; the client errors,
    // the server just drops the connection.
    auto client = NetClient::Connect("127.0.0.1", proxy->port(), {});
    if (client.ok()) {
      auto report = (*client)->Query(UserName(0));
      EXPECT_FALSE(report.ok()) << "response was reset mid-flight";
    }
  }
  {
    // The chunked link is slow but correct: reports are identical to
    // the direct connection's.
    auto client = NetClient::Connect("127.0.0.1", proxy->port(), {});
    ASSERT_TRUE(client.ok()) << client.status();
    for (std::size_t u = 0; u < 4; ++u) {
      auto chunked = (*client)->Query(UserName(u));
      ASSERT_TRUE(chunked.ok()) << chunked.status();
      auto direct = (*good)->Query(UserName(u));
      ASSERT_TRUE(direct.ok()) << direct.status();
      EXPECT_EQ(chunked->horizon, direct->horizon) << UserName(u);
      EXPECT_EQ(chunked->epsilons, direct->epsilons) << UserName(u);
      EXPECT_EQ(chunked->tpl_series, direct->tpl_series) << UserName(u);
    }
  }
  const tcdp::testing::FaultyProxyStats proxy_stats = proxy->stats();
  EXPECT_EQ(proxy_stats.corruptions, 1u);
  EXPECT_EQ(proxy_stats.resets, 1u);
  EXPECT_GE(proxy_stats.connections, 3u);
  proxy->Stop();

  // The faulted connections left no trace: user-0 is bitwise where the
  // clean workload put it (the corrupted 0.9 release never applied).
  auto after = (*good)->Query(UserName(0));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->horizon, before->horizon);
  EXPECT_EQ(after->epsilons, before->epsilons);
  EXPECT_EQ(after->tpl_series, before->tpl_series);
  EXPECT_GE(ts->server->stats().connections_dropped, 1u);
  EXPECT_TRUE((*good)->Shutdown().ok());
  ts->Finish();
}

}  // namespace
}  // namespace net
}  // namespace tcdp
