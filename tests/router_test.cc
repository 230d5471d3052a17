// Router tests (ISSUE 10): user -> endpoint placement. The claims
// that matter operationally:
//   * Balance: with virtual nodes, no endpoint captures a grossly
//     disproportionate share of users (this caught a real bug — raw
//     FNV-1a virtual points cluster so badly one endpoint took 100%).
//   * Minimal movement: scaling out moves ~1/N of the users, all of
//     them TO the new endpoint; nobody shuffles between old endpoints,
//     and removing the endpoint restores the old placement exactly.
//   * Pins (kMigrateUser) override the ring, clear back to it, and
//     are validated against ring membership.
//   * The journal makes placement durable: reopen replays it, a torn
//     tail is truncated not fatal, and the reopened journal appends.
//   * The wire front answers kRouteLookup with exactly what the table
//     says, and refuses off-family frames.
//   * A client that pipelines lookups without reading its answers hits
//     the router's write-buffer bound: the server stops reading (a
//     counted backpressure pause) instead of buffering without limit,
//     and answers every lookup once the client drains.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/messages.h"
#include "net/wire.h"
#include "replication/router.h"

namespace tcdp {
namespace replication {
namespace {

constexpr std::size_t kUsers = 1000;

std::string UserName(std::size_t u) { return "user-" + std::to_string(u); }

std::map<std::string, std::string> Placements(const RouterTable& table) {
  std::map<std::string, std::string> placement;
  for (std::size_t u = 0; u < kUsers; ++u) {
    auto endpoint = table.Lookup(UserName(u));
    EXPECT_TRUE(endpoint.ok()) << endpoint.status();
    placement[UserName(u)] = endpoint.ok() ? *endpoint : "";
  }
  return placement;
}

std::map<std::string, std::size_t> CountByEndpoint(
    const std::map<std::string, std::string>& placement) {
  std::map<std::string, std::size_t> counts;
  for (const auto& entry : placement) ++counts[entry.second];
  return counts;
}

TEST(RouterTest, BalancedPlacementAndMinimalMovementOnScaleOut) {
  auto table = RouterTable::Open("");  // ephemeral
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_TRUE((*table)->AddEndpoint("shard-a:9001").ok());
  ASSERT_TRUE((*table)->AddEndpoint("shard-b:9002").ok());

  const auto before = Placements(**table);
  const auto counts_before = CountByEndpoint(before);
  ASSERT_EQ(counts_before.size(), 2u);
  for (const auto& entry : counts_before) {
    // No endpoint may capture a grossly disproportionate share.
    EXPECT_GE(entry.second, kUsers / 4) << entry.first;
    EXPECT_LE(entry.second, 3 * kUsers / 4) << entry.first;
  }

  // Scale out: every moved user moves TO the new endpoint — an old
  // endpoint never steals from another old endpoint — and roughly 1/3
  // of the keyspace moves.
  ASSERT_TRUE((*table)->AddEndpoint("shard-c:9003").ok());
  const auto after = Placements(**table);
  std::size_t moved = 0;
  for (const auto& entry : before) {
    const std::string& now = after.at(entry.first);
    if (now != entry.second) {
      ++moved;
      EXPECT_EQ(now, "shard-c:9003")
          << entry.first << " moved between OLD endpoints";
    }
  }
  EXPECT_GE(moved, kUsers / 6) << "the new endpoint took almost nothing";
  EXPECT_LE(moved, kUsers / 2) << "scale-out reshuffled far more than 1/N";
  const auto counts_after = CountByEndpoint(after);
  ASSERT_EQ(counts_after.size(), 3u);
  EXPECT_EQ(counts_after.at("shard-c:9003"), moved);

  // Scale back in: placement is a pure function of the endpoint set,
  // so removing the endpoint restores the old map exactly.
  ASSERT_TRUE((*table)->RemoveEndpoint("shard-c:9003").ok());
  EXPECT_EQ(Placements(**table), before);

  // Membership is validated both ways.
  EXPECT_FALSE((*table)->AddEndpoint("shard-a:9001").ok());
  EXPECT_FALSE((*table)->RemoveEndpoint("never-added:1").ok());
}

TEST(RouterTest, PinsOverrideTheRingAndClearBackToIt) {
  auto table = RouterTable::Open("");
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_TRUE((*table)->AddEndpoint("shard-a:9001").ok());
  ASSERT_TRUE((*table)->AddEndpoint("shard-b:9002").ok());

  auto ring_choice = (*table)->Lookup("alice");
  ASSERT_TRUE(ring_choice.ok());
  const std::string other =
      *ring_choice == "shard-a:9001" ? "shard-b:9002" : "shard-a:9001";

  ASSERT_TRUE((*table)->MigrateUser("alice", other).ok());
  auto pinned = (*table)->Lookup("alice");
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ(*pinned, other);
  EXPECT_EQ((*table)->stats().pins, 1u);

  // A pin must target a live endpoint.
  EXPECT_FALSE((*table)->MigrateUser("bob", "unknown:1").ok());

  // Clearing hands the user back to the ring.
  ASSERT_TRUE((*table)->MigrateUser("alice", "").ok());
  auto cleared = (*table)->Lookup("alice");
  ASSERT_TRUE(cleared.ok());
  EXPECT_EQ(*cleared, *ring_choice);
  EXPECT_EQ((*table)->stats().pins, 0u);
}

TEST(RouterTest, JournalReplaysAndSurvivesATornTail) {
  const std::string journal = "/tmp/tcdp_router_test.journal";
  std::filesystem::remove(journal);
  std::map<std::string, std::string> expected;
  std::uint64_t journal_records = 0;
  {
    auto table = RouterTable::Open(journal);
    ASSERT_TRUE(table.ok()) << table.status();
    ASSERT_TRUE((*table)->AddEndpoint("shard-a:9001").ok());
    ASSERT_TRUE((*table)->AddEndpoint("shard-b:9002").ok());
    ASSERT_TRUE((*table)->AddEndpoint("shard-c:9003").ok());
    ASSERT_TRUE((*table)->RemoveEndpoint("shard-b:9002").ok());
    ASSERT_TRUE((*table)->MigrateUser("alice", "shard-c:9003").ok());
    expected = Placements(**table);
    journal_records = (*table)->stats().journal_records;
    EXPECT_GE(journal_records, 5u);
  }
  {
    // Replay reproduces the table exactly.
    auto table = RouterTable::Open(journal);
    ASSERT_TRUE(table.ok()) << table.status();
    EXPECT_EQ((*table)->stats().journal_records, journal_records);
    EXPECT_EQ((*table)->stats().endpoints, 2u);
    EXPECT_EQ((*table)->stats().pins, 1u);
    EXPECT_EQ(Placements(**table), expected);
  }
  {
    // A crash mid-append leaves a torn tail: truncated, not fatal.
    std::ofstream out(journal, std::ios::binary | std::ios::app);
    out << "\x06garbage-torn-tail";
  }
  {
    auto table = RouterTable::Open(journal);
    ASSERT_TRUE(table.ok())
        << "torn journal tail must recover: " << table.status();
    EXPECT_EQ((*table)->stats().journal_records, journal_records);
    EXPECT_EQ(Placements(**table), expected);
    // ...and the recovered journal still accepts mutations durably.
    ASSERT_TRUE((*table)->MigrateUser("bob", "shard-a:9001").ok());
  }
  {
    auto table = RouterTable::Open(journal);
    ASSERT_TRUE(table.ok()) << table.status();
    EXPECT_EQ((*table)->stats().journal_records, journal_records + 1);
    auto bob = (*table)->Lookup("bob");
    ASSERT_TRUE(bob.ok());
    EXPECT_EQ(*bob, "shard-a:9001");
  }
  std::filesystem::remove(journal);
}

TEST(RouterTest, WireLookupAnswersExactlyWhatTheTableSays) {
  auto table = RouterTable::Open("");
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_TRUE((*table)->AddEndpoint("shard-a:9001").ok());
  ASSERT_TRUE((*table)->AddEndpoint("shard-b:9002").ok());
  ASSERT_TRUE((*table)->MigrateUser("user-7", "shard-a:9001").ok());

  auto server = RouterServer::Listen(table->get(), RouterServerOptions{});
  ASSERT_TRUE(server.ok()) << server.status();
  Status serve_status;
  std::thread serve_thread(
      [&server, &serve_status] { serve_status = (*server)->Serve(); });

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons((*server)->port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  timeval timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));

  std::string request;
  net::AppendPreamble(&request);
  const std::vector<std::string> names = {"user-0", "user-7", "user-42",
                                          "another one entirely"};
  for (const std::string& name : names) {
    net::AppendFrame(&request, net::MsgType::kRouteLookup,
                     net::EncodeName(name));
  }
  ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));

  net::FrameDecoder decoder;
  std::vector<net::Frame> frames;
  char buffer[4096];
  while (frames.size() < names.size()) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    ASSERT_GT(n, 0) << "server hung up before answering every lookup";
    ASSERT_TRUE(decoder.Feed(buffer, static_cast<std::size_t>(n)).ok());
    while (decoder.has_frame()) frames.push_back(decoder.PopFrame());
  }
  ASSERT_EQ(frames.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    ASSERT_EQ(frames[i].type, net::MsgType::kRouteReport) << names[i];
    auto endpoint = net::DecodeName(frames[i].payload);
    ASSERT_TRUE(endpoint.ok());
    auto direct = (*table)->Lookup(names[i]);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(*endpoint, *direct) << names[i];
  }

  // An off-family frame gets a kError and the connection is closed.
  std::string bogus;
  net::AppendFrame(&bogus, net::MsgType::kSubscribe, "");
  ASSERT_EQ(::send(fd, bogus.data(), bogus.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bogus.size()));
  bool got_error = false;
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;  // server closed on us, as it must
    ASSERT_TRUE(decoder.Feed(buffer, static_cast<std::size_t>(n)).ok());
    while (decoder.has_frame()) {
      got_error = decoder.PopFrame().type == net::MsgType::kError;
    }
  }
  EXPECT_TRUE(got_error);
  ::close(fd);

  (*server)->Stop();
  serve_thread.join();
  EXPECT_TRUE(serve_status.ok()) << serve_status;
}

TEST(RouterTest, UnreadPipelinedLookupsPauseReadsAndAreAllAnswered) {
  // A ~64 KiB endpoint makes every answer large: 1024 unread answers
  // (64 MiB) overflow the socket buffers and the router's 4 MiB write
  // bound many times over, while the requests themselves fit in one
  // send.
  const std::string big_endpoint = "shard-" + std::string(64 * 1024, 'x');
  constexpr std::size_t kLookups = 1024;
  static_assert(kLookups * 64 * 1024 > 8 * RouterServer::kMaxWriteBuffer,
                "the answers must overflow the write bound");
  auto table = RouterTable::Open("");
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_TRUE((*table)->AddEndpoint(big_endpoint).ok());

  auto server = RouterServer::Listen(table->get(), RouterServerOptions{});
  ASSERT_TRUE(server.ok()) << server.status();
  Status serve_status;
  std::thread serve_thread(
      [&server, &serve_status] { serve_status = (*server)->Serve(); });

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  // A small fixed receive buffer keeps the kernel from absorbing the
  // backlog that the router must hold (or refuse to read) itself.
  int rcvbuf = 16 * 1024;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons((*server)->port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  timeval timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));

  std::string request;
  net::AppendPreamble(&request);
  for (std::size_t i = 0; i < kLookups; ++i) {
    net::AppendFrame(&request, net::MsgType::kRouteLookup,
                     net::EncodeName(UserName(i)));
  }
  ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));

  // Let the router answer until it can send no more: answers pile up
  // in our receive buffer, then in the router's write buffer.
  for (int i = 0; i < 500; ++i) {
    int available = 0;
    ::ioctl(fd, FIONREAD, &available);
    if (available > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  net::FrameDecoder decoder;
  std::size_t answered = 0;
  std::vector<char> buffer(256 * 1024);
  while (answered < kLookups) {
    const ssize_t n = ::recv(fd, buffer.data(), buffer.size(), 0);
    ASSERT_GT(n, 0) << "router hung up after " << answered << " answers";
    ASSERT_TRUE(decoder.Feed(buffer.data(), static_cast<std::size_t>(n)).ok());
    while (decoder.has_frame()) {
      const net::Frame frame = decoder.PopFrame();
      ASSERT_EQ(frame.type, net::MsgType::kRouteReport) << answered;
      auto endpoint = net::DecodeName(frame.payload);
      ASSERT_TRUE(endpoint.ok());
      ASSERT_EQ(endpoint->size(), big_endpoint.size()) << answered;
      ++answered;
    }
  }
  EXPECT_EQ(answered, kLookups);
  ::close(fd);

  (*server)->Stop();
  serve_thread.join();
  EXPECT_TRUE(serve_status.ok()) << serve_status;
  EXPECT_GT((*server)->stats().backpressure_pauses, 0u);
  EXPECT_EQ((*server)->stats().connections_accepted, 1u);
}

}  // namespace
}  // namespace replication
}  // namespace tcdp
