// Connection caps of the three servers that share net::EventLoop
// (NetServer, LogStreamServer, RouterServer). For each server:
//   * `cap` peers are accepted and each gets the stream preamble;
//   * peer cap+1 completes its TCP handshake (the kernel backlog) but
//     gets no preamble while the cap is held — the listener is out of
//     the poll set, so the server neither answers nor reads it;
//   * once one of the first `cap` peers closes, peer cap+1 is accepted
//     and served: its request gets the server's normal answer.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/messages.h"
#include "net/server.h"
#include "net/wire.h"
#include "replication/log_stream.h"
#include "replication/repl_messages.h"
#include "replication/router.h"
#include "server/sharded_service.h"

namespace tcdp {
namespace {

/// A server under test, serving on its own thread. Members are
/// destroyed bottom-up: the thread is joined before the server goes,
/// and the server before what it serves (service, table, log dir).
struct Running {
  std::shared_ptr<void> backing;
  std::shared_ptr<void> server;
  std::uint16_t port = 0;
  std::function<void()> stop;
  std::thread thread;
  Status serve_status;

  ~Running() {
    if (thread.joinable()) {
      stop();
      thread.join();
    }
  }
};

template <class Server>
std::unique_ptr<Running> Serve(std::shared_ptr<void> backing,
                               StatusOr<std::unique_ptr<Server>> listened) {
  EXPECT_TRUE(listened.ok()) << listened.status();
  if (!listened.ok()) return nullptr;
  auto running = std::make_unique<Running>();
  std::shared_ptr<Server> server = std::move(listened).value();
  running->backing = std::move(backing);
  running->server = server;
  running->port = server->port();
  running->stop = [raw = server.get()] { raw->Stop(); };
  running->thread = std::thread([raw = server.get(), r = running.get()] {
    r->serve_status = raw->Serve();
  });
  return running;
}

std::unique_ptr<Running> StartNetServer() {
  auto service = server::ShardedReleaseService::Create("", {});
  EXPECT_TRUE(service.ok()) << service.status();
  if (!service.ok()) return nullptr;
  std::shared_ptr<server::ShardedReleaseService> shared =
      std::move(service).value();
  return Serve(shared, net::NetServer::Listen(shared.get()));
}

std::unique_ptr<Running> StartLogStreamServer() {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("tcdp_event_loop_test_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  {
    auto service = server::ShardedReleaseService::Create(dir, {});
    EXPECT_TRUE(service.ok()) << service.status();
    if (!service.ok()) return nullptr;
    EXPECT_TRUE((*service)->Close().ok());
  }
  std::shared_ptr<void> cleanup(nullptr, [dir](void*) {
    std::filesystem::remove_all(dir);
  });
  replication::LogStreamOptions options;
  options.log_dir = dir;
  return Serve(cleanup, replication::LogStreamServer::Listen(options));
}

std::unique_ptr<Running> StartRouterServer() {
  auto table = replication::RouterTable::Open("");
  EXPECT_TRUE(table.ok()) << table.status();
  if (!table.ok()) return nullptr;
  EXPECT_TRUE((*table)->AddEndpoint("shard-a:9001").ok());
  std::shared_ptr<replication::RouterTable> shared = std::move(table).value();
  return Serve(shared, replication::RouterServer::Listen(
                           shared.get(), replication::RouterServerOptions{}));
}

struct ServerCase {
  const char* name;
  std::size_t cap;
  std::function<std::unique_ptr<Running>()> start;
  /// One request the server answers, and the answer's type.
  net::MsgType request;
  std::string payload;
  net::MsgType answer;
};

void PrintTo(const ServerCase& server_case, std::ostream* os) {
  *os << server_case.name;
}

std::vector<ServerCase> Cases() {
  return {
      {"NetServer", net::NetServer::kMaxConnections, StartNetServer,
       net::MsgType::kHealth, "", net::MsgType::kHealthReport},
      {"LogStreamServer", replication::LogStreamServer::kMaxFollowers,
       StartLogStreamServer, net::MsgType::kSubscribe,
       replication::EncodeSubscribe({}), net::MsgType::kSubscribeOk},
      {"RouterServer", replication::RouterServer::kMaxConnections,
       StartRouterServer, net::MsgType::kRouteLookup,
       net::EncodeName("user-1"), net::MsgType::kRouteReport},
  };
}

int Connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  timeval timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  return fd;
}

bool ReadableWithin(int fd, int timeout_ms) {
  pollfd ready{fd, POLLIN, 0};
  return ::poll(&ready, 1, timeout_ms) > 0;
}

/// Reads frames until one arrives (the preamble is consumed first).
/// False when the server closes or the receive timeout passes.
bool ReadFrame(int fd, net::FrameDecoder* decoder, net::Frame* frame) {
  char buffer[4096];
  while (!decoder->has_frame()) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) return false;
    if (!decoder->Feed(buffer, static_cast<std::size_t>(n)).ok()) {
      return false;
    }
  }
  *frame = decoder->PopFrame();
  return true;
}

class ConnectionCapTest : public ::testing::TestWithParam<ServerCase> {};

TEST_P(ConnectionCapTest, PeerPastTheCapWaitsUnansweredUntilOneCloses) {
  const ServerCase& param = GetParam();
  std::unique_ptr<Running> running = param.start();
  ASSERT_NE(running, nullptr);

  std::vector<int> held;
  for (std::size_t i = 0; i < param.cap; ++i) {
    held.push_back(Connect(running->port));
    char preamble[net::kPreambleBytes];
    ASSERT_EQ(::recv(held.back(), preamble, sizeof(preamble), MSG_WAITALL),
              static_cast<ssize_t>(sizeof(preamble)))
        << "peer " << i << " of " << param.cap << " got no preamble";
  }

  const int extra = Connect(running->port);
  std::string request;
  net::AppendPreamble(&request);
  net::AppendFrame(&request, param.request, param.payload);
  ASSERT_EQ(::send(extra, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  EXPECT_FALSE(ReadableWithin(extra, 300))
      << "peer cap+1 was answered while the cap was held";

  ::close(held.front());
  held.erase(held.begin());
  net::FrameDecoder decoder;
  net::Frame answer;
  ASSERT_TRUE(ReadFrame(extra, &decoder, &answer))
      << "peer cap+1 was not served after a peer closed";
  EXPECT_EQ(answer.type, param.answer);

  ::close(extra);
  for (const int fd : held) ::close(fd);
  running->stop();
  running->thread.join();
  EXPECT_TRUE(running->serve_status.ok()) << running->serve_status;
}

INSTANTIATE_TEST_SUITE_P(
    AllServers, ConnectionCapTest, ::testing::ValuesIn(Cases()),
    [](const ::testing::TestParamInfo<ServerCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace tcdp
