#include "open_loop.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench/suites/common.h"
#include "net/messages.h"

namespace perfbench {
namespace {

using tcdp::net::Frame;
using tcdp::net::MsgType;

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

void SleepNs(std::uint64_t ns) {
  std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Writes as much of out[*offset..] as the socket takes right now.
Status WriteSome(int fd, const std::string& out, std::size_t* offset) {
  while (*offset < out.size()) {
    const ssize_t n = ::send(fd, out.data() + *offset, out.size() - *offset,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::OK();
      if (errno == EINTR) continue;
      return Errno("send");
    }
    *offset += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

/// Reads what the socket holds into \p decoder; false at EOF.
StatusOr<bool> ReadSome(int fd, tcdp::net::FrameDecoder* decoder) {
  char buffer[64 * 1024];
  while (true) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    if (n == 0) return false;
    TCDP_RETURN_IF_ERROR(decoder->Feed(buffer, static_cast<std::size_t>(n)));
  }
}

}  // namespace

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

HostTicks ReadHostTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double value = 0.0;
  HostTicks ticks;
  in >> cpu;
  for (int field = 0; field < 8 && (in >> value); ++field) {
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double StealShare(const HostTicks& from, const HostTicks& to) {
  const double total = to.total - from.total;
  return total > 0 ? (to.steal - from.steal) / total : 0.0;
}

// ------------------------------------------------------------ ServerProcess

StatusOr<std::unique_ptr<ServerProcess>> ServerProcess::Start(
    const std::string& tcdp_binary, const std::string& dir,
    const std::vector<std::string>& extra_args) {
  const std::string port_file = dir + "/port";
  ::unlink(port_file.c_str());
  std::vector<std::string> args = {tcdp_binary, "serve",       "--listen",
                                   "0",         "--port-file", port_file,
                                   "--json",    "-"};
  args.insert(args.end(), extra_args.begin(), extra_args.end());
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const std::string out_path = dir + "/serve.out";
  const std::string err_path = dir + "/serve.err";

  std::unique_ptr<ServerProcess> server(new ServerProcess);
  server->dir_ = dir;
  server->pid_ = ::fork();
  if (server->pid_ < 0) return Errno("fork");
  if (server->pid_ == 0) {
    // The server must not outlive the generator, however it ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int out = ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int err = ::open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (out < 0 || err < 0) ::_exit(126);
    ::dup2(out, STDOUT_FILENO);
    ::dup2(err, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  const std::uint64_t deadline = NowNs() + 60'000'000'000ull;
  while (NowNs() < deadline) {
    int status = 0;
    if (::waitpid(server->pid_, &status, WNOHANG) == server->pid_) {
      server->pid_ = -1;
      return Status::Internal("tcdp serve exited during start: " +
                              ReadFile(err_path));
    }
    const std::string text = ReadFile(port_file);
    if (!text.empty() && text.back() == '\n') {
      server->port_ = static_cast<std::uint16_t>(std::stoul(text));
      return server;
    }
    SleepNs(2'000'000);
  }
  return Status::Internal("tcdp serve did not bind within 60 s");
}

ServerProcess::~ServerProcess() { Kill(); }

std::uint64_t ServerProcess::CpuNs() const {
  std::uint64_t total = 0;
  std::error_code ec;
  const std::string tasks = "/proc/" + std::to_string(pid_) + "/task";
  for (const auto& task : std::filesystem::directory_iterator(tasks, ec)) {
    std::ifstream in(task.path() / "schedstat");
    std::uint64_t ns = 0;
    if (in >> ns) total += ns;
  }
  return total;
}

void ServerProcess::Kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

StatusOr<std::string> ServerProcess::Shutdown() {
  {
    TCDP_ASSIGN_OR_RETURN(auto conn, Connection::Open(port_));
    std::string frame;
    tcdp::net::AppendFrame(&frame, MsgType::kShutdown, "");
    TCDP_RETURN_IF_ERROR(conn->Exchange(frame, 1).status());
  }
  const std::uint64_t deadline = NowNs() + 120'000'000'000ull;
  while (NowNs() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        return Status::Internal("tcdp serve failed: " +
                                ReadFile(dir_ + "/serve.err"));
      }
      return ReadFile(dir_ + "/serve.out");
    }
    SleepNs(5'000'000);
  }
  Kill();
  return Status::Internal("tcdp serve did not exit within 120 s");
}

// --------------------------------------------------------------- Connection

StatusOr<std::unique_ptr<Connection>> Connection::Open(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  std::unique_ptr<Connection> conn(new Connection(fd));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Errno("connect");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  std::string preamble;
  tcdp::net::AppendPreamble(&preamble);
  std::size_t offset = 0;
  while (offset < preamble.size()) {
    TCDP_RETURN_IF_ERROR(WriteSome(fd, preamble, &offset));
  }
  return conn;
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

StatusOr<std::vector<Frame>> Connection::Exchange(const std::string& frames,
                                                  std::size_t count) {
  std::vector<Frame> responses;
  responses.reserve(count);
  std::size_t offset = 0;
  while (responses.size() < count) {
    pollfd pfd{fd_, POLLIN, 0};
    if (offset < frames.size()) pfd.events |= POLLOUT;
    if (::poll(&pfd, 1, 1000) < 0 && errno != EINTR) return Errno("poll");
    if (pfd.revents & POLLOUT) {
      TCDP_RETURN_IF_ERROR(WriteSome(fd_, frames, &offset));
    }
    if (pfd.revents & (POLLIN | POLLHUP | POLLERR)) {
      TCDP_ASSIGN_OR_RETURN(const bool open, ReadSome(fd_, &decoder_));
      while (decoder_.has_frame()) responses.push_back(decoder_.PopFrame());
      if (!open && responses.size() < count) {
        return Status::Internal("server closed the connection");
      }
    }
  }
  return responses;
}

// ---------------------------------------------------------------- RunPhase

void AppendOpFrame(const Op& op, std::string* out) {
  switch (op.kind) {
    case OpKind::kRelease:
      tcdp::net::AppendFrame(
          out, MsgType::kRelease,
          tcdp::net::EncodeRelease(tcdp::bench::BenchUserName(op.user),
                                   op.epsilon));
      break;
    case OpKind::kQuery:
      tcdp::net::AppendFrame(
          out, MsgType::kQuery,
          tcdp::net::EncodeName(tcdp::bench::BenchUserName(op.user)));
      break;
    case OpKind::kFlush:
      tcdp::net::AppendFrame(out, MsgType::kFlush, "");
      break;
    case OpKind::kSnapshot:
      tcdp::net::AppendFrame(out, MsgType::kSnapshot, "");
      break;
  }
}

namespace {

/// Per-connection state shared by the sender (caller) and receiver.
struct Lane {
  Connection* conn = nullptr;
  std::vector<OpRecord> records;  ///< presized; never reallocated
  std::atomic<std::size_t> published{0};  ///< records the sender framed
  std::atomic<std::size_t> answered{0};   ///< records the receiver matched
  std::string out;                        ///< sender only
  std::size_t out_offset = 0;
};

}  // namespace

StatusOr<PhaseResult> RunPhase(const std::vector<Connection*>& conns,
                               const PhaseSpec& spec, const OpSource& next_op) {
  const std::size_t n_conns = conns.size();
  const std::size_t total =
      static_cast<std::size_t>(std::ceil(spec.rate * spec.seconds));
  std::vector<Lane> lanes(n_conns);
  for (std::size_t c = 0; c < n_conns; ++c) {
    lanes[c].conn = conns[c];
    lanes[c].records.resize(total / n_conns + 1);
  }
  PhaseResult result;
  std::atomic<bool> sending_done{false};
  Status receive_status;

  // Receiver: matches each response to the oldest unanswered op of its
  // connection (the server answers strictly in request order).
  std::thread receiver([&] {
    std::vector<pollfd> pfds(n_conns);
    for (std::size_t c = 0; c < n_conns; ++c) {
      pfds[c] = pollfd{conns[c]->fd(), POLLIN, 0};
    }
    std::uint64_t drain_deadline = 0;
    std::size_t query_count = 0;
    while (true) {
      bool all_answered = true;
      for (Lane& lane : lanes) {
        all_answered &= lane.answered.load(std::memory_order_relaxed) ==
                        lane.published.load(std::memory_order_acquire);
      }
      if (sending_done.load(std::memory_order_acquire)) {
        if (all_answered) return;
        if (drain_deadline == 0) drain_deadline = NowNs() + 60'000'000'000ull;
        if (NowNs() > drain_deadline) {
          receive_status = Status::Internal("responses missing after 60 s");
          return;
        }
      }
      if (::poll(pfds.data(), n_conns, 1) < 0 && errno != EINTR) {
        receive_status = Errno("poll");
        return;
      }
      for (std::size_t c = 0; c < n_conns; ++c) {
        if (!(pfds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
        Lane& lane = lanes[c];
        auto open = ReadSome(pfds[c].fd, &conns[c]->decoder());
        if (!open.ok()) {
          receive_status = open.status();
          return;
        }
        const std::uint64_t now = NowNs();
        while (conns[c]->decoder().has_frame()) {
          const Frame frame = conns[c]->decoder().PopFrame();
          const std::size_t index = lane.answered.load(std::memory_order_relaxed);
          if (index >= lane.published.load(std::memory_order_acquire)) {
            receive_status = Status::Internal("response without a request");
            return;
          }
          OpRecord& record = lane.records[index];
          record.recv_ns = now;
          if (record.op.kind == OpKind::kQuery) {
            if (frame.type == MsgType::kReport) {
              auto report = tcdp::net::DecodeReport(frame.payload);
              record.ok = report.ok();
              if (report.ok() && spec.keep_reports_every > 0 &&
                  query_count % spec.keep_reports_every == 0) {
                result.reports.push_back(std::move(*report));
              }
            }
            ++query_count;
          } else {
            record.ok = frame.type == MsgType::kOk;
          }
          lane.answered.store(index + 1, std::memory_order_release);
        }
        if (!*open) {
          receive_status = Status::Internal("server closed the connection");
          return;
        }
      }
    }
  });

  // Sender: frames every op whose slot has come, writes what the
  // sockets take, sleeps to the next slot.
  const double interval_ns = 1e9 / spec.rate;
  result.start_ns = NowNs() + 2'000'000;
  std::size_t next = 0;
  Status send_status;
  while (next < total && receive_status.ok()) {
    const std::uint64_t now = NowNs();
    while (next < total &&
           result.start_ns + static_cast<std::uint64_t>(next * interval_ns) <=
               now) {
      Lane& lane = lanes[next % n_conns];
      const std::size_t index = lane.published.load(std::memory_order_relaxed);
      OpRecord& record = lane.records[index];
      record.op = next_op(next % n_conns);
      record.sched_ns =
          result.start_ns + static_cast<std::uint64_t>(next * interval_ns);
      record.gen_ns = now;
      const std::size_t before = lane.out.size();
      AppendOpFrame(record.op, &lane.out);
      result.bytes_out += lane.out.size() - before;
      lane.published.store(index + 1, std::memory_order_release);
      ++next;
    }
    bool pending_write = false;
    for (Lane& lane : lanes) {
      send_status = WriteSome(lane.conn->fd(), lane.out, &lane.out_offset);
      if (!send_status.ok()) break;
      if (lane.out_offset == lane.out.size()) {
        lane.out.clear();
        lane.out_offset = 0;
      } else {
        pending_write = true;
      }
    }
    if (!send_status.ok()) break;
    if (next < total) {
      const std::uint64_t slot =
          result.start_ns + static_cast<std::uint64_t>(next * interval_ns);
      const std::uint64_t after = NowNs();
      std::uint64_t wait = slot > after ? slot - after : 0;
      if (pending_write) wait = std::min<std::uint64_t>(wait, 50'000);
      if (wait > 0) SleepNs(std::min<std::uint64_t>(wait, 1'000'000));
    }
  }
  // Hand the rest of the framed bytes to the sockets.
  const std::uint64_t write_deadline = NowNs() + 60'000'000'000ull;
  for (Lane& lane : lanes) {
    while (send_status.ok() && lane.out_offset < lane.out.size()) {
      if (NowNs() > write_deadline) {
        send_status = Status::Internal("requests unsent after 60 s");
        break;
      }
      send_status = WriteSome(lane.conn->fd(), lane.out, &lane.out_offset);
      if (lane.out_offset < lane.out.size()) SleepNs(50'000);
    }
  }
  sending_done.store(true, std::memory_order_release);
  receiver.join();
  TCDP_RETURN_IF_ERROR(send_status);
  TCDP_RETURN_IF_ERROR(receive_status);

  result.offered = next;
  result.end_ns = result.start_ns;
  for (Lane& lane : lanes) {
    lane.records.resize(lane.published.load());
    for (const OpRecord& record : lane.records) {
      result.end_ns = std::max(result.end_ns, record.recv_ns);
    }
    result.per_conn.push_back(std::move(lane.records));
  }
  return result;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t rank = std::min(
      values.size() - 1,
      static_cast<std::size_t>(std::ceil(q * values.size())) - (q > 0 ? 1 : 0));
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

}  // namespace perfbench
