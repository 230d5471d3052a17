#include "net/event_loop.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "obs/watchdog.h"

namespace tcdp {
namespace net {
namespace {

void CloseFd(int* fd) {
  if (*fd >= 0) {
    ::close(*fd);
    *fd = -1;
  }
}

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void SetNoDelay(int fd) {
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Parses \p host:\p port into \p addr; false on a non-IPv4 host.
bool ParseIPv4(const std::string& host, std::uint16_t port,
               sockaddr_in* addr) {
  *addr = sockaddr_in{};
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  return ::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) == 1;
}

}  // namespace

Status ErrnoStatus(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

StatusOr<int> Dial(const std::string& host, std::uint16_t port, int attempts,
                   int retry_delay_ms, const std::function<bool()>& stop) {
  sockaddr_in addr{};
  if (!ParseIPv4(host, port, &addr)) {
    return Status::InvalidArgument("bad IPv4 host '" + host + "'");
  }
  Status last = Status::Internal("no connect attempts made");
  for (int attempt = 0; attempt < std::max(attempts, 1); ++attempt) {
    if (stop && stop()) break;
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(retry_delay_ms));
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return ErrnoStatus("socket");
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
        0) {
      SetNoDelay(fd);
      return fd;
    }
    last = ErrnoStatus("connect " + host + ":" + std::to_string(port));
    ::close(fd);
  }
  return last;
}

Status SendAll(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("send");
    }
    sent += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

bool WaitReadable(int fd, int timeout_ms) {
  pollfd ready{fd, POLLIN, 0};
  return ::poll(&ready, 1, timeout_ms) > 0;
}

Connection::~Connection() { CloseFd(&fd_); }

EventLoop::EventLoop(EventLoopOptions options, Handler* handler,
                     EventLoopStats* stats)
    : options_(std::move(options)), handler_(handler), stats_(stats) {}

EventLoop::~EventLoop() {
  CloseFd(&listen_fd_);
  CloseFd(&wake_read_fd_);
  CloseFd(&wake_write_fd_);
}

StatusOr<std::unique_ptr<EventLoop>> EventLoop::Listen(
    EventLoopOptions options, Handler* handler, EventLoopStats* stats) {
  std::unique_ptr<EventLoop> loop(
      new EventLoop(std::move(options), handler, stats));
  const EventLoopOptions& opts = loop->options_;
  sockaddr_in addr{};
  if (!ParseIPv4(opts.host, opts.port, &addr)) {
    return Status::InvalidArgument(opts.name + ": bad IPv4 host '" +
                                   opts.host + "'");
  }
  loop->listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (loop->listen_fd_ < 0) return ErrnoStatus("socket");
  int one = 1;
  (void)::setsockopt(loop->listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
  if (::bind(loop->listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return ErrnoStatus("bind " + opts.host + ":" + std::to_string(opts.port));
  }
  if (::listen(loop->listen_fd_, opts.listen_backlog) != 0) {
    return ErrnoStatus("listen");
  }
  // Non-blocking: poll() readiness is only a hint — a pending
  // connection can be RST away between poll and accept, and a blocking
  // accept would then freeze the whole I/O loop until someone else
  // connects.
  SetNonBlocking(loop->listen_fd_);
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(loop->listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    return ErrnoStatus("getsockname");
  }
  loop->port_ = ntohs(bound.sin_port);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return ErrnoStatus("pipe");
  loop->wake_read_fd_ = pipe_fds[0];
  loop->wake_write_fd_ = pipe_fds[1];
  SetNonBlocking(loop->wake_read_fd_);
  return loop;
}

void EventLoop::Stop() {
  // A single byte on the self-pipe; the loop reads it and latches
  // stopping_. Safe to call multiple times and before Run().
  if (wake_write_fd_ >= 0) {
    const char byte = 1;
    ssize_t ignored = ::write(wake_write_fd_, &byte, 1);
    (void)ignored;
  }
}

void EventLoop::Reject(Connection* conn) {
  conn->CloseAfterFlush();
  ++stats_->connections_dropped;
  handler_->OnDrop();
}

void EventLoop::AcceptOne() {
  sockaddr_in peer{};
  socklen_t peer_len = sizeof(peer);
  const int fd = ::accept(listen_fd_, reinterpret_cast<sockaddr*>(&peer),
                          &peer_len);
  if (fd < 0) {
    // Every accept failure is treated as transient: aborting Run()
    // for EMFILE/ENFILE (fd pressure refusing ONE connection) would
    // tear down every healthy established connection with it.
    if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK &&
        errno != ECONNABORTED) {
      ++stats_->accept_failures;
    }
    return;
  }
  SetNoDelay(fd);
  SetNonBlocking(fd);
  auto conn = std::make_unique<Connection>();
  conn->fd_ = fd;
  conn->max_write_buffer_ = options_.max_write_buffer;
  AppendPreamble(&conn->out_);
  handler_->OnAccept(conn.get());
  connections_.push_back(std::move(conn));
  ++stats_->connections_accepted;
}

bool EventLoop::ReadFrom(Connection* conn) {
  char buffer[64 * 1024];
  const ssize_t n = ::recv(conn->fd_, buffer, sizeof(buffer), 0);
  if (n < 0) {
    return errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK;
  }
  if (n == 0) {
    conn->peer_closed_ = true;
    return !options_.close_on_peer_eof;
  }
  stats_->bytes_in += static_cast<std::uint64_t>(n);
  if (!conn->decoder_.Feed(buffer, static_cast<std::size_t>(n)).ok()) {
    // Framing violation: the stream position is untrustworthy, so no
    // response can be addressed to a request — drop the connection.
    ++stats_->connections_dropped;
    handler_->OnDrop();
    return false;
  }
  return true;
}

bool EventLoop::WriteTo(Connection* conn) {
  while (conn->pending_out() > 0) {
    const ssize_t n =
        ::send(conn->fd_, conn->out_.data() + conn->out_offset_,
               conn->pending_out(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;  // EPIPE/ECONNRESET: peer is gone
    }
    conn->out_offset_ += static_cast<std::size_t>(n);
    stats_->bytes_out += static_cast<std::uint64_t>(n);
  }
  // Reclaim the sent prefix once it dominates, like FrameDecoder's
  // read-side compaction: a connection that is never fully drained
  // (steady pipelining against a slow reader) must not accumulate
  // every byte it ever sent. The proportional condition keeps the
  // erase amortized O(1) per byte even with a multi-MB backlog.
  if (conn->out_offset_ == conn->out_.size() ||
      (conn->out_offset_ >= 4096 &&
       conn->out_offset_ * 2 >= conn->out_.size())) {
    conn->out_.erase(0, conn->out_offset_);
    conn->out_offset_ = 0;
  }
  return true;
}

Status EventLoop::Run() {
  if (ran_) {
    return Status::FailedPrecondition(options_.name + "::Serve already ran");
  }
  ran_ = true;
  // The event-loop heartbeat: touched every poll round (the poll
  // timeout is the natural cadence), beaten when work was done. The
  // watchdog reads staleness here as "the loop thread is wedged" —
  // e.g. blocked in a full shard queue's Push.
  obs::HeartbeatHandle heartbeat;
  if (!options_.heartbeat.empty()) {
    obs::HeartbeatInfo info;
    info.name = options_.heartbeat;
    info.kind = obs::HeartbeatKind::kEventLoop;
    info.expected_period_ns =
        static_cast<std::uint64_t>(options_.poll_interval_ms) * 1000000ull;
    heartbeat = obs::HeartbeatRegistry::Default().Register(std::move(info));
  }
  std::vector<pollfd> fds;
  std::vector<Connection*> polled;
  int stop_drain_rounds = 0;
  while (true) {
    // Once stopping: no accepts, no reads — just flush what's queued
    // and leave. Connections with nothing pending close immediately; a
    // peer that never drains its output is abandoned after a bounded
    // grace.
    if (stopping_) {
      bool flushing = false;
      for (auto& conn : connections_) {
        if (conn->pending_out() > 0) flushing = true;
      }
      if (!flushing || ++stop_drain_rounds > options_.stop_drain_rounds) {
        break;
      }
    }

    fds.clear();
    polled.clear();
    if (!stopping_ && connections_.size() < options_.max_connections) {
      fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    } else {
      fds.push_back(pollfd{-1, 0, 0});
    }
    fds.push_back(pollfd{wake_read_fd_, POLLIN, 0});
    for (auto& conn : connections_) {
      short events = 0;
      // Backpressure: a connection at its in-flight or write-buffer
      // bound is not read until it drains.
      const bool at_bound =
          conn->decoder_.queued_frames() >= options_.max_inflight ||
          conn->pending_out() >= options_.max_write_buffer;
      if (at_bound && !conn->paused_) {
        conn->paused_ = true;
        ++stats_->backpressure_pauses;
      }
      if (!at_bound) conn->paused_ = false;
      if (!stopping_ && !at_bound && !conn->peer_closed_ &&
          !conn->close_after_flush_) {
        events |= POLLIN;
      }
      if (conn->pending_out() > 0) events |= POLLOUT;
      fds.push_back(pollfd{conn->fd_, events, 0});
      polled.push_back(conn.get());
    }

    const int ready =
        ::poll(fds.data(), fds.size(), options_.poll_interval_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("poll");
    }
    if (ready > 0) {
      heartbeat.Beat();
    } else {
      heartbeat.Touch();
    }

    if (fds[1].revents & POLLIN) {
      char drain[64];
      while (::read(wake_read_fd_, drain, sizeof(drain)) > 0) {
      }
      stopping_ = true;
      continue;
    }
    if (fds[0].revents & POLLIN) AcceptOne();
    handler_->BeforeRound();

    for (std::size_t i = 0; i < polled.size(); ++i) {
      Connection* conn = polled[i];
      const short revents = fds[i + 2].revents;
      bool alive = true;
      if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
          !conn->peer_closed_ && !conn->close_after_flush_) {
        alive = ReadFrom(conn);
      }
      if (alive) handler_->OnFrames(conn);
      if (alive && conn->pending_out() > 0) alive = WriteTo(conn);
      // A close_after_flush connection ignores its remaining parsed
      // frames (they were never going to be answered); a peer-closed
      // one still gets them handled above before the close.
      const bool drained =
          conn->pending_out() == 0 &&
          (conn->close_after_flush_ || !conn->decoder_.has_frame());
      if (alive && (conn->peer_closed_ || conn->close_after_flush_) &&
          drained) {
        alive = false;
      }
      if (!alive) CloseFd(&conn->fd_);
    }
    connections_.erase(
        std::remove_if(connections_.begin(), connections_.end(),
                       [](const std::unique_ptr<Connection>& conn) {
                         return conn->fd_ < 0;
                       }),
        connections_.end());
    if (handler_->AfterRound()) heartbeat.Beat();
  }
  connections_.clear();
  CloseFd(&listen_fd_);
  return Status::OK();
}

}  // namespace net
}  // namespace tcdp
