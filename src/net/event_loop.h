#ifndef TCDP_NET_EVENT_LOOP_H_
#define TCDP_NET_EVENT_LOOP_H_

/// \file
/// EventLoop: the one poll(2) readiness loop behind every tcdp TCP
/// server (net::NetServer, replication::LogStreamServer,
/// replication::RouterServer), plus the client-side socket helpers.
///
///   listener ──► accept (cap) ──► Connection: FrameDecoder in
///                                      │ Handler::OnFrames
///                                      ▼
///                              bounded write buffer ──► socket
///
/// The loop owns the transport; a server owns only its domain logic,
/// supplied through EventLoop::Handler:
///
///   * IPv4 bind/listen (ephemeral port read back), self-pipe Stop().
///   * Nonblocking accept with TCP_NODELAY and the stream preamble
///     queued. At `max_connections` the listener leaves the poll set,
///     so further peers wait in the kernel backlog, unanswered, until
///     a connection closes.
///   * Backpressure: a connection with `max_inflight` parsed-but-
///     unhandled frames, or `max_write_buffer` buffered output bytes,
///     is not read (TCP flow control pushes the queue back to the
///     peer), and Connection::NextFrame() stops yielding frames while
///     the write buffer is at its bound. Each pause is counted in
///     EventLoopStats::backpressure_pauses.
///   * Trust tiers: a framing violation drops the connection without a
///     response; Reject() (a malformed payload, answered by the
///     server) closes it once the answer flushes. Both count in
///     EventLoopStats::connections_dropped.
///   * Half-close: a peer EOF still gets its parsed frames handled and
///     flushed before the close (or an immediate close, per options).
///   * Stop: no more accepts or reads; buffered output is flushed for
///     at most `stop_drain_rounds` poll rounds, then every socket is
///     torn down.
///
/// One thread (the caller of Run) owns every socket; Stop() may be
/// called from any thread.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/wire.h"

namespace tcdp {
namespace net {

/// Internal status carrying `what: strerror(errno)`.
Status ErrnoStatus(const std::string& what);

/// Connects to \p host:\p port (IPv4) with up to \p attempts tries
/// \p retry_delay_ms apart — a server may still be binding when its
/// client races it up — then sets TCP_NODELAY. \p stop, when set, is
/// checked before every attempt; a stopped dial returns the last
/// failure. Returns the connected, blocking socket.
StatusOr<int> Dial(const std::string& host, std::uint16_t port, int attempts,
                   int retry_delay_ms,
                   const std::function<bool()>& stop = nullptr);

/// Blocking send of all of \p bytes (EINTR retried, no SIGPIPE).
Status SendAll(int fd, const std::string& bytes);

/// Waits up to \p timeout_ms for \p fd to become readable.
bool WaitReadable(int fd, int timeout_ms);

/// "No bound": disables a read-pause limit.
inline constexpr std::size_t kUnbounded =
    std::numeric_limits<std::size_t>::max();

struct EventLoopOptions {
  /// Owner name for error messages ("NetServer").
  std::string name;
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  int listen_backlog = 16;
  std::size_t max_connections = 16;
  /// Parsed-but-unhandled frames per connection before reads pause.
  std::size_t max_inflight = kUnbounded;
  /// Buffered output bytes per connection before reads and frame
  /// handling pause.
  std::size_t max_write_buffer = kUnbounded;
  /// poll(2) timeout: the cadence of Handler::BeforeRound/AfterRound
  /// and of the heartbeat.
  int poll_interval_ms = 100;
  /// Watchdog heartbeat (obs/watchdog.h, kEventLoop); empty registers
  /// none.
  std::string heartbeat;
  /// Poll rounds a stopping loop keeps flushing buffered output before
  /// it abandons peers that do not drain.
  int stop_drain_rounds = 0;
  /// A peer EOF drops the connection at once (nothing is owed to it)
  /// instead of finishing its parsed frames and flushing.
  bool close_on_peer_eof = false;
};

struct EventLoopStats {
  std::uint64_t connections_accepted = 0;
  /// accept(2) failures survived (e.g. EMFILE under fd pressure — the
  /// refused connection is the peer's problem, not the server's).
  std::uint64_t accept_failures = 0;
  /// Connections torn down for framing violations or Reject().
  std::uint64_t connections_dropped = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  /// Times a connection's reads were paused at an in-flight or
  /// write-buffer bound.
  std::uint64_t backpressure_pauses = 0;
};

/// Per-connection domain state a server attaches in OnAccept.
struct ConnectionState {
  virtual ~ConnectionState() = default;
};

/// One accepted socket: frames in, buffered bytes out.
class Connection {
 public:
  ~Connection();

  /// Pops the next parsed frame into \p frame. False when none is
  /// queued, the connection is closing, or the write buffer is at its
  /// bound (the frames wait until it drains).
  bool NextFrame(Frame* frame) {
    if (!decoder_.has_frame() || close_after_flush_ ||
        pending_out() >= max_write_buffer_) {
      return false;
    }
    *frame = decoder_.PopFrame();
    return true;
  }
  /// Response bytes to send, in order (AppendFrame onto it).
  std::string* out() { return &out_; }
  std::size_t pending_out() const { return out_.size() - out_offset_; }
  std::size_t queued_frames() const { return decoder_.queued_frames(); }
  /// Stop reading and handling frames; close once the output drains.
  void CloseAfterFlush() { close_after_flush_ = true; }
  bool closing() const { return close_after_flush_; }

  ConnectionState* state() const { return state_.get(); }
  void set_state(std::unique_ptr<ConnectionState> state) {
    state_ = std::move(state);
  }

 private:
  friend class EventLoop;

  int fd_ = -1;
  std::size_t max_write_buffer_ = kUnbounded;
  FrameDecoder decoder_;
  std::string out_;
  std::size_t out_offset_ = 0;  ///< sent prefix of out_
  bool peer_closed_ = false;
  bool close_after_flush_ = false;
  bool paused_ = false;  ///< reads suspended by backpressure
  std::unique_ptr<ConnectionState> state_;
};

class EventLoop {
 public:
  /// A server's domain logic. Every callback runs on the loop thread.
  class Handler {
   public:
    virtual ~Handler() = default;
    /// A peer was accepted (its preamble is already queued).
    virtual void OnAccept(Connection* conn) { (void)conn; }
    /// Once per round for every live connection: consume frames with
    /// conn->NextFrame() and append answers to conn->out().
    virtual void OnFrames(Connection* conn) = 0;
    /// A connection was dropped as a protocol violation.
    virtual void OnDrop() {}
    /// Each round after accepting, before connections are serviced.
    virtual void BeforeRound() {}
    /// Each round after connections are serviced; true counts as
    /// progress for the heartbeat.
    virtual bool AfterRound() { return false; }
  };

  /// Binds and listens. The loop counts into \p stats, which the owner
  /// keeps (and may extend, like NetServerStats) so it can read single
  /// fields; \p handler and \p stats must outlive the loop.
  static StatusOr<std::unique_ptr<EventLoop>> Listen(EventLoopOptions options,
                                                     Handler* handler,
                                                     EventLoopStats* stats);

  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  std::uint16_t port() const { return port_; }

  /// Runs the readiness loop on the calling thread until Stop() or
  /// RequestStop(), then drains. Returns the first I/O-loop error, or
  /// OK on a clean shutdown. Call at most once.
  Status Run();

  /// Thread-safe, idempotent, callable before Run().
  void Stop();
  /// Loop-thread stop (e.g. a kShutdown request): the current round
  /// finishes, then the drain starts.
  void RequestStop() { stopping_ = true; }

  /// Payload-level protocol violation on \p conn (its answer already
  /// queued): close after the flush, count the drop.
  void Reject(Connection* conn);

  /// Live connections (including any closed this round, until the
  /// round ends). Loop thread only.
  const std::vector<std::unique_ptr<Connection>>& connections() const {
    return connections_;
  }

 private:
  EventLoop(EventLoopOptions options, Handler* handler,
            EventLoopStats* stats);

  void AcceptOne();
  /// Reads once from \p conn; false when the connection must close.
  bool ReadFrom(Connection* conn);
  bool WriteTo(Connection* conn);

  EventLoopOptions options_;
  Handler* handler_;      // not owned
  EventLoopStats* stats_;  // not owned
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;  ///< self-pipe: Stop() wakes poll()
  int wake_write_fd_ = -1;
  std::uint16_t port_ = 0;
  bool stopping_ = false;
  bool ran_ = false;
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace net
}  // namespace tcdp

#endif  // TCDP_NET_EVENT_LOOP_H_
