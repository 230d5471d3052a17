#ifndef TCDP_NET_SERVER_H_
#define TCDP_NET_SERVER_H_

/// \file
/// NetServer: the TCP ingress of the sharded release service.
///
///   clients ──► net::EventLoop (poll(2)) ──► FrameDecoder per conn
///                        │ complete request frames
///                        ▼
///              ShardedReleaseService (shard queues + workers)
///                        │ responses, in request order
///                        ▼
///              per-connection write buffer ──► socket
///
/// The transport (listener, accept, backpressure, half-close, drain)
/// is net::EventLoop's; this class is the request switch on top.
///
/// **Threading.** One I/O thread (the caller of Serve) owns every
/// socket and is the only thread that touches the service — which is
/// exactly the external serialization ShardedReleaseService requires.
/// Parallelism lives where it already exists: the service's shard
/// worker threads. Dispatching a release can block on a full shard
/// queue; that stall is the engine's backpressure propagating to the
/// wire, by design.
///
/// **Backpressure.** Each connection bounds (a) parsed-but-unanswered
/// request frames (kMaxInflight) and (b) buffered response bytes
/// (kMaxWriteBuffer). At either bound the server simply stops
/// reading that socket — TCP flow control pushes the queue back to the
/// client — and `stats().backpressure_pauses` counts the events.
///
/// **Trust.** Framing violations (bad magic/version, oversized length,
/// CRC mismatch) poison the stream; the connection is dropped without
/// a response. A well-framed but malformed payload gets a kError
/// response and then the connection is closed (the peer is confused
/// but the stream is still parseable). Service-level failures (unknown
/// user, duplicate join) are ordinary kError responses and the
/// connection stays open. None of these can corrupt accounting state:
/// a request either fully dispatches into the service or produces no
/// service call at all.
///
/// **Shutdown.** Stop() (thread-safe, e.g. from a signal handler path)
/// or a client kShutdown request ends Serve(): the listener closes,
/// buffered responses are flushed to connected peers, and every socket
/// is torn down. The service itself is NOT closed — that's the
/// owner's call.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/status.h"
#include "net/event_loop.h"
#include "net/messages.h"
#include "net/wire.h"
#include "obs/watchdog.h"
#include "server/sharded_service.h"

namespace tcdp {
namespace net {

struct NetServerOptions {
  /// Bind address; loopback by default (there is no auth on the wire).
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  /// kTraceDump handler: dumps the server's trace ring to wherever the
  /// host configured (`tcdp serve --trace-out`) and returns the written
  /// path, carried back in kTraceDumpReport; the dump itself never
  /// crosses the wire (trace JSON can dwarf kMaxFramePayload). Unset
  /// means kTraceDump answers FailedPrecondition.
  std::function<StatusOr<std::string>()> on_trace_dump;
  /// kHealth/kReady source: the host's watchdog (not owned; must
  /// outlive Serve). Null degrades gracefully — the probes answer
  /// healthy/ready with a "no watchdog configured" reason, since a
  /// responding event loop is itself the liveness floor.
  const obs::Watchdog* watchdog = nullptr;
  /// Extra liveness probe ANDed into kHealth (e.g. "WAL dir still
  /// writable"). Runs on the I/O thread; keep it cheap.
  std::function<Status()> health_probe;
};

/// The loop's transport counters plus request/response totals.
struct NetServerStats : EventLoopStats {
  std::uint64_t requests = 0;
  std::uint64_t responses = 0;
};

class NetServer : private EventLoop::Handler {
 public:
  /// \name Per-server bounds (docs/ARCHITECTURE.md, "Network frontend").
  /// @{
  static constexpr int kListenBacklog = 64;
  static constexpr std::size_t kMaxConnections = 64;
  /// Parsed request frames a connection may have outstanding before
  /// the server stops reading its socket.
  static constexpr std::size_t kMaxInflight = 64;
  /// Buffered response bytes per connection before reads pause.
  static constexpr std::size_t kMaxWriteBuffer = 4u << 20;
  static constexpr int kPollIntervalMs = 100;
  /// Poll rounds (of kPollIntervalMs) a stopping server keeps flushing.
  static constexpr int kStopDrainRounds = 50;
  /// @}

  /// Binds and listens. \p service must outlive the server and must
  /// not be used by other threads while Serve runs.
  static StatusOr<std::unique_ptr<NetServer>> Listen(
      server::ShardedReleaseService* service, NetServerOptions options = {});

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// The bound port (the ephemeral one when options.port was 0).
  std::uint16_t port() const { return loop_->port(); }

  /// Runs the readiness loop on the calling thread until Stop() or a
  /// kShutdown request. Returns the first I/O-loop error, or OK on a
  /// clean shutdown. Call at most once.
  Status Serve() { return loop_->Run(); }

  /// Requests shutdown from any thread; Serve() returns soon after.
  /// Idempotent, and safe before/without Serve().
  void Stop() { loop_->Stop(); }

  /// Counters; read after Serve() returns (not synchronized while the
  /// loop runs).
  const NetServerStats& stats() const { return stats_; }

 private:
  NetServer(server::ShardedReleaseService* service, NetServerOptions options);

  // EventLoop::Handler.
  void OnFrames(Connection* conn) override;
  void OnDrop() override;
  bool AfterRound() override;

  /// One request frame -> one queued response. A payload-level
  /// protocol violation rejects the connection (close after flush).
  void HandleFrame(Connection* conn, MsgType type,
                   const std::string& payload);
  /// Assembles the kHealth/kReady answer from the watchdog snapshot
  /// plus the host's extra probe. Never touches the service — a health
  /// check must not queue behind the very shards it is diagnosing.
  WireHealthReport BuildHealthReport() const;

  server::ShardedReleaseService* service_;  // not owned
  NetServerOptions options_;
  NetServerStats stats_;
  std::unique_ptr<EventLoop> loop_;
};

}  // namespace net
}  // namespace tcdp

#endif  // TCDP_NET_SERVER_H_
