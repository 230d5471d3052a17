#ifndef TCDP_NET_WIRE_H_
#define TCDP_NET_WIRE_H_

/// \file
/// The tcdp network wire format: stream preamble + framed messages.
///
/// Every byte stream (each direction of a connection) begins with a
/// 12-byte preamble — 8-byte magic "TCDPNET1" followed by a fixed u32
/// little-endian protocol version — and then carries framed messages:
///
///   [u8 type][u32 payload_len LE][u32 crc32 LE][payload bytes]
///
/// This is deliberately the event log's framing (event_log.h) with the
/// WAL magic swapped for a network magic: the CRC covers the type byte
/// and the payload, payloads reuse the server/records codecs where the
/// shapes coincide, and a tool that can scan a WAL can scan a captured
/// stream. Payloads are bounded by kMaxFramePayload; a peer announcing
/// a larger frame is a protocol violation, not an allocation request.
///
/// FrameDecoder is the reassembly half: feed it whatever byte ranges
/// recv(2) hands you — including single bytes — and it yields complete
/// frames in order. The first malformed input (bad magic, unsupported
/// version, oversized length, CRC mismatch) poisons the decoder
/// permanently: framing errors mean the stream position can no longer
/// be trusted, so the only safe response is dropping the connection.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>

#include "common/status.h"

namespace tcdp {
namespace net {

inline constexpr char kNetMagic[8] = {'T', 'C', 'D', 'P',
                                      'N', 'E', 'T', '1'};
inline constexpr std::uint32_t kProtocolVersion = 2;
/// Magic + u32 version.
inline constexpr std::size_t kPreambleBytes = 12;
/// Type byte + u32 length + u32 CRC.
inline constexpr std::size_t kFrameHeaderBytes = 9;
/// Hard upper bound on a frame payload. A Report, the one message that
/// grows with the horizon, fits up to about 58k releases even when
/// every adjacent value differs (docs/PROTOCOL.md).
inline constexpr std::size_t kMaxFramePayload = 1u << 20;

/// Message types. Requests are < 64, responses >= 64. Values are part
/// of the protocol — append new ones, never renumber (PROTOCOL.md).
enum class MsgType : std::uint8_t {
  // Requests (client -> server). Each elicits exactly one response,
  // delivered in request order (pipelining relies on this).
  kJoin = 1,        ///< payload: server/records AddUser codec
  kRelease = 2,     ///< payload: name + epsilon
  kReleaseAll = 3,  ///< payload: epsilon
  kFlush = 4,       ///< empty payload
  kSnapshot = 5,    ///< empty payload
  kQuery = 6,       ///< payload: name
  kStats = 7,       ///< empty payload
  kShutdown = 8,    ///< empty payload; server acks then stops
  kCompact = 9,     ///< empty payload; flush + compact every shard WAL
  kMetrics = 10,    ///< empty payload; returns the metrics snapshot
  kTraceDump = 11,  ///< empty payload; server dumps its trace ring
  kHealth = 12,     ///< empty payload; liveness probe (watchdog state)
  kReady = 13,      ///< empty payload; readiness probe
  // Replication family (docs/REPLICATION.md). kSubscribe opens a log
  // stream on a primary's replication port; kAckHorizon frames then
  // flow follower -> primary as durability advances (pushes: no
  // response). kRouteLookup is answered by a router process.
  kSubscribe = 14,    ///< payload: per-shard replication cursor
  kAckHorizon = 15,   ///< payload: follower durable horizon (push)
  kRouteLookup = 16,  ///< payload: name; router answers kRouteReport

  // Responses (server -> client).
  kOk = 64,           ///< empty payload
  kError = 65,        ///< payload: status code + message
  kReport = 66,       ///< payload: one user's accounting
  kStatsReport = 67,  ///< payload: service + per-shard counters
  kMetricsReport = 68,    ///< payload: obs EncodeMetricsSnapshot blob
  kHealthReport = 69,     ///< payload: health flags + per-component rows
  kTraceDumpReport = 70,  ///< payload: path the trace ring was written to
  kSubscribeOk = 71,      ///< payload: shard count + directory manifest
  kLogBatch = 72,         ///< payload: one shard's WAL records (push)
  kRouteReport = 73,      ///< payload: the endpoint a user routes to
};

struct Frame {
  MsgType type = MsgType::kOk;
  std::string payload;
};

/// Appends the 12-byte stream preamble to \p dst.
void AppendPreamble(std::string* dst);

/// Frames \p payload as \p type and appends it to \p dst.
/// PRECONDITION: payload.size() <= kMaxFramePayload.
void AppendFrame(std::string* dst, MsgType type, const std::string& payload);

/// AppendFrame in two halves, for a payload encoded straight into
/// \p dst: BeginFrame appends the header and returns its offset, the
/// caller appends the payload, and FinishFrame fills in the length and
/// CRC. The bytes equal AppendFrame's for the same payload.
/// PRECONDITION: the appended payload is <= kMaxFramePayload bytes.
std::size_t BeginFrame(std::string* dst, MsgType type);
void FinishFrame(std::string* dst, std::size_t frame);

/// \brief Incremental frame reassembly over an untrusted byte stream.
/// Not thread-safe; one decoder per connection direction.
class FrameDecoder {
 public:
  /// \p expect_preamble: streams begin with the magic/version preamble
  /// (the normal case); false starts directly at frame boundaries.
  explicit FrameDecoder(bool expect_preamble = true)
      : preamble_done_(!expect_preamble) {}

  /// Consumes \p size bytes. Returns InvalidArgument on the first
  /// protocol violation and every call thereafter (the decoder is
  /// poisoned); previously completed frames stay poppable.
  Status Feed(const char* data, std::size_t size);

  bool has_frame() const { return !frames_.empty(); }
  std::size_t queued_frames() const { return frames_.size(); }
  /// PRECONDITION: has_frame().
  Frame PopFrame();

  bool preamble_done() const { return preamble_done_; }
  bool poisoned() const { return !error_.ok(); }
  /// Bytes buffered but not yet assembled into a frame.
  std::size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  /// Assembles as many frames as the buffer allows.
  Status Parse();

  bool preamble_done_;
  std::string buffer_;
  std::size_t consumed_ = 0;  ///< parsed prefix of buffer_
  std::deque<Frame> frames_;
  Status error_;
};

}  // namespace net
}  // namespace tcdp

#endif  // TCDP_NET_WIRE_H_
