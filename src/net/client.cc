#include "net/client.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "net/event_loop.h"

namespace tcdp {
namespace net {

NetClient::NetClient(int fd, NetClientOptions options)
    : fd_(fd), options_(std::move(options)) {
  if (options_.pipeline_depth == 0) options_.pipeline_depth = 1;
}

NetClient::~NetClient() { (void)Close(); }

StatusOr<std::unique_ptr<NetClient>> NetClient::Connect(
    const std::string& host, std::uint16_t port, NetClientOptions options) {
  TCDP_ASSIGN_OR_RETURN(const int fd,
                        Dial(host, port, options.connect_attempts,
                             options.connect_retry_delay_ms));
  std::unique_ptr<NetClient> client(new NetClient(fd, std::move(options)));
  std::string preamble;
  AppendPreamble(&preamble);
  TCDP_RETURN_IF_ERROR(client->SendAll(preamble));
  return client;
}

Status NetClient::SendAll(const std::string& bytes) {
  const Status sent = net::SendAll(fd_, bytes);
  if (sent.ok()) return sent;
  first_error_ = SalvageServerError(sent);
  return first_error_;
}

Status NetClient::SalvageServerError(Status transport) {
  // A write failure (EPIPE/ECONNRESET) usually means the server closed
  // on us — and when it closed for a payload violation, the kError
  // frame explaining why is sitting in our receive buffer. Prefer
  // surfacing that over a generic transport status. Best-effort: wait
  // briefly for the data, drain without blocking, keep the transport
  // status if no explanation arrives.
  (void)WaitReadable(fd_, 100);
  char buffer[16 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), MSG_DONTWAIT);
    if (n <= 0) break;
    if (!decoder_.Feed(buffer, static_cast<std::size_t>(n)).ok()) break;
  }
  while (decoder_.has_frame()) {
    const Frame frame = decoder_.PopFrame();
    if (frame.type != MsgType::kError) continue;
    Status error;
    if (DecodeError(frame.payload, &error).ok()) return error;
  }
  return transport;
}

Status NetClient::ReadFrame(Frame* frame) {
  while (!decoder_.has_frame()) {
    char buffer[64 * 1024];
    const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      first_error_ = ErrnoStatus("recv");
      return first_error_;
    }
    if (n == 0) {
      first_error_ =
          Status::Internal("server closed the connection mid-response");
      return first_error_;
    }
    const Status fed = decoder_.Feed(buffer, static_cast<std::size_t>(n));
    if (!fed.ok()) {
      first_error_ = fed;
      return first_error_;
    }
  }
  *frame = decoder_.PopFrame();
  ++responses_received_;
  return Status::OK();
}

Status NetClient::ReadAck() {
  Frame frame;
  TCDP_RETURN_IF_ERROR(ReadFrame(&frame));
  if (outstanding_ > 0) --outstanding_;
  if (frame.type == MsgType::kOk) return Status::OK();
  if (frame.type == MsgType::kError) {
    Status error;
    const Status decoded = DecodeError(frame.payload, &error);
    first_error_ = decoded.ok() ? error : decoded;
    return first_error_;
  }
  first_error_ = Status::Internal(
      "expected an ack frame, got type " +
      std::to_string(static_cast<unsigned>(frame.type)));
  return first_error_;
}

Status NetClient::SendPipelined(MsgType type, const std::string& payload) {
  TCDP_RETURN_IF_ERROR(latched());
  if (fd_ < 0) return Status::FailedPrecondition("client is closed");
  if (payload.size() > kMaxFramePayload) {
    // Caller error (e.g. a Join with enormous matrices); the stream is
    // untouched, so this does not latch.
    return Status::InvalidArgument(
        "request payload (" + std::to_string(payload.size()) +
        " bytes) exceeds the frame size limit");
  }
  std::string bytes;
  AppendFrame(&bytes, type, payload);
  TCDP_RETURN_IF_ERROR(SendAll(bytes));
  ++requests_sent_;
  ++outstanding_;
  while (outstanding_ >= options_.pipeline_depth) {
    TCDP_RETURN_IF_ERROR(ReadAck());
  }
  return Status::OK();
}

Status NetClient::Join(const std::string& name,
                       const TemporalCorrelations& correlations) {
  return SendPipelined(MsgType::kJoin, EncodeJoin(name, correlations));
}

Status NetClient::Release(const std::string& name, double epsilon) {
  return SendPipelined(MsgType::kRelease, EncodeRelease(name, epsilon));
}

Status NetClient::ReleaseAll(double epsilon) {
  return SendPipelined(MsgType::kReleaseAll, EncodeReleaseAll(epsilon));
}

Status NetClient::Drain() {
  TCDP_RETURN_IF_ERROR(latched());
  if (fd_ < 0) return Status::FailedPrecondition("client is closed");
  while (outstanding_ > 0) {
    TCDP_RETURN_IF_ERROR(ReadAck());
  }
  return Status::OK();
}

Status NetClient::Flush() {
  TCDP_RETURN_IF_ERROR(SendPipelined(MsgType::kFlush, std::string()));
  return Drain();
}

Status NetClient::Snapshot() {
  TCDP_RETURN_IF_ERROR(SendPipelined(MsgType::kSnapshot, std::string()));
  return Drain();
}

Status NetClient::Compact() {
  TCDP_RETURN_IF_ERROR(SendPipelined(MsgType::kCompact, std::string()));
  return Drain();
}

StatusOr<server::UserReport> NetClient::Query(const std::string& name) {
  TCDP_RETURN_IF_ERROR(Drain());
  std::string bytes;
  AppendFrame(&bytes, MsgType::kQuery, EncodeName(name));
  TCDP_RETURN_IF_ERROR(SendAll(bytes));
  ++requests_sent_;
  Frame frame;
  TCDP_RETURN_IF_ERROR(ReadFrame(&frame));
  if (frame.type == MsgType::kReport) return DecodeReport(frame.payload);
  if (frame.type == MsgType::kError) {
    Status error;
    const Status decoded = DecodeError(frame.payload, &error);
    // A query error (e.g. NotFound) does not latch: nothing about the
    // applied state is in doubt.
    return decoded.ok() ? error : decoded;
  }
  first_error_ = Status::Internal(
      "expected a report frame, got type " +
      std::to_string(static_cast<unsigned>(frame.type)));
  return first_error_;
}

StatusOr<WireServiceStats> NetClient::Stats() {
  TCDP_RETURN_IF_ERROR(Drain());
  std::string bytes;
  AppendFrame(&bytes, MsgType::kStats, std::string());
  TCDP_RETURN_IF_ERROR(SendAll(bytes));
  ++requests_sent_;
  Frame frame;
  TCDP_RETURN_IF_ERROR(ReadFrame(&frame));
  if (frame.type == MsgType::kStatsReport) {
    return DecodeStatsReport(frame.payload);
  }
  if (frame.type == MsgType::kError) {
    Status error;
    const Status decoded = DecodeError(frame.payload, &error);
    first_error_ = decoded.ok() ? error : decoded;
    return first_error_;
  }
  first_error_ = Status::Internal(
      "expected a stats frame, got type " +
      std::to_string(static_cast<unsigned>(frame.type)));
  return first_error_;
}

StatusOr<obs::MetricsSnapshot> NetClient::Metrics() {
  TCDP_RETURN_IF_ERROR(Drain());
  std::string bytes;
  AppendFrame(&bytes, MsgType::kMetrics, std::string());
  TCDP_RETURN_IF_ERROR(SendAll(bytes));
  ++requests_sent_;
  Frame frame;
  TCDP_RETURN_IF_ERROR(ReadFrame(&frame));
  if (frame.type == MsgType::kMetricsReport) {
    return obs::DecodeMetricsSnapshot(frame.payload);
  }
  if (frame.type == MsgType::kError) {
    Status error;
    const Status decoded = DecodeError(frame.payload, &error);
    first_error_ = decoded.ok() ? error : decoded;
    return first_error_;
  }
  first_error_ = Status::Internal(
      "expected a metrics frame, got type " +
      std::to_string(static_cast<unsigned>(frame.type)));
  return first_error_;
}

StatusOr<std::string> NetClient::TraceDump() {
  TCDP_RETURN_IF_ERROR(Drain());
  std::string bytes;
  AppendFrame(&bytes, MsgType::kTraceDump, std::string());
  TCDP_RETURN_IF_ERROR(SendAll(bytes));
  ++requests_sent_;
  Frame frame;
  TCDP_RETURN_IF_ERROR(ReadFrame(&frame));
  if (frame.type == MsgType::kTraceDumpReport) {
    return DecodeTraceDumpReport(frame.payload);
  }
  if (frame.type == MsgType::kError) {
    Status error;
    const Status decoded = DecodeError(frame.payload, &error);
    // "No --trace-out configured" does not latch: nothing about the
    // applied state is in doubt.
    return decoded.ok() ? error : decoded;
  }
  first_error_ = Status::Internal(
      "expected a trace dump frame, got type " +
      std::to_string(static_cast<unsigned>(frame.type)));
  return first_error_;
}

StatusOr<WireHealthReport> NetClient::ProbeHealth(MsgType type) {
  TCDP_RETURN_IF_ERROR(Drain());
  std::string bytes;
  AppendFrame(&bytes, type, std::string());
  TCDP_RETURN_IF_ERROR(SendAll(bytes));
  ++requests_sent_;
  Frame frame;
  TCDP_RETURN_IF_ERROR(ReadFrame(&frame));
  if (frame.type == MsgType::kHealthReport) {
    return DecodeHealthReport(frame.payload);
  }
  if (frame.type == MsgType::kError) {
    Status error;
    const Status decoded = DecodeError(frame.payload, &error);
    // An errored probe (e.g. an old server that does not speak
    // kHealth) does not latch: monitoring keeps polling.
    return decoded.ok() ? error : decoded;
  }
  first_error_ = Status::Internal(
      "expected a health frame, got type " +
      std::to_string(static_cast<unsigned>(frame.type)));
  return first_error_;
}

StatusOr<WireHealthReport> NetClient::Health() {
  return ProbeHealth(MsgType::kHealth);
}

StatusOr<WireHealthReport> NetClient::Ready() {
  return ProbeHealth(MsgType::kReady);
}

Status NetClient::Shutdown() {
  TCDP_RETURN_IF_ERROR(SendPipelined(MsgType::kShutdown, std::string()));
  return Drain();
}

Status NetClient::Close() {
  if (fd_ < 0) return Status::OK();
  // Best-effort drain so pipelined acks are accounted; transport
  // errors here mean the server is already gone, which Close forgives.
  if (first_error_.ok() && outstanding_ > 0) (void)Drain();
  ::close(fd_);
  fd_ = -1;
  return Status::OK();
}

}  // namespace net
}  // namespace tcdp
