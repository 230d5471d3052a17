#include "server/event_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/atomic_file.h"
#include "common/binary_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tcdp {
namespace server {
namespace {

/// WAL instruments are process-global (shared across shard writers):
/// latency histograms for the two durability-critical operations plus
/// byte/record throughput counters. Resolved once, leaked with the
/// registry.
struct WalObs {
  obs::Histogram* append_seconds;
  obs::Histogram* fsync_seconds;
  obs::Counter* appended_bytes;
  obs::Counter* appended_records;
  static const WalObs& Get() {
    static const WalObs instruments = [] {
      obs::Registry& registry = obs::Registry::Default();
      WalObs o;
      o.append_seconds = registry.GetHistogram("tcdp_wal_append_seconds");
      o.fsync_seconds = registry.GetHistogram("tcdp_wal_fsync_seconds");
      o.appended_bytes = registry.GetCounter("tcdp_wal_appended_bytes_total");
      o.appended_records =
          registry.GetCounter("tcdp_wal_appended_records_total");
      return o;
    }();
    return instruments;
  }
};

constexpr std::size_t kHeaderBytes = 1 + 4 + 4;  // type + len + crc

Status ErrnoStatus(const std::string& op, const std::string& path) {
  return Status::Internal(op + " " + path + ": " + std::strerror(errno));
}

bool ValidEventType(std::uint8_t type) {
  switch (static_cast<EventType>(type)) {
    case EventType::kManifest:
    case EventType::kAddUser:
    case EventType::kRelease:
    case EventType::kCompaction:
    case EventType::kMigrateUser:
    case EventType::kRouterEndpoint:
    case EventType::kSnapHeader:
    case EventType::kSnapUser:
    case EventType::kSnapRelease:
      return true;
  }
  return false;
}

}  // namespace

EventLogWriter::~EventLogWriter() {
  if (fd_ >= 0) {
    (void)Flush();
    ::close(fd_);
  }
}

EventLogWriter::EventLogWriter(EventLogWriter&& other) noexcept
    : fd_(other.fd_),
      path_(std::move(other.path_)),
      buffer_(std::move(other.buffer_)),
      bytes_written_(other.bytes_written_),
      records_written_(other.records_written_) {
  other.fd_ = -1;
}

EventLogWriter& EventLogWriter::operator=(EventLogWriter&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) {
      (void)Flush();
      ::close(fd_);
    }
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    buffer_ = std::move(other.buffer_);
    bytes_written_ = other.bytes_written_;
    records_written_ = other.records_written_;
    other.fd_ = -1;
  }
  return *this;
}

StatusOr<EventLogWriter> EventLogWriter::Create(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoStatus("EventLogWriter::Create", path);
  EventLogWriter writer;
  writer.fd_ = fd;
  writer.path_ = path;
  writer.buffer_ = kEventLogMagic;
  writer.bytes_written_ = kEventLogMagicBytes;
  return writer;
}

StatusOr<EventLogWriter> EventLogWriter::OpenForAppend(
    const std::string& path, std::uint64_t resume_offset,
    std::uint64_t resume_records) {
  const int fd = ::open(path.c_str(), O_WRONLY, 0644);
  if (fd < 0) return ErrnoStatus("EventLogWriter::OpenForAppend", path);
  if (::lseek(fd, static_cast<off_t>(resume_offset), SEEK_SET) < 0) {
    ::close(fd);
    return ErrnoStatus("EventLogWriter::OpenForAppend lseek", path);
  }
  EventLogWriter writer;
  writer.fd_ = fd;
  writer.path_ = path;
  writer.bytes_written_ = resume_offset;
  writer.records_written_ = resume_records;
  return writer;
}

Status EventLogWriter::Append(EventType type, const std::string& payload) {
  if (fd_ < 0) {
    return Status::FailedPrecondition(
        "EventLogWriter: appending to a closed log");
  }
  const WalObs& wal_obs = WalObs::Get();
  obs::ScopedLatencyTimer timer(wal_obs.append_seconds);
  TCDP_RETURN_IF_ERROR(AppendRecordFrame(&buffer_, type, payload));
  bytes_written_ += kHeaderBytes + payload.size();
  ++records_written_;
  if (obs::MetricsEnabled()) {
    wal_obs.appended_bytes->Add(kHeaderBytes + payload.size());
    wal_obs.appended_records->Increment();
  }
  return Status::OK();
}

Status EventLogWriter::Flush() {
  if (fd_ < 0) {
    return Status::FailedPrecondition("EventLogWriter: flushing a closed log");
  }
  const char* data = buffer_.data();
  std::size_t left = buffer_.size();
  while (left > 0) {
    const ssize_t n = ::write(fd_, data, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("EventLogWriter::Flush write", path_);
    }
    data += n;
    left -= static_cast<std::size_t>(n);
  }
  buffer_.clear();
  return Status::OK();
}

Status EventLogWriter::Sync() {
  TCDP_RETURN_IF_ERROR(Flush());
  obs::ScopedLatencyTimer timer(WalObs::Get().fsync_seconds);
  obs::ScopedSpan span("wal_fsync", "wal");
  if (::fdatasync(fd_) < 0) {
    return ErrnoStatus("EventLogWriter::Sync fdatasync", path_);
  }
  return Status::OK();
}

Status EventLogWriter::Close() {
  if (fd_ < 0) return Status::OK();
  const Status flushed = Flush();
  const int rc = ::close(fd_);
  fd_ = -1;
  if (!flushed.ok()) return flushed;
  if (rc < 0) return ErrnoStatus("EventLogWriter::Close", path_);
  return Status::OK();
}

bool HasEventLogMagic(const char* data) {
  return std::memcmp(data, kEventLogMagic.data(), kEventLogMagicBytes) == 0;
}

Status AppendRecordFrame(std::string* out, EventType type,
                         std::string_view payload) {
  if (payload.size() > 0xFFFFFFFFull) {
    return Status::InvalidArgument("record payload exceeds 4 GiB");
  }
  const std::uint8_t type_byte = static_cast<std::uint8_t>(type);
  out->push_back(static_cast<char>(type_byte));
  PutFixed32(out, static_cast<std::uint32_t>(payload.size()));
  PutFixed32(out, Crc32(payload.data(), payload.size(), Crc32(&type_byte, 1)));
  out->append(payload);
  return Status::OK();
}

StatusOr<RecordFrame> DecodeRecordFrame(std::string_view bytes) {
  if (bytes.size() < kHeaderBytes) {
    return Status::OutOfRange("truncated record header");
  }
  const std::uint8_t type_byte = static_cast<std::uint8_t>(bytes[0]);
  RecordFrame frame;
  std::uint32_t payload_len = 0;
  BinaryCursor cursor(bytes.data() + 1, kHeaderBytes - 1);
  (void)cursor.ReadFixed32(&payload_len);
  (void)cursor.ReadFixed32(&frame.crc);
  if (!ValidEventType(type_byte)) {
    return Status::InvalidArgument("unknown record type " +
                                   std::to_string(type_byte));
  }
  if (bytes.size() - kHeaderBytes < payload_len) {
    return Status::OutOfRange("truncated record payload");
  }
  frame.payload = bytes.substr(kHeaderBytes, payload_len);
  const std::uint32_t crc =
      Crc32(frame.payload.data(), payload_len, Crc32(&type_byte, 1));
  if (crc != frame.crc) return Status::InvalidArgument("CRC mismatch");
  frame.type = static_cast<EventType>(type_byte);
  frame.size = kHeaderBytes + payload_len;
  return frame;
}

StatusOr<ReadLogResult> ReadEventLog(const std::string& path) {
  StatusOr<std::string> read = ReadFileWhole(path);
  if (!read.ok()) {
    return Status(read.status().code(),
                  "ReadEventLog: " + read.status().message());
  }
  const std::string& contents = read.value();
  if (contents.size() < kEventLogMagicBytes ||
      !HasEventLogMagic(contents.data())) {
    return Status::InvalidArgument("ReadEventLog: " + path +
                                   " is not a tcdp event log (bad magic)");
  }
  ReadLogResult result;
  std::size_t pos = kEventLogMagicBytes;
  result.valid_bytes = pos;
  while (pos < contents.size()) {
    StatusOr<RecordFrame> frame =
        DecodeRecordFrame(std::string_view(contents).substr(pos));
    if (!frame.ok()) {
      result.clean = false;
      result.tail_error =
          frame.status().message() + " at offset " + std::to_string(pos);
      break;
    }
    result.records.push_back({frame->type, std::string(frame->payload)});
    pos += frame->size;
    result.record_end.push_back(pos);
    result.valid_bytes = pos;
  }
  return result;
}

Status TruncateFile(const std::string& path, std::uint64_t size) {
  if (::truncate(path.c_str(), static_cast<off_t>(size)) < 0) {
    return ErrnoStatus("TruncateFile", path);
  }
  return Status::OK();
}

}  // namespace server
}  // namespace tcdp
