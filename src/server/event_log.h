#ifndef TCDP_SERVER_EVENT_LOG_H_
#define TCDP_SERVER_EVENT_LOG_H_

/// \file
/// Binary append-only write-ahead event log: the durability substrate
/// of the sharded release service.
///
/// File layout: an 8-byte magic ("TCDPWAL1") followed by framed
/// records:
///
///   [u8 type][u32 payload_len LE][u32 crc32 LE][payload bytes]
///
/// where the CRC covers the type byte and the payload, so neither a
/// flipped type nor flipped payload bytes go unnoticed. The same
/// framing carries snapshot files (they are just logs whose records
/// happen to be snapshot-typed). AppendRecordFrame is its one writer
/// and DecodeRecordFrame its one reader; EventLogWriter appends the
/// WAL and the router journal, while snapshots and compacted WALs are
/// framed in memory and published whole (server/log_dir.h).
///
/// Durability model: `Append` buffers in memory; `Flush` hands the
/// buffer to the OS (write(2)); `Sync` additionally fdatasyncs — the
/// service batches syncs across micro-batches (fsync per record would
/// serialize every release on the disk). A crash can therefore tear
/// the tail: `ReadEventLog` stops at the first record that is
/// truncated or fails its CRC, reports the valid prefix length, and
/// recovery truncates the file there and appends onward. A torn tail
/// is NOT an error (it is what a crash looks like); it is surfaced in
/// the result so callers can log it.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace tcdp {
namespace server {

/// Record types across WAL and snapshot files. Values are durable —
/// append new ones, never renumber.
enum class EventType : std::uint8_t {
  kManifest = 1,      ///< first WAL record: shard identity + options
  kAddUser = 2,       ///< a user enrolled on this shard
  kRelease = 3,       ///< one global release (eps + local participation)
  kCompaction = 4,    ///< second record of a compacted WAL: the prefix
                      ///< summarized by the shard snapshot (base counts)
  kMigrateUser = 5,   ///< router journal: a user pinned to an explicit
                      ///< endpoint, overriding the consistent-hash ring
  kRouterEndpoint = 6,  ///< router journal: an endpoint added to (or
                        ///< tombstoned off) the ring
  kSnapHeader = 16,   ///< snapshot: counts + quantization
  kSnapUser = 17,     ///< snapshot: one user (v2 accountant blob + state)
  kSnapRelease = 18,  ///< snapshot: one historical release row
};

struct EventRecord {
  EventType type = EventType::kManifest;
  std::string payload;
};

/// \brief Buffered appender. Not thread-safe; each shard worker owns
/// its writer exclusively.
class EventLogWriter {
 public:
  EventLogWriter() = default;
  ~EventLogWriter();
  EventLogWriter(EventLogWriter&& other) noexcept;
  EventLogWriter& operator=(EventLogWriter&& other) noexcept;
  EventLogWriter(const EventLogWriter&) = delete;
  EventLogWriter& operator=(const EventLogWriter&) = delete;

  /// Creates the file (writing the magic) or opens it for append at
  /// \p resume_offset — recovery passes the valid-prefix length (and
  /// the record count of that prefix, so records_written() stays
  /// cumulative) after truncating a torn tail.
  static StatusOr<EventLogWriter> Create(const std::string& path);
  static StatusOr<EventLogWriter> OpenForAppend(const std::string& path,
                                                std::uint64_t resume_offset,
                                                std::uint64_t resume_records);

  /// Frames and buffers one record (AppendRecordFrame). Cheap; no I/O
  /// until Flush.
  Status Append(EventType type, const std::string& payload);

  /// write(2)s the buffer. Data reaches the OS, not necessarily disk.
  Status Flush();

  /// Flush + fdatasync: the batch boundary the service persists at.
  Status Sync();

  /// Flushes and closes. Further Appends are an error.
  Status Close();

  bool is_open() const { return fd_ >= 0; }
  /// Bytes framed so far (magic included), flushed or not.
  std::uint64_t bytes_written() const { return bytes_written_; }
  std::uint64_t records_written() const { return records_written_; }

 private:
  int fd_ = -1;
  std::string path_;
  std::string buffer_;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t records_written_ = 0;
};

/// The magic every log file starts with.
inline constexpr std::string_view kEventLogMagic{"TCDPWAL1", 8};
inline constexpr std::size_t kEventLogMagicBytes = kEventLogMagic.size();

/// Whether \p data (at least kEventLogMagicBytes long) starts with the
/// magic.
bool HasEventLogMagic(const char* data);

/// \brief Appends the frame of one record to \p out: the one writer of
/// the framing. InvalidArgument, leaving \p out as it was, for a
/// payload of 4 GiB or more.
Status AppendRecordFrame(std::string* out, EventType type,
                         std::string_view payload);

/// One record frame, decoded in place.
struct RecordFrame {
  EventType type = EventType::kManifest;
  std::string_view payload;
  std::uint32_t crc = 0;  ///< the frame's CRC (type byte and payload)
  std::size_t size = 0;   ///< header plus payload bytes
};

/// \brief Decodes the frame \p bytes starts with: the one reading of
/// the framing, for ReadEventLog and for a tailer of a growing log.
/// OutOfRange when \p bytes ends inside the frame (a torn tail, or an
/// append still in flight); InvalidArgument for an unknown type or a
/// CRC mismatch.
StatusOr<RecordFrame> DecodeRecordFrame(std::string_view bytes);

/// \brief Result of scanning a log: every decodable record plus where
/// the valid prefix ends.
struct ReadLogResult {
  std::vector<EventRecord> records;
  /// Byte offset just past records[i] — recovery truncates at these
  /// boundaries when aligning shards to a common horizon.
  std::vector<std::uint64_t> record_end;
  std::uint64_t valid_bytes = 0;  ///< prefix length ending at a record boundary
  bool clean = true;              ///< false when a torn/corrupt tail was cut
  std::string tail_error;         ///< why scanning stopped, when !clean
};

/// \brief Scans \p path. Fails (NotFound/InvalidArgument) only when the
/// file is unreadable or its magic is wrong; torn tails come back as
/// clean=false with the valid prefix decoded.
StatusOr<ReadLogResult> ReadEventLog(const std::string& path);

/// \brief Truncates \p path to \p size bytes (recovery cutting a torn
/// tail before reopening for append).
Status TruncateFile(const std::string& path, std::uint64_t size);

}  // namespace server
}  // namespace tcdp

#endif  // TCDP_SERVER_EVENT_LOG_H_
