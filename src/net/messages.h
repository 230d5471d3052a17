#ifndef TCDP_NET_MESSAGES_H_
#define TCDP_NET_MESSAGES_H_

/// \file
/// Typed payload codecs for the network frame types (net/wire.h owns
/// the framing; this file owns what goes inside), mirroring the split
/// between server/event_log.h and server/records.h.
///
/// Wire conventions are the durable formats' (common/binary_io):
/// little-endian fixed ints, LEB128 varints, doubles as raw IEEE-754
/// bits — which is what makes a series fetched over the network
/// bitwise comparable to the in-process one. A Join payload IS the
/// WAL's AddUser record (server/records), so the correlation matrices
/// travel in the same "tcdp-accountant-v2" grammar everywhere.
///
/// Every decoder is total: truncated or corrupted payloads (those that
/// survive the frame CRC) come back as Status, never UB, and decoded
/// counts are validated against the payload size before reserving.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "server/records.h"
#include "server/sharded_service.h"

namespace tcdp {
namespace net {

/// kRelease request: one user spends epsilon at the next batch tick.
struct ReleaseRequest {
  std::string name;
  double epsilon = 0.0;
};

/// kStatsReport response: the service counters plus per-shard depth /
/// backpressure / WAL gauges (the network face of `tcdp serve` stats).
struct WireShardStats {
  std::uint64_t users = 0;
  std::uint64_t horizon = 0;
  std::uint64_t wal_records = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t snapshots_written = 0;
  std::uint64_t queue_depth = 0;      ///< sampled at request time
  std::uint64_t enqueue_blocks = 0;   ///< Pushes that had to wait
};

struct WireServiceStats {
  std::uint64_t num_shards = 0;
  std::uint64_t num_users = 0;
  std::uint64_t horizon = 0;
  std::uint64_t join_requests = 0;
  std::uint64_t release_requests = 0;
  std::uint64_t ticks = 0;
  std::uint64_t global_releases = 0;
  std::vector<WireShardStats> shards;
};

/// kJoin reuses the WAL AddUser codec verbatim: name + a history-free
/// "tcdp-accountant-v2" correlation blob.
std::string EncodeJoin(const std::string& name,
                       const TemporalCorrelations& correlations);
StatusOr<server::AddUserRecord> DecodeJoin(const std::string& payload);

std::string EncodeRelease(const std::string& name, double epsilon);
StatusOr<ReleaseRequest> DecodeRelease(const std::string& payload);

std::string EncodeReleaseAll(double epsilon);
StatusOr<double> DecodeReleaseAll(const std::string& payload);

/// Shared by kQuery (request) — a bare length-prefixed user name.
std::string EncodeName(const std::string& name);
StatusOr<std::string> DecodeName(const std::string& payload);

/// kError carries a Status by value. The return value is the decode
/// result; \p error receives the server-reported status on success.
std::string EncodeError(const Status& status);
Status DecodeError(const std::string& payload, Status* error);

/// kReport carries both series as runs (protocol version 2): a varint
/// run count, then per run a varint length and the value's double
/// bits. AppendReport grows \p dst once by the payload's exact size and
/// encodes a run-form report straight into it (NetServer encodes into a
/// connection's out buffer, passing the \p payload_size it has already
/// computed with ReportPayloadSize); the dense overloads encode the
/// series' maximal runs, so a report and its run form give the same
/// bytes.
void AppendReport(std::string* dst, const server::UserReportRuns& report);
void AppendReport(std::string* dst, const server::UserReportRuns& report,
                  std::size_t payload_size);
std::string EncodeReport(const server::UserReport& report);
/// The encoded size, computed from the name length, the varint fields
/// and the runs without encoding anything.
std::size_t ReportPayloadSize(const server::UserReportRuns& report);
std::size_t ReportPayloadSize(const server::UserReport& report);
/// Largest `horizon` DecodeReport accepts: 2^24 releases, so the dense
/// report it expands holds at most 256 MiB of series.
inline constexpr std::uint64_t kMaxReportHorizon = std::uint64_t{1} << 24;
/// Whether every DecodeReport accepts a report of \p horizon releases
/// whose payload is \p payload_size bytes: at most kMaxReportHorizon
/// and kMaxFramePayload. NetServer answers a Query whose report fails
/// this with ResourceExhausted instead of a frame its client must
/// refuse.
bool ReportFitsTheWire(std::uint64_t horizon, std::size_t payload_size);
/// Decodes and expands to the dense report. InvalidArgument, before
/// allocating for either series, on a horizon above kMaxReportHorizon,
/// a run count the remaining bytes cannot hold, a zero-length run, or
/// runs that do not sum to `horizon`.
StatusOr<server::UserReport> DecodeReport(const std::string& payload);

std::string EncodeStatsReport(const WireServiceStats& stats);
StatusOr<WireServiceStats> DecodeStatsReport(const std::string& payload);

/// kHealthReport response: the watchdog's classification, answering
/// both kHealth (liveness) and kReady (readiness) probes.
struct WireComponentHealth {
  std::string name;
  std::uint64_t kind = 0;  ///< obs::HeartbeatKind numeric value
  bool stalled = false;
  std::uint64_t progress = 0;
  std::uint64_t pending = 0;
  std::uint64_t age_ns = 0;
  std::string detail;  ///< stall classification; empty when healthy
};

struct WireHealthReport {
  bool healthy = false;
  bool ready = false;
  std::uint64_t scans = 0;    ///< watchdog scans completed
  std::string reason;         ///< first failure explanation; "" if ok
  std::vector<WireComponentHealth> components;
};

std::string EncodeHealthReport(const WireHealthReport& report);
StatusOr<WireHealthReport> DecodeHealthReport(const std::string& payload);

/// kTraceDumpReport response: the path the server wrote its trace ring
/// to (a bare length-prefixed string, same shape as a name payload).
std::string EncodeTraceDumpReport(const std::string& path);
StatusOr<std::string> DecodeTraceDumpReport(const std::string& payload);

}  // namespace net
}  // namespace tcdp

#endif  // TCDP_NET_MESSAGES_H_
