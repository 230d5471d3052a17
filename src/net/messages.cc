#include "net/messages.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/binary_io.h"
#include "net/wire.h"

namespace tcdp {
namespace net {
namespace {

Status ExpectConsumed(const BinaryCursor& cursor, const char* what) {
  if (!cursor.empty()) {
    return Status::InvalidArgument(std::string(what) +
                                   ": trailing bytes in payload");
  }
  return Status::OK();
}

Status CheckEpsilon(double epsilon, const char* what) {
  if (!(epsilon > 0.0) || !std::isfinite(epsilon)) {
    return Status::InvalidArgument(std::string(what) +
                                   ": epsilon not finite and > 0");
  }
  return Status::OK();
}

/// A run takes at least a one-byte length and the value's bits.
constexpr std::size_t kMinRunBytes = 1 + sizeof(double);

/// Reads one run-coded series covering exactly \p horizon entries. The
/// run count is checked against the bytes present, and each length
/// against what is left of the horizon, before anything is allocated.
Status ReadRunSeries(BinaryCursor* cursor, std::uint64_t horizon,
                     RunSeries* runs) {
  std::uint64_t count = 0;
  TCDP_RETURN_IF_ERROR(cursor->ReadVarint64(&count));
  if (count > cursor->remaining() / kMinRunBytes || count > horizon) {
    return Status::InvalidArgument(
        "DecodeReport: run count exceeds the payload or the horizon");
  }
  runs->resize(static_cast<std::size_t>(count));
  std::uint64_t left = horizon;
  for (Run& run : *runs) {
    std::uint64_t length = 0;
    TCDP_RETURN_IF_ERROR(cursor->ReadVarint64(&length));
    if (length == 0 || length > left) {
      return Status::InvalidArgument(
          "DecodeReport: run length is 0 or exceeds the horizon");
    }
    left -= length;
    run.length = static_cast<std::size_t>(length);
    TCDP_RETURN_IF_ERROR(cursor->ReadDoubleBits(&run.value));
  }
  if (left != 0) {
    return Status::InvalidArgument(
        "DecodeReport: runs do not sum to the horizon");
  }
  return Status::OK();
}

char* WriteRunSeries(char* out, const RunSeries& runs) {
  out = EncodeVarint64(out, runs.size());
  for (const Run& run : runs) {
    out = EncodeVarint64(out, run.length);
    out = EncodeDoubleBits(out, run.value);
  }
  return out;
}

std::size_t RunSeriesSize(const RunSeries& runs) {
  std::size_t size = VarintLength(runs.size()) + sizeof(double) * runs.size();
  for (const Run& run : runs) size += VarintLength(run.length);
  return size;
}

}  // namespace

std::string EncodeJoin(const std::string& name,
                       const TemporalCorrelations& correlations) {
  server::AddUserRecord record;
  record.name = name;
  record.image.correlations = correlations;
  // The server replaces the resolution with its own cache's; what the
  // client believes about quantization is irrelevant to the request.
  record.image.cache_alpha_resolution = -1.0;
  return server::EncodeAddUser(record);
}

StatusOr<server::AddUserRecord> DecodeJoin(const std::string& payload) {
  return server::DecodeAddUser(payload);
}

std::string EncodeRelease(const std::string& name, double epsilon) {
  std::string out;
  PutLengthPrefixed(&out, name);
  PutDoubleBits(&out, epsilon);
  return out;
}

StatusOr<ReleaseRequest> DecodeRelease(const std::string& payload) {
  BinaryCursor cursor(payload);
  ReleaseRequest request;
  TCDP_RETURN_IF_ERROR(cursor.ReadLengthPrefixed(&request.name));
  TCDP_RETURN_IF_ERROR(cursor.ReadDoubleBits(&request.epsilon));
  TCDP_RETURN_IF_ERROR(CheckEpsilon(request.epsilon, "DecodeRelease"));
  TCDP_RETURN_IF_ERROR(ExpectConsumed(cursor, "DecodeRelease"));
  return request;
}

std::string EncodeReleaseAll(double epsilon) {
  std::string out;
  PutDoubleBits(&out, epsilon);
  return out;
}

StatusOr<double> DecodeReleaseAll(const std::string& payload) {
  BinaryCursor cursor(payload);
  double epsilon = 0.0;
  TCDP_RETURN_IF_ERROR(cursor.ReadDoubleBits(&epsilon));
  TCDP_RETURN_IF_ERROR(CheckEpsilon(epsilon, "DecodeReleaseAll"));
  TCDP_RETURN_IF_ERROR(ExpectConsumed(cursor, "DecodeReleaseAll"));
  return epsilon;
}

std::string EncodeName(const std::string& name) {
  std::string out;
  PutLengthPrefixed(&out, name);
  return out;
}

StatusOr<std::string> DecodeName(const std::string& payload) {
  BinaryCursor cursor(payload);
  std::string name;
  TCDP_RETURN_IF_ERROR(cursor.ReadLengthPrefixed(&name));
  TCDP_RETURN_IF_ERROR(ExpectConsumed(cursor, "DecodeName"));
  return name;
}

std::string EncodeError(const Status& status) {
  std::string out;
  PutVarint64(&out, static_cast<std::uint64_t>(status.code()));
  PutLengthPrefixed(&out, status.message());
  return out;
}

Status DecodeError(const std::string& payload, Status* error) {
  BinaryCursor cursor(payload);
  std::uint64_t code = 0;
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&code));
  if (code == 0 ||
      code > static_cast<std::uint64_t>(StatusCode::kResourceExhausted)) {
    return Status::InvalidArgument("DecodeError: unknown status code " +
                                   std::to_string(code));
  }
  std::string message;
  TCDP_RETURN_IF_ERROR(cursor.ReadLengthPrefixed(&message));
  TCDP_RETURN_IF_ERROR(ExpectConsumed(cursor, "DecodeError"));
  *error = Status(static_cast<StatusCode>(code), std::move(message));
  return Status::OK();
}

std::size_t ReportPayloadSize(const server::UserReportRuns& report) {
  return VarintLength(report.name.size()) + report.name.size() +
         VarintLength(report.shard) + VarintLength(report.join_release) +
         VarintLength(report.horizon) + 2 * sizeof(double) +
         RunSeriesSize(report.epsilons) + RunSeriesSize(report.tpl_series);
}

std::size_t ReportPayloadSize(const server::UserReport& report) {
  return ReportPayloadSize(server::ToRunReport(report));
}

bool ReportFitsTheWire(std::uint64_t horizon, std::size_t payload_size) {
  return horizon <= kMaxReportHorizon && payload_size <= kMaxFramePayload;
}

void AppendReport(std::string* dst, const server::UserReportRuns& report) {
  AppendReport(dst, report, ReportPayloadSize(report));
}

void AppendReport(std::string* dst, const server::UserReportRuns& report,
                  std::size_t payload_size) {
  assert(payload_size == ReportPayloadSize(report));
  const std::size_t offset = dst->size();
  dst->resize(offset + payload_size);
  char* out = &(*dst)[offset];
  out = EncodeVarint64(out, report.name.size());
  out = std::copy(report.name.begin(), report.name.end(), out);
  out = EncodeVarint64(out, report.shard);
  out = EncodeVarint64(out, report.join_release);
  out = EncodeVarint64(out, report.horizon);
  out = EncodeDoubleBits(out, report.max_tpl);
  out = EncodeDoubleBits(out, report.user_level_tpl);
  out = WriteRunSeries(out, report.epsilons);
  out = WriteRunSeries(out, report.tpl_series);
  assert(out == dst->data() + dst->size());
}

std::string EncodeReport(const server::UserReport& report) {
  const server::UserReportRuns runs = server::ToRunReport(report);
  std::string out;
  AppendReport(&out, runs);
  return out;
}

StatusOr<server::UserReport> DecodeReport(const std::string& payload) {
  BinaryCursor cursor(payload);
  server::UserReportRuns report;
  TCDP_RETURN_IF_ERROR(cursor.ReadLengthPrefixed(&report.name));
  std::uint64_t shard = 0;
  std::uint64_t join_release = 0;
  std::uint64_t horizon = 0;
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&shard));
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&join_release));
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&horizon));
  if (horizon > kMaxReportHorizon) {
    return Status::InvalidArgument("DecodeReport: horizon above the cap");
  }
  report.shard = static_cast<std::size_t>(shard);
  report.join_release = static_cast<std::size_t>(join_release);
  report.horizon = static_cast<std::size_t>(horizon);
  TCDP_RETURN_IF_ERROR(cursor.ReadDoubleBits(&report.max_tpl));
  TCDP_RETURN_IF_ERROR(cursor.ReadDoubleBits(&report.user_level_tpl));
  TCDP_RETURN_IF_ERROR(ReadRunSeries(&cursor, horizon, &report.epsilons));
  TCDP_RETURN_IF_ERROR(ReadRunSeries(&cursor, horizon, &report.tpl_series));
  TCDP_RETURN_IF_ERROR(ExpectConsumed(cursor, "DecodeReport"));
  return server::ExpandReport(report);
}

std::string EncodeStatsReport(const WireServiceStats& stats) {
  std::string out;
  PutVarint64(&out, stats.num_shards);
  PutVarint64(&out, stats.num_users);
  PutVarint64(&out, stats.horizon);
  PutVarint64(&out, stats.join_requests);
  PutVarint64(&out, stats.release_requests);
  PutVarint64(&out, stats.ticks);
  PutVarint64(&out, stats.global_releases);
  PutVarint64(&out, stats.shards.size());
  for (const WireShardStats& shard : stats.shards) {
    PutVarint64(&out, shard.users);
    PutVarint64(&out, shard.horizon);
    PutVarint64(&out, shard.wal_records);
    PutVarint64(&out, shard.wal_bytes);
    PutVarint64(&out, shard.snapshots_written);
    PutVarint64(&out, shard.queue_depth);
    PutVarint64(&out, shard.enqueue_blocks);
  }
  return out;
}

StatusOr<WireServiceStats> DecodeStatsReport(const std::string& payload) {
  BinaryCursor cursor(payload);
  WireServiceStats stats;
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&stats.num_shards));
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&stats.num_users));
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&stats.horizon));
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&stats.join_requests));
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&stats.release_requests));
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&stats.ticks));
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&stats.global_releases));
  std::uint64_t shard_count = 0;
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&shard_count));
  // Each shard row is at least 7 one-byte varints.
  if (shard_count > cursor.remaining() / 7) {
    return Status::InvalidArgument(
        "DecodeStatsReport: shard count exceeds payload");
  }
  stats.shards.resize(static_cast<std::size_t>(shard_count));
  for (WireShardStats& shard : stats.shards) {
    TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&shard.users));
    TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&shard.horizon));
    TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&shard.wal_records));
    TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&shard.wal_bytes));
    TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&shard.snapshots_written));
    TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&shard.queue_depth));
    TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&shard.enqueue_blocks));
  }
  TCDP_RETURN_IF_ERROR(ExpectConsumed(cursor, "DecodeStatsReport"));
  return stats;
}

std::string EncodeHealthReport(const WireHealthReport& report) {
  std::string out;
  PutVarint64(&out, report.healthy ? 1 : 0);
  PutVarint64(&out, report.ready ? 1 : 0);
  PutVarint64(&out, report.scans);
  PutLengthPrefixed(&out, report.reason);
  PutVarint64(&out, report.components.size());
  for (const WireComponentHealth& component : report.components) {
    PutLengthPrefixed(&out, component.name);
    PutVarint64(&out, component.kind);
    PutVarint64(&out, component.stalled ? 1 : 0);
    PutVarint64(&out, component.progress);
    PutVarint64(&out, component.pending);
    PutVarint64(&out, component.age_ns);
    PutLengthPrefixed(&out, component.detail);
  }
  return out;
}

StatusOr<WireHealthReport> DecodeHealthReport(const std::string& payload) {
  BinaryCursor cursor(payload);
  WireHealthReport report;
  std::uint64_t healthy = 0;
  std::uint64_t ready = 0;
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&healthy));
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&ready));
  if (healthy > 1 || ready > 1) {
    return Status::InvalidArgument("DecodeHealthReport: flag not 0/1");
  }
  report.healthy = healthy == 1;
  report.ready = ready == 1;
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&report.scans));
  TCDP_RETURN_IF_ERROR(cursor.ReadLengthPrefixed(&report.reason));
  std::uint64_t count = 0;
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&count));
  // Each component row is at least 7 one-byte fields.
  if (count > cursor.remaining() / 7) {
    return Status::InvalidArgument(
        "DecodeHealthReport: component count exceeds payload");
  }
  report.components.resize(static_cast<std::size_t>(count));
  for (WireComponentHealth& component : report.components) {
    TCDP_RETURN_IF_ERROR(cursor.ReadLengthPrefixed(&component.name));
    TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&component.kind));
    std::uint64_t stalled = 0;
    TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&stalled));
    if (component.kind > 2 || stalled > 1) {
      return Status::InvalidArgument(
          "DecodeHealthReport: component kind/stalled out of range");
    }
    component.stalled = stalled == 1;
    TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&component.progress));
    TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&component.pending));
    TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&component.age_ns));
    TCDP_RETURN_IF_ERROR(cursor.ReadLengthPrefixed(&component.detail));
  }
  TCDP_RETURN_IF_ERROR(ExpectConsumed(cursor, "DecodeHealthReport"));
  return report;
}

std::string EncodeTraceDumpReport(const std::string& path) {
  std::string out;
  PutLengthPrefixed(&out, path);
  return out;
}

StatusOr<std::string> DecodeTraceDumpReport(const std::string& payload) {
  BinaryCursor cursor(payload);
  std::string path;
  TCDP_RETURN_IF_ERROR(cursor.ReadLengthPrefixed(&path));
  TCDP_RETURN_IF_ERROR(ExpectConsumed(cursor, "DecodeTraceDumpReport"));
  return path;
}

}  // namespace net
}  // namespace tcdp
