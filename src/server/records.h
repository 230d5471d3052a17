#ifndef TCDP_SERVER_RECORDS_H_
#define TCDP_SERVER_RECORDS_H_

/// \file
/// Typed payload codecs for the event-log record types (event_log.h
/// owns the framing + CRC; this file owns what goes inside).
///
/// Wire conventions: little-endian fixed ints, LEB128 varints, doubles
/// as raw IEEE-754 bits (bitwise replay), strings length-prefixed,
/// participation masks via the PackedMask codec. Correlation matrices
/// travel inside the "tcdp-accountant-v2" text blob (core's
/// AccountantImage serializer) so the durable formats share one matrix
/// grammar with accountant persistence.
///
/// Each thread converts a given correlation image once: the kAddUser
/// and kSnapUser codecs keep a bounded, content-keyed memo of the blobs
/// they printed and parsed (ThreadImageMemoStats). It changes no byte
/// and no verdict.
///
/// Every decoder is total: truncated or corrupted payloads (those that
/// survive the frame CRC, e.g. hand-edited files) come back as Status,
/// never UB.

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/packed_mask.h"
#include "common/status.h"
#include "core/tpl_accountant.h"

namespace tcdp {
namespace server {

/// First record of every shard WAL: identity + the accounting options
/// the rest of the log must be replayed under.
struct ManifestRecord {
  std::uint64_t format_version = 1;
  std::uint64_t shard_index = 0;
  std::uint64_t num_shards = 1;
  bool share_loss_cache = true;
  double alpha_resolution = 1e-9;
};

/// A user enrolled on this shard. The embedded accountant image carries
/// the correlation matrices and quantization; its epsilon list is empty
/// (history lives in the release records).
struct AddUserRecord {
  std::string name;
  AccountantImage image;
};

/// One global release: every shard logs one of these per global time
/// step, with its local participation. An All mask means every user
/// enrolled on the shard at that point participated.
struct ReleaseRecord {
  double epsilon = 0.0;
  bool all = false;
  PackedMask mask;  ///< over shard-local user indices when !all
};

/// Second record of a compacted WAL (immediately after the manifest):
/// declares that the first `base_records` *logical* records of the log
/// (manifest included) were rewritten away and live on only as the
/// shard snapshot — recovery of a compacted shard MUST restore from a
/// snapshot whose `applied_records >= base_records`. The base counts
/// keep logical accounting intact: a physical record at index p >= 2
/// is logical record `base_records + (p - 2)`, and the shard's total
/// release count is `base_releases` plus the kRelease records in the
/// physical suffix.
struct CompactionRecord {
  std::uint64_t format_version = 1;
  /// Logical WAL records replaced (manifest included); equals the
  /// anchoring snapshot's `applied_records` at compaction time.
  std::uint64_t base_records = 0;
  /// kRelease records among the replaced prefix (the snapshot horizon).
  std::uint64_t base_releases = 0;
  /// kAddUser records among the replaced prefix (the snapshot users).
  std::uint64_t base_users = 0;
};

/// Router journal (replication/router.h): one endpoint added to — or
/// tombstoned off — the consistent-hash ring. The journal reuses the
/// WAL framing, so a torn router journal recovers exactly like a torn
/// shard WAL: truncate to the last complete record and resume.
struct RouterEndpointRecord {
  std::uint64_t format_version = 1;
  std::string endpoint;  ///< "host:port"
  bool removed = false;  ///< tombstone when true
};

/// Router journal: one user pinned to an explicit endpoint, overriding
/// the ring — the unit of rebalancing when a shard-server is added.
/// An empty endpoint clears the pin (the ring resumes deciding).
struct MigrateUserRecord {
  std::uint64_t format_version = 1;
  std::string name;
  std::string endpoint;
};

/// Snapshot prologue: how much of the WAL the snapshot reflects and
/// what the state dimensions are (readers validate counts against it).
/// Carries the quantization itself so a zero-user shard's snapshot is
/// still fully self-describing.
struct SnapHeaderRecord {
  std::uint64_t applied_records = 0;  ///< WAL records (manifest included)
  std::uint64_t horizon = 0;
  std::uint64_t num_users = 0;
  double alpha_resolution = -1.0;
};

/// Snapshot per-user record: name + running columns + the v2 accountant
/// blob (correlations/quantization; empty epsilon list — the schedule
/// and masks are snapshotted once globally, not per user).
struct SnapUserRecord {
  std::string name;
  std::uint64_t join = 0;
  double bpl_last = 0.0;
  double eps_sum = 0.0;
  AccountantImage image;
};

/// Bounds of each thread's correlation-image memo. An entry is charged
/// its blob bytes plus 8 bytes per matrix entry; an image whose charge
/// exceeds kImageMemoMaxEntryBytes bypasses the memo.
inline constexpr std::size_t kImageMemoMaxEntries = 256;
inline constexpr std::size_t kImageMemoMaxBytes = std::size_t{1} << 20;
inline constexpr std::size_t kImageMemoMaxEntryBytes = kImageMemoMaxBytes / 4;

/// Occupancy and traffic of the calling thread's image memo.
struct ImageMemoStats {
  std::size_t entries = 0;
  std::size_t bytes = 0;  ///< charged bytes, <= kImageMemoMaxBytes
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};
ImageMemoStats ThreadImageMemoStats();

std::string EncodeManifest(const ManifestRecord& record);
StatusOr<ManifestRecord> DecodeManifest(const std::string& payload);

std::string EncodeAddUser(const AddUserRecord& record);
StatusOr<AddUserRecord> DecodeAddUser(const std::string& payload);

std::string EncodeRelease(const ReleaseRecord& record);
StatusOr<ReleaseRecord> DecodeRelease(const std::string& payload);

std::string EncodeCompaction(const CompactionRecord& record);
StatusOr<CompactionRecord> DecodeCompaction(const std::string& payload);

std::string EncodeRouterEndpoint(const RouterEndpointRecord& record);
StatusOr<RouterEndpointRecord> DecodeRouterEndpoint(
    const std::string& payload);

std::string EncodeMigrateUser(const MigrateUserRecord& record);
StatusOr<MigrateUserRecord> DecodeMigrateUser(const std::string& payload);

std::string EncodeSnapHeader(const SnapHeaderRecord& record);
StatusOr<SnapHeaderRecord> DecodeSnapHeader(const std::string& payload);

std::string EncodeSnapUser(const SnapUserRecord& record);
StatusOr<SnapUserRecord> DecodeSnapUser(const std::string& payload);

}  // namespace server
}  // namespace tcdp

#endif  // TCDP_SERVER_RECORDS_H_
