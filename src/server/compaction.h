#ifndef TCDP_SERVER_COMPACTION_H_
#define TCDP_SERVER_COMPACTION_H_

/// \file
/// Snapshot-anchored WAL compaction: bounding a shard log's disk
/// footprint without giving up a byte of recoverable state.
///
/// Snapshots cut *replay* time but the WAL still grows forever. Once a
/// snapshot durably covers the log's first `applied_records` logical
/// records, those records are redundant with it, and the log can be
/// rewritten to
///
///   [kManifest]  [kCompaction {base counts}]  [suffix records...]
///
/// where the suffix is exactly the records past the snapshot horizon.
/// The kCompaction record preserves *logical* accounting: physical
/// record `p >= 2` of a compacted log is logical record
/// `base_records + (p - 2)`, so snapshot `applied_records` horizons
/// (always logical) keep meaning the same thing across any number of
/// compactions.
///
/// **Crash safety.** The rewrite uses the same tmp+rename+fsync dance
/// as snapshots: the new log is assembled at `<wal>.compact.tmp`,
/// fdatasynced, and renamed over the WAL. A crash at ANY byte offset
/// of the rewrite leaves either the old log (rename not reached — the
/// stray tmp is ignored and removed by recovery) or the complete new
/// log; both recover bitwise-identically (property-tested in
/// tests/compaction_test.cc at every truncation offset of the tmp).
///
/// **Safety floor.** A compacted shard can no longer replay below its
/// snapshot horizon, so callers must only compact up to a horizon
/// every shard of the service has durably synced — otherwise the
/// min-common-horizon alignment of recovery could demand a rewind the
/// compacted shard cannot perform. `ShardedReleaseService::Compact`
/// enforces this by fdatasyncing every shard's WAL at the current
/// horizon before any shard rewrites (docs/DURABILITY.md, "Compaction
/// invariants").

#include <cstdint>
#include <string>

#include "common/status.h"
#include "server/event_log.h"
#include "server/records.h"

namespace tcdp {
namespace server {

/// How a scanned WAL's records map to logical indices.
struct WalBase {
  bool compacted = false;
  /// The base counts of physical record 1; all zero for a plain log.
  CompactionRecord record;
  /// Physical index of the first replayable (kAddUser/kRelease)
  /// record: 1 for a plain log, 2 for a compacted one.
  std::size_t suffix_start = 1;

  /// Logical index of physical record \p p, and back.
  std::uint64_t logical(std::size_t p) const {
    return compacted ? record.base_records + (p - 2) : p;
  }
  std::size_t physical(std::uint64_t l) const {
    return static_cast<std::size_t>(compacted ? 2 + (l - record.base_records)
                                              : l);
  }
};

/// \brief Classifies \p log (a scanned shard WAL whose record 0 is the
/// manifest) as plain or compacted. Fails only when physical record 1
/// is a kCompaction record that does not decode.
StatusOr<WalBase> InspectWalBase(const ReadLogResult& log);

struct CompactionResult {
  std::uint64_t bytes_before = 0;
  std::uint64_t bytes_after = 0;
  /// Records in the rewritten file (manifest + kCompaction + suffix).
  std::uint64_t physical_records = 0;
  /// Records carried past the base (the post-snapshot suffix).
  std::uint64_t suffix_records = 0;
};

/// Where CompactShardWal assembles the rewrite of \p wal_path before
/// renaming it over the WAL (a stray one is a crash mid-rewrite).
std::string CompactionTmpPath(const std::string& wal_path);

/// \brief Atomically copies the snapshot at \p snap_path to
/// \p anchor_path (tmp + fdatasync + rename). Compaction persists its
/// anchor this way BEFORE rewriting the WAL: later snapshots overwrite
/// `shard-<i>.snap` at horizons that may not yet be durable on every
/// shard, and the anchor at exactly the compaction base is what
/// recovery falls back to when that happens.
Status PersistAnchorCopy(const std::string& snap_path,
                         const std::string& anchor_path);

/// \brief Rewrites the WAL at \p wal_path to manifest + kCompaction +
/// the records past logical index \p base_records, via tmp+rename.
///
/// \p base_records / \p base_releases / \p base_users are the
/// anchoring snapshot's applied_records, horizon, and user count; they
/// are cross-checked against the log's actual prefix (a mismatch means
/// the snapshot does not describe this log and fails the rewrite —
/// nothing is modified). The log on disk must be clean (synced; no
/// torn tail). Idempotent: compacting an already-compacted log against
/// the same snapshot produces bitwise the same file.
StatusOr<CompactionResult> CompactShardWal(const std::string& wal_path,
                                           const ManifestRecord& manifest,
                                           std::uint64_t base_records,
                                           std::uint64_t base_releases,
                                           std::uint64_t base_users);

}  // namespace server
}  // namespace tcdp

#endif  // TCDP_SERVER_COMPACTION_H_
