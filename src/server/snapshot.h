#ifndef TCDP_SERVER_SNAPSHOT_H_
#define TCDP_SERVER_SNAPSHOT_H_

/// \file
/// Shard snapshots: a point-in-time image of one shard's accountant
/// bank, written so recovery replays only the WAL suffix.
///
/// A snapshot is an event-log-framed file (same magic/CRC framing as
/// the WAL) holding, in order:
///
///   kSnapHeader    — applied WAL record count, horizon, user count
///   kSnapUser * U  — per user: name, join, running columns, and the
///                    "tcdp-accountant-v2" correlation blob
///   kSnapRelease*T — the global schedule: eps + participation row
///                    (word-RLE-packed) per historical release
///
/// Restore rebuilds the bank via AccountantBank::Restore — no loss
/// evaluations — and the recovered per-user series are bitwise
/// identical to the live ones. This module is the file's codec;
/// server/log_dir publishes it (WriteFileAtomic: a crash mid-snapshot
/// leaves the previous snapshot intact) after fdatasyncing the WAL, so
/// a snapshot never refers ahead of durable log state.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/accountant_bank.h"

namespace tcdp {
namespace server {

struct ShardSnapshot {
  /// WAL records (manifest included) reflected in this image; recovery
  /// replays WAL records at indices >= applied_records.
  std::uint64_t applied_records = 0;
  std::vector<std::string> names;  ///< aligned with bank.users
  AccountantBank::Image bank;
  /// Quantization, carried in the header record (so a zero-user
  /// shard's snapshot is self-describing); every per-user blob must
  /// agree with it.
  double alpha_resolution = -1.0;
};

/// \brief The bytes of the snapshot file holding \p snapshot.
/// InvalidArgument when its names and users disagree in number.
StatusOr<std::string> EncodeShardSnapshot(const ShardSnapshot& snapshot);

/// \brief Reads and validates a snapshot. Any framing, CRC, count, or
/// semantic mismatch returns a non-OK Status (callers treat a bad
/// snapshot as absent and fall back to full WAL replay).
StatusOr<ShardSnapshot> ReadShardSnapshot(const std::string& path);

}  // namespace server
}  // namespace tcdp

#endif  // TCDP_SERVER_SNAPSHOT_H_
