#include "server/compaction.h"

#include <cstdio>

#include "common/atomic_file.h"

namespace tcdp {
namespace server {

Status PersistAnchorCopy(const std::string& snap_path,
                         const std::string& anchor_path) {
  TCDP_ASSIGN_OR_RETURN(const std::string bytes, ReadFileWhole(snap_path));
  return WriteFileAtomic(anchor_path, bytes);
}

std::string CompactionTmpPath(const std::string& wal_path) {
  return wal_path + ".compact.tmp";
}

StatusOr<WalBase> InspectWalBase(const ReadLogResult& log) {
  WalBase base;
  if (log.records.size() < 2 ||
      log.records[1].type != EventType::kCompaction) {
    return base;  // plain log: logical == physical
  }
  TCDP_ASSIGN_OR_RETURN(base.record,
                        DecodeCompaction(log.records[1].payload));
  base.compacted = true;
  base.suffix_start = 2;
  return base;
}

StatusOr<CompactionResult> CompactShardWal(const std::string& wal_path,
                                           const ManifestRecord& manifest,
                                           std::uint64_t base_records,
                                           std::uint64_t base_releases,
                                           std::uint64_t base_users) {
  TCDP_ASSIGN_OR_RETURN(ReadLogResult log, ReadEventLog(wal_path));
  if (!log.clean) {
    return Status::FailedPrecondition(
        "CompactShardWal: " + wal_path + " has a torn tail (" +
        log.tail_error + ") — sync and recover before compacting");
  }
  if (log.records.empty() ||
      log.records[0].type != EventType::kManifest) {
    return Status::InvalidArgument("CompactShardWal: " + wal_path +
                                   " has no manifest record");
  }
  TCDP_ASSIGN_OR_RETURN(WalBase prev, InspectWalBase(log));
  const std::uint64_t logical_count = prev.logical(log.records.size());
  if (base_records < 1 || base_records > logical_count ||
      base_records < prev.record.base_records) {
    return Status::InvalidArgument(
        "CompactShardWal: snapshot covers logical record " +
        std::to_string(base_records) + " of a log holding [" +
        std::to_string(prev.record.base_records) + ", " +
        std::to_string(logical_count) + ")");
  }
  // Physical index of the first record NOT replaced by the snapshot.
  const std::size_t replay_from = prev.physical(base_records);
  // Cross-check the base counts against the prefix actually on disk: a
  // snapshot that does not describe this log must not erase it.
  std::uint64_t releases = prev.record.base_releases;
  std::uint64_t users = prev.record.base_users;
  for (std::size_t r = prev.suffix_start; r < replay_from; ++r) {
    if (log.records[r].type == EventType::kRelease) ++releases;
    if (log.records[r].type == EventType::kAddUser) ++users;
  }
  if (releases != base_releases || users != base_users) {
    return Status::Internal(
        "CompactShardWal: snapshot declares " +
        std::to_string(base_releases) + " releases / " +
        std::to_string(base_users) + " users over its horizon but the log "
        "prefix holds " + std::to_string(releases) + " / " +
        std::to_string(users) + " — refusing to erase it");
  }
  for (std::size_t r = replay_from; r < log.records.size(); ++r) {
    if (log.records[r].type != EventType::kAddUser &&
        log.records[r].type != EventType::kRelease) {
      return Status::InvalidArgument(
          "CompactShardWal: suffix record " + std::to_string(r) +
          " has unexpected type");
    }
  }

  CompactionRecord compaction;
  compaction.base_records = base_records;
  compaction.base_releases = base_releases;
  compaction.base_users = base_users;

  const std::string tmp_path = CompactionTmpPath(wal_path);
  TCDP_ASSIGN_OR_RETURN(EventLogWriter writer,
                        EventLogWriter::Create(tmp_path));
  TCDP_RETURN_IF_ERROR(
      writer.Append(EventType::kManifest, EncodeManifest(manifest)));
  TCDP_RETURN_IF_ERROR(
      writer.Append(EventType::kCompaction, EncodeCompaction(compaction)));
  for (std::size_t r = replay_from; r < log.records.size(); ++r) {
    TCDP_RETURN_IF_ERROR(
        writer.Append(log.records[r].type, log.records[r].payload));
  }
  TCDP_RETURN_IF_ERROR(writer.Sync());
  CompactionResult result;
  result.bytes_before = log.valid_bytes;
  result.bytes_after = writer.bytes_written();
  result.physical_records = writer.records_written();
  result.suffix_records = log.records.size() - replay_from;
  TCDP_RETURN_IF_ERROR(writer.Close());
  if (std::rename(tmp_path.c_str(), wal_path.c_str()) != 0) {
    return Status::Internal("CompactShardWal: rename to " + wal_path +
                            " failed");
  }
  return result;
}

}  // namespace server
}  // namespace tcdp
