#include "server/log_dir.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <sstream>
#include <thread>
#include <utility>

#include "common/atomic_file.h"
#include "common/thread_pool.h"
#include "obs/trace.h"
#include "server/snapshot.h"

namespace tcdp {
namespace server {
namespace {

constexpr char kManifestHeader[] = "tcdp-shard-manifest-v1";

std::string ShardPath(const std::string& dir, std::size_t shard,
                      const char* suffix) {
  return dir + "/shard-" + std::to_string(shard) + suffix;
}

AccountantBankOptions ShardBankOptions(const ShardedServiceOptions& options) {
  AccountantBankOptions bank;
  bank.share_loss_cache = options.share_loss_cache;
  bank.cache = options.cache;
  return bank;
}

}  // namespace

std::string ManifestPath(const std::string& dir) { return dir + "/MANIFEST"; }

std::string ShardWalPath(const std::string& dir, std::size_t shard) {
  return ShardPath(dir, shard, ".wal");
}

std::string ShardSnapPath(const std::string& dir, std::size_t shard) {
  return ShardPath(dir, shard, ".snap");
}

std::string ShardAnchorPath(const std::string& dir, std::size_t shard) {
  return ShardPath(dir, shard, ".snap.anchor");
}

// ---------------------------------------------------------------- MANIFEST

Status CheckThreadBound(const ShardedServiceOptions& options) {
  const std::size_t shards = std::max<std::size_t>(options.num_shards, 1);
  const std::size_t pool =
      options.threads_per_shard > 1 ? options.threads_per_shard : 0;
  if (shards > kMaxServiceThreads || pool > kMaxServiceThreads ||
      shards * (1 + pool) > kMaxServiceThreads) {
    return Status::InvalidArgument(
        "num_shards " + std::to_string(options.num_shards) +
        " x threads_per_shard " + std::to_string(options.threads_per_shard) +
        " needs more than " + std::to_string(kMaxServiceThreads) +
        " threads");
  }
  return Status::OK();
}

namespace {

/// Every MANIFEST key and the option it holds, in file order: calls
/// visit(key, field) with a std::size_t*, std::uint64_t*, double* or
/// bool* (const when \p options is).
template <typename Options, typename Visit>
void ForEachManifestKey(Options& options, Visit&& visit) {
  visit("shards", &options.num_shards);
  visit("batch_window", &options.batch_window);
  visit("queue_capacity", &options.queue_capacity);
  // Absent in pre-hybrid manifests (defaults to 1); 0 is clamped to 1
  // by the service constructor.
  visit("threads_per_shard", &options.threads_per_shard);
  visit("snapshot_every", &options.snapshot_every);
  visit("sync_every", &options.sync_every);
  visit("share_cache", &options.share_loss_cache);
  visit("alpha_resolution", &options.cache.alpha_resolution);
  visit("compact_after_snapshot", &options.compaction.after_snapshot);
  visit("compact_max_bytes", &options.compaction.max_wal_bytes);
  visit("compact_max_records", &options.compaction.max_wal_records);
}

}  // namespace

std::string FormatManifest(const ShardedServiceOptions& options) {
  std::ostringstream out;
  out.precision(17);
  out << kManifestHeader << "\n";
  // Flags print as 0/1 (no boolalpha), and read back the same way.
  ForEachManifestKey(options, [&out](const char* key, const auto* field) {
    out << key << " " << *field << "\n";
  });
  return out.str();
}

StatusOr<ShardedServiceOptions> ParseManifest(const std::string& text,
                                              const std::string& origin) {
  std::istringstream in(text);
  std::string header;
  if (!std::getline(in, header) || header != kManifestHeader) {
    return Status::InvalidArgument(origin + ": bad manifest header");
  }
  ShardedServiceOptions options;
  std::string key;
  while (in >> key) {
    bool known = false;
    bool parsed = false;
    ForEachManifestKey(options, [&](const char* name, auto* field) {
      if (known || key != name) return;
      known = true;
      parsed = static_cast<bool>(in >> *field);
    });
    if (!known) {
      // Unknown keys are forward-compatible: skip the value.
      std::string ignored;
      parsed = static_cast<bool>(in >> ignored);
    }
    // A value that fails to parse is corruption, not EOF: stopping
    // here would hand back defaults for every key not yet reached.
    if (!parsed) {
      return Status::InvalidArgument(origin + ": malformed value for '" +
                                     key + "'");
    }
  }
  if (options.num_shards == 0 || options.batch_window == 0 ||
      options.queue_capacity == 0 ||
      !std::isfinite(options.cache.alpha_resolution)) {
    return Status::InvalidArgument(origin + ": malformed manifest values");
  }
  TCDP_RETURN_IF_ERROR(CheckThreadBound(options));
  return options;
}

StatusOr<ShardedServiceOptions> ReadManifest(const std::string& dir,
                                             std::string* text) {
  const std::string path = ManifestPath(dir);
  TCDP_ASSIGN_OR_RETURN(std::string bytes, ReadFileWhole(path));
  TCDP_ASSIGN_OR_RETURN(ShardedServiceOptions options,
                        ParseManifest(bytes, path));
  if (text != nullptr) *text = std::move(bytes);
  return options;
}

ManifestRecord ShardManifestRecord(const ShardedServiceOptions& options,
                                   std::size_t shard) {
  ManifestRecord record;
  record.shard_index = shard;
  record.num_shards = options.num_shards;
  record.share_loss_cache = options.share_loss_cache;
  record.alpha_resolution = options.cache.alpha_resolution;
  return record;
}

ShardState EmptyShard(const ShardedServiceOptions& options,
                      const std::string& dir, std::size_t index) {
  ShardState shard;
  shard.dir = dir;
  shard.index = index;
  shard.bank = AccountantBank(ShardBankOptions(options));
  if (options.threads_per_shard > 1) {
    shard.bank_pool = std::make_unique<ThreadPool>(options.threads_per_shard);
    shard.bank.set_pool(shard.bank_pool.get());
  }
  return shard;
}

StatusOr<std::vector<EventLogWriter>> CreateLogDir(
    const std::string& dir, const ShardedServiceOptions& options,
    const std::string& manifest_text, bool manifest_records) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create log dir " + dir + ": " +
                            ec.message());
  }
  if (std::filesystem::exists(ManifestPath(dir))) {
    return Status::AlreadyExists(dir +
                                 " already holds a service (use Recover)");
  }
  std::vector<EventLogWriter> wals;
  wals.reserve(options.num_shards);
  for (std::size_t i = 0; i < options.num_shards; ++i) {
    TCDP_ASSIGN_OR_RETURN(EventLogWriter wal,
                          EventLogWriter::Create(ShardWalPath(dir, i)));
    if (manifest_records) {
      TCDP_RETURN_IF_ERROR(
          wal.Append(EventType::kManifest,
                     EncodeManifest(ShardManifestRecord(options, i))));
    }
    TCDP_RETURN_IF_ERROR(wal.Sync());
    wals.push_back(std::move(wal));
  }
  TCDP_RETURN_IF_ERROR(WriteFileAtomic(ManifestPath(dir), manifest_text));
  return wals;
}

// ------------------------------------------------------- shard operations

namespace {

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

/// Classifies \p log (a scanned shard WAL whose record 0 is the
/// manifest) as plain or compacted. Fails only when physical record 1
/// is a kCompaction record that does not decode.
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

/// The base a compaction anchored on \p image records.
CompactionRecord BaseOf(const ShardSnapshot& image) {
  CompactionRecord base;
  base.base_records = image.applied_records;
  base.base_releases = image.bank.schedule.size();
  base.base_users = image.bank.users.size();
  return base;
}

Status SyncWal(ShardState* shard) {
  TCDP_RETURN_IF_ERROR(shard->wal.Sync());
  shard->releases_since_sync = 0;
  return Status::OK();
}

/// SnapshotShard on a durable shard.
Status WriteSnapshot(ShardState* shard) {
  obs::ScopedSpan span("snapshot", "shard", shard->index);
  // The WAL must be on disk before a snapshot may claim to cover it.
  TCDP_RETURN_IF_ERROR(SyncWal(shard));
  ShardSnapshot snapshot;
  snapshot.applied_records = shard->wal_records;
  snapshot.names = shard->names;
  snapshot.bank = shard->bank.ExportImage();
  snapshot.alpha_resolution = shard->bank.cache_alpha_resolution();
  TCDP_ASSIGN_OR_RETURN(std::string bytes, EncodeShardSnapshot(snapshot));
  TCDP_RETURN_IF_ERROR(
      WriteFileAtomic(ShardSnapPath(shard->dir, shard->index), bytes));
  shard->snapshot_base = BaseOf(snapshot);
  ++shard->snapshots_written;
  shard->releases_since_snapshot = 0;
  return Status::OK();
}

/// Publishes shard-<i>.snap as shard-<i>.snap.anchor: a hard link made
/// at `.snap.anchor.tmp`, then renamed into place. Snapshots replace
/// `.snap` only by rename, so the linked inode keeps its bytes while
/// `.snap` moves on.
Status LinkAnchor(const ShardState& shard) {
  const std::string snap = ShardSnapPath(shard.dir, shard.index);
  const std::string anchor = ShardAnchorPath(shard.dir, shard.index);
  const std::string tmp = anchor + ".tmp";
  auto failed = [](const char* step, const std::string& path) {
    const int err = errno;
    return Status::Internal(std::string("CompactShard: ") + step + " " +
                            path + ": " + std::strerror(err));
  };
  // A tmp left by a crash would make link(2) fail with EEXIST.
  if (::unlink(tmp.c_str()) != 0 && errno != ENOENT) {
    return failed("unlink", tmp);
  }
  if (::link(snap.c_str(), tmp.c_str()) != 0) {
    return failed("link the snapshot as", tmp);
  }
  if (std::rename(tmp.c_str(), anchor.c_str()) != 0) {
    return failed("rename into place", tmp);
  }
  // When the anchor already linked this inode, rename(2) did nothing
  // and left the tmp name behind.
  if (::unlink(tmp.c_str()) != 0 && errno != ENOENT) {
    return failed("unlink", tmp);
  }
  return Status::OK();
}

/// The compacted form of the scanned WAL \p log against \p base:
/// manifest, kCompaction record, then every record past the base; its
/// record count goes to \p records. Refuses when the log is torn or
/// its prefix does not hold the releases and users \p base declares.
StatusOr<std::string> CompactedWal(const ReadLogResult& log,
                                   const ManifestRecord& manifest,
                                   const CompactionRecord& base,
                                   std::uint64_t* records) {
  if (!log.clean) {
    return Status::FailedPrecondition(
        "CompactShard: the WAL has a torn tail (" + log.tail_error +
        ") — sync and recover before compacting");
  }
  if (log.records.empty() || log.records[0].type != EventType::kManifest) {
    return Status::InvalidArgument("CompactShard: the WAL has no manifest");
  }
  TCDP_ASSIGN_OR_RETURN(WalBase prev, InspectWalBase(log));
  const std::uint64_t logical_count = prev.logical(log.records.size());
  if (base.base_records < 1 || base.base_records > logical_count ||
      base.base_records < prev.record.base_records) {
    return Status::InvalidArgument(
        "CompactShard: snapshot covers logical record " +
        std::to_string(base.base_records) + " of a log holding [" +
        std::to_string(prev.record.base_records) + ", " +
        std::to_string(logical_count) + ")");
  }
  // Physical index of the first record NOT replaced by the snapshot.
  const std::size_t replay_from = prev.physical(base.base_records);
  // Cross-check the base counts against the prefix actually on disk: a
  // snapshot that does not describe this log must not erase it.
  std::uint64_t releases = prev.record.base_releases;
  std::uint64_t users = prev.record.base_users;
  for (std::size_t r = prev.suffix_start; r < replay_from; ++r) {
    if (log.records[r].type == EventType::kRelease) ++releases;
    if (log.records[r].type == EventType::kAddUser) ++users;
  }
  if (releases != base.base_releases || users != base.base_users) {
    return Status::Internal(
        "CompactShard: snapshot declares " +
        std::to_string(base.base_releases) + " releases / " +
        std::to_string(base.base_users) +
        " users over its horizon but the log prefix holds " +
        std::to_string(releases) + " / " + std::to_string(users) +
        " — refusing to erase it");
  }
  std::string out(kEventLogMagic);
  TCDP_RETURN_IF_ERROR(AppendRecordFrame(&out, EventType::kManifest,
                                         EncodeManifest(manifest)));
  TCDP_RETURN_IF_ERROR(AppendRecordFrame(&out, EventType::kCompaction,
                                         EncodeCompaction(base)));
  for (std::size_t r = replay_from; r < log.records.size(); ++r) {
    const EventRecord& record = log.records[r];
    if (record.type != EventType::kAddUser &&
        record.type != EventType::kRelease) {
      return Status::InvalidArgument("CompactShard: suffix record " +
                                     std::to_string(r) +
                                     " has unexpected type");
    }
    TCDP_RETURN_IF_ERROR(AppendRecordFrame(&out, record.type, record.payload));
  }
  *records = 2 + (log.records.size() - replay_from);
  return out;
}

}  // namespace

Status SyncShardWal(ShardState* shard) {
  if (!shard->durable()) return Status::OK();
  obs::ScopedSpan span("wal_sync", "wal", shard->index);
  return SyncWal(shard);
}

Status EndShardRelease(ShardState* shard,
                       const ShardedServiceOptions& options) {
  if (!shard->durable()) return Status::OK();
  if (options.sync_every > 0 &&
      ++shard->releases_since_sync >= options.sync_every) {
    TCDP_RETURN_IF_ERROR(SyncWal(shard));
  } else {
    TCDP_RETURN_IF_ERROR(shard->wal.Flush());
  }
  if (options.snapshot_every > 0 &&
      ++shard->releases_since_snapshot >= options.snapshot_every) {
    return SnapshotShard(shard);
  }
  return Status::OK();
}

Status SnapshotShard(ShardState* shard) {
  if (!shard->durable()) {
    return Status::FailedPrecondition(
        "shard snapshot requested on an ephemeral service");
  }
  return WriteSnapshot(shard);
}

Status CompactShard(ShardState* shard, const ShardedServiceOptions& options) {
  if (!shard->durable()) {
    return Status::FailedPrecondition(
        "shard compaction requested on an ephemeral service");
  }
  obs::ScopedSpan span("compact", "shard", shard->index);
  // The file must be complete on disk before it is re-derived.
  TCDP_RETURN_IF_ERROR(SyncWal(shard));
  const std::string wal_path = ShardWalPath(shard->dir, shard->index);
  // The anchor: the snapshot the shard knows describes its log. Without
  // one (never snapshotted, or recovered from the anchor or by full
  // replay, when shard-<i>.snap may lie past this log), or when that
  // file has gone, write a fresh one: the precondition made this
  // horizon durable on every shard.
  std::error_code ec;
  if (!shard->snapshot_base.has_value() ||
      !std::filesystem::exists(ShardSnapPath(shard->dir, shard->index), ec)) {
    TCDP_RETURN_IF_ERROR(WriteSnapshot(shard));
  }
  TCDP_ASSIGN_OR_RETURN(ReadLogResult log, ReadEventLog(wal_path));
  std::uint64_t records = 0;
  TCDP_ASSIGN_OR_RETURN(
      const std::string compacted,
      CompactedWal(log, ShardManifestRecord(options, shard->index),
                   *shard->snapshot_base, &records));
  // Publish the anchor BEFORE the WAL loses its prefix: later snapshots
  // overwrite shard-<i>.snap at horizons that may not yet be durable on
  // every shard, and recovery falls back to this link when the newer
  // snapshot does not fit under the common horizon. A crash between
  // the two renames leaves an uncompacted log with a harmless anchor
  // (recovery removes it).
  TCDP_RETURN_IF_ERROR(LinkAnchor(*shard));
  TCDP_RETURN_IF_ERROR(WriteFileAtomic(wal_path, compacted));
  // Move the writer onto the rewritten file (closing the old fd, whose
  // inode the rename orphaned). Logical wal_records is untouched —
  // compaction changes disk layout, not history.
  TCDP_ASSIGN_OR_RETURN(shard->wal, EventLogWriter::OpenForAppend(
                                        wal_path, compacted.size(), records));
  ++shard->compactions;
  return Status::OK();
}

// ---------------------------------------------------------------- recovery

Status ApplyWalRecord(const EventRecord& record, AccountantBank* bank,
                      std::vector<std::string>* names) {
  if (record.type == EventType::kAddUser) {
    TCDP_ASSIGN_OR_RETURN(AddUserRecord add, DecodeAddUser(record.payload));
    bank->AddUser(std::move(add.image.correlations));
    names->push_back(std::move(add.name));
    return Status::OK();
  }
  if (record.type == EventType::kRelease) {
    TCDP_ASSIGN_OR_RETURN(ReleaseRecord release,
                          DecodeRelease(record.payload));
    if (release.all) {
      return bank->RecordRelease(release.epsilon);
    }
    // A bit past the enrolled users selects nobody, as in Restore.
    std::vector<std::size_t> participants;
    release.mask.ForEachSetBit([&](std::size_t u) {
      if (u < names->size()) participants.push_back(u);
    });
    return bank->RecordRelease(release.epsilon, participants);
  }
  return Status::InvalidArgument(
      "ApplyWalRecord: unexpected record type " +
      std::to_string(static_cast<int>(record.type)));
}

namespace {

/// Reads the snapshot image at \p path and, when \p fit accepts it,
/// restores it into \p shard. \p fit returns the physical WAL index
/// replay resumes at, or why the image does not belong under the cut;
/// any refusal leaves \p shard as it was.
StatusOr<std::size_t> RestoreImage(
    const std::string& path,
    const std::function<StatusOr<std::size_t>(const ShardSnapshot&)>& fit,
    const AccountantBankOptions& bank_options, ShardState* shard) {
  TCDP_ASSIGN_OR_RETURN(ShardSnapshot image, ReadShardSnapshot(path));
  TCDP_ASSIGN_OR_RETURN(const std::size_t replay_from, fit(image));
  const CompactionRecord base = BaseOf(image);
  TCDP_ASSIGN_OR_RETURN(AccountantBank bank,
                        AccountantBank::Restore(std::move(image.bank),
                                                bank_options));
  shard->snapshot_base = base;
  shard->bank = std::move(bank);
  shard->bank.set_pool(shard->bank_pool.get());
  shard->names = std::move(image.names);
  shard->restored_from_snapshot = true;
  return replay_from;
}

/// Steps 2-4 of RecoverShards for shard \p i, whose scanned WAL is
/// \p log with base \p base, cut at the common \p horizon.
StatusOr<ShardState> RecoverShard(const std::string& dir, std::size_t i,
                                  const ReadLogResult& log, const WalBase& base,
                                  std::size_t horizon,
                                  const ShardedServiceOptions& options) {
  obs::ScopedSpan span("recover_shard", "recovery", i);
  const std::size_t base_releases =
      static_cast<std::size_t>(base.record.base_releases);
  if (horizon < base_releases) {
    // Another shard's durable log ends below this shard's compaction
    // floor. Compact() makes every shard durable at the compaction
    // horizon before any rewrite, so reaching here means the logs
    // were tampered with or compacted by a broken external tool.
    return Status::FailedPrecondition(
        "shard " + std::to_string(i) + " is compacted at horizon " +
        std::to_string(base_releases) +
        " but the common durable horizon is only " +
        std::to_string(horizon) + " — the shards cannot be aligned");
  }
  // The cut: every record through the horizon's release, then the
  // joins right after it (shard-local facts: those users exist with an
  // empty series).
  std::size_t keep = base.suffix_start;
  for (std::size_t releases = base_releases;
       releases < horizon && keep < log.records.size(); ++keep) {
    if (log.records[keep].type == EventType::kRelease) ++releases;
  }
  while (keep < log.records.size() &&
         log.records[keep].type == EventType::kAddUser) {
    ++keep;
  }
  const std::uint64_t logical_keep = base.logical(keep);

  // Stray temporaries from a crash mid-snapshot/mid-compaction are
  // dead weight; the durable files are the only truth. Builds before
  // WriteFileAtomic published compacted WALs left `.wal.compact.tmp`.
  // An anchor next to an UNCOMPACTED log is dead weight too (the
  // compaction that wrote it never renamed its WAL into place).
  const std::string wal_path = ShardWalPath(dir, i);
  const std::string snap_path = ShardSnapPath(dir, i);
  const std::string anchor_path = ShardAnchorPath(dir, i);
  std::error_code ignored;
  for (const std::string& stray :
       {snap_path + ".tmp", anchor_path + ".tmp", wal_path + ".tmp",
        wal_path + ".compact.tmp"}) {
    std::filesystem::remove(stray, ignored);
  }
  if (!base.compacted) std::filesystem::remove(anchor_path, ignored);

  ShardState shard = EmptyShard(options, dir, i);
  const AccountantBankOptions bank_options = ShardBankOptions(options);
  const double alpha_resolution = shard.bank.cache_alpha_resolution();
  // The snapshot fits when it covers a prefix of the cut whose release
  // count and quantization it agrees with.
  auto snapshot_fit =
      [&](const ShardSnapshot& image) -> StatusOr<std::size_t> {
    if (image.applied_records > logical_keep ||
        image.applied_records < base.record.base_records ||
        image.bank.schedule.size() > horizon) {
      return Status::FailedPrecondition(
          "snapshot does not fit under the common horizon");
    }
    const std::size_t snap_end = base.physical(image.applied_records);
    std::size_t covered = base_releases;
    for (std::size_t r = base.suffix_start; r < snap_end; ++r) {
      if (log.records[r].type == EventType::kRelease) ++covered;
    }
    if (covered != image.bank.schedule.size() ||
        image.alpha_resolution != alpha_resolution) {
      return Status::FailedPrecondition(
          "snapshot horizon/quantization disagrees with the WAL prefix");
    }
    return snap_end;
  };
  // The anchor sits at exactly the compaction base, which the
  // compaction invariants made durable on every shard.
  auto anchor_fit = [&](const ShardSnapshot& image) -> StatusOr<std::size_t> {
    if (image.applied_records != base.record.base_records ||
        image.bank.schedule.size() != base_releases ||
        image.alpha_resolution != alpha_resolution) {
      return Status::FailedPrecondition(
          "anchor does not sit at the compaction base");
    }
    return base.suffix_start;
  };
  // An uncompacted shard whose snapshot is unusable replays its whole
  // log. A compacted shard CANNOT (its prefix exists only as the
  // snapshot or its anchor), so there a bad pair fails recovery loudly
  // instead of resurrecting partial state.
  StatusOr<std::size_t> replay_from =
      RestoreImage(snap_path, snapshot_fit, bank_options, &shard);
  if (!replay_from.ok() && base.compacted) {
    const StatusOr<std::size_t> anchored =
        RestoreImage(anchor_path, anchor_fit, bank_options, &shard);
    // The anchor describes this log, but shard-<i>.snap does not: the
    // shard knows no snapshot until it writes one.
    shard.snapshot_base.reset();
    if (!anchored.ok()) {
      return Status::FailedPrecondition(
          "shard " + std::to_string(i) +
          " is compacted but neither its snapshot nor its anchor is "
          "usable (" + replay_from.status().ToString() +
          "; anchor: " + anchored.status().ToString() +
          ") — the compacted prefix cannot be replayed");
    }
    replay_from = anchored;
  }

  for (std::size_t r = replay_from.value_or(base.suffix_start); r < keep;
       ++r) {
    const Status applied =
        ApplyWalRecord(log.records[r], &shard.bank, &shard.names);
    if (!applied.ok()) {
      return Status(applied.code(), "shard " + std::to_string(i) +
                                        " WAL record " + std::to_string(r) +
                                        ": " + applied.message());
    }
    ++shard.replayed_records;
  }

  const std::uint64_t resume_offset =
      keep > 0 ? log.record_end[keep - 1] : log.valid_bytes;
  TCDP_RETURN_IF_ERROR(TruncateFile(wal_path, resume_offset));
  TCDP_ASSIGN_OR_RETURN(
      shard.wal, EventLogWriter::OpenForAppend(wal_path, resume_offset, keep));
  shard.wal_records = logical_keep;
  return shard;
}

}  // namespace

StatusOr<std::vector<ShardState>> RecoverShards(
    const std::string& dir, const ShardedServiceOptions& options,
    std::size_t threads) {
  const std::size_t num_shards = options.num_shards;
  // Pass 1: scan every shard's valid WAL prefix and find the minimum
  // common horizon — a global release is committed only when every
  // shard holds it. A compacted WAL's base releases count toward its
  // horizon (they are durable inside the shard snapshot).
  std::vector<ReadLogResult> logs(num_shards);
  std::vector<WalBase> bases(num_shards);
  std::size_t horizon = SIZE_MAX;
  for (std::size_t i = 0; i < num_shards; ++i) {
    TCDP_ASSIGN_OR_RETURN(logs[i], ReadEventLog(ShardWalPath(dir, i)));
    const ReadLogResult& log = logs[i];
    if (log.records.empty() || log.records[0].type != EventType::kManifest) {
      return Status::InvalidArgument("shard " + std::to_string(i) +
                                     " WAL has no manifest record");
    }
    TCDP_ASSIGN_OR_RETURN(ManifestRecord manifest,
                          DecodeManifest(log.records[0].payload));
    if (manifest.shard_index != i || manifest.num_shards != num_shards) {
      return Status::InvalidArgument(
          "shard " + std::to_string(i) +
          " WAL manifest disagrees with the directory MANIFEST");
    }
    TCDP_ASSIGN_OR_RETURN(bases[i], InspectWalBase(log));
    std::size_t releases =
        static_cast<std::size_t>(bases[i].record.base_releases);
    for (std::size_t r = bases[i].suffix_start; r < log.records.size(); ++r) {
      if (log.records[r].type == EventType::kRelease) ++releases;
    }
    horizon = std::min(horizon, releases);
  }
  if (horizon == SIZE_MAX) horizon = 0;

  // Pass 2: shards share no state (each owns its bank, cache, WAL and
  // snapshot), so they recover in parallel.
  std::vector<ShardState> recovered(num_shards);
  std::vector<Status> shard_status(num_shards, Status::OK());
  auto recover_range = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      StatusOr<ShardState> shard =
          RecoverShard(dir, i, logs[i], bases[i], horizon, options);
      if (shard.ok()) {
        recovered[i] = std::move(shard).value();
      } else {
        shard_status[i] = shard.status();
      }
    }
  };
  if (threads == 0) threads = std::thread::hardware_concurrency();
  ThreadPool pool(std::max<std::size_t>(1, std::min(threads, num_shards)));
  pool.ParallelForRange(0, num_shards, recover_range, /*grain=*/1);
  for (const Status& status : shard_status) {
    TCDP_RETURN_IF_ERROR(status);
  }
  return recovered;
}

}  // namespace server
}  // namespace tcdp
