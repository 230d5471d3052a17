#ifndef TCDP_SERVER_LOG_DIR_H_
#define TCDP_SERVER_LOG_DIR_H_

/// \file
/// The durable log directory, known in one place: its file names, the
/// MANIFEST text, the record heading each shard WAL, the order a new
/// directory is committed in, a shard's durable operations (WAL sync,
/// snapshot, compaction) and crash recovery. The service's Create,
/// Recover and shard workers, the replication Follower and
/// LogStreamServer all go through here (docs/DURABILITY.md, "File
/// inventory"):
///
///   MANIFEST               service options; written last (the commit)
///   shard-<i>.wal          shard i's write-ahead log
///   shard-<i>.snap         shard i's newest snapshot
///   shard-<i>.snap.anchor  the snapshot a compacted WAL's base is at
///
/// Snapshots and compacted WALs are assembled in memory and published
/// by WriteFileAtomic (`<file>.tmp`, fdatasync, rename); an anchor is a
/// hard link to the snapshot file it pins, renamed into place. So one
/// module owns both sides of the snapshot/anchor protocol: the
/// order files are written in, the anchor a compaction picks, and the
/// checks recovery applies before trusting either file.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/accountant_bank.h"
#include "server/event_log.h"
#include "server/records.h"
#include "server/sharded_service.h"

namespace tcdp {
namespace server {

std::string ManifestPath(const std::string& dir);
std::string ShardWalPath(const std::string& dir, std::size_t shard);
std::string ShardSnapPath(const std::string& dir, std::size_t shard);
std::string ShardAnchorPath(const std::string& dir, std::size_t shard);

/// InvalidArgument when \p options would start more than
/// kMaxServiceThreads threads (each factor is bounded first, so the
/// product cannot overflow).
Status CheckThreadBound(const ShardedServiceOptions& options);

/// The MANIFEST text of a service run with \p options.
std::string FormatManifest(const ShardedServiceOptions& options);

/// The one MANIFEST parser. InvalidArgument, prefixed by \p origin,
/// for a bad header, a value that does not parse, a zero shard count,
/// batch window or queue capacity, a non-finite alpha_resolution, or
/// options past CheckThreadBound. Unknown keys are skipped; absent
/// ones keep their defaults.
StatusOr<ShardedServiceOptions> ParseManifest(const std::string& text,
                                              const std::string& origin);

/// Reads and parses \p dir's MANIFEST: NotFound when there is none.
/// When \p text is given it receives the file's bytes verbatim (what a
/// primary streams to its followers).
StatusOr<ShardedServiceOptions> ReadManifest(const std::string& dir,
                                             std::string* text = nullptr);

/// The kManifest record at the head of shard \p shard's WAL.
ManifestRecord ShardManifestRecord(const ShardedServiceOptions& options,
                                   std::size_t shard);

/// Lays down a new directory: creates \p dir (AlreadyExists if it has
/// a MANIFEST), creates and fdatasyncs every shard WAL, then publishes
/// \p manifest_text as the MANIFEST, the commit point: a failure
/// before it leaves no MANIFEST, and the next attempt starts over.
/// Each WAL holds its manifest record when \p manifest_records is set
/// (a new service), or only the magic (a replica, whose records arrive
/// over the stream). Returns the open writers, shard by shard.
StatusOr<std::vector<EventLogWriter>> CreateLogDir(
    const std::string& dir, const ShardedServiceOptions& options,
    const std::string& manifest_text, bool manifest_records);

/// Applies one WAL suffix record to \p bank and \p names: kAddUser
/// enrolls the user (any matrix size: logs written before the Join
/// bound still recover); kRelease records the global release for the
/// mask's shard-local participants, or everyone for an `all` mask.
/// Any other type is InvalidArgument: manifests, compaction markers
/// and snapshot records are prefix metadata, never replayed.
Status ApplyWalRecord(const EventRecord& record, AccountantBank* bank,
                      std::vector<std::string>* names);

/// The accounting state a shard runs on, and its files: what recovery
/// rebuilt from the directory, or EmptyShard plus a new WAL for Create.
struct ShardState {
  AccountantBank bank;
  /// Hybrid mode (threads_per_shard > 1): the pool the bank fans its
  /// column sweeps out to, replay included; the shard's own thread runs
  /// chunks too (declared after `bank`, so it joins first on
  /// destruction); null otherwise.
  std::unique_ptr<ThreadPool> bank_pool;
  std::vector<std::string> names;  ///< aligned with the bank's users
  std::string dir;                 ///< the log dir; empty = ephemeral
  std::size_t index = 0;           ///< this shard's number in it
  EventLogWriter wal;              ///< open for append at the cut
  std::uint64_t wal_records = 0;   ///< LOGICAL records, manifest included
  std::uint64_t replayed_records = 0;  ///< WAL records Recover applied
  bool restored_from_snapshot = false;
  /// The base counts (logical records, releases, users) of the newest
  /// snapshot known to describe this log, which is what
  /// `shard-<i>.snap` holds: set when a snapshot write succeeds or when
  /// recovery restores that file, never by a fallback to the anchor
  /// (the file then holds a snapshot past the cut). Compaction anchors
  /// on it, or writes a fresh snapshot while there is none.
  std::optional<CompactionRecord> snapshot_base;
  std::uint64_t releases_since_sync = 0;
  std::uint64_t releases_since_snapshot = 0;
  std::uint64_t snapshots_written = 0;
  std::uint64_t compactions = 0;  ///< WAL rewrites performed

  bool durable() const { return !dir.empty(); }
};

/// Shard \p index of a service run with \p options, with no users yet:
/// its bank, on its own pool in hybrid mode; its files live in \p dir
/// (empty for an ephemeral service).
ShardState EmptyShard(const ShardedServiceOptions& options,
                      const std::string& dir, std::size_t index);

/// fdatasyncs \p shard's WAL; nothing on an ephemeral shard.
Status SyncShardWal(ShardState* shard);

/// The durability policy after \p shard applied a logged release:
/// fdatasyncs the WAL every `sync_every` releases (else hands it to the
/// OS) and snapshots every `snapshot_every`. Nothing when ephemeral.
Status EndShardRelease(ShardState* shard,
                       const ShardedServiceOptions& options);

/// fdatasyncs the WAL, then publishes a snapshot of \p shard's state
/// as `shard-<i>.snap` and records its base. FailedPrecondition on an
/// ephemeral shard.
Status SnapshotShard(ShardState* shard);

/// Rewrites \p shard's WAL to manifest + kCompaction + the records past
/// its snapshot base (docs/DURABILITY.md, "Compaction"), writing a
/// snapshot first when the shard knows none. The prefix the base
/// declares is recounted against the log before the anchor or the WAL
/// changes; then the anchoring `shard-<i>.snap` is hard-linked as
/// `shard-<i>.snap.anchor`, and only then the rewritten WAL is
/// published. Rewriting an already compacted log against the same base
/// yields the same bytes. PRECONDITION: every
/// shard of the service has made the current horizon durable, so no
/// recovery can need a record beneath it. FailedPrecondition when
/// ephemeral.
Status CompactShard(ShardState* shard, const ShardedServiceOptions& options);

/// Recovery's directory work for a service run with \p options:
///   1. scan every shard WAL's valid prefix and take the minimum
///      common release horizon (a compacted WAL's base releases count);
///   2. per shard, cut the log at that horizon, keeping the joins right
///      after it, and remove stray temporaries;
///   3. restore the newest snapshot when it fits under the cut, or a
///      compacted shard's anchor; replay the WAL suffix past it;
///      only the snapshot sets the state's snapshot_base;
///   4. truncate the file at the cut and reopen it for append.
/// Steps 2-4 fan out over \p threads (0 = hardware_concurrency); the
/// result is bitwise the same at any count.
StatusOr<std::vector<ShardState>> RecoverShards(
    const std::string& dir, const ShardedServiceOptions& options,
    std::size_t threads);

}  // namespace server
}  // namespace tcdp

#endif  // TCDP_SERVER_LOG_DIR_H_
