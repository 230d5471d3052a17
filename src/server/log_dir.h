#ifndef TCDP_SERVER_LOG_DIR_H_
#define TCDP_SERVER_LOG_DIR_H_

/// \file
/// The durable log directory, known in one place: its file names, the
/// MANIFEST text, the record heading each shard WAL, the order a new
/// directory is committed in, and crash recovery. The service's Create
/// and Recover, the replication Follower and LogStreamServer all go
/// through here (docs/DURABILITY.md, "File inventory"):
///
///   MANIFEST               service options; written last (the commit)
///   shard-<i>.wal          shard i's write-ahead log
///   shard-<i>.snap         shard i's newest snapshot
///   shard-<i>.snap.anchor  the snapshot a compacted WAL's base is at

#include <cstddef>
#include <cstdint>
#include <memory>
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

/// The accounting state a shard runs on: what recovery rebuilt from
/// the directory, or EmptyShard plus a new WAL for Create.
struct ShardState {
  AccountantBank bank;
  /// Hybrid mode (threads_per_shard > 1): the pool the bank fans its
  /// column sweeps out to, replay included (declared after `bank`, so
  /// it joins first on destruction); null otherwise.
  std::unique_ptr<ThreadPool> bank_pool;
  std::vector<std::string> names;  ///< aligned with the bank's users
  EventLogWriter wal;              ///< open for append at the cut
  std::uint64_t wal_records = 0;   ///< LOGICAL records, manifest included
  std::uint64_t replayed_records = 0;  ///< WAL records Recover applied
  bool restored_from_snapshot = false;
};

/// A shard of a service run with \p options with no users yet: its
/// bank, on its own pool in hybrid mode.
ShardState EmptyShard(const ShardedServiceOptions& options);

/// Recovery's directory work for a service run with \p options:
///   1. scan every shard WAL's valid prefix and take the minimum
///      common release horizon (a compacted WAL's base releases count);
///   2. per shard, cut the log at that horizon, keeping the joins right
///      after it, and remove stray temporaries;
///   3. restore the newest snapshot when it fits under the cut, or a
///      compacted shard's anchor; replay the WAL suffix past it;
///   4. truncate the file at the cut and reopen it for append.
/// Steps 2-4 fan out over \p threads (0 = hardware_concurrency); the
/// result is bitwise the same at any count.
StatusOr<std::vector<ShardState>> RecoverShards(
    const std::string& dir, const ShardedServiceOptions& options,
    std::size_t threads);

}  // namespace server
}  // namespace tcdp

#endif  // TCDP_SERVER_LOG_DIR_H_
