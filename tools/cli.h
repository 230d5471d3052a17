#ifndef TCDP_TOOLS_CLI_H_
#define TCDP_TOOLS_CLI_H_

/// \file
/// The `tcdp` command-line tool, as a library so tests can drive it
/// in-process. Subcommands:
///
///   quantify  --matrix M.csv --epsilon 0.1 --horizon 10
///             [--backward B.csv] [--forward F.csv] [--schedule "a,b,c"]
///       Print the BPL/FPL/TPL timeline of a release sequence.
///
///   supremum  --matrix M.csv --epsilon 0.1
///       Theorem 5: the leakage supremum under a uniform budget.
///
///   allocate  --matrix M.csv --alpha 1.0 --horizon 20
///             [--strategy quantified|upper-bound|group]
///       Algorithms 2/3: a budget schedule achieving alpha-DP_T,
///       with its audit.
///
///   estimate  --trajectories T.csv [--states n] [--order k]
///             [--smoothing s] [--out F.csv] [--backward-out B.csv]
///       MLE of forward/backward correlations from trajectories.
///
///   fleet     [--users N] [--horizon T] [--epsilon E] [--pages n]
///             [--groups g] [--threads k] [--cache on|off]
///       Replays a synthetic multi-user clickstream workload through the
///       cohort-batched AccountantBank (shared loss cache + thread pool)
///       and prints throughput, leakage, and cache statistics.
///
///   serve     --script S.txt [--log-dir D] [--shards N]
///             [--batch-window W] [--snapshot-every K] [--sync-every Y]
///             [--auto-compact 1] [--compact-bytes B] [--compact-records R]
///             [--listen PORT] [--host H] [--port-file P]
///       Drives a scripted request stream (join/release/flush/snapshot/
///       compact/query) through the sharded release service; durable
///       when --log-dir is given. --auto-compact compacts WALs after
///       every snapshot; --compact-bytes/--compact-records bound the
///       per-shard on-disk WAL (docs/DURABILITY.md). With --listen the
///       service additionally accepts the binary wire protocol on a
///       TCP port (0 picks an ephemeral port, reported via --port-file)
///       until a client sends shutdown; --script becomes an optional
///       preload. --repl-listen PORT additionally streams the shard
///       WALs to subscribed followers (`tcdp follow`), making this
///       process a replication primary.
///
///   client    --port PORT --script S.txt [--host H] [--pipeline N]
///             [--shutdown 1]
///       Replays the serve script format against a remote server over
///       the wire protocol, pipelining requests N deep.
///
///   follow    --primary-port PORT --log-dir D [--primary-host H]
///             [--reconnect 0|1] [--promote 1] [--listen PORT]
///       Runs a replica: subscribes to a primary's --repl-listen WAL
///       stream, keeps a byte-identical local log directory, and acks
///       durable horizons. --promote 1 recovers the replica into a
///       serving primary when the stream ends (docs/REPLICATION.md).
///
///   route     [--journal F] [--add H:P] [--remove H:P]
///             [--migrate U --to H:P] [--clear U] [--lookup U]
///             [--endpoints 1] [--distribution N] [--serve PORT]
///       User -> shard-server placement: consistent hashing plus
///       journaled per-user migration pins; --serve answers lookups
///       over the wire protocol.
///
///   replay    --log-dir D [--verify 1]
///       Recovers a service from its write-ahead logs/snapshots and
///       reports what was restored; --verify re-derives every user's
///       series from an exported accountant blob and checks bitwise.
///
///   compact   --log-dir D
///       Recovers a service, rewrites every shard WAL to its snapshot
///       anchor plus the post-snapshot suffix (crash-safe tmp+rename),
///       and reports the before/after disk footprint.
///
///   bench     [--suite a,b] [--smoke] [--list] [--json out.json]
///             [--compare baseline.json] [--reps N] [--noise F]
///       The unified benchmark harness (src/bench/): runs the
///       registered suites, evaluates their acceptance gates, writes
///       one schema-stable BENCH.json, and optionally diffs it against
///       a committed baseline, failing on regressions beyond the
///       per-metric noise band. See docs/BENCHMARKING.md.
///
///   help
///
/// Matrix/trajectory file formats: see markov/io.h.

#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"

namespace tcdp {
namespace cli {

/// Executes one invocation. \p args excludes the program name.
/// Human-oriented results go to \p out; errors come back as Status.
Status Run(const std::vector<std::string>& args, std::ostream& out);

/// The help text (also printed by `tcdp help`).
std::string HelpText();

}  // namespace cli
}  // namespace tcdp

#endif  // TCDP_TOOLS_CLI_H_
