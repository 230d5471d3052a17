#ifndef TCDP_BENCH_SUITES_SUITES_H_
#define TCDP_BENCH_SUITES_SUITES_H_

/// \file
/// Registration hooks for the built-in benchmark suites. Each lives in
/// its own translation unit under src/bench/suites/; RegisterAllSuites
/// (bench/harness.h) wires them all in execution order.

#include "bench/harness.h"

namespace tcdp {
namespace bench {

// CRC-32 microbenchmark: the table path vs the path Crc32 dispatches
// to, gated to agree bitwise.
void RegisterKernelsSuite(Harness* harness);

// Throughput / systems suites (ported from the standalone
// bench_fleet_throughput / bench_shard_service / bench_net_throughput
// emitters, acceptance gates preserved).
void RegisterFleetSuite(Harness* harness);
void RegisterShardSuite(Harness* harness);
void RegisterNetSuite(Harness* harness);

// WAL-streaming replication (ISSUE 10): follower drain rate vs local
// ingest, byte-identical convergence, failover (promotion) time.
void RegisterReplSuite(Harness* harness);

// Paper reproduction suites (docs/PAPER_RESULTS.md maps each to its
// figure/claim).
void RegisterFig3Suite(Harness* harness);
void RegisterFig4Suite(Harness* harness);
void RegisterFig5Suite(Harness* harness);
void RegisterFig6Suite(Harness* harness);
void RegisterFig7Suite(Harness* harness);
void RegisterFig8Suite(Harness* harness);
void RegisterTable2Suite(Harness* harness);
void RegisterWEventSuite(Harness* harness);

// Implementation ablations (Algorithm 1 vs LFP routes, pair solvers,
// supremum routes).
void RegisterAblationSuite(Harness* harness);

// Observability overhead (ISSUE 8): instrumented vs uninstrumented
// service throughput, bitwise TPL invariance.
void RegisterObsSuite(Harness* harness);

}  // namespace bench
}  // namespace tcdp

#endif  // TCDP_BENCH_SUITES_SUITES_H_
