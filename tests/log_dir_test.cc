// The log directory (server/log_dir.h): the MANIFEST bytes Create
// writes, pinned against a capture from before the format moved into
// one module, the one parser's round trip and refusals, and the WAL
// instruments seeing only WAL writes when a shard snapshots or
// compacts.

#include "server/log_dir.h"

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "common/atomic_file.h"
#include "markov/stochastic_matrix.h"
#include "obs/metrics.h"
#include "server/sharded_service.h"

namespace tcdp {
namespace server {
namespace {

constexpr char kGoldenManifest[] =
    "tcdp-shard-manifest-v1\n"
    "shards 3\n"
    "batch_window 7\n"
    "queue_capacity 33\n"
    "threads_per_shard 2\n"
    "snapshot_every 5\n"
    "sync_every 2\n"
    "share_cache 0\n"
    "alpha_resolution 9.9999999999999995e-08\n"
    "compact_after_snapshot 1\n"
    "compact_max_bytes 1048576\n"
    "compact_max_records 4096\n";

ShardedServiceOptions GoldenOptions() {
  ShardedServiceOptions options;
  options.num_shards = 3;
  options.batch_window = 7;
  options.queue_capacity = 33;
  options.threads_per_shard = 2;
  options.snapshot_every = 5;
  options.sync_every = 2;
  options.share_loss_cache = false;
  options.cache.alpha_resolution = 1e-7;
  options.compaction.after_snapshot = true;
  options.compaction.max_wal_bytes = 1 << 20;
  options.compaction.max_wal_records = 4096;
  return options;
}

TEST(LogDirManifest, CreateWritesTheGoldenBytes) {
  const std::string dir = "/tmp/tcdp_log_dir_golden";
  std::filesystem::remove_all(dir);
  auto service = ShardedReleaseService::Create(dir, GoldenOptions());
  ASSERT_TRUE(service.ok()) << service.status();
  ASSERT_TRUE((*service)->Close().ok());
  auto bytes = ReadFileWhole(ManifestPath(dir));
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  EXPECT_EQ(*bytes, kGoldenManifest);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_TRUE(std::filesystem::exists(ShardWalPath(dir, s))) << s;
  }
  std::filesystem::remove_all(dir);
}

TEST(LogDirManifest, ParserRoundTripsTheGoldenText) {
  auto parsed = ParseManifest(kGoldenManifest, "golden");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const ShardedServiceOptions want = GoldenOptions();
  EXPECT_EQ(parsed->num_shards, want.num_shards);
  EXPECT_EQ(parsed->batch_window, want.batch_window);
  EXPECT_EQ(parsed->queue_capacity, want.queue_capacity);
  EXPECT_EQ(parsed->threads_per_shard, want.threads_per_shard);
  EXPECT_EQ(parsed->snapshot_every, want.snapshot_every);
  EXPECT_EQ(parsed->sync_every, want.sync_every);
  EXPECT_EQ(parsed->share_loss_cache, want.share_loss_cache);
  EXPECT_EQ(parsed->cache.alpha_resolution, want.cache.alpha_resolution);
  EXPECT_EQ(parsed->compaction.after_snapshot,
            want.compaction.after_snapshot);
  EXPECT_EQ(parsed->compaction.max_wal_bytes,
            want.compaction.max_wal_bytes);
  EXPECT_EQ(parsed->compaction.max_wal_records,
            want.compaction.max_wal_records);
  EXPECT_EQ(FormatManifest(*parsed), kGoldenManifest);
}

TEST(LogDirManifest, ParserSkipsUnknownKeysAndKeepsDefaultsForAbsentOnes) {
  auto parsed = ParseManifest(
      "tcdp-shard-manifest-v1\nshards 2\nfuture_key 9\n", "short");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->num_shards, 2u);
  const ShardedServiceOptions defaults;
  EXPECT_EQ(parsed->threads_per_shard, defaults.threads_per_shard);
  EXPECT_EQ(parsed->batch_window, defaults.batch_window);
}

// A bad or missing header, a value that does not parse (flags are 0 or
// 1), zero shards or queue capacity, and too many shards or threads.
TEST(LogDirManifest, ParserRefusesMalformedText) {
  const std::string header = "tcdp-shard-manifest-v1\n";
  const std::string cases[] = {
      "tcdp-shard-manifest-v2\nshards 1\n",
      "",
      header + "shards x\n",
      header + "batch_window\n",
      header + "share_cache 2\n",
      header + "shards 0\n",
      header + "queue_capacity 0\n",
      header + "shards " + std::to_string(kMaxServiceThreads + 1) + "\n",
      header + "shards 1\nthreads_per_shard " +
          std::to_string(kMaxServiceThreads) + "\n",
  };
  for (const std::string& text : cases) {
    auto parsed = ParseManifest(text, "origin");
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

TEST(LogDirManifest, ReadManifestNamesTheMissingFile) {
  const std::string dir = "/tmp/tcdp_log_dir_missing";
  std::filesystem::remove_all(dir);
  auto read = ReadManifest(dir);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
  EXPECT_NE(read.status().message().find(ManifestPath(dir)),
            std::string::npos);
}

/// The process-wide WAL instruments (server/event_log.cc).
struct WalCounts {
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  std::uint64_t fsyncs = 0;

  static WalCounts Now() {
    obs::Registry& registry = obs::Registry::Default();
    return {registry.GetCounter("tcdp_wal_appended_records_total")->value(),
            registry.GetCounter("tcdp_wal_appended_bytes_total")->value(),
            registry.GetHistogram("tcdp_wal_fsync_seconds")->Snapshot().count()};
  }
};

TEST(LogDirShard, WalInstrumentsCountOnlyTheWal) {
  // Snapshots and compacted WALs are published whole, not appended
  // through the WAL writer, so the WAL's append and fsync instruments
  // (fsyncs per release, the watchdog's WAL p99) see only the WAL.
  const std::string dir = "/tmp/tcdp_log_dir_wal_obs";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(obs::MetricsEnabled());
  auto service = ShardedReleaseService::Create(dir, ShardedServiceOptions{});
  ASSERT_TRUE(service.ok()) << service.status();
  const StochasticMatrix m =
      StochasticMatrix::FromRows({{0.8, 0.2}, {0.1, 0.9}});
  for (int u = 0; u < 50; ++u) {
    ASSERT_TRUE((*service)
                    ->Join("u" + std::to_string(u),
                           TemporalCorrelations::Both(m, m).value())
                    .ok());
  }
  for (int t = 0; t < 20; ++t) {
    ASSERT_TRUE((*service)->ReleaseAll(0.1).ok());
  }
  ASSERT_TRUE((*service)->Flush().ok());

  const WalCounts before = WalCounts::Now();
  ASSERT_TRUE((*service)->Snapshot().ok());
  const WalCounts snapped = WalCounts::Now();
  EXPECT_EQ(snapped.records, before.records);
  EXPECT_EQ(snapped.bytes, before.bytes);
  // The one WAL sync a snapshot needs before it may cover the log.
  EXPECT_EQ(snapped.fsyncs, before.fsyncs + 1);

  ASSERT_TRUE((*service)->Compact().ok());
  const WalCounts compacted = WalCounts::Now();
  EXPECT_EQ(compacted.records, snapped.records);
  EXPECT_EQ(compacted.bytes, snapped.bytes);
  ASSERT_EQ((*service)->shard_stats(0).compactions, 1u);
  ASSERT_TRUE((*service)->Close().ok());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace server
}  // namespace tcdp
