// The log directory (server/log_dir.h): the MANIFEST bytes Create
// writes, pinned against a capture from before the format moved into
// one module, the one parser's round trip and refusals, the WAL
// instruments seeing only WAL writes when a shard snapshots or
// compacts, and group commit: a run of queued releases shares one
// fdatasync, at the `sync_every` cadence and within its forced bound.

#include "server/log_dir.h"

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/atomic_file.h"
#include "core/loss_cache.h"
#include "core/tpl_accountant.h"
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

/// A one-shard durable service (so the process-wide fsync count is
/// that shard's) on a fresh \p dir, every request its own window.
std::unique_ptr<ShardedReleaseService> GroupService(const std::string& dir,
                                                    std::size_t sync_every,
                                                    std::size_t capacity) {
  std::filesystem::remove_all(dir);
  ShardedServiceOptions options;
  options.batch_window = 1;
  options.sync_every = sync_every;
  options.queue_capacity = capacity;
  auto service = ShardedReleaseService::Create(dir, options);
  EXPECT_TRUE(service.ok()) << service.status();
  return service.ok() ? std::move(*service) : nullptr;
}

TemporalCorrelations GroupProfile(std::size_t which) {
  const StochasticMatrix m =
      which % 2 == 0 ? StochasticMatrix::FromRows({{0.8, 0.2}, {0.0, 1.0}})
                     : StochasticMatrix::FromRows({{0.6, 0.4}, {0.3, 0.7}});
  return TemporalCorrelations::Both(m, m).value();
}

std::string GroupUser(std::size_t u) { return "g" + std::to_string(u); }

TEST(LogDirGroupCommit, AQueuedRunOfReleasesSharesOneSync) {
  const std::string dir = "/tmp/tcdp_log_dir_group";
  ASSERT_TRUE(obs::MetricsEnabled());
  auto service = GroupService(dir, /*sync_every=*/1, /*capacity=*/256);
  ASSERT_NE(service, nullptr);
  for (std::size_t u = 0; u < 20; ++u) {
    ASSERT_TRUE(service->Join(GroupUser(u), GroupProfile(u)).ok());
  }
  ASSERT_TRUE(service->Flush().ok());

  // Held, the worker pops the first release and waits; the other 19
  // queue behind it. Each finds another queued until the last.
  constexpr std::size_t kQueued = 20;
  const WalCounts before = WalCounts::Now();
  service->SetShardStallForTesting(0, true);
  for (std::size_t t = 0; t < kQueued; ++t) {
    ASSERT_TRUE(service->ReleaseAll(0.1).ok());
  }
  service->SetShardStallForTesting(0, false);
  ASSERT_TRUE(service->Flush().ok());
  const WalCounts grouped = WalCounts::Now();
  EXPECT_EQ(grouped.fsyncs, before.fsyncs + 1);
  EXPECT_EQ(service->horizon(), kQueued);

  // A join ends a run: it pays the sync the releases before it owe,
  // then the releases after it form a run of their own.
  service->SetShardStallForTesting(0, true);
  for (std::size_t t = 0; t < 5; ++t) {
    ASSERT_TRUE(service->ReleaseAll(0.1).ok());
  }
  ASSERT_TRUE(service->Join("late", GroupProfile(0)).ok());
  for (std::size_t t = 0; t < 5; ++t) {
    ASSERT_TRUE(service->ReleaseAll(0.2).ok());
  }
  service->SetShardStallForTesting(0, false);
  ASSERT_TRUE(service->Flush().ok());
  EXPECT_EQ(WalCounts::Now().fsyncs, grouped.fsyncs + 2);
  ASSERT_TRUE(service->Close().ok());
  std::filesystem::remove_all(dir);
}

TEST(LogDirGroupCommit, ReleasesAppliedOneAtATimeKeepTheCadence) {
  const std::string dir = "/tmp/tcdp_log_dir_cadence";
  ASSERT_TRUE(obs::MetricsEnabled());
  auto service = GroupService(dir, /*sync_every=*/3, /*capacity=*/256);
  ASSERT_NE(service, nullptr);
  ASSERT_TRUE(service->Join("u", GroupProfile(0)).ok());
  ASSERT_TRUE(service->Flush().ok());
  const WalCounts before = WalCounts::Now();
  // Cumulative syncs after release 1..7: at releases 3 and 6.
  const std::uint64_t want[] = {0, 0, 1, 1, 1, 2, 2};
  for (std::size_t t = 0; t < 7; ++t) {
    ASSERT_TRUE(service->ReleaseAll(0.1).ok());
    ASSERT_TRUE(service->Flush().ok());
    EXPECT_EQ(WalCounts::Now().fsyncs - before.fsyncs, want[t])
        << "after release " << t + 1;
  }
  ASSERT_TRUE(service->Close().ok());
  std::filesystem::remove_all(dir);
}

TEST(LogDirGroupCommit, AQueueKeptFullStillSyncsWithinTheBound) {
  // A producer that keeps the queue refilled would postpone an
  // unbounded deferral for ever; the bound forces a sync once
  // `sync_every + queue_capacity - 1` releases are unsynced.
  const std::string dir = "/tmp/tcdp_log_dir_bound";
  const std::string copy = "/tmp/tcdp_log_dir_bound_copy";
  ASSERT_TRUE(obs::MetricsEnabled());
  constexpr std::size_t kSyncEvery = 1;
  constexpr std::size_t kCapacity = 4;
  constexpr std::size_t kReleases = 2000;
  constexpr std::size_t kUsers = 200;
  constexpr double kEpsilons[] = {0.05, 0.1, 0.2};
  auto service = GroupService(dir, kSyncEvery, kCapacity);
  ASSERT_NE(service, nullptr);
  for (std::size_t u = 0; u < kUsers; ++u) {
    ASSERT_TRUE(service->Join(GroupUser(u), GroupProfile(u)).ok());
  }
  ASSERT_TRUE(service->Flush().ok());
  const WalCounts before = WalCounts::Now();
  std::thread producer([&service, &kEpsilons] {
    for (std::size_t t = 0; t < kReleases; ++t) {
      ASSERT_TRUE(service->ReleaseAll(kEpsilons[t % 3]).ok());
    }
  });
  producer.join();
  ASSERT_TRUE(service->Flush().ok());
  const std::uint64_t fsyncs = WalCounts::Now().fsyncs - before.fsyncs;
  EXPECT_GE(fsyncs, kReleases / (kSyncEvery + kCapacity));

  // A copy of its files taken before Close, as a crash would leave
  // them, recovers every release, bitwise equal to the reference.
  std::filesystem::remove_all(copy);
  std::filesystem::copy(dir, copy);
  ASSERT_TRUE(service->Close().ok());
  auto recovered = ShardedReleaseService::Recover(copy);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  const std::size_t horizon = (*recovered)->horizon();
  EXPECT_EQ(horizon, kReleases);
  TemporalLossCache::Options cache_options;  // the service defaults
  TemporalLossCache cache(cache_options);
  std::vector<std::vector<double>> want;
  for (std::size_t which = 0; which < 2; ++which) {
    const TemporalCorrelations corr = GroupProfile(which);
    TplAccountant reference(corr, cache.Intern(corr.backward()),
                            cache.Intern(corr.forward()),
                            cache_options.alpha_resolution);
    for (std::size_t t = 0; t < horizon; ++t) {
      ASSERT_TRUE(reference.RecordRelease(kEpsilons[t % 3]).ok());
    }
    want.push_back(reference.TplSeries());
  }
  for (std::size_t u = 0; u < kUsers; ++u) {
    auto report = (*recovered)->Query(GroupUser(u));
    ASSERT_TRUE(report.ok()) << report.status();
    ASSERT_EQ(report->tpl_series, want[u % 2]) << GroupUser(u);
  }
  ASSERT_TRUE((*recovered)->Close().ok());
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(copy);
}

}  // namespace
}  // namespace server
}  // namespace tcdp
