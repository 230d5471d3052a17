// The log directory's MANIFEST (server/log_dir.h): the bytes Create
// writes, pinned against a capture from before the format moved into
// one module, and the one parser's round trip and refusals.

#include "server/log_dir.h"

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "common/atomic_file.h"
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

}  // namespace
}  // namespace server
}  // namespace tcdp
