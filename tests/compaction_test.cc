// WAL log compaction (ISSUE 5 tentpole): after a snapshot, a shard's
// WAL is rewritten to manifest + kCompaction record + the suffix past
// the snapshot's applied_records horizon, with the same crash-safety
// contract as the rest of the durability layer:
//
//   * the rewrite is tmp+rename: killing it at EVERY byte offset of
//     the tmp file recovers bitwise-identically from the old log;
//   * a recovered compacted service equals the uncompacted recovery of
//     the same history down to the exported accountant blobs;
//   * compacting twice is byte-for-byte compacting once;
//   * records appended after a compaction tear like any others — every
//     truncation offset of the compacted WAL's suffix recovers a
//     consistent prefix;
//   * a compacted shard whose snapshot is gone fails recovery loudly
//     (the prefix lives only in the snapshot — resurrecting partial
//     state would be silent data loss);
//   * compacting after a recovery that fell back to the anchor keeps
//     the directory recoverable.

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "server/event_log.h"
#include "server/records.h"
#include "server/sharded_service.h"
#include "server/snapshot.h"

namespace tcdp {
namespace server {
namespace {

namespace fs = std::filesystem;

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void CopyDir(const std::string& from, const std::string& to) {
  fs::remove_all(to);
  fs::create_directories(to);
  for (const auto& entry : fs::directory_iterator(from)) {
    fs::copy_file(entry.path(), to + "/" + entry.path().filename().string());
  }
}

struct UserTruth {
  std::size_t join = 0;
  std::vector<double> epsilons;
  std::vector<double> tpl_series;
  std::string blob;  ///< exported tcdp-accountant-v2 image
};

using TruthMap = std::map<std::string, UserTruth>;

TruthMap SnapshotTruth(ShardedReleaseService* service) {
  TruthMap truth;
  auto alphas = service->PersonalizedAlphas();
  EXPECT_TRUE(alphas.ok());
  if (!alphas.ok()) return truth;
  for (const auto& [name, alpha] : *alphas) {
    (void)alpha;
    auto report = service->Query(name);
    auto blob = service->ExportUser(name);
    EXPECT_TRUE(report.ok());
    EXPECT_TRUE(blob.ok());
    truth[name] = UserTruth{report->join_release, report->epsilons,
                            report->tpl_series,
                            blob.ok() ? *blob : std::string()};
  }
  return truth;
}

/// Seeded workload: joins, sparse per-user releases, ReleaseAlls, and a
/// mid-stream service-level Snapshot so compaction has an anchor with a
/// real suffix behind it.
TruthMap RunWorkload(const std::string& dir, ShardedServiceOptions options,
                     std::uint64_t seed, int steps = 70,
                     int snapshot_at = 40) {
  TruthMap truth;
  auto service = ShardedReleaseService::Create(dir, options);
  EXPECT_TRUE(service.ok()) << service.status();
  if (!service.ok()) return truth;
  ShardedReleaseService& s = **service;
  Rng rng(seed);
  std::vector<std::string> joined;
  const StochasticMatrix m0 =
      StochasticMatrix::FromRows({{0.8, 0.2}, {0.0, 1.0}});
  const StochasticMatrix m1 =
      StochasticMatrix::FromRows({{0.6, 0.4}, {0.3, 0.7}});
  for (int i = 0; i < steps; ++i) {
    if (i == snapshot_at) {
      EXPECT_TRUE(s.Snapshot().ok());
    }
    if (joined.size() < 5 && (joined.empty() || rng.Uniform() < 0.12)) {
      const std::string name = "u" + std::to_string(joined.size());
      const StochasticMatrix& m = joined.size() % 2 == 0 ? m0 : m1;
      EXPECT_TRUE(
          s.Join(name, TemporalCorrelations::Both(m, m).value()).ok());
      joined.push_back(name);
    } else if (rng.Uniform() < 0.1) {
      EXPECT_TRUE(s.ReleaseAll(0.1).ok());
    } else {
      const auto& name = joined[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(joined.size()) - 1))];
      EXPECT_TRUE(s.Release(name, rng.Uniform() < 0.5 ? 0.05 : 0.2).ok());
    }
  }
  EXPECT_TRUE(s.Flush().ok());
  truth = SnapshotTruth(service->get());
  EXPECT_TRUE(s.Close().ok());
  return truth;
}

/// Recovered state must equal \p truth exactly: same users, joins,
/// epsilon sequences, TPL series, and exported accountant blobs.
void CheckRecoveredEqualsTruth(ShardedReleaseService* recovered,
                               const TruthMap& truth,
                               const std::string& context) {
  auto alphas = recovered->PersonalizedAlphas();
  ASSERT_TRUE(alphas.ok()) << context;
  ASSERT_EQ(alphas->size(), truth.size()) << context;
  for (const auto& [name, expected] : truth) {
    auto report = recovered->Query(name);
    ASSERT_TRUE(report.ok()) << context << " user " << name;
    ASSERT_EQ(report->join_release, expected.join)
        << context << " user " << name;
    ASSERT_EQ(report->epsilons, expected.epsilons)
        << context << " user " << name;
    ASSERT_EQ(report->tpl_series, expected.tpl_series)
        << context << " user " << name;
    auto blob = recovered->ExportUser(name);
    ASSERT_TRUE(blob.ok()) << context << " user " << name;
    ASSERT_EQ(*blob, expected.blob) << context << " user " << name;
  }
}

class CompactionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pristine_ = "/tmp/tcdp_compact_pristine";
    work_ = "/tmp/tcdp_compact_work";
    fs::remove_all(pristine_);
    fs::remove_all(work_);
  }
  void TearDown() override {
    fs::remove_all(pristine_);
    fs::remove_all(work_);
  }

  std::string pristine_;
  std::string work_;
};

TEST_F(CompactionTest, CompactionBoundsDiskAndRecoversBitwise) {
  ShardedServiceOptions options;
  options.num_shards = 2;
  options.batch_window = 3;
  const TruthMap truth = RunWorkload(pristine_, options, 31337);
  ASSERT_FALSE(truth.empty());

  CopyDir(pristine_, work_);
  std::vector<std::uint64_t> bytes_before;
  {
    auto service = ShardedReleaseService::Recover(work_);
    ASSERT_TRUE(service.ok()) << service.status();
    for (std::size_t s = 0; s < options.num_shards; ++s) {
      bytes_before.push_back((*service)->shard_stats(s).wal_bytes);
    }
    ASSERT_TRUE((*service)->Compact().ok());
    for (std::size_t s = 0; s < options.num_shards; ++s) {
      const ShardStats stats = (*service)->shard_stats(s);
      // Bounded: manifest + compaction record + post-snapshot suffix.
      EXPECT_LT(stats.wal_bytes, bytes_before[s]) << "shard " << s;
      EXPECT_EQ(stats.compactions, 1u) << "shard " << s;
      EXPECT_LT(stats.wal_physical_records, stats.wal_records)
          << "shard " << s;
      // The WAL on disk parses as manifest + kCompaction + add/release.
      auto log = ReadEventLog(work_ + "/shard-" + std::to_string(s) +
                              ".wal");
      ASSERT_TRUE(log.ok());
      ASSERT_TRUE(log->clean);
      ASSERT_GE(log->records.size(), 2u);
      EXPECT_EQ(log->records[0].type, EventType::kManifest);
      EXPECT_EQ(log->records[1].type, EventType::kCompaction);
    }
    // Accounting state is untouched by the rewrite.
    CheckRecoveredEqualsTruth(service->get(), truth, "post-compact live");
    ASSERT_TRUE((*service)->Close().ok());
  }
  // A fresh recovery of the compacted logs equals the truth too.
  auto again = ShardedReleaseService::Recover(work_);
  ASSERT_TRUE(again.ok()) << again.status();
  CheckRecoveredEqualsTruth(again->get(), truth, "compacted recovery");
  ASSERT_TRUE((*again)->Close().ok());
}

TEST_F(CompactionTest, CompactTwiceIsByteIdenticalToOnce) {
  ShardedServiceOptions options;
  options.num_shards = 2;
  options.batch_window = 4;
  (void)RunWorkload(pristine_, options, 777);

  CopyDir(pristine_, work_);
  {
    auto service = ShardedReleaseService::Recover(work_);
    ASSERT_TRUE(service.ok()) << service.status();
    ASSERT_TRUE((*service)->Compact().ok());
    ASSERT_TRUE((*service)->Close().ok());
  }
  std::vector<std::string> once_wal;
  std::vector<std::string> once_snap;
  for (std::size_t s = 0; s < options.num_shards; ++s) {
    once_wal.push_back(
        ReadFileBytes(work_ + "/shard-" + std::to_string(s) + ".wal"));
    once_snap.push_back(
        ReadFileBytes(work_ + "/shard-" + std::to_string(s) + ".snap"));
  }
  {
    auto service = ShardedReleaseService::Recover(work_);
    ASSERT_TRUE(service.ok()) << service.status();
    ASSERT_TRUE((*service)->Compact().ok());
    ASSERT_TRUE((*service)->Close().ok());
  }
  for (std::size_t s = 0; s < options.num_shards; ++s) {
    EXPECT_EQ(
        ReadFileBytes(work_ + "/shard-" + std::to_string(s) + ".wal"),
        once_wal[s])
        << "shard " << s << " WAL changed on recompaction";
    EXPECT_EQ(
        ReadFileBytes(work_ + "/shard-" + std::to_string(s) + ".snap"),
        once_snap[s])
        << "shard " << s << " snapshot changed on recompaction";
  }
}

TEST_F(CompactionTest, AnchorIsAHardLinkToTheSnapshot) {
  // The anchor pins the snapshot file's inode instead of copying its
  // bytes. Compacting twice against one snapshot relinks the same inode,
  // where rename(2) does nothing; no `.snap.anchor.tmp` may be left.
  ShardedServiceOptions options;
  options.num_shards = 2;
  options.batch_window = 4;
  (void)RunWorkload(work_, options, 777);
  auto service = ShardedReleaseService::Recover(work_);
  ASSERT_TRUE(service.ok()) << service.status();
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE((*service)->Compact().ok()) << "round " << round;
    for (std::size_t s = 0; s < options.num_shards; ++s) {
      const std::string snap = work_ + "/shard-" + std::to_string(s) + ".snap";
      EXPECT_TRUE(fs::equivalent(snap, snap + ".anchor"))
          << "round " << round << ", shard " << s;
      EXPECT_FALSE(fs::exists(snap + ".anchor.tmp"))
          << "round " << round << ", shard " << s;
    }
  }
  ASSERT_TRUE((*service)->Close().ok());
}

TEST_F(CompactionTest, KillingTheRewriteAtEveryByteOffsetLosesNothing) {
  // The rewrite's only externally visible intermediate state is the
  // growing tmp file (the WAL itself is replaced atomically by
  // rename). Simulate a crash at every byte offset: the directory
  // holds the intact old log plus a truncated shard-0.wal.tmp (and the
  // shard-0.wal.compact.tmp builds before WriteFileAtomic published
  // the rewrite left); recovery must remove both stray tmps and
  // reproduce the uninterrupted truth bitwise.
  ShardedServiceOptions options;
  options.num_shards = 2;
  options.batch_window = 3;
  const TruthMap truth = RunWorkload(pristine_, options, 424242);
  ASSERT_FALSE(truth.empty());

  // Produce the bytes the rewrite would have written, by compacting a
  // scratch copy and reading the result.
  CopyDir(pristine_, work_);
  {
    auto service = ShardedReleaseService::Recover(work_);
    ASSERT_TRUE(service.ok()) << service.status();
    ASSERT_TRUE((*service)->Compact().ok());
    ASSERT_TRUE((*service)->Close().ok());
  }
  const std::string compacted = ReadFileBytes(work_ + "/shard-0.wal");
  ASSERT_GT(compacted.size(), 20u);

  for (std::size_t cut = 0; cut <= compacted.size(); ++cut) {
    CopyDir(pristine_, work_);
    for (const char* tmp : {"/shard-0.wal.tmp", "/shard-0.wal.compact.tmp"}) {
      WriteFileBytes(work_ + tmp, compacted.substr(0, cut));
    }
    auto recovered = ShardedReleaseService::Recover(work_);
    ASSERT_TRUE(recovered.ok())
        << "tmp cut at " << cut << ": " << recovered.status();
    CheckRecoveredEqualsTruth(recovered->get(), truth,
                              "tmp cut " + std::to_string(cut));
    if (testing::Test::HasFatalFailure()) {
      FAIL() << "first failing tmp truncation offset: " << cut;
    }
    for (const char* tmp : {"/shard-0.wal.tmp", "/shard-0.wal.compact.tmp"}) {
      EXPECT_FALSE(fs::exists(work_ + tmp))
          << "stray rewrite tmp " << tmp << " survived recovery (cut " << cut
          << ")";
    }
    ASSERT_TRUE((*recovered)->Close().ok());
  }

  // And the instant after the rename: the compacted log in place, the
  // tmp gone — same truth.
  CopyDir(pristine_, work_);
  WriteFileBytes(work_ + "/shard-0.wal", compacted);
  auto recovered = ShardedReleaseService::Recover(work_);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  CheckRecoveredEqualsTruth(recovered->get(), truth, "post-rename");
  ASSERT_TRUE((*recovered)->Close().ok());
}

TEST_F(CompactionTest, PostCompactionAppendsTearLikeAnyOthers) {
  // Continue serving after a compaction, then truncate the WAL at
  // every byte offset past the compacted prefix: recovery must come
  // back to a consistent prefix of the continued run every time.
  ShardedServiceOptions options;
  options.num_shards = 1;
  options.batch_window = 2;
  (void)RunWorkload(pristine_, options, 99, /*steps=*/30,
                    /*snapshot_at=*/20);
  std::uint64_t compacted_bytes = 0;
  TruthMap continued_truth;
  {
    auto service = ShardedReleaseService::Recover(pristine_);
    ASSERT_TRUE(service.ok()) << service.status();
    ASSERT_TRUE((*service)->Compact().ok());
    compacted_bytes = (*service)->shard_stats(0).wal_bytes;
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE((*service)->ReleaseAll(0.05 + 0.01 * i).ok());
    }
    ASSERT_TRUE((*service)->Flush().ok());
    continued_truth = SnapshotTruth(service->get());
    ASSERT_TRUE((*service)->Close().ok());
  }
  const std::string full = ReadFileBytes(pristine_ + "/shard-0.wal");
  ASSERT_GT(full.size(), compacted_bytes);

  const std::size_t horizon_full =
      continued_truth.begin()->second.tpl_series.size() +
      continued_truth.begin()->second.join;
  for (std::size_t cut = static_cast<std::size_t>(compacted_bytes);
       cut <= full.size(); ++cut) {
    CopyDir(pristine_, work_);
    WriteFileBytes(work_ + "/shard-0.wal", full.substr(0, cut));
    auto recovered = ShardedReleaseService::Recover(work_);
    ASSERT_TRUE(recovered.ok())
        << "cut at " << cut << ": " << recovered.status();
    const std::size_t horizon = (*recovered)->horizon();
    ASSERT_LE(horizon, horizon_full) << "cut " << cut;
    for (const auto& [name, expected] : continued_truth) {
      auto report = (*recovered)->Query(name);
      ASSERT_TRUE(report.ok()) << "cut " << cut << " user " << name;
      // The recovered spend sequence is a bitwise prefix of the
      // continued run's.
      ASSERT_EQ(report->epsilons.size(), horizon - expected.join)
          << "cut " << cut << " user " << name;
      for (std::size_t i = 0; i < report->epsilons.size(); ++i) {
        ASSERT_EQ(report->epsilons[i], expected.epsilons[i])
            << "cut " << cut << " user " << name << " step " << i;
      }
    }
    if (testing::Test::HasFatalFailure()) {
      FAIL() << "first failing truncation offset: " << cut;
    }
    ASSERT_TRUE((*recovered)->Close().ok());
  }
}

TEST_F(CompactionTest, AnchorOutlivesSnapshotOverwritesAndDeletes) {
  ShardedServiceOptions options;
  options.num_shards = 2;
  options.batch_window = 3;
  const TruthMap truth = RunWorkload(pristine_, options, 5);
  {
    auto service = ShardedReleaseService::Recover(pristine_);
    ASSERT_TRUE(service.ok()) << service.status();
    ASSERT_TRUE((*service)->Compact().ok());
    ASSERT_TRUE((*service)->Close().ok());
  }
  ASSERT_TRUE(fs::exists(pristine_ + "/shard-0.snap.anchor"));

  // Losing the snapshot alone is survivable: the anchor copy preserved
  // at compaction time sits at exactly the base and recovery falls
  // back to it.
  CopyDir(pristine_, work_);
  fs::remove(work_ + "/shard-0.snap");
  {
    auto recovered = ShardedReleaseService::Recover(work_);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    CheckRecoveredEqualsTruth(recovered->get(), truth, "anchor fallback");
    ASSERT_TRUE((*recovered)->Close().ok());
  }

  // Losing BOTH copies of the compacted prefix must fail loudly — the
  // data exists nowhere else, and resurrecting partial state would be
  // silent data loss.
  CopyDir(pristine_, work_);
  fs::remove(work_ + "/shard-0.snap");
  fs::remove(work_ + "/shard-0.snap.anchor");
  auto recovered = ShardedReleaseService::Recover(work_);
  ASSERT_FALSE(recovered.ok())
      << "recovery of a compacted shard without snapshot or anchor must "
         "fail";
  EXPECT_EQ(recovered.status().code(), StatusCode::kFailedPrecondition)
      << recovered.status();
  EXPECT_NE(recovered.status().message().find("compacted"),
            std::string::npos)
      << recovered.status();
}

TEST_F(CompactionTest, NewerSnapshotBeyondCommonHorizonFallsBackToAnchor) {
  // The anchor's reason for existing: after a compaction at base H0, a
  // later snapshot overwrites shard-<i>.snap at a horizon H2 that may
  // not be durable on every shard. Crash with another shard's durable
  // log at G in [H0, H2): the newer snapshot does not fit under the
  // common horizon and recovery must fall back to the anchor at H0 +
  // WAL suffix replay, not fail (and not resurrect H2 state).
  ShardedServiceOptions options;
  options.num_shards = 2;
  options.batch_window = 2;
  const TruthMap truth = RunWorkload(pristine_, options, 2024);
  {
    auto service = ShardedReleaseService::Recover(pristine_);
    ASSERT_TRUE(service.ok()) << service.status();
    ASSERT_TRUE((*service)->Compact().ok());
    // More committed traffic past the compaction base...
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE((*service)->ReleaseAll(0.05).ok());
    }
    // ...then a NEW snapshot on every shard (overwriting the one the
    // compaction anchored).
    ASSERT_TRUE((*service)->Snapshot().ok());
    ASSERT_TRUE((*service)->Close().ok());
  }
  // Simulate the lagging shard: cut shard 1's WAL roughly in half so
  // the common horizon lands between the compaction base and the new
  // snapshot's horizon.
  CopyDir(pristine_, work_);
  const std::string full = ReadFileBytes(work_ + "/shard-1.wal");
  auto scan = ReadEventLog(work_ + "/shard-1.wal");
  ASSERT_TRUE(scan.ok());
  const std::size_t cut_records = scan->records.size() / 2;
  ASSERT_GT(cut_records, 2u);
  WriteFileBytes(
      work_ + "/shard-1.wal",
      full.substr(0, static_cast<std::size_t>(
                         scan->record_end[cut_records - 1])));
  auto recovered = ShardedReleaseService::Recover(work_);
  ASSERT_TRUE(recovered.ok())
      << "anchor fallback should have aligned the shards: "
      << recovered.status();
  // Every recovered series must be a bitwise prefix of the continued
  // truth is covered elsewhere; here assert the load-bearing parts:
  // the compacted shard came back (from its anchor) and the horizon
  // sits at the lagging shard's durable release count.
  auto alphas = (*recovered)->PersonalizedAlphas();
  ASSERT_TRUE(alphas.ok());
  EXPECT_EQ(alphas->size(), truth.size());
  EXPECT_LT((*recovered)->horizon(),
            truth.begin()->second.epsilons.size() +
                truth.begin()->second.join + 7)
      << "horizon should have been cut below the new snapshot's";
  ASSERT_TRUE((*recovered)->Close().ok());
}

TEST_F(CompactionTest, CompactingAfterAnAnchorFallbackKeepsTheDirectoryRecoverable) {
  // A recovery that fell back to the anchor leaves shard-<i>.snap
  // holding a snapshot past the recovered cut. Compacting then must
  // anchor on a fresh snapshot, not on that file: anchoring on it
  // refused the rewrite after replacing the anchor, and the directory
  // could never be recovered again.
  ShardedServiceOptions options;
  options.num_shards = 2;
  options.batch_window = 2;
  (void)RunWorkload(pristine_, options, 2024);
  {
    auto service = ShardedReleaseService::Recover(pristine_);
    ASSERT_TRUE(service.ok()) << service.status();
    ASSERT_TRUE((*service)->Compact().ok());
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE((*service)->ReleaseAll(0.05).ok());
    }
    ASSERT_TRUE((*service)->Snapshot().ok());
    ASSERT_TRUE((*service)->Close().ok());
  }
  CopyDir(pristine_, work_);
  const std::string full = ReadFileBytes(work_ + "/shard-1.wal");
  auto scan = ReadEventLog(work_ + "/shard-1.wal");
  ASSERT_TRUE(scan.ok());
  const std::size_t cut_records = scan->records.size() / 2;
  ASSERT_GT(cut_records, 2u);
  WriteFileBytes(
      work_ + "/shard-1.wal",
      full.substr(0, static_cast<std::size_t>(
                         scan->record_end[cut_records - 1])));

  TruthMap truth;
  std::size_t horizon = 0;
  {
    auto recovered = ShardedReleaseService::Recover(work_);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    horizon = (*recovered)->horizon();
    truth = SnapshotTruth(recovered->get());
    const Status compacted = (*recovered)->Compact();
    EXPECT_TRUE(compacted.ok()) << compacted;
    EXPECT_TRUE((*recovered)->Close().ok());
  }
  auto again = ShardedReleaseService::Recover(work_);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ((*again)->horizon(), horizon);
  CheckRecoveredEqualsTruth(again->get(), truth, "recompacted recovery");
  ASSERT_TRUE((*again)->Close().ok());
}

TEST_F(CompactionTest, RefusedRewriteLeavesTheAnchorAlone) {
  // The prefix cross-check runs before the anchor is replaced: when the
  // log on disk no longer holds what the snapshot covers (here it lost
  // its tail behind the service's back), the rewrite is refused and
  // the anchor the compacted WAL relies on keeps its bytes.
  ShardedServiceOptions options;
  options.num_shards = 1;
  options.batch_window = 1;
  auto service = ShardedReleaseService::Create(pristine_, options);
  ASSERT_TRUE(service.ok()) << service.status();
  const StochasticMatrix m =
      StochasticMatrix::FromRows({{0.7, 0.3}, {0.2, 0.8}});
  ASSERT_TRUE(
      (*service)->Join("a", TemporalCorrelations::Both(m, m).value()).ok());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE((*service)->ReleaseAll(0.1).ok());
  ASSERT_TRUE((*service)->Compact().ok());
  const std::string anchor = ReadFileBytes(pristine_ + "/shard-0.snap.anchor");
  ASSERT_FALSE(anchor.empty());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE((*service)->ReleaseAll(0.2).ok());
  ASSERT_TRUE((*service)->Snapshot().ok());
  const std::string wal = ReadFileBytes(pristine_ + "/shard-0.wal");
  auto scan = ReadEventLog(pristine_ + "/shard-0.wal");
  ASSERT_TRUE(scan.ok());
  ASSERT_GT(scan->records.size(), 4u);
  WriteFileBytes(pristine_ + "/shard-0.wal",
                 wal.substr(0, static_cast<std::size_t>(scan->record_end[3])));

  EXPECT_FALSE((*service)->Compact().ok());
  EXPECT_TRUE(ReadFileBytes(pristine_ + "/shard-0.snap.anchor") == anchor)
      << "a refused rewrite replaced the anchor";
  (void)(*service)->Close();
}

TEST_F(CompactionTest, AutoCompactAfterSnapshotAndThresholdsEngage) {
  // after_snapshot: every service-level Snapshot() leaves the WAL at
  // its floor (manifest + compaction record only).
  ShardedServiceOptions options;
  options.num_shards = 2;
  options.batch_window = 2;
  options.compaction.after_snapshot = true;
  {
    auto service = ShardedReleaseService::Create(pristine_, options);
    ASSERT_TRUE(service.ok()) << service.status();
    const StochasticMatrix m =
        StochasticMatrix::FromRows({{0.7, 0.3}, {0.2, 0.8}});
    ASSERT_TRUE(
        (*service)->Join("a", TemporalCorrelations::Both(m, m).value()).ok());
    ASSERT_TRUE(
        (*service)->Join("b", TemporalCorrelations::Both(m, m).value()).ok());
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE((*service)->ReleaseAll(0.1).ok());
    }
    ASSERT_TRUE((*service)->Snapshot().ok());
    for (std::size_t s = 0; s < options.num_shards; ++s) {
      const ShardStats stats = (*service)->shard_stats(s);
      EXPECT_EQ(stats.compactions, 1u) << "shard " << s;
      EXPECT_EQ(stats.wal_physical_records, 2u)
          << "shard " << s << ": snapshot anchor should cover everything";
    }
    ASSERT_TRUE((*service)->Close().ok());
  }
  fs::remove_all(pristine_);

  // Thresholds: a tiny max_wal_records ceiling forces compactions as
  // traffic flows, keeping the physical WAL bounded while logical
  // history grows past it. The MANIFEST round-trips the policy, so the
  // recovered service keeps compacting.
  options.compaction.after_snapshot = false;
  options.compaction.max_wal_records = 12;
  TruthMap truth;
  {
    auto service = ShardedReleaseService::Create(pristine_, options);
    ASSERT_TRUE(service.ok()) << service.status();
    const StochasticMatrix m =
        StochasticMatrix::FromRows({{0.7, 0.3}, {0.2, 0.8}});
    ASSERT_TRUE(
        (*service)->Join("a", TemporalCorrelations::Both(m, m).value()).ok());
    ASSERT_TRUE(
        (*service)->Join("b", TemporalCorrelations::Both(m, m).value()).ok());
    for (int i = 0; i < 60; ++i) {
      ASSERT_TRUE((*service)->ReleaseAll(0.1).ok());
    }
    ASSERT_TRUE((*service)->Flush().ok());
    std::uint64_t compactions = 0;
    for (std::size_t s = 0; s < options.num_shards; ++s) {
      const ShardStats stats = (*service)->shard_stats(s);
      compactions += stats.compactions;
      EXPECT_GT(stats.wal_records, options.compaction.max_wal_records)
          << "shard " << s << ": logical history should outgrow the cap";
      EXPECT_LE(stats.wal_physical_records,
                options.compaction.max_wal_records + 2 * options.batch_window)
          << "shard " << s << ": physical WAL should stay near the cap";
    }
    EXPECT_GT(compactions, 0u) << "threshold never engaged";
    truth = SnapshotTruth(service->get());
    ASSERT_TRUE((*service)->Close().ok());
  }
  auto recovered = ShardedReleaseService::Recover(pristine_);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  CheckRecoveredEqualsTruth(recovered->get(), truth, "threshold recovery");
  ASSERT_TRUE((*recovered)->Close().ok());
}

}  // namespace
}  // namespace server
}  // namespace tcdp
