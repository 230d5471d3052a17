// The crash-at-any-record property (ISSUE 3 satellite): kill a shard's
// WAL at EVERY byte offset of a small workload and assert the
// recovered state equals the uninterrupted run truncated to the
// recovered horizon — per-user epsilon sub-schedules must be bitwise
// prefixes of the uninterrupted ones, and every recovered TPL series
// must be bitwise identical to a serial TplAccountant driven over that
// prefix through an identically quantized cache.

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/loss_cache.h"
#include "core/tpl_accountant.h"
#include "markov/stochastic_matrix.h"
#include "server/event_log.h"
#include "server/sharded_service.h"

namespace tcdp {
namespace server {
namespace {

namespace fs = std::filesystem;

TemporalCorrelations SmallProfile(int which) {
  const StochasticMatrix m =
      which == 0 ? StochasticMatrix::FromRows({{0.8, 0.2}, {0.0, 1.0}})
                 : StochasticMatrix::FromRows({{0.6, 0.4}, {0.3, 0.7}});
  return TemporalCorrelations::Both(m, m).value();
}

struct UserTruth {
  std::size_t join = 0;
  std::vector<double> epsilons;
};

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Drives the seeded workload; returns per-user ground truth from the
/// uninterrupted service.
std::map<std::string, UserTruth> RunWorkload(const std::string& dir,
                                             ShardedServiceOptions options,
                                             std::uint64_t seed) {
  std::map<std::string, UserTruth> truth;
  auto service = ShardedReleaseService::Create(dir, options);
  EXPECT_TRUE(service.ok()) << service.status();
  if (!service.ok()) return truth;
  ShardedReleaseService& s = **service;
  Rng rng(seed);
  std::vector<std::string> joined;
  for (int i = 0; i < 60; ++i) {
    if (joined.size() < 4 && (joined.empty() || rng.Uniform() < 0.15)) {
      const std::string name = "u" + std::to_string(joined.size());
      EXPECT_TRUE(
          s.Join(name, SmallProfile(static_cast<int>(joined.size()) % 2))
              .ok());
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
  for (const std::string& name : joined) {
    auto report = s.Query(name);
    EXPECT_TRUE(report.ok());
    truth[name] = UserTruth{report->join_release, report->epsilons};
  }
  EXPECT_TRUE(s.Close().ok());
  return truth;
}

/// Recovered series must equal a fresh accountant over the recovered
/// epsilon prefix, and that prefix must match the uninterrupted truth.
void CheckRecoveredAgainstTruth(
    ShardedReleaseService* recovered,
    const std::map<std::string, UserTruth>& truth, std::size_t context) {
  TemporalLossCache::Options cache_options;  // service defaults
  TemporalLossCache cache(cache_options);
  const std::size_t horizon = recovered->horizon();
  auto alphas = recovered->PersonalizedAlphas();
  ASSERT_TRUE(alphas.ok()) << "offset " << context;
  for (const auto& [name, alpha] : *alphas) {
    (void)alpha;
    auto report = recovered->Query(name);
    ASSERT_TRUE(report.ok()) << "offset " << context << " user " << name;
    const auto it = truth.find(name);
    ASSERT_NE(it, truth.end()) << "offset " << context
                               << " recovered unknown user " << name;
    const UserTruth& expected = it->second;
    ASSERT_EQ(report->join_release, expected.join)
        << "offset " << context << " user " << name;
    // The recovered spend sequence is a bitwise prefix of the
    // uninterrupted one.
    ASSERT_EQ(report->epsilons.size(), horizon - expected.join)
        << "offset " << context << " user " << name;
    for (std::size_t i = 0; i < report->epsilons.size(); ++i) {
      ASSERT_EQ(report->epsilons[i], expected.epsilons[i])
          << "offset " << context << " user " << name << " step " << i;
    }
    // And the series equals the serial reference over that prefix.
    TemporalCorrelations corr =
        SmallProfile(name == "u0" || name == "u2" ? 0 : 1);
    TplAccountant reference(corr, cache.Intern(corr.backward()),
                            cache.Intern(corr.forward()),
                            cache_options.alpha_resolution);
    for (double eps : report->epsilons) {
      ASSERT_TRUE((eps == 0.0 ? reference.RecordSkip()
                              : reference.RecordRelease(eps))
                      .ok());
    }
    ASSERT_EQ(report->tpl_series, reference.TplSeries())
        << "offset " << context << " user " << name;
  }
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pristine_ = "/tmp/tcdp_crash_pristine";
    work_ = "/tmp/tcdp_crash_work";
    fs::remove_all(pristine_);
    fs::remove_all(work_);
  }
  void TearDown() override {
    fs::remove_all(pristine_);
    fs::remove_all(work_);
  }

  /// Copies the pristine dir into the work dir.
  void ResetWorkDir() {
    fs::remove_all(work_);
    fs::create_directories(work_);
    for (const auto& entry : fs::directory_iterator(pristine_)) {
      fs::copy_file(entry.path(), work_ + "/" +
                                      entry.path().filename().string());
    }
  }

  std::string pristine_;
  std::string work_;
};

TEST_F(CrashRecoveryTest, EveryTruncationOffsetRecoversConsistently) {
  ShardedServiceOptions options;
  options.num_shards = 2;
  options.batch_window = 3;
  const auto truth = RunWorkload(pristine_, options, 12345);
  ASSERT_FALSE(truth.empty());

  const std::string victim = pristine_ + "/shard-0.wal";
  const std::string full = ReadFileBytes(victim);
  ASSERT_GT(full.size(), 100u);
  // The manifest record is fdatasynced before Create returns, so a
  // real crash always leaves it intact: start the cuts at its end (a
  // torn manifest rightly fails Recover — identity unknown).
  auto scan = ReadEventLog(victim);
  ASSERT_TRUE(scan.ok());
  const std::size_t first_cut =
      static_cast<std::size_t>(scan->record_end.front());

  for (std::size_t cut = first_cut; cut <= full.size(); ++cut) {
    ResetWorkDir();
    WriteFileBytes(work_ + "/shard-0.wal", full.substr(0, cut));
    auto recovered = ShardedReleaseService::Recover(work_);
    ASSERT_TRUE(recovered.ok())
        << "offset " << cut << ": " << recovered.status();
    CheckRecoveredAgainstTruth(recovered->get(), truth, cut);
    if (testing::Test::HasFatalFailure()) {
      FAIL() << "first failing truncation offset: " << cut;
    }
    ASSERT_TRUE((*recovered)->Close().ok()) << "offset " << cut;
  }
}

TEST_F(CrashRecoveryTest, RecoveredServiceResumesAndSurvivesSecondCrash) {
  ShardedServiceOptions options;
  options.num_shards = 2;
  options.batch_window = 2;
  const auto truth = RunWorkload(pristine_, options, 777);
  ResetWorkDir();
  const std::string full = ReadFileBytes(pristine_ + "/shard-1.wal");
  WriteFileBytes(work_ + "/shard-1.wal", full.substr(0, full.size() / 2));

  std::map<std::string, std::vector<double>> resumed_series;
  {
    auto recovered = ShardedReleaseService::Recover(work_);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    CheckRecoveredAgainstTruth(recovered->get(), truth, 1);
    // Keep serving after the crash...
    ASSERT_TRUE((*recovered)->ReleaseAll(0.05).ok());
    ASSERT_TRUE((*recovered)->Flush().ok());
    auto alphas = (*recovered)->PersonalizedAlphas();
    ASSERT_TRUE(alphas.ok());
    for (const auto& [name, alpha] : *alphas) {
      (void)alpha;
      resumed_series[name] = (*recovered)->Query(name)->tpl_series;
    }
    ASSERT_TRUE((*recovered)->Close().ok());
  }
  // ...and a second recovery of the resumed log reproduces it.
  auto again = ShardedReleaseService::Recover(work_);
  ASSERT_TRUE(again.ok()) << again.status();
  for (const auto& [name, series] : resumed_series) {
    auto report = (*again)->Query(name);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->tpl_series, series) << name;
  }
  ASSERT_TRUE((*again)->Close().ok());
}

TEST_F(CrashRecoveryTest, CrashWithSnapshotsAlsoRecoversConsistently) {
  ShardedServiceOptions options;
  options.num_shards = 2;
  options.batch_window = 3;
  options.snapshot_every = 4;
  const auto truth = RunWorkload(pristine_, options, 4242);
  const std::string full = ReadFileBytes(pristine_ + "/shard-0.wal");
  auto scan = ReadEventLog(pristine_ + "/shard-0.wal");
  ASSERT_TRUE(scan.ok());
  const std::size_t first_cut =
      static_cast<std::size_t>(scan->record_end.front());

  // Snapshots must not resurrect state past a torn WAL: sample offsets
  // across the file (every byte is covered by the no-snapshot test).
  for (std::size_t cut = first_cut; cut <= full.size(); cut += 13) {
    ResetWorkDir();
    WriteFileBytes(work_ + "/shard-0.wal", full.substr(0, cut));
    auto recovered = ShardedReleaseService::Recover(work_);
    ASSERT_TRUE(recovered.ok())
        << "offset " << cut << ": " << recovered.status();
    CheckRecoveredAgainstTruth(recovered->get(), truth, cut);
    if (testing::Test::HasFatalFailure()) {
      FAIL() << "first failing truncation offset: " << cut;
    }
    ASSERT_TRUE((*recovered)->Close().ok());
  }
}

// A user whose matrix holds a subnormal entry is written to the WAL
// (AddUser) and to snapshots (SnapUser) as %.17g text; both must read
// back, or the log cannot be recovered at all.
TEST_F(CrashRecoveryTest, SubnormalMatrixEntriesRecover) {
  const double denorm = std::numeric_limits<double>::denorm_min();
  auto matrix = StochasticMatrix::CreateExact(
      Matrix({{1.0, denorm}, {0.25, 0.75}}));
  ASSERT_TRUE(matrix.ok()) << matrix.status();
  const TemporalCorrelations corr =
      TemporalCorrelations::Both(*matrix, *matrix).value();
  for (const bool snapshot : {false, true}) {
    fs::remove_all(pristine_);
    ShardedServiceOptions options;
    options.num_shards = 2;
    options.batch_window = 1;
    std::vector<double> live_series;
    {
      auto service = ShardedReleaseService::Create(pristine_, options);
      ASSERT_TRUE(service.ok()) << service.status();
      ASSERT_TRUE((*service)->Join("tiny", corr).ok());
      ASSERT_TRUE((*service)->Join("plain", SmallProfile(0)).ok());
      ASSERT_TRUE((*service)->ReleaseAll(0.1).ok());
      if (snapshot) {
        ASSERT_TRUE((*service)->Snapshot().ok());
      }
      ASSERT_TRUE((*service)->Release("tiny", 0.2).ok());
      ASSERT_TRUE((*service)->Flush().ok());
      auto report = (*service)->Query("tiny");
      ASSERT_TRUE(report.ok()) << report.status();
      live_series = report->tpl_series;
      ASSERT_TRUE((*service)->Close().ok());
    }
    auto recovered = ShardedReleaseService::Recover(pristine_);
    ASSERT_TRUE(recovered.ok()) << "snapshot " << snapshot << ": "
                                << recovered.status();
    auto report = (*recovered)->Query("tiny");
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report->tpl_series, live_series) << "snapshot " << snapshot;
    ASSERT_TRUE((*recovered)->Close().ok());
  }
}

TEST_F(CrashRecoveryTest, FlippedBytesAreCutNotTrusted) {
  ShardedServiceOptions options;
  options.num_shards = 1;
  options.batch_window = 2;
  const auto truth = RunWorkload(pristine_, options, 99);
  const std::string full = ReadFileBytes(pristine_ + "/shard-0.wal");
  Rng rng(5);
  for (int trial = 0; trial < 25; ++trial) {
    ResetWorkDir();
    std::string corrupt = full;
    // Flips land past the manifest record: corrupting the manifest
    // makes the log unidentifiable, which rightly fails Recover.
    const std::size_t pos = static_cast<std::size_t>(rng.UniformInt(
        64, static_cast<std::int64_t>(corrupt.size()) - 1));
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x10);
    WriteFileBytes(work_ + "/shard-0.wal", corrupt);
    auto recovered = ShardedReleaseService::Recover(work_);
    ASSERT_TRUE(recovered.ok())
        << "flip at " << pos << ": " << recovered.status();
    CheckRecoveredAgainstTruth(recovered->get(), truth, pos);
    if (testing::Test::HasFatalFailure()) {
      FAIL() << "corrupting byte " << pos << " broke recovery";
    }
    ASSERT_TRUE((*recovered)->Close().ok());
  }
}

TEST_F(CrashRecoveryTest, ParallelRecoveryIsBitwiseIdenticalToSerial) {
  // Shards are independent during replay, so fanning Recover over the
  // thread pool must change nothing: compare the exported accountant
  // blobs (exact text), reports, and per-shard counters of a serial
  // (1-thread) and a parallel (4-thread) recovery of the same logs,
  // with snapshots present on some shards.
  ShardedServiceOptions options;
  options.num_shards = 5;
  options.batch_window = 3;
  options.snapshot_every = 4;
  const auto truth = RunWorkload(pristine_, options, 424242);
  ASSERT_FALSE(truth.empty());

  // Distinct directories: a recovered service holds its WALs open for
  // append, so the two recoveries must not share files.
  ResetWorkDir();
  auto serial = ShardedReleaseService::Recover(work_, 1);
  ASSERT_TRUE(serial.ok()) << serial.status();
  auto parallel = ShardedReleaseService::Recover(pristine_, 4);
  ASSERT_TRUE(parallel.ok()) << parallel.status();

  ASSERT_EQ((*serial)->num_users(), (*parallel)->num_users());
  ASSERT_EQ((*serial)->horizon(), (*parallel)->horizon());
  for (const auto& [name, unused] : truth) {
    (void)unused;
    auto serial_report = (*serial)->Query(name);
    auto parallel_report = (*parallel)->Query(name);
    ASSERT_TRUE(serial_report.ok());
    ASSERT_TRUE(parallel_report.ok());
    EXPECT_EQ(serial_report->shard, parallel_report->shard) << name;
    EXPECT_EQ(serial_report->epsilons, parallel_report->epsilons) << name;
    EXPECT_EQ(serial_report->tpl_series, parallel_report->tpl_series)
        << name;
    EXPECT_EQ(serial_report->max_tpl, parallel_report->max_tpl) << name;
    // The serialized accountant image is the strictest equality we
    // have: every double exact, every matrix byte identical.
    auto serial_blob = (*serial)->ExportUser(name);
    auto parallel_blob = (*parallel)->ExportUser(name);
    ASSERT_TRUE(serial_blob.ok());
    ASSERT_TRUE(parallel_blob.ok());
    EXPECT_EQ(*serial_blob, *parallel_blob) << name;
  }
  for (std::size_t s = 0; s < options.num_shards; ++s) {
    const ShardStats serial_stats = (*serial)->shard_stats(s);
    const ShardStats parallel_stats = (*parallel)->shard_stats(s);
    EXPECT_EQ(serial_stats.users, parallel_stats.users) << "shard " << s;
    EXPECT_EQ(serial_stats.wal_records, parallel_stats.wal_records)
        << "shard " << s;
    EXPECT_EQ(serial_stats.replayed_records,
              parallel_stats.replayed_records)
        << "shard " << s;
    EXPECT_EQ(serial_stats.restored_from_snapshot,
              parallel_stats.restored_from_snapshot)
        << "shard " << s;
  }
  // Both recoveries must also still match the uninterrupted truth.
  CheckRecoveredAgainstTruth(parallel->get(), truth, 0);
  ASSERT_TRUE((*serial)->Close().ok());
  ASSERT_TRUE((*parallel)->Close().ok());
}

}  // namespace
}  // namespace server
}  // namespace tcdp
