// Failover property test (ISSUE 10): kill the primary after EVERY
// committed WAL record and promote the most-acked follower.
//
// The property: at every kill point, the promoted follower's state is
// exactly what the primary's own crash recovery would produce at that
// point — because the replica's WALs are a bitwise PREFIX of the
// uninterrupted primary's WALs, and promotion IS crash recovery
// (ShardedReleaseService::Recover), there is no separate failover code
// path to diverge.
//
// Shape:
//   Phase 1 (truth): run a scripted workload to completion on a normal
//     durable service, capture every per-user report and the raw WAL
//     bytes of the finished run.
//   Phase 2 (sweep): rebuild the primary's directory RECORD BY RECORD
//     with EventLogWriter (byte-identical framing) under a live
//     LogStreamServer — the tailer needs files, not a live service, so
//     "the primary died right after record k" is literally the state
//     on disk. Two followers stream it; after each record we wait for
//     the ack and snapshot-copy the most-acked follower's directory.
//     Follower 2 is stopped halfway so the most-acked selection is
//     exercised for real, not just on ties.
//   Phase 3 (check): every snapshot's WALs must be a bitwise prefix of
//     the truth run's, and Recover (= promotion) must succeed on it.
//     The final snapshot must reproduce every truth report bit for
//     bit, and a live Follower::Promote() at the end must as well.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "replication/follower.h"
#include "replication/log_stream.h"
#include "server/event_log.h"
#include "server/sharded_service.h"
#include "workload/generators.h"

namespace tcdp {
namespace replication {
namespace {

constexpr std::size_t kShards = 2;
constexpr std::size_t kUsers = 5;

std::string UserName(std::size_t u) { return "user-" + std::to_string(u); }

TemporalCorrelations Profile(std::size_t u) {
  auto matrix = ClickstreamModel(3 + u % 3, 0.2 + 0.05 * (u % 4));
  EXPECT_TRUE(matrix.ok());
  return TemporalCorrelations::Both(*matrix, *matrix).value();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::string ShardWal(const std::string& dir, std::size_t shard) {
  return dir + "/shard-" + std::to_string(shard) + ".wal";
}

/// Exact-equality check of a promoted service against the truth run's
/// reports: same series, same budgets, bit for bit.
void ExpectReportsEqual(server::ShardedReleaseService* service,
                        const std::vector<server::UserReport>& truth,
                        const std::string& label) {
  for (const server::UserReport& expected : truth) {
    auto report = service->Query(expected.name);
    ASSERT_TRUE(report.ok()) << label << " " << expected.name << ": "
                             << report.status();
    EXPECT_EQ(report->shard, expected.shard) << label;
    EXPECT_EQ(report->join_release, expected.join_release) << label;
    EXPECT_EQ(report->horizon, expected.horizon) << label;
    EXPECT_EQ(report->max_tpl, expected.max_tpl) << label;
    EXPECT_EQ(report->user_level_tpl, expected.user_level_tpl) << label;
    EXPECT_EQ(report->epsilons, expected.epsilons) << label;
    EXPECT_EQ(report->tpl_series, expected.tpl_series) << label;
  }
}

/// Blocks until the follower's per-shard durable (acked) cursors equal
/// \p want, or fails the test after ~5s.
void AwaitDurable(Follower* follower,
                  const std::vector<std::uint64_t>& want,
                  std::size_t kill_point) {
  for (int i = 0; i < 500; ++i) {
    const FollowerStatus fs = follower->status();
    ASSERT_FALSE(fs.diverged) << "diverged at kill point " << kill_point
                              << ": " << fs.last_error;
    if (fs.durable_records == want) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  FAIL() << "follower never acked kill point " << kill_point;
}

std::uint64_t DurableSum(const FollowerStatus& fs) {
  std::uint64_t sum = 0;
  for (std::uint64_t records : fs.durable_records) sum += records;
  return sum;
}

TEST(FailoverTest, PromoteMostAckedFollowerAtEveryRecord) {
  const std::string truth_dir = "/tmp/tcdp_failover_truth";
  const std::string primary_dir = "/tmp/tcdp_failover_primary";
  const std::string replica1_dir = "/tmp/tcdp_failover_replica1";
  const std::string replica2_dir = "/tmp/tcdp_failover_replica2";
  const std::string kill_root = "/tmp/tcdp_failover_kills";
  for (const std::string& dir :
       {truth_dir, primary_dir, replica1_dir, replica2_dir, kill_root}) {
    std::filesystem::remove_all(dir);
  }
  std::filesystem::create_directories(primary_dir);
  std::filesystem::create_directories(kill_root);

  // ---- Phase 1: the uninterrupted truth run.
  std::vector<server::UserReport> truth_reports;
  std::size_t truth_horizon = 0;
  {
    server::ShardedServiceOptions options;
    options.num_shards = kShards;
    options.batch_window = 4;
    auto service = server::ShardedReleaseService::Create(truth_dir, options);
    ASSERT_TRUE(service.ok()) << service.status();
    for (std::size_t u = 0; u < kUsers; ++u) {
      ASSERT_TRUE((*service)->Join(UserName(u), Profile(u)).ok());
    }
    ASSERT_TRUE((*service)->Flush().ok());
    for (int round = 0; round < 2; ++round) {
      for (std::size_t u = 0; u < kUsers; ++u) {
        ASSERT_TRUE(
            (*service)->Release(UserName(u), 0.1 + 0.05 * round).ok());
      }
      ASSERT_TRUE((*service)->Flush().ok());
    }
    truth_horizon = (*service)->horizon();
    for (std::size_t u = 0; u < kUsers; ++u) {
      auto report = (*service)->Query(UserName(u));
      ASSERT_TRUE(report.ok()) << report.status();
      truth_reports.push_back(*report);
    }
    ASSERT_TRUE((*service)->Close().ok());
  }
  ASSERT_GE(truth_horizon, 4u);

  // The finished run's bytes and records, shard by shard.
  const std::string truth_manifest = ReadFileBytes(truth_dir + "/MANIFEST");
  std::vector<std::string> truth_bytes(kShards);
  std::vector<std::vector<server::EventRecord>> truth_records(kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    truth_bytes[s] = ReadFileBytes(ShardWal(truth_dir, s));
    auto read = server::ReadEventLog(ShardWal(truth_dir, s));
    ASSERT_TRUE(read.ok()) << read.status();
    ASSERT_TRUE(read->clean);
    truth_records[s] = std::move(read->records);
    ASSERT_GE(truth_records[s].size(), 2u);
  }

  // ---- Phase 2: regrow the primary record by record under a live
  // stream server, with two subscribed followers.
  {
    std::ofstream manifest(primary_dir + "/MANIFEST", std::ios::binary);
    manifest << truth_manifest;
  }
  std::vector<server::EventLogWriter> writers;
  for (std::size_t s = 0; s < kShards; ++s) {
    auto writer = server::EventLogWriter::Create(ShardWal(primary_dir, s));
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE(writer->Flush().ok());  // magic on disk before Listen
    writers.push_back(std::move(writer).value());
  }

  LogStreamOptions stream_options;
  stream_options.log_dir = primary_dir;
  auto stream = LogStreamServer::Listen(stream_options);
  ASSERT_TRUE(stream.ok()) << stream.status();
  Status serve_status;
  std::thread serve_thread([&stream, &serve_status] {
    serve_status = (*stream)->Serve();
  });

  auto open_follower = [&](const std::string& dir) {
    FollowerOptions options;
    options.primary_port = (*stream)->port();
    options.log_dir = dir;
    auto follower = Follower::Open(options);
    EXPECT_TRUE(follower.ok()) << follower.status();
    EXPECT_TRUE((*follower)->Start().ok());
    return std::move(follower).value();
  };
  auto follower1 = open_follower(replica1_dir);
  auto follower2 = open_follower(replica2_dir);

  std::size_t total_records = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    total_records += truth_records[s].size();
  }
  ASSERT_GE(total_records, 10u);

  // Interleave shards round-robin so kill points alternate which shard
  // is ahead — recovery must align them to a common horizon every time.
  std::vector<std::uint64_t> appended(kShards, 0);
  std::vector<std::string> kill_dirs;
  bool follower2_alive = true;
  std::size_t appended_total = 0;
  while (appended_total < total_records) {
    for (std::size_t s = 0; s < kShards; ++s) {
      if (appended[s] >= truth_records[s].size()) continue;
      const server::EventRecord& record = truth_records[s][appended[s]];
      ASSERT_TRUE(writers[s].Append(record.type, record.payload).ok());
      ASSERT_TRUE(writers[s].Sync().ok());
      ++appended[s];
      ++appended_total;
      const std::size_t kill_point = kill_dirs.size();

      AwaitDurable(follower1.get(), appended, kill_point);
      if (follower2_alive) {
        AwaitDurable(follower2.get(), appended, kill_point);
        if (appended_total * 2 >= total_records) {
          // Lose follower 2 halfway: from here on the most-acked
          // selection below must pick follower 1 on merit, not a tie.
          follower2->Stop();
          follower2_alive = false;
        }
      }

      // "The primary just died": promote whichever follower acked the
      // most records (ties break to follower 1).
      const FollowerStatus f1 = follower1->status();
      const FollowerStatus f2 = follower2->status();
      const std::string& most_acked_dir =
          DurableSum(f2) > DurableSum(f1) ? replica2_dir : replica1_dir;
      if (!follower2_alive) {
        ASSERT_GE(DurableSum(f1), DurableSum(f2));
      }
      const std::string kill_dir =
          kill_root + "/kill-" + std::to_string(kill_point);
      std::filesystem::copy(most_acked_dir, kill_dir,
                            std::filesystem::copy_options::recursive);
      kill_dirs.push_back(kill_dir);
    }
  }
  ASSERT_EQ(kill_dirs.size(), total_records);
  EXPECT_FALSE(follower2_alive);

  // ---- Phase 3: every kill point is a bitwise prefix of the truth
  // run, and promotion (crash recovery) succeeds on it.
  std::size_t last_horizon = 0;
  for (std::size_t k = 0; k < kill_dirs.size(); ++k) {
    EXPECT_EQ(ReadFileBytes(kill_dirs[k] + "/MANIFEST"), truth_manifest)
        << "kill " << k;
    bool bootstrapped = true;
    for (std::size_t s = 0; s < kShards; ++s) {
      const std::string bytes = ReadFileBytes(ShardWal(kill_dirs[k], s));
      ASSERT_LE(bytes.size(), truth_bytes[s].size())
          << "kill " << k << " shard " << s;
      EXPECT_EQ(truth_bytes[s].compare(0, bytes.size(), bytes), 0)
          << "kill " << k << " shard " << s
          << ": replica WAL is not a bitwise prefix of the primary's";
      // Magic only: this shard never received its manifest record.
      if (bytes.size() <= 8) bootstrapped = false;
    }
    auto promoted = server::ShardedReleaseService::Recover(kill_dirs[k]);
    if (!bootstrapped) {
      // A replica that has not streamed every shard's manifest record
      // is not a valid primary yet; promotion must refuse loudly, not
      // invent an empty service.
      EXPECT_FALSE(promoted.ok()) << "kill " << k;
      continue;
    }
    ASSERT_TRUE(promoted.ok())
        << "promotion failed at kill " << k << ": " << promoted.status();
    const std::size_t horizon = (*promoted)->horizon();
    EXPECT_GE(horizon, last_horizon) << "kill " << k;
    EXPECT_LE(horizon, truth_horizon) << "kill " << k;
    last_horizon = horizon;
    if (k + 1 == kill_dirs.size()) {
      EXPECT_EQ(horizon, truth_horizon);
      ExpectReportsEqual(promoted->get(), truth_reports, "final kill");
    }
    ASSERT_TRUE((*promoted)->Close().ok()) << "kill " << k;
  }
  EXPECT_EQ(last_horizon, truth_horizon);

  // ---- Finale: the primary dies for real; promote the live follower
  // through Follower::Promote() and get the truth state back.
  (*stream)->Stop();
  serve_thread.join();
  EXPECT_TRUE(serve_status.ok()) << serve_status;
  for (std::size_t s = 0; s < kShards; ++s) {
    ASSERT_TRUE(writers[s].Close().ok());
  }

  const FollowerStatus fs = follower1->status();
  EXPECT_FALSE(fs.diverged);
  EXPECT_EQ(fs.release_horizon, truth_horizon);
  auto promoted = follower1->Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.status();
  EXPECT_EQ((*promoted)->horizon(), truth_horizon);
  ExpectReportsEqual(promoted->get(), truth_reports, "live promote");
  // The promoted service is a fully live primary: it accepts writes.
  ASSERT_TRUE((*promoted)->ReleaseAll(0.25).ok());
  ASSERT_TRUE((*promoted)->Flush().ok());
  EXPECT_EQ((*promoted)->horizon(), truth_horizon + 1);
  ASSERT_TRUE((*promoted)->Close().ok());

  for (const std::string& dir :
       {truth_dir, primary_dir, replica1_dir, replica2_dir, kill_root}) {
    std::filesystem::remove_all(dir);
  }
}

// A primary whose WALs were compacted cannot seed a new follower over
// the stream (the records before the compaction base live only in its
// snapshot). Promoting such a follower must report that refusal — the
// shard and the fix, copying the log directory — not a missing MANIFEST.
TEST(FailoverTest, PromoteAfterACompactedPrimaryRefusedReportsWhy) {
  const std::string primary_dir = "/tmp/tcdp_failover_compacted_primary";
  const std::string replica_dir = "/tmp/tcdp_failover_compacted_replica";
  for (const std::string& dir : {primary_dir, replica_dir}) {
    std::filesystem::remove_all(dir);
  }
  {
    server::ShardedServiceOptions options;
    options.num_shards = kShards;
    auto service = server::ShardedReleaseService::Create(primary_dir, options);
    ASSERT_TRUE(service.ok()) << service.status();
    for (std::size_t u = 0; u < kUsers; ++u) {
      ASSERT_TRUE((*service)->Join(UserName(u), Profile(u)).ok());
    }
    ASSERT_TRUE((*service)->ReleaseAll(0.1).ok());
    ASSERT_TRUE((*service)->Flush().ok());
    ASSERT_TRUE((*service)->Snapshot().ok());
    ASSERT_TRUE((*service)->Compact().ok());
    ASSERT_TRUE((*service)->Close().ok());
  }

  LogStreamOptions stream_options;
  stream_options.log_dir = primary_dir;
  auto stream = LogStreamServer::Listen(stream_options);
  ASSERT_TRUE(stream.ok()) << stream.status();
  std::thread serve_thread([&stream] { (void)(*stream)->Serve(); });

  FollowerOptions options;
  options.primary_port = (*stream)->port();
  options.log_dir = replica_dir;
  options.reconnect = false;  // as `tcdp follow --promote 1` runs it
  auto follower = Follower::Open(options);
  ASSERT_TRUE(follower.ok()) << follower.status();
  ASSERT_TRUE((*follower)->Start().ok());
  for (int i = 0; i < 500 && (*follower)->status().running; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_FALSE((*follower)->status().running);
  auto promoted = (*follower)->Promote();
  ASSERT_FALSE(promoted.ok());
  EXPECT_EQ(promoted.status().code(), StatusCode::kFailedPrecondition)
      << promoted.status();
  EXPECT_NE(promoted.status().message().find("compacted primary (shard"),
            std::string::npos)
      << promoted.status();
  EXPECT_NE(promoted.status().message().find("copy the log directory"),
            std::string::npos)
      << promoted.status();

  (*stream)->Stop();
  serve_thread.join();
  for (const std::string& dir : {primary_dir, replica_dir}) {
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace replication
}  // namespace tcdp
