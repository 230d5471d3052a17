// ShardedReleaseService: routing, micro-batch semantics, durability
// round-trips, and the tentpole property — (shards x batching x
// recovery) produces per-user TPL series bitwise identical to a serial
// TplAccountant reference driven by an independently implemented model
// of the documented batching rules, at any shard count and batch
// window.

#include "server/sharded_service.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/accountant_bank.h"
#include "core/loss_cache.h"
#include "core/privacy_loss.h"
#include "core/tpl_accountant.h"
#include "markov/stochastic_matrix.h"
#include "server/event_log.h"
#include "server/log_dir.h"
#include "server/records.h"

namespace tcdp {
namespace server {
namespace {

TemporalCorrelations ProfileCorrelations(int profile) {
  Rng rng(1000 + static_cast<std::uint64_t>(profile));
  const StochasticMatrix m = StochasticMatrix::Random(3, &rng);
  return TemporalCorrelations::Both(m, m).value();
}

struct TempDir {
  std::string path;
  explicit TempDir(const std::string& name)
      : path("/tmp/tcdp_shard_test_" + name) {
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

// ------------------------------------------------------- reference model
//
// An independent, deliberately naive implementation of the service's
// batching contract (header of sharded_service.h): requests accumulate;
// every batch_window requests (or a flush) the window ticks — joins
// dispatch first, then one GLOBAL release per distinct epsilon in
// first-seen order, participants deduplicated. Each user is a serial
// TplAccountant over an identically quantized loss cache.

struct ReferenceOp {
  enum Kind { kJoin, kRelease, kReleaseAll, kFlush } kind;
  std::string name;
  int profile = 0;
  double epsilon = 0.0;
};

class ReferenceModel {
 public:
  explicit ReferenceModel(std::size_t batch_window)
      : batch_window_(batch_window) {}

  void Apply(const ReferenceOp& op) {
    switch (op.kind) {
      case ReferenceOp::kJoin:
        pending_joins_.push_back({op.name, op.profile});
        if (++window_ >= batch_window_) Tick();
        break;
      case ReferenceOp::kRelease: {
        Group& group = GroupFor(op.epsilon);
        bool seen = false;
        for (const std::string& existing : group.participants) {
          if (existing == op.name) seen = true;
        }
        if (!seen) group.participants.push_back(op.name);
        if (++window_ >= batch_window_) Tick();
        break;
      }
      case ReferenceOp::kReleaseAll:
        GroupFor(op.epsilon).all = true;
        if (++window_ >= batch_window_) Tick();
        break;
      case ReferenceOp::kFlush:
        Tick();
        break;
    }
  }

  void Finish() { Tick(); }

  std::vector<double> TplSeries(const std::string& name) {
    return users_.at(name).accountant->TplSeries();
  }
  const TplAccountant& accountant(const std::string& name) const {
    return *users_.at(name).accountant;
  }
  std::vector<std::string> names() const {
    std::vector<std::string> out;
    for (const auto& [name, user] : users_) out.push_back(name);
    return out;
  }

 private:
  struct Group {
    double epsilon = 0.0;
    bool all = false;
    std::vector<std::string> participants;
  };
  struct User {
    std::unique_ptr<TplAccountant> accountant;
  };

  Group& GroupFor(double epsilon) {
    for (Group& group : groups_) {
      if (group.epsilon == epsilon) return group;
    }
    groups_.push_back(Group{epsilon, false, {}});
    return groups_.back();
  }

  void Tick() {
    window_ = 0;
    for (const auto& [name, profile] : pending_joins_) {
      TemporalCorrelations corr = ProfileCorrelations(profile);
      auto accountant = std::make_unique<TplAccountant>(
          corr, cache_.Intern(corr.backward()), cache_.Intern(corr.forward()),
          cache_options_.alpha_resolution);
      users_.emplace(name, User{std::move(accountant)});
    }
    pending_joins_.clear();
    for (const Group& group : groups_) {
      for (auto& [name, user] : users_) {
        bool participates = group.all;
        for (const std::string& p : group.participants) {
          if (p == name) participates = true;
        }
        ASSERT_TRUE_OR_DIE(participates
                               ? user.accountant->RecordRelease(group.epsilon)
                               : user.accountant->RecordSkip());
      }
    }
    groups_.clear();
  }

  static void ASSERT_TRUE_OR_DIE(const Status& status) {
    ASSERT_TRUE(status.ok()) << status;
  }

  std::size_t batch_window_;
  std::size_t window_ = 0;
  std::vector<std::pair<std::string, int>> pending_joins_;
  std::vector<Group> groups_;
  TemporalLossCache::Options cache_options_;
  TemporalLossCache cache_{cache_options_};
  std::map<std::string, User> users_;
};

/// A deterministic scripted workload: joins sprinkled among releases,
/// several distinct epsilons, sparse per-user requests.
std::vector<ReferenceOp> MakeWorkload(std::uint64_t seed,
                                      std::size_t num_users,
                                      std::size_t num_requests) {
  Rng rng(seed);
  std::vector<ReferenceOp> ops;
  std::vector<std::string> joined;
  const double epsilons[] = {0.05, 0.1, 0.2};
  for (std::size_t i = 0; i < num_requests; ++i) {
    const bool can_join = joined.size() < num_users;
    if (can_join && (joined.empty() || rng.Uniform() < 0.2)) {
      const std::string name = "user-" + std::to_string(joined.size());
      ops.push_back({ReferenceOp::kJoin, name,
                     static_cast<int>(joined.size() % 3), 0.0});
      joined.push_back(name);
      continue;
    }
    const double roll = rng.Uniform();
    if (roll < 0.08) {
      ops.push_back({ReferenceOp::kReleaseAll, "", 0,
                     epsilons[rng.UniformInt(0, 2)]});
    } else if (roll < 0.13) {
      ops.push_back({ReferenceOp::kFlush, "", 0, 0.0});
    } else {
      ops.push_back({ReferenceOp::kRelease,
                     joined[static_cast<std::size_t>(
                         rng.UniformInt(0, static_cast<std::int64_t>(
                                               joined.size()) -
                                               1))],
                     0, epsilons[rng.UniformInt(0, 2)]});
    }
  }
  return ops;
}

Status DriveService(ShardedReleaseService* service,
                    const std::vector<ReferenceOp>& ops) {
  for (const ReferenceOp& op : ops) {
    Status status = Status::OK();
    switch (op.kind) {
      case ReferenceOp::kJoin:
        status = service->Join(op.name, ProfileCorrelations(op.profile));
        break;
      case ReferenceOp::kRelease:
        status = service->Release(op.name, op.epsilon);
        break;
      case ReferenceOp::kReleaseAll:
        status = service->ReleaseAll(op.epsilon);
        break;
      case ReferenceOp::kFlush:
        status = service->Flush();
        break;
    }
    if (!status.ok()) return status;
  }
  return service->Flush();
}

// ------------------------------------------------------------ unit tests

TEST(ShardedService, RoutesAndReportsBasics) {
  auto service = ShardedReleaseService::Create("", {});
  ASSERT_TRUE(service.ok()) << service.status();
  ShardedReleaseService& s = **service;
  ASSERT_TRUE(s.Join("alice", ProfileCorrelations(0)).ok());
  ASSERT_TRUE(s.Join("bob", ProfileCorrelations(1)).ok());
  EXPECT_FALSE(s.Join("alice", ProfileCorrelations(0)).ok());  // duplicate
  ASSERT_TRUE(s.ReleaseAll(0.1).ok());
  ASSERT_TRUE(s.Release("alice", 0.2).ok());
  EXPECT_FALSE(s.Release("carol", 0.1).ok());  // unknown user
  EXPECT_FALSE(s.Release("alice", 0.0).ok());  // bad epsilon
  ASSERT_TRUE(s.Flush().ok());
  EXPECT_EQ(s.num_users(), 2u);
  EXPECT_EQ(s.horizon(), 2u);  // two distinct epsilons -> two releases

  auto alice = s.Query("alice");
  ASSERT_TRUE(alice.ok()) << alice.status();
  EXPECT_EQ(alice->horizon, 2u);
  EXPECT_GT(alice->max_tpl, 0.0);
  EXPECT_EQ(alice->user_level_tpl, 0.1 + 0.2);
  auto bob = s.Query("bob");
  ASSERT_TRUE(bob.ok());
  EXPECT_EQ(bob->user_level_tpl, 0.1);  // skipped the 0.2 release

  auto overall = s.OverallAlpha();
  ASSERT_TRUE(overall.ok());
  EXPECT_GE(*overall, alice->max_tpl);
  ASSERT_TRUE(s.Close().ok());
  EXPECT_FALSE(s.Release("alice", 0.1).ok());  // closed
}

TEST(ShardedService, JoinRefusesMatricesPastTheTableBound) {
  constexpr std::size_t kMax = TemporalLossFunction::kMaxTableStates;
  auto service = ShardedReleaseService::Create("", {});
  ASSERT_TRUE(service.ok()) << service.status();
  ShardedReleaseService& s = **service;
  const StochasticMatrix big = StochasticMatrix::Identity(kMax + 1);
  for (const TemporalCorrelations& corr :
       {TemporalCorrelations::BackwardOnly(big),
        TemporalCorrelations::ForwardOnly(big)}) {
    const Status refused = s.Join("wide", corr);
    EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument) << refused;
  }
  // Refused before registration: the name stays free, and the bound
  // itself is accepted.
  ASSERT_TRUE(s.Join("wide", TemporalCorrelations::BackwardOnly(
                                 StochasticMatrix::Identity(kMax)))
                  .ok());
  ASSERT_TRUE(s.ReleaseAll(0.1).ok());
  ASSERT_TRUE(s.Flush().ok());
  EXPECT_EQ(s.num_users(), 1u);
  auto wide = s.Query("wide");
  ASSERT_TRUE(wide.ok()) << wide.status();
  EXPECT_EQ(wide->user_level_tpl, 0.1);
  ASSERT_TRUE(s.Close().ok());
}

TEST(ShardedService, ReplayedJoinIsNotBoundByTheTableLimit) {
  // Logs written before the Join bound still recover: replay enrolls
  // through AccountantBank::AddUser, which takes any size.
  AddUserRecord add;
  add.name = "wide";
  add.image.correlations = TemporalCorrelations::BackwardOnly(
      StochasticMatrix::Identity(TemporalLossFunction::kMaxTableStates + 1));
  AccountantBank bank;
  std::vector<std::string> names;
  ASSERT_TRUE(
      ApplyWalRecord({EventType::kAddUser, EncodeAddUser(add)}, &bank, &names)
          .ok());
  EXPECT_EQ(bank.num_users(), 1u);
  EXPECT_EQ(names, std::vector<std::string>{"wide"});
}

TEST(ShardedService, ShardOfIsStableAndCoversShards) {
  // The partition function is part of the durable contract (logs
  // reference it implicitly through user placement): FNV-1a 64 of the
  // name, mod the shard count, pinned here at 2, 4 and 7 shards.
  struct Golden {
    const char* name;
    std::size_t at2, at4, at7;
  };
  for (const Golden& g : {Golden{"alice", 1, 1, 2}, Golden{"bob", 0, 2, 6},
                          Golden{"user-0", 1, 1, 3},
                          Golden{"user-41", 0, 0, 3}, Golden{"", 1, 3, 3}}) {
    EXPECT_EQ(ShardedReleaseService::ShardOf(g.name, 2), g.at2) << g.name;
    EXPECT_EQ(ShardedReleaseService::ShardOf(g.name, 4), g.at4) << g.name;
    EXPECT_EQ(ShardedReleaseService::ShardOf(g.name, 7), g.at7) << g.name;
  }
  EXPECT_EQ(ShardedReleaseService::ShardOf("anything", 1), 0u);
  bool hit[4] = {false, false, false, false};
  for (int i = 0; i < 64; ++i) {
    hit[ShardedReleaseService::ShardOf("user-" + std::to_string(i), 4)] =
        true;
  }
  EXPECT_TRUE(hit[0] && hit[1] && hit[2] && hit[3]);
}

TEST(ShardedService, BatchWindowCoalesces) {
  ShardedServiceOptions options;
  options.num_shards = 2;
  options.batch_window = 100;  // nothing ticks until Flush
  auto service = ShardedReleaseService::Create("", options);
  ASSERT_TRUE(service.ok());
  ShardedReleaseService& s = **service;
  ASSERT_TRUE(s.Join("u0", ProfileCorrelations(0)).ok());
  ASSERT_TRUE(s.Join("u1", ProfileCorrelations(0)).ok());
  // Five requests at one epsilon + three at another = two global
  // releases once the window flushes, not eight.
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(s.Release("u0", 0.1).ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(s.Release("u1", 0.2).ok());
  EXPECT_EQ(s.horizon(), 0u);  // still batching
  ASSERT_TRUE(s.Flush().ok());
  EXPECT_EQ(s.horizon(), 2u);
  EXPECT_EQ(s.stats().ticks, 1u);
  EXPECT_EQ(s.stats().global_releases, 2u);
  EXPECT_EQ(s.stats().release_requests, 8u);
  ASSERT_TRUE(s.Close().ok());
}

TEST(ShardedService, SmallQueueCapacityStillCompletes) {
  ShardedServiceOptions options;
  options.num_shards = 3;
  options.batch_window = 1;  // tick on every request: maximum pressure
  options.queue_capacity = 2;
  auto service = ShardedReleaseService::Create("", options);
  ASSERT_TRUE(service.ok());
  ShardedReleaseService& s = **service;
  for (int u = 0; u < 6; ++u) {
    ASSERT_TRUE(
        s.Join("u" + std::to_string(u), ProfileCorrelations(u % 2)).ok());
  }
  for (int t = 0; t < 50; ++t) {
    ASSERT_TRUE(s.Release("u" + std::to_string(t % 6), 0.05).ok());
  }
  ASSERT_TRUE(s.Flush().ok());
  EXPECT_EQ(s.horizon(), 50u);
  ASSERT_TRUE(s.Close().ok());
}

// -------------------------------------------------- the tentpole property

void ExpectMatchesReference(std::uint64_t seed, std::size_t shards,
                            std::size_t batch_window,
                            const std::string& log_dir,
                            std::size_t threads_per_shard = 1) {
  const std::vector<ReferenceOp> ops = MakeWorkload(seed, 8, 120);

  ReferenceModel reference(batch_window);
  for (const ReferenceOp& op : ops) reference.Apply(op);
  reference.Finish();

  ShardedServiceOptions options;
  options.num_shards = shards;
  options.batch_window = batch_window;
  options.threads_per_shard = threads_per_shard;
  auto service = ShardedReleaseService::Create(log_dir, options);
  ASSERT_TRUE(service.ok()) << service.status();
  ASSERT_TRUE(DriveService(service->get(), ops).ok());

  for (const std::string& name : reference.names()) {
    auto report = (*service)->Query(name);
    ASSERT_TRUE(report.ok()) << name << ": " << report.status();
    EXPECT_EQ(report->tpl_series, reference.TplSeries(name))
        << "seed " << seed << " shards " << shards << " window "
        << batch_window << " threads_per_shard " << threads_per_shard
        << " user " << name;
    // Every field Query fills from the bank's one-pass series.
    const TplAccountant& accountant = reference.accountant(name);
    EXPECT_EQ(report->max_tpl, accountant.MaxTpl()) << name;
    EXPECT_EQ(report->epsilons, accountant.epsilons()) << name;
    EXPECT_EQ(report->user_level_tpl, accountant.UserLevelTpl()) << name;
    EXPECT_EQ(report->horizon, accountant.horizon()) << name;
  }
  ASSERT_TRUE((*service)->Close().ok());
}

TEST(ShardedServiceProperty, MatchesSerialReferenceAcrossShardsAndWindows) {
  for (std::uint64_t seed : {11u, 23u}) {
    for (std::size_t shards : {1u, 2u, 5u}) {
      for (std::size_t window : {1u, 7u, 64u}) {
        ExpectMatchesReference(seed, shards, window, "");
        if (testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(ShardedServiceProperty, MatchesSerialReferenceAcrossHybridGrid) {
  // Hybrid shard x bank parallelism is bitwise-invisible: every
  // (shards x threads_per_shard) cell reproduces the serial
  // TplAccountant reference exactly.
  for (std::size_t shards : {1u, 3u}) {
    for (std::size_t threads_per_shard : {1u, 2u, 4u}) {
      ExpectMatchesReference(41, shards, 7, "", threads_per_shard);
      if (testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(ShardedServiceDurability, ThreadsPerShardRoundTripsThroughManifest) {
  TempDir dir("hybrid_manifest");
  const std::vector<ReferenceOp> ops = MakeWorkload(13, 6, 80);
  std::map<std::string, std::vector<double>> live_series;
  {
    ShardedServiceOptions options;
    options.num_shards = 2;
    options.batch_window = 4;
    options.threads_per_shard = 3;
    auto service = ShardedReleaseService::Create(dir.path, options);
    ASSERT_TRUE(service.ok()) << service.status();
    ASSERT_TRUE(DriveService(service->get(), ops).ok());
    auto alphas = (*service)->PersonalizedAlphas();
    ASSERT_TRUE(alphas.ok());
    for (const auto& [name, alpha] : *alphas) {
      (void)alpha;
      live_series[name] = (*service)->Query(name)->tpl_series;
    }
    ASSERT_TRUE((*service)->Close().ok());
  }
  auto recovered = ShardedReleaseService::Recover(dir.path);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ((*recovered)->options().threads_per_shard, 3u);
  for (const auto& [name, series] : live_series) {
    auto report = (*recovered)->Query(name);
    ASSERT_TRUE(report.ok()) << name;
    EXPECT_EQ(report->tpl_series, series) << name;
  }
  ASSERT_TRUE((*recovered)->Close().ok());
}

// Threads of this process (Linux); 0 where /proc is unavailable.
std::size_t ProcessThreadCount() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return 0;
  std::size_t count = 0;
  for (; it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ++count;
  }
  return count;
}

TEST(ShardedServiceBounds, CreateRefusesThreadsPastTheBoundAndStartsNone) {
  ShardedServiceOptions wide;  // one worker too many
  wide.num_shards = kMaxServiceThreads + 1;
  ShardedServiceOptions deep;  // 1 worker + kMaxServiceThreads bank threads
  deep.threads_per_shard = kMaxServiceThreads;
  ShardedServiceOptions overflow;  // 2^32 x (1 + 2^32 - 1) wraps to 0
  overflow.num_shards = std::size_t{1} << 32;
  overflow.threads_per_shard = (std::size_t{1} << 32) - 1;
  const std::size_t threads_before = ProcessThreadCount();
  for (const ShardedServiceOptions& options : {wide, deep, overflow}) {
    auto service = ShardedReleaseService::Create("", options);
    ASSERT_FALSE(service.ok());
    EXPECT_EQ(service.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(ProcessThreadCount(), threads_before);
}

TEST(ShardedServiceBounds, RecoverRefusesAManifestPastTheThreadBound) {
  TempDir dir("thread_bound_manifest");
  {
    auto service = ShardedReleaseService::Create(dir.path, {});
    ASSERT_TRUE(service.ok()) << service.status();
    ASSERT_TRUE((*service)->Close().ok());
  }
  const std::string manifest = dir.path + "/MANIFEST";
  std::string text;
  {
    std::ifstream in(manifest);
    text.assign(std::istreambuf_iterator<char>(in), {});
  }
  const std::string line = "threads_per_shard 1\n";
  const std::size_t at = text.find(line);
  ASSERT_NE(at, std::string::npos) << text;
  text.replace(at, line.size(),
               "threads_per_shard " + std::to_string(kMaxServiceThreads) +
                   "\n");
  std::ofstream(manifest) << text;
  const std::size_t threads_before = ProcessThreadCount();
  auto recovered = ShardedReleaseService::Recover(dir.path);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ProcessThreadCount(), threads_before);
}

TEST(ShardedServiceProperty, SeriesAreShardCountInvariant) {
  // Global time steps make per-user series independent of placement:
  // run the same stream at 1 and 4 shards and compare bitwise.
  const std::vector<ReferenceOp> ops = MakeWorkload(99, 10, 150);
  std::map<std::string, std::vector<double>> series_by_name;
  for (std::size_t shards : {1u, 4u}) {
    ShardedServiceOptions options;
    options.num_shards = shards;
    options.batch_window = 5;
    auto service = ShardedReleaseService::Create("", options);
    ASSERT_TRUE(service.ok());
    ASSERT_TRUE(DriveService(service->get(), ops).ok());
    auto alphas = (*service)->PersonalizedAlphas();
    ASSERT_TRUE(alphas.ok());
    for (const auto& [name, alpha] : *alphas) {
      (void)alpha;
      auto report = (*service)->Query(name);
      ASSERT_TRUE(report.ok());
      auto [it, inserted] =
          series_by_name.emplace(name, report->tpl_series);
      if (!inserted) {
        EXPECT_EQ(it->second, report->tpl_series)
            << "shard-count variance for " << name;
      }
    }
    ASSERT_TRUE((*service)->Close().ok());
  }
}

// ----------------------------------------------------------- durability

TEST(ShardedServiceDurability, CleanRestartReproducesSeriesBitwise) {
  TempDir dir("clean_restart");
  const std::vector<ReferenceOp> ops = MakeWorkload(7, 6, 100);
  std::map<std::string, std::vector<double>> live_series;
  {
    ShardedServiceOptions options;
    options.num_shards = 3;
    options.batch_window = 4;
    auto service = ShardedReleaseService::Create(dir.path, options);
    ASSERT_TRUE(service.ok()) << service.status();
    ASSERT_TRUE(DriveService(service->get(), ops).ok());
    auto alphas = (*service)->PersonalizedAlphas();
    ASSERT_TRUE(alphas.ok());
    for (const auto& [name, alpha] : *alphas) {
      (void)alpha;
      live_series[name] = (*service)->Query(name)->tpl_series;
    }
    ASSERT_TRUE((*service)->Close().ok());
  }
  auto recovered = ShardedReleaseService::Recover(dir.path);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ((*recovered)->num_users(), live_series.size());
  for (const auto& [name, series] : live_series) {
    auto report = (*recovered)->Query(name);
    ASSERT_TRUE(report.ok()) << name;
    EXPECT_EQ(report->tpl_series, series) << name;
  }
  // The recovered service keeps serving.
  ASSERT_TRUE((*recovered)->ReleaseAll(0.1).ok());
  ASSERT_TRUE((*recovered)->Flush().ok());
  ASSERT_TRUE((*recovered)->Close().ok());
}

TEST(ShardedServiceDurability, SnapshotsCutReplayAndStayBitwise) {
  TempDir dir("snapshots");
  const std::vector<ReferenceOp> ops = MakeWorkload(31, 6, 160);
  std::map<std::string, std::vector<double>> live_series;
  {
    ShardedServiceOptions options;
    options.num_shards = 2;
    options.batch_window = 3;
    options.snapshot_every = 5;
    auto service = ShardedReleaseService::Create(dir.path, options);
    ASSERT_TRUE(service.ok()) << service.status();
    ASSERT_TRUE(DriveService(service->get(), ops).ok());
    auto alphas = (*service)->PersonalizedAlphas();
    ASSERT_TRUE(alphas.ok());
    for (const auto& [name, alpha] : *alphas) {
      (void)alpha;
      live_series[name] = (*service)->Query(name)->tpl_series;
    }
    EXPECT_GT((*service)->shard_stats(0).snapshots_written, 0u);
    ASSERT_TRUE((*service)->Close().ok());
  }
  auto recovered = ShardedReleaseService::Recover(dir.path);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  for (std::size_t shard = 0; shard < 2; ++shard) {
    const ShardStats stats = (*recovered)->shard_stats(shard);
    EXPECT_TRUE(stats.restored_from_snapshot) << "shard " << shard;
    EXPECT_LT(stats.replayed_records, stats.wal_records)
        << "snapshot should cut replay on shard " << shard;
  }
  for (const auto& [name, series] : live_series) {
    auto report = (*recovered)->Query(name);
    ASSERT_TRUE(report.ok()) << name;
    EXPECT_EQ(report->tpl_series, series) << name;
  }
  ASSERT_TRUE((*recovered)->Close().ok());
}

TEST(ShardedService, EphemeralSnapshotIsRejectedWithoutBrickingService) {
  auto service = ShardedReleaseService::Create("", {});
  ASSERT_TRUE(service.ok());
  ShardedReleaseService& s = **service;
  ASSERT_TRUE(s.Join("alice", ProfileCorrelations(0)).ok());
  EXPECT_FALSE(s.Snapshot().ok());  // no log dir
  // The rejection must not fail-stop the shards: serving continues.
  ASSERT_TRUE(s.ReleaseAll(0.1).ok());
  ASSERT_TRUE(s.Flush().ok());
  EXPECT_EQ(s.horizon(), 1u);
  ASSERT_TRUE(s.Close().ok());
}

TEST(ShardedServiceDurability, ZeroUserShardSnapshotsAreUsable) {
  // More shards than users: some shards snapshot with no users, and
  // those snapshots must still cut replay on recovery (the header
  // carries the quantization, not just the per-user blobs).
  TempDir dir("zero_user_shard");
  std::size_t live_horizon = 0;
  {
    ShardedServiceOptions options;
    options.num_shards = 4;
    options.batch_window = 2;
    options.snapshot_every = 3;
    auto service = ShardedReleaseService::Create(dir.path, options);
    ASSERT_TRUE(service.ok());
    ASSERT_TRUE((*service)->Join("only-user", ProfileCorrelations(0)).ok());
    // Same-epsilon requests coalesce within a window, so this yields
    // fewer global releases than requests — compare against the live
    // horizon, not the request count.
    for (int t = 0; t < 12; ++t) {
      ASSERT_TRUE((*service)->ReleaseAll(0.05).ok());
    }
    ASSERT_TRUE((*service)->Flush().ok());
    live_horizon = (*service)->horizon();
    ASSERT_TRUE((*service)->Close().ok());
  }
  auto recovered = ShardedReleaseService::Recover(dir.path);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ((*recovered)->num_users(), 1u);
  EXPECT_EQ((*recovered)->horizon(), live_horizon);
  EXPECT_GT(live_horizon, 4u);  // enough releases that snapshots fired
  std::size_t zero_user_shards = 0;
  for (std::size_t shard = 0; shard < 4; ++shard) {
    const ShardStats stats = (*recovered)->shard_stats(shard);
    if (stats.users > 0) continue;
    ++zero_user_shards;
    EXPECT_TRUE(stats.restored_from_snapshot) << "shard " << shard;
    EXPECT_LT(stats.replayed_records, stats.wal_records) << "shard " << shard;
  }
  EXPECT_GE(zero_user_shards, 1u);
  ASSERT_TRUE((*recovered)->Close().ok());
}

TEST(ShardedServiceDurability, CreateRefusesExistingDirAndRecoverNeedsOne) {
  TempDir dir("create_guard");
  {
    auto service = ShardedReleaseService::Create(dir.path, {});
    ASSERT_TRUE(service.ok());
    ASSERT_TRUE((*service)->Close().ok());
  }
  auto again = ShardedReleaseService::Create(dir.path, {});
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kAlreadyExists);
  auto missing = ShardedReleaseService::Recover("/tmp/tcdp_no_such_dir");
  EXPECT_FALSE(missing.ok());
}

}  // namespace
}  // namespace server
}  // namespace tcdp
