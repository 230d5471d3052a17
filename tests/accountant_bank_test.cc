// Unit and property tests for core/accountant_bank: cohort grouping,
// heterogeneous/sparse schedules, late joiners, and the bank's
// equivalence contract — every per-user series bitwise equal to the
// single-user TplAccountant reference, at any thread count.

#include "core/accountant_bank.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/tpl_accountant.h"
#include "markov/stochastic_matrix.h"

namespace tcdp {
namespace {

StochasticMatrix Fig3Matrix() {
  return StochasticMatrix::FromRows({{0.8, 0.2}, {0.0, 1.0}});
}

TemporalCorrelations Fig3Both() {
  auto c = TemporalCorrelations::Both(Fig3Matrix(), Fig3Matrix());
  EXPECT_TRUE(c.ok());
  return std::move(c).value();
}

TEST(AccountantBank, RejectsBadEpsilonAndParticipants) {
  AccountantBank bank;
  bank.AddUser(Fig3Both());
  EXPECT_FALSE(bank.RecordRelease(0.0).ok());
  EXPECT_FALSE(bank.RecordRelease(-1.0).ok());
  EXPECT_FALSE(bank.RecordRelease(0.1, {1}).ok());  // one user: index 0
  EXPECT_EQ(bank.horizon(), 0u);
}

TEST(AccountantBank, UniformFleetMatchesReferenceBitwise) {
  AccountantBankOptions options;
  AccountantBank bank(options);
  for (int u = 0; u < 5; ++u) bank.AddUser(Fig3Both());
  const std::vector<double> schedule = {0.1, 0.2, 0.05, 0.3};
  for (double eps : schedule) ASSERT_TRUE(bank.RecordRelease(eps).ok());

  // Reference through a separately built but identically quantized
  // cache: determinism makes shared state unnecessary for equality.
  TemporalLossCache cache(options.cache);
  auto corr = Fig3Both();
  TplAccountant reference(corr, cache.Intern(corr.backward()),
                          cache.Intern(corr.forward()),
                          options.cache.alpha_resolution);
  for (double eps : schedule) ASSERT_TRUE(reference.RecordRelease(eps).ok());

  for (std::size_t u = 0; u < bank.num_users(); ++u) {
    EXPECT_EQ(bank.BplSeriesFor(u), reference.BplSeries()) << "user " << u;
    EXPECT_EQ(bank.FplSeriesFor(u), reference.FplSeries()) << "user " << u;
    EXPECT_EQ(bank.TplSeriesFor(u), reference.TplSeries()) << "user " << u;
    EXPECT_EQ(bank.MaxTplFor(u), reference.MaxTpl());
    EXPECT_DOUBLE_EQ(bank.UserEpsSum(u), reference.UserLevelTpl());
  }
  EXPECT_EQ(bank.num_cohorts(), 1u);
  EXPECT_EQ(*bank.MaxTplAt(2), *reference.Tpl(2));
}

TEST(AccountantBank, UncachedModeMatchesDirectReferenceBitwise) {
  AccountantBankOptions options;
  options.share_loss_cache = false;
  AccountantBank bank(options);
  bank.AddUser(Fig3Both());
  TplAccountant reference(Fig3Both());
  for (double eps : {0.1, 0.2, 0.05}) {
    ASSERT_TRUE(bank.RecordRelease(eps).ok());
    ASSERT_TRUE(reference.RecordRelease(eps).ok());
  }
  EXPECT_EQ(bank.TplSeriesFor(0), reference.TplSeries());
  EXPECT_EQ(bank.cache_stats().hits + bank.cache_stats().misses, 0u);
}

TEST(AccountantBank, SkippedUsersPropagateLossWithoutAccruingBudget) {
  AccountantBank bank;
  const std::size_t user = bank.AddUser(Fig3Both());
  ASSERT_TRUE(bank.RecordRelease(0.5, {user}).ok());
  ASSERT_TRUE(bank.RecordRelease(0.5, {}).ok());  // nobody participates
  ASSERT_TRUE(bank.RecordRelease(0.5, {user}).ok());
  EXPECT_DOUBLE_EQ(bank.UserEpsSum(user), 1.0);
  EXPECT_TRUE(bank.Participated(user, 0));
  EXPECT_FALSE(bank.Participated(user, 1));
  EXPECT_EQ(bank.EpsilonsFor(user), (std::vector<double>{0.5, 0.0, 0.5}));

  const auto bpl = bank.BplSeriesFor(user);
  // The gap step accrues no eps but prior leakage still propagates:
  // 0 < BPL_2 = L^B(BPL_1) <= BPL_1 (Remark 1).
  EXPECT_GT(bpl[1], 0.0);
  EXPECT_LE(bpl[1], bpl[0]);
  // And BPL_3 = L^B(BPL_2) + 0.5 > BPL_1.
  EXPECT_GT(bpl[2], bpl[0]);
}

TEST(AccountantBank, LateJoinerSeriesCoversOnlyItsSubSchedule) {
  AccountantBank bank;
  const std::size_t early = bank.AddUser(Fig3Both());
  ASSERT_TRUE(bank.RecordRelease(0.1).ok());
  ASSERT_TRUE(bank.RecordRelease(0.2).ok());
  const std::size_t late = bank.AddUser(Fig3Both());
  EXPECT_EQ(bank.join_release(late), 2u);
  EXPECT_EQ(bank.user_horizon(late), 0u);
  ASSERT_TRUE(bank.RecordRelease(0.3).ok());
  EXPECT_EQ(bank.user_horizon(late), 1u);
  EXPECT_EQ(bank.user_horizon(early), 3u);
  // Same cohort, different join: slots stay independent.
  EXPECT_EQ(bank.num_cohorts(), 1u);
  EXPECT_DOUBLE_EQ(bank.UserEpsSum(late), 0.3);
  EXPECT_EQ(bank.BplSeriesFor(late), (std::vector<double>{0.3}));
  // MaxTplAt(1) ignores the late joiner (no series there).
  EXPECT_EQ(*bank.MaxTplAt(1), bank.TplSeriesFor(early)[0]);
}

TEST(AccountantBank, CacheHitMissAccountingOnUniformFleet) {
  // 50 users, one shared matrix: each new alpha is solved once (miss)
  // and served to the rest of the cohort from the same bucket. Backward
  // and forward share the interned matrix, and with a uniform schedule
  // the FPL pass re-hits the BPL buckets.
  AccountantBank bank;
  for (int u = 0; u < 50; ++u) bank.AddUser(Fig3Both());
  for (int t = 0; t < 6; ++t) ASSERT_TRUE(bank.RecordRelease(0.1).ok());
  (void)bank.OverallAlpha();  // forces the FPL backward pass
  const auto stats = bank.cache_stats();
  EXPECT_EQ(stats.distinct_matrices, 1u);
  EXPECT_EQ(stats.misses, 5u);  // BPL visits 5 distinct alphas
  EXPECT_GT(stats.HitRate(), 0.9);
}

TEST(AccountantBank, HeterogeneousMatricesStayIsolated) {
  AccountantBank bank;
  bank.AddUser(Fig3Both());
  const std::size_t identity = bank.AddUser(
      TemporalCorrelations::BackwardOnly(StochasticMatrix::Identity(2)));
  const std::size_t uncorrelated = bank.AddUser(TemporalCorrelations::None());
  for (int t = 0; t < 3; ++t) ASSERT_TRUE(bank.RecordRelease(0.1).ok());
  EXPECT_EQ(bank.cache_stats().distinct_matrices, 2u);
  // Identity correlation: BPL grows linearly; the uncorrelated user
  // stays flat at eps.
  EXPECT_NEAR(bank.BplSeriesFor(identity)[2], 0.3, 1e-9);
  EXPECT_NEAR(bank.TplSeriesFor(uncorrelated)[1], 0.1, 1e-12);
}

TEST(AccountantBank, CohortsDeduplicateByMatrixPairContents) {
  AccountantBank bank;
  bank.AddUser(Fig3Both());
  bank.AddUser(Fig3Both());  // same pair contents -> same cohort
  bank.AddUser(TemporalCorrelations::BackwardOnly(Fig3Matrix()));
  bank.AddUser(TemporalCorrelations::ForwardOnly(Fig3Matrix()));
  bank.AddUser(TemporalCorrelations::None());
  EXPECT_EQ(bank.num_cohorts(), 4u);
  // Backward-only and forward-only over the same matrix must NOT share
  // a cohort (their recurrences differ) even though the interned loss
  // table is shared underneath.
  EXPECT_EQ(bank.cache_stats().distinct_matrices, 1u);
}

TEST(AccountantBank, PopulationAggregates) {
  ThreadPool pool(2);
  AccountantBank bank;
  bank.set_pool(&pool);
  const std::size_t correlated = bank.AddUser(Fig3Both());
  const std::size_t uncorrelated = bank.AddUser(TemporalCorrelations::None());
  for (int t = 0; t < 4; ++t) ASSERT_TRUE(bank.RecordRelease(0.1).ok());

  const auto alphas = bank.PersonalizedAlphas();
  ASSERT_EQ(alphas.size(), 2u);
  EXPECT_GT(alphas[correlated], alphas[uncorrelated]);  // amplified
  EXPECT_NEAR(alphas[uncorrelated], 0.1, 1e-12);
  EXPECT_EQ(bank.OverallAlpha(), std::max(alphas[0], alphas[1]));

  auto at2 = bank.MaxTplAt(2);
  ASSERT_TRUE(at2.ok());
  EXPECT_EQ(*at2, bank.TplSeriesFor(correlated)[1]);
  EXPECT_FALSE(bank.MaxTplAt(0).ok());
  EXPECT_FALSE(bank.MaxTplAt(bank.horizon() + 1).ok());
}

TEST(AccountantBank, EmptyPopulationFailsMaxTplAt) {
  AccountantBank bank;
  EXPECT_EQ(bank.MaxTplAt(1).status().code(), StatusCode::kFailedPrecondition);
  EXPECT_DOUBLE_EQ(bank.OverallAlpha(), 0.0);
}

TEST(AccountantBank, UncachedMaxOverUsers) {
  AccountantBankOptions options;
  options.share_loss_cache = false;
  AccountantBank bank(options);
  bank.AddUser(TemporalCorrelations::None());
  bank.AddUser(TemporalCorrelations::BackwardOnly(Fig3Matrix()));
  ASSERT_TRUE(bank.RecordRelease(0.1).ok());
  ASSERT_TRUE(bank.RecordRelease(0.1).ok());
  auto t2 = bank.MaxTplAt(2);
  ASSERT_TRUE(t2.ok());
  // The correlated user dominates: BPL_2 ~ 0.18 > 0.1.
  EXPECT_NEAR(*t2, 0.1807756, 1e-5);
  EXPECT_GT(bank.OverallAlpha(), 0.1);
}

// ----------------------------------------------------------------------
// Property tests: random participation masks, random cohort sizes, late
// joiners — bank vs reference and serial vs parallel, bitwise, per the
// ISSUE acceptance criteria.

struct RandomFleet {
  std::vector<TemporalCorrelations> profiles;  // cohort exemplars
  std::vector<std::size_t> profile_of_user;
  std::vector<std::size_t> join_of_user;          // release index at join
  std::vector<double> schedule;
  std::vector<std::vector<std::size_t>> participants;  // per release
};

RandomFleet MakeRandomFleet(Rng* rng) {
  RandomFleet fleet;
  const std::size_t num_profiles = 1 + static_cast<std::size_t>(
                                           rng->UniformInt(0, 2));
  for (std::size_t p = 0; p < num_profiles; ++p) {
    const auto pb = StochasticMatrix::Random(3, rng);
    const auto pf = StochasticMatrix::Random(3, rng);
    switch (rng->UniformInt(0, 3)) {
      case 0:
        fleet.profiles.push_back(TemporalCorrelations::Both(pb, pf).value());
        break;
      case 1:
        fleet.profiles.push_back(TemporalCorrelations::BackwardOnly(pb));
        break;
      case 2:
        fleet.profiles.push_back(TemporalCorrelations::ForwardOnly(pf));
        break;
      default:
        fleet.profiles.push_back(TemporalCorrelations::None());
        break;
    }
  }
  const std::size_t horizon = 4 + static_cast<std::size_t>(
                                      rng->UniformInt(0, 4));
  const std::size_t initial_users =
      1 + static_cast<std::size_t>(rng->UniformInt(0, 8));
  for (std::size_t u = 0; u < initial_users; ++u) {
    fleet.profile_of_user.push_back(
        static_cast<std::size_t>(rng->UniformInt(0, num_profiles - 1)));
    fleet.join_of_user.push_back(0);
  }
  for (std::size_t t = 0; t < horizon; ++t) {
    // Occasionally a user joins mid-stream.
    if (rng->Uniform() < 0.3) {
      fleet.profile_of_user.push_back(
          static_cast<std::size_t>(rng->UniformInt(0, num_profiles - 1)));
      fleet.join_of_user.push_back(t);
    }
    fleet.schedule.push_back(0.05 + 0.4 * rng->Uniform());
    std::vector<std::size_t> in_release;
    for (std::size_t u = 0; u < fleet.profile_of_user.size(); ++u) {
      if (fleet.join_of_user[u] <= t && rng->Uniform() < 0.6) {
        in_release.push_back(u);
      }
    }
    fleet.participants.push_back(std::move(in_release));
  }
  return fleet;
}

/// Drives a bank through the fleet; users are added in join order.
void DriveBank(const RandomFleet& fleet, AccountantBank* bank) {
  std::size_t next_user = 0;
  for (std::size_t t = 0; t < fleet.schedule.size(); ++t) {
    while (next_user < fleet.join_of_user.size() &&
           fleet.join_of_user[next_user] <= t) {
      bank->AddUser(fleet.profiles[fleet.profile_of_user[next_user]]);
      ++next_user;
    }
    ASSERT_TRUE(
        bank->RecordRelease(fleet.schedule[t], fleet.participants[t]).ok());
  }
}

/// The single-user reference for user \p u, driven over its
/// sub-schedule with skips, through an identically quantized cache.
TplAccountant MakeReference(const RandomFleet& fleet, std::size_t u,
                            const TemporalLossCache::Options& cache_options,
                            TemporalLossCache* cache) {
  TemporalCorrelations corr = fleet.profiles[fleet.profile_of_user[u]];
  std::shared_ptr<const LossEvaluator> b;
  std::shared_ptr<const LossEvaluator> f;
  if (corr.has_backward()) b = cache->Intern(corr.backward());
  if (corr.has_forward()) f = cache->Intern(corr.forward());
  TplAccountant reference(std::move(corr), std::move(b), std::move(f),
                          cache_options.alpha_resolution);
  for (std::size_t t = fleet.join_of_user[u]; t < fleet.schedule.size();
       ++t) {
    const auto& in_release = fleet.participants[t];
    const bool participated =
        std::find(in_release.begin(), in_release.end(), u) !=
        in_release.end();
    if (participated) {
      EXPECT_TRUE(reference.RecordRelease(fleet.schedule[t]).ok());
    } else {
      EXPECT_TRUE(reference.RecordSkip().ok());
    }
  }
  return reference;
}

class BankEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(BankEquivalenceTest, BankMatchesReferenceBitwiseUnderSparseSchedules) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 77000);
  const RandomFleet fleet = MakeRandomFleet(&rng);

  AccountantBankOptions options;
  AccountantBank bank(options);
  DriveBank(fleet, &bank);

  TemporalLossCache reference_cache(options.cache);
  for (std::size_t u = 0; u < bank.num_users(); ++u) {
    TplAccountant reference =
        MakeReference(fleet, u, options.cache, &reference_cache);
    EXPECT_EQ(bank.BplSeriesFor(u), reference.BplSeries()) << "user " << u;
    EXPECT_EQ(bank.FplSeriesFor(u), reference.FplSeries()) << "user " << u;
    EXPECT_EQ(bank.TplSeriesFor(u), reference.TplSeries()) << "user " << u;
    EXPECT_EQ(bank.MaxTplFor(u), reference.MaxTpl()) << "user " << u;
    EXPECT_DOUBLE_EQ(bank.UserEpsSum(u), reference.UserLevelTpl());
  }
}

TEST_P(BankEquivalenceTest, SerialAndParallelBanksAgreeBitwise) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 88000);
  const RandomFleet fleet = MakeRandomFleet(&rng);

  AccountantBank serial;  // no pool: inline
  DriveBank(fleet, &serial);

  for (std::size_t threads : {2u, 5u}) {
    ThreadPool pool(threads);
    AccountantBank parallel;
    parallel.set_pool(&pool);
    DriveBank(fleet, &parallel);
    ASSERT_EQ(parallel.num_users(), serial.num_users());
    for (std::size_t u = 0; u < serial.num_users(); ++u) {
      EXPECT_EQ(parallel.BplSeriesFor(u), serial.BplSeriesFor(u))
          << "threads=" << threads << " user " << u;
      EXPECT_EQ(parallel.TplSeriesFor(u), serial.TplSeriesFor(u))
          << "threads=" << threads << " user " << u;
    }
    EXPECT_EQ(parallel.OverallAlpha(), serial.OverallAlpha());
  }
}

TEST_P(BankEquivalenceTest, UncachedBankMatchesDirectReferenceBitwise) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 99000);
  const RandomFleet fleet = MakeRandomFleet(&rng);

  AccountantBankOptions options;
  options.share_loss_cache = false;
  AccountantBank bank(options);
  DriveBank(fleet, &bank);

  for (std::size_t u = 0; u < bank.num_users(); ++u) {
    TplAccountant reference(fleet.profiles[fleet.profile_of_user[u]]);
    for (std::size_t t = fleet.join_of_user[u]; t < fleet.schedule.size();
         ++t) {
      const auto& in_release = fleet.participants[t];
      if (std::find(in_release.begin(), in_release.end(), u) !=
          in_release.end()) {
        ASSERT_TRUE(reference.RecordRelease(fleet.schedule[t]).ok());
      } else {
        ASSERT_TRUE(reference.RecordSkip().ok());
      }
    }
    EXPECT_EQ(bank.TplSeriesFor(u), reference.TplSeries()) << "user " << u;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BankEquivalenceTest, ::testing::Range(1, 13));

}  // namespace
}  // namespace tcdp
