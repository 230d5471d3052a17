// Unit and property tests for core/accountant_bank: cohort grouping,
// heterogeneous/sparse schedules, late joiners, and the bank's
// equivalence contract — every per-user series bitwise equal to the
// single-user TplAccountant reference, at any thread count.

#include "core/accountant_bank.h"

#include <gtest/gtest.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "common/run_series.h"
#include "common/thread_pool.h"
#include "core/tpl_accountant.h"
#include "markov/stochastic_matrix.h"
#include "obs/metrics.h"

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
  // The first user's series looks up its 5 BPL and 5 FPL arguments, all
  // solved already; the other 49 read the same trajectories from the
  // thread's trajectory memo without a lookup.
  EXPECT_EQ(stats.hits, 10u);
}

TEST(AccountantBank, CacheEntriesGaugeForgetsADestroyedBank) {
  // tcdp_loss_cache_entries counts the entries of live caches: a bank
  // that goes away (a Recover, a replica's re-bootstrap) takes its
  // entries out of the gauge.
  obs::Gauge* gauge =
      obs::Registry::Default().GetGauge("tcdp_loss_cache_entries");
  const std::int64_t start = gauge->value();
  {
    AccountantBank bank;
    for (int u = 0; u < 50; ++u) bank.AddUser(Fig3Both());
    for (int t = 0; t < 6; ++t) ASSERT_TRUE(bank.RecordRelease(0.1).ok());
    (void)bank.OverallAlpha();
    const std::size_t entries = bank.cache_stats().entries;
    ASSERT_GT(entries, 0u);
    EXPECT_EQ(gauge->value(), start + static_cast<std::int64_t>(entries));
  }
  EXPECT_EQ(gauge->value(), start);
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

TEST(AccountantBank, OneUlpApartMatricesGetSeparateCohortsAndTables) {
  Matrix nudged = Fig3Matrix().matrix();
  nudged.At(0, 0) = std::nextafter(nudged.At(0, 0), 1.0);
  auto ulp = StochasticMatrix::CreateExact(nudged);
  ASSERT_TRUE(ulp.ok());
  ASSERT_NE(FingerprintStochasticMatrix(*ulp),
            FingerprintStochasticMatrix(Fig3Matrix()));
  AccountantBank bank;
  bank.AddUser(TemporalCorrelations::BackwardOnly(Fig3Matrix()));
  bank.AddUser(TemporalCorrelations::BackwardOnly(*ulp));
  // A bit-identical copy, built separately, shares the first cohort.
  auto copy = StochasticMatrix::CreateExact(Fig3Matrix().matrix());
  ASSERT_TRUE(copy.ok());
  bank.AddUser(TemporalCorrelations::BackwardOnly(*copy));
  EXPECT_EQ(FingerprintStochasticMatrix(*copy),
            FingerprintStochasticMatrix(Fig3Matrix()));
  EXPECT_EQ(bank.num_cohorts(), 2u);
  EXPECT_EQ(bank.cache_stats().distinct_matrices, 2u);
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

// ----------------------------------------------------------------------
// Long sparse schedules: over a thousand releases at under 2%
// participation, so every user's series has long eps-0 stretches on
// which the recurrences settle onto the quantization grid's fixed point
// and SeriesFor fills the rest of the gap.

RandomFleet MakeLongSparseFleet(Rng* rng) {
  RandomFleet fleet;
  const auto pb = StochasticMatrix::Random(3, rng);
  const auto pf = StochasticMatrix::Random(3, rng);
  fleet.profiles.push_back(TemporalCorrelations::Both(pb, pf).value());
  fleet.profiles.push_back(TemporalCorrelations::BackwardOnly(pb));
  fleet.profiles.push_back(TemporalCorrelations::ForwardOnly(pf));
  const std::size_t horizon =
      1000 + static_cast<std::size_t>(rng->UniformInt(0, 200));
  for (std::size_t u = 0; u < 6; ++u) {
    fleet.profile_of_user.push_back(u % fleet.profiles.size());
    fleet.join_of_user.push_back(0);
  }
  for (std::size_t t = 0; t < horizon; ++t) {
    // Late joiners: a few at random, and one at mid-stream for sure.
    if (t == horizon / 2 || rng->Uniform() < 0.004) {
      fleet.profile_of_user.push_back(
          static_cast<std::size_t>(rng->UniformInt(0, 2)));
      fleet.join_of_user.push_back(t);
    }
    fleet.schedule.push_back(0.05 + 0.4 * rng->Uniform());
    std::vector<std::size_t> in_release;
    for (std::size_t u = 0; u < fleet.profile_of_user.size(); ++u) {
      if (fleet.join_of_user[u] <= t && rng->Uniform() < 0.015) {
        in_release.push_back(u);
      }
    }
    fleet.participants.push_back(std::move(in_release));
  }
  return fleet;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// The loss arguments one SeriesFor pass hands each of the user's
/// evaluators, in sweep order, taken from the reference series: L^B at
/// the previous BPL when positive (Equation 13), L^F at the next FPL
/// (Equation 15).
std::vector<std::vector<double>> EvaluatedArguments(
    const TemporalCorrelations& corr, const TplAccountant& reference) {
  std::vector<std::vector<double>> sweeps;
  if (corr.has_backward()) {
    const std::vector<double> bpl = reference.BplSeries();
    std::vector<double> args;
    for (std::size_t idx = 1; idx < bpl.size(); ++idx) {
      if (bpl[idx - 1] > 0.0) args.push_back(bpl[idx - 1]);
    }
    sweeps.push_back(std::move(args));
  }
  if (corr.has_forward()) {
    const std::vector<double> fpl = reference.FplSeries();
    std::vector<double> args;
    for (std::size_t idx = fpl.size(); idx-- > 1;) args.push_back(fpl[idx]);
    sweeps.push_back(std::move(args));
  }
  return sweeps;
}

/// Positions whose argument is positive (the cache never looks up 0)
/// and differs bit-for-bit from the previous position's.
std::size_t CountChangedArguments(const std::vector<double>& args) {
  std::size_t changed = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] > 0.0 && (i == 0 || !SameBits(args[i], args[i - 1]))) {
      ++changed;
    }
  }
  return changed;
}

/// The single-user reference for user \p u through direct (uncached)
/// evaluators.
TplAccountant MakeDirectReference(const RandomFleet& fleet, std::size_t u) {
  TplAccountant reference(fleet.profiles[fleet.profile_of_user[u]]);
  for (std::size_t t = fleet.join_of_user[u]; t < fleet.schedule.size();
       ++t) {
    const auto& in_release = fleet.participants[t];
    if (std::find(in_release.begin(), in_release.end(), u) !=
        in_release.end()) {
      EXPECT_TRUE(reference.RecordRelease(fleet.schedule[t]).ok());
    } else {
      EXPECT_TRUE(reference.RecordSkip().ok());
    }
  }
  return reference;
}

class LongSparseEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(LongSparseEquivalenceTest, CachedAndUncachedBanksMatchReference) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 66000);
  const RandomFleet fleet = MakeLongSparseFleet(&rng);
  ASSERT_GE(fleet.schedule.size(), 1000u);

  for (const bool cached : {true, false}) {
    AccountantBankOptions options;
    options.share_loss_cache = cached;
    AccountantBank bank(options);
    DriveBank(fleet, &bank);
    TemporalLossCache reference_cache(options.cache);
    std::size_t repeated = 0;  // arguments equal to the previous one
    for (std::size_t u = 0; u < bank.num_users(); ++u) {
      const TplAccountant reference =
          cached ? MakeReference(fleet, u, options.cache, &reference_cache)
                 : MakeDirectReference(fleet, u);
      const AccountantBank::UserSeries series = bank.SeriesFor(u);
      EXPECT_EQ(series.epsilons, reference.epsilons()) << "user " << u;
      EXPECT_EQ(series.bpl, reference.BplSeries()) << "user " << u;
      EXPECT_EQ(series.fpl, reference.FplSeries()) << "user " << u;
      EXPECT_EQ(series.tpl, reference.TplSeries()) << "user " << u;
      EXPECT_EQ(series.max_tpl, reference.MaxTpl()) << "user " << u;
      EXPECT_EQ(bank.MaxTplFor(u), reference.MaxTpl()) << "user " << u;

      for (const std::vector<double>& args :
           EvaluatedArguments(bank.user_correlations(u), reference)) {
        for (std::size_t i = 1; i < args.size(); ++i) {
          if (SameBits(args[i], args[i - 1])) ++repeated;
        }
      }
    }
    // The converged tail exists, so the reuse branch is exercised.
    if (cached) {
      EXPECT_GT(repeated, 0u);
    }
  }
}

TEST_P(LongSparseEquivalenceTest, SeriesLooksUpAtMostOncePerChangedArgument) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 66000);
  const RandomFleet fleet = MakeLongSparseFleet(&rng);

  AccountantBankOptions options;
  AccountantBank bank(options);
  DriveBank(fleet, &bank);
  TemporalLossCache reference_cache(options.cache);
  std::size_t evaluated = 0;
  std::size_t expected_total = 0;
  std::size_t looked_up_total = 0;
  for (std::size_t u = 0; u < bank.num_users(); ++u) {
    const TplAccountant reference =
        MakeReference(fleet, u, options.cache, &reference_cache);
    std::size_t expected = 0;
    for (const std::vector<double>& args :
         EvaluatedArguments(bank.user_correlations(u), reference)) {
      expected += CountChangedArguments(args);
      evaluated += args.size();
    }
    const TemporalLossCache::Stats before = bank.cache_stats();
    (void)bank.SeriesFor(u);
    const TemporalLossCache::Stats after = bank.cache_stats();
    const std::size_t looked_up =
        (after.hits + after.misses) - (before.hits + before.misses);
    // Never more than the step-by-step recurrence; fewer where a walk
    // reads a trajectory already walked from the same start value.
    EXPECT_LE(looked_up, expected) << "user " << u;
    expected_total += expected;
    looked_up_total += looked_up;
  }
  // Not vacuous: most evaluations along a sparse schedule repeat.
  EXPECT_LT(expected_total, evaluated / 2);
  // Users of one cohort share trajectories (the one from FPL 0 after a
  // last skip, at least), so the memo takes lookups away.
  EXPECT_LT(looked_up_total, expected_total);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LongSparseEquivalenceTest,
                         ::testing::Range(1, 5));

// ----------------------------------------------------------------------
// Active-slot stepping: a sparse release steps its participants plus the
// skippers that can still move, or sweeps past the crossover. Columns
// must equal the eager per-user recurrence after every release, on
// schedules that cross the crossover both ways.

/// Columns stepped by every bank in the process so far.
std::uint64_t SteppedColumns() {
  return obs::Registry::Default()
      .GetCounter("tcdp_bank_stepped_columns_total")
      ->value();
}

/// One release of a mixed schedule: everyone, or the listed users.
struct MixedRelease {
  bool all = false;
  double epsilon = 0.0;
  std::vector<std::size_t> participants;
};

/// Profiles covering every cohort shape (both directions, backward-only,
/// forward-only, none), users joining throughout, and phases of dense
/// releases, 50%+ releases and long runs of 1-3 participants in which
/// the skippers settle and the active lists drain.
struct MixedFleet {
  std::vector<TemporalCorrelations> profiles;
  std::vector<std::size_t> profile_of_user;
  std::vector<std::size_t> join_of_user;
  std::vector<MixedRelease> releases;
};

MixedFleet MakeMixedFleet(std::uint64_t seed) {
  Rng rng(seed);
  MixedFleet fleet;
  const auto pb = StochasticMatrix::Random(3, &rng);
  const auto pf = StochasticMatrix::Random(3, &rng);
  fleet.profiles = {TemporalCorrelations::Both(pb, pf).value(),
                    TemporalCorrelations::BackwardOnly(pb),
                    TemporalCorrelations::ForwardOnly(pf),
                    TemporalCorrelations::None(),
                    TemporalCorrelations::Both(pf, pb).value()};
  auto enroll = [&](std::size_t t) {
    fleet.profile_of_user.push_back(fleet.profile_of_user.size() %
                                    fleet.profiles.size());
    fleet.join_of_user.push_back(t);
  };
  for (std::size_t u = 0; u < 600; ++u) enroll(0);
  // (phase kind, length): 0 = everyone, 1 = 1-3 participants,
  // 2 = 50%+ participants.
  const std::vector<std::pair<int, std::size_t>> phases = {
      {1, 40}, {0, 1}, {1, 90}, {2, 3}, {1, 70}, {0, 2},
      {2, 1},  {1, 3}, {2, 2},  {1, 80}, {0, 1}, {1, 5}};
  for (const auto& [kind, length] : phases) {
    for (std::size_t i = 0; i < length; ++i) {
      const std::size_t t = fleet.releases.size();
      if (rng.Uniform() < 0.05) enroll(t);
      const std::size_t users = fleet.profile_of_user.size();
      MixedRelease release;
      release.all = kind == 0;
      release.epsilon = 0.05 + 0.4 * rng.Uniform();
      if (kind == 1) {
        const auto count = rng.UniformInt(1, 3);
        for (std::int64_t k = 0; k < count; ++k) {
          release.participants.push_back(static_cast<std::size_t>(
              rng.UniformInt(0, static_cast<std::int64_t>(users) - 1)));
        }
      } else if (kind == 2) {
        for (std::size_t u = 0; u < users; ++u) {
          if (rng.Uniform() < 0.7) release.participants.push_back(u);
        }
      }
      fleet.releases.push_back(std::move(release));
    }
  }
  return fleet;
}

bool InRelease(const MixedRelease& release, std::size_t u) {
  return release.all ||
         std::find(release.participants.begin(), release.participants.end(),
                   u) != release.participants.end();
}

/// The eager per-user recurrence, through the bank's evaluator kind.
TplAccountant MakeEagerReference(const TemporalCorrelations& corr,
                                 bool cached,
                                 const TemporalLossCache::Options& options,
                                 TemporalLossCache* cache) {
  if (!cached) return TplAccountant(corr);
  std::shared_ptr<const LossEvaluator> b;
  std::shared_ptr<const LossEvaluator> f;
  if (corr.has_backward()) b = cache->Intern(corr.backward());
  if (corr.has_forward()) f = cache->Intern(corr.forward());
  return TplAccountant(corr, std::move(b), std::move(f),
                       options.alpha_resolution);
}

/// Applies release \p t to the bank and every enrolled reference,
/// enrolling the users who join at t first.
void StepMixed(const MixedFleet& fleet, std::size_t t, bool cached,
               const TemporalLossCache::Options& options,
               TemporalLossCache* cache, AccountantBank* bank,
               std::vector<TplAccountant>* references) {
  while (bank->num_users() < fleet.join_of_user.size() &&
         fleet.join_of_user[bank->num_users()] <= t) {
    const auto& corr =
        fleet.profiles[fleet.profile_of_user[bank->num_users()]];
    bank->AddUser(corr);
    references->push_back(MakeEagerReference(corr, cached, options, cache));
  }
  const MixedRelease& release = fleet.releases[t];
  ASSERT_TRUE((release.all
                   ? bank->RecordRelease(release.epsilon)
                   : bank->RecordRelease(release.epsilon,
                                         release.participants))
                  .ok());
  for (std::size_t u = 0; u < references->size(); ++u) {
    TplAccountant& reference = (*references)[u];
    ASSERT_TRUE((InRelease(release, u)
                     ? reference.RecordRelease(release.epsilon)
                     : reference.RecordSkip())
                    .ok());
  }
}

/// Bank columns equal the references' running state, bitwise.
void ExpectColumnsMatch(const AccountantBank& bank,
                        const std::vector<TplAccountant>& references,
                        std::size_t t) {
  for (std::size_t u = 0; u < bank.num_users(); ++u) {
    const TplAccountant& reference = references[u];
    const double bpl = reference.Bpl(reference.horizon()).value();
    ASSERT_TRUE(SameBits(bank.UserBplLast(u), bpl))
        << "release " << t << " user " << u;
    ASSERT_EQ(bank.UserEpsSum(u), reference.UserLevelTpl())
        << "release " << t << " user " << u;
  }
}

class ActiveSlotTest
    : public ::testing::TestWithParam<std::tuple<bool, std::size_t>> {};

TEST_P(ActiveSlotTest, ColumnsMatchEagerRecurrenceAcrossTheCrossover) {
  const auto [cached, threads] = GetParam();
  const MixedFleet fleet = MakeMixedFleet(4242);
  AccountantBankOptions options;
  options.share_loss_cache = cached;
  AccountantBank bank(options);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 0) {
    pool = std::make_unique<ThreadPool>(threads);
    bank.set_pool(pool.get());
  }
  TemporalLossCache reference_cache(options.cache);
  std::vector<TplAccountant> references;
  std::size_t inline_releases = 0;  // sparse, fewer columns than slots
  std::size_t swept_releases = 0;   // sparse, every column
  for (std::size_t t = 0; t < fleet.releases.size(); ++t) {
    const std::uint64_t before = SteppedColumns();
    StepMixed(fleet, t, cached, options.cache, &reference_cache, &bank,
              &references);
    const std::uint64_t stepped = SteppedColumns() - before;
    if (!fleet.releases[t].all) {
      (stepped < bank.num_users() ? inline_releases : swept_releases) += 1;
    }
    ExpectColumnsMatch(bank, references, t);
    if (HasFatalFailure()) return;
  }
  for (std::size_t u = 0; u < bank.num_users(); ++u) {
    const TplAccountant& reference = references[u];
    const AccountantBank::UserSeries series = bank.SeriesFor(u);
    EXPECT_EQ(series.epsilons, reference.epsilons()) << "user " << u;
    EXPECT_EQ(series.bpl, reference.BplSeries()) << "user " << u;
    EXPECT_EQ(series.fpl, reference.FplSeries()) << "user " << u;
    EXPECT_EQ(series.tpl, reference.TplSeries()) << "user " << u;
    EXPECT_EQ(series.max_tpl, reference.MaxTpl()) << "user " << u;
  }
  // Both paths ran: the schedule crosses the crossover both ways. The
  // uncached lists stay long (direct evaluators settle slowly), so most
  // of their sparse releases sweep.
  EXPECT_GT(swept_releases, 0u);
  EXPECT_GT(inline_releases, cached ? fleet.releases.size() / 2 : 0u);
}

TEST_P(ActiveSlotTest, RestoreThenSparseStepsMatchTheOriginalBank) {
  const auto [cached, threads] = GetParam();
  const MixedFleet fleet = MakeMixedFleet(5151);
  AccountantBankOptions options;
  options.share_loss_cache = cached;
  AccountantBank original(options);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 0) {
    pool = std::make_unique<ThreadPool>(threads);
    original.set_pool(pool.get());
  }
  TemporalLossCache reference_cache(options.cache);
  std::vector<TplAccountant> references;
  // Cut mid-way through a run of 1-3 participants, with skippers still
  // settling, then drive both banks through the rest of the schedule.
  const std::size_t cut = 60;
  for (std::size_t t = 0; t < cut; ++t) {
    StepMixed(fleet, t, cached, options.cache, &reference_cache, &original,
              &references);
  }
  auto restored = AccountantBank::Restore(original.ExportImage(), options);
  ASSERT_TRUE(restored.ok()) << restored.status();
  if (pool != nullptr) restored->set_pool(pool.get());
  std::vector<TplAccountant> restored_references = references;
  TemporalLossCache restored_cache(options.cache);
  for (std::size_t t = cut; t < fleet.releases.size(); ++t) {
    StepMixed(fleet, t, cached, options.cache, &reference_cache, &original,
              &references);
    StepMixed(fleet, t, cached, options.cache, &restored_cache, &*restored,
              &restored_references);
    ExpectColumnsMatch(*restored, references, t);
    if (HasFatalFailure()) return;
  }
  const AccountantBank::Image a = original.ExportImage();
  const AccountantBank::Image b = restored->ExportImage();
  ASSERT_EQ(a.users.size(), b.users.size());
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_EQ(a.participation, b.participation);
  for (std::size_t u = 0; u < a.users.size(); ++u) {
    EXPECT_TRUE(SameBits(a.users[u].bpl_last, b.users[u].bpl_last)) << u;
    EXPECT_TRUE(SameBits(a.users[u].eps_sum, b.users[u].eps_sum)) << u;
    EXPECT_EQ(original.TplSeriesFor(u), restored->TplSeriesFor(u)) << u;
  }
}

INSTANTIATE_TEST_SUITE_P(
    CacheAndPool, ActiveSlotTest,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(std::size_t{0}, std::size_t{4})));

TEST(AccountantBank, SettledSparseReleaseStepsExactlyItsParticipants) {
  AccountantBank bank;
  const TemporalCorrelations corr = Fig3Both();
  for (int u = 0; u < 64; ++u) bank.AddUser(corr);
  ASSERT_TRUE(bank.RecordRelease(0.1).ok());
  ASSERT_TRUE(bank.RecordRelease(0.2, {3, 4, 5, 6, 7, 8, 9, 10}).ok());
  // Empty releases until every skipper sits at its fixed point.
  std::uint64_t stepped = 1;
  for (int i = 0; i < 1000 && stepped > 0; ++i) {
    const std::uint64_t before = SteppedColumns();
    ASSERT_TRUE(bank.RecordRelease(0.1, {}).ok());
    stepped = SteppedColumns() - before;
  }
  ASSERT_EQ(stepped, 0u) << "skippers never settled";

  const std::vector<std::size_t> participants = {2, 17, 40};
  std::uint64_t before = SteppedColumns();
  ASSERT_TRUE(bank.RecordRelease(0.3, participants).ok());
  EXPECT_EQ(SteppedColumns() - before, participants.size());
  // The participants stay listed until their own skips settle; a
  // duplicate index is stepped once.
  before = SteppedColumns();
  ASSERT_TRUE(bank.RecordRelease(0.3, {2, 2, 5}).ok());
  EXPECT_EQ(SteppedColumns() - before, 4u);
}

TEST(AccountantBank, ParticipantAtItsBplFixedPointStaysActive) {
  AccountantBankOptions options;
  AccountantBank bank(options);
  const TemporalCorrelations corr = Fig3Both();
  for (int u = 0; u < 64; ++u) bank.AddUser(corr);
  TemporalLossCache cache(options.cache);
  TplAccountant reference(corr, cache.Intern(corr.backward()),
                          cache.Intern(corr.forward()),
                          options.cache.alpha_resolution);
  // User 0 alone, every release, until BPL_t = L^B(BPL_{t-1}) + eps
  // returns the same bits: the participant's column no longer moves.
  bool settled = false;
  for (int i = 0; i < 5000 && !settled; ++i) {
    const double before = bank.UserBplLast(0);
    ASSERT_TRUE(bank.RecordRelease(0.1, {0}).ok());
    ASSERT_TRUE(reference.RecordRelease(0.1).ok());
    settled = SameBits(bank.UserBplLast(0), before);
  }
  ASSERT_TRUE(settled) << "BPL never reached its supremum";
  // Restore marks every slot active, so its next sparse release takes
  // the tracked sweep: the settled participant must stay listed there
  // too, while the 63 idle users drop out.
  auto restored = AccountantBank::Restore(bank.ExportImage(), options);
  ASSERT_TRUE(restored.ok()) << restored.status();
  ASSERT_TRUE(bank.RecordRelease(0.1, {0}).ok());
  ASSERT_TRUE(restored->RecordRelease(0.1, {0}).ok());
  ASSERT_TRUE(reference.RecordRelease(0.1).ok());
  // Its skip step still moves it (L^B(x) < x), so it must be stepped.
  for (AccountantBank* b : {&bank, &*restored}) {
    const std::uint64_t before = SteppedColumns();
    ASSERT_TRUE(b->RecordRelease(0.1, {}).ok());
    EXPECT_EQ(SteppedColumns() - before, 1u);
  }
  ASSERT_TRUE(reference.RecordSkip().ok());
  for (const AccountantBank* b : {&bank, &*restored}) {
    EXPECT_TRUE(SameBits(b->UserBplLast(0),
                         reference.Bpl(reference.horizon()).value()));
  }
  EXPECT_EQ(bank.BplSeriesFor(0), reference.BplSeries());
}

// ----------------------------------------------------------------------
// Participation index: EpsilonsFor and SeriesFor read the per-user
// index and fill converged gaps. Both must match, bitwise, each user's
// spend sequence as the test drove it — recorded beside the bank, never
// read back from it — and TplAccountant driven with that sequence.

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Per user, the spend sequence a test drove, from its join on.
using Recorded = std::vector<std::vector<double>>;

void AddRecordedUser(const TemporalCorrelations& correlations,
                     AccountantBank* bank, Recorded* recorded) {
  bank->AddUser(correlations);
  recorded->emplace_back();
}

/// A reference accountant for user \p u of \p bank, through
/// evaluators configured as \p options configures the bank's (cached
/// ones interned in \p cache), driven with \p spends.
void DriveReference(const AccountantBank& bank,
                    const AccountantBankOptions& options,
                    TemporalLossCache* cache, std::size_t u,
                    const std::vector<double>& spends,
                    std::optional<TplAccountant>* reference) {
  TemporalCorrelations corr = bank.user_correlations(u);
  if (options.share_loss_cache) {
    std::shared_ptr<const LossEvaluator> b;
    std::shared_ptr<const LossEvaluator> f;
    if (corr.has_backward()) b = cache->Intern(corr.backward());
    if (corr.has_forward()) f = cache->Intern(corr.forward());
    reference->emplace(std::move(corr), std::move(b), std::move(f),
                       options.cache.alpha_resolution);
  } else {
    reference->emplace(std::move(corr));
  }
  for (double eps : spends) {
    ASSERT_TRUE((eps > 0.0 ? (*reference)->RecordRelease(eps)
                           : (*reference)->RecordSkip())
                    .ok());
  }
}

void ExpectSeriesMatchReference(const AccountantBank::UserSeries& series,
                                const std::vector<double>& spends,
                                const TplAccountant& reference,
                                std::size_t u) {
  EXPECT_TRUE(BitwiseEqual(series.epsilons, spends)) << "user " << u;
  EXPECT_TRUE(BitwiseEqual(series.bpl, reference.BplSeries())) << "user " << u;
  EXPECT_TRUE(BitwiseEqual(series.fpl, reference.FplSeries())) << "user " << u;
  EXPECT_TRUE(BitwiseEqual(series.tpl, reference.TplSeries())) << "user " << u;
  EXPECT_TRUE(SameBits(series.max_tpl, reference.MaxTpl())) << "user " << u;
}

/// Checks every user of \p bank against its recorded sequence and a
/// reference accountant through identically configured evaluators.
void ExpectIndexMatchesRecordAndReference(
    const AccountantBank& bank, const AccountantBankOptions& options,
    const Recorded& recorded) {
  TemporalLossCache reference_cache(options.cache);
  ASSERT_EQ(recorded.size(), bank.num_users());
  for (std::size_t u = 0; u < bank.num_users(); ++u) {
    const std::vector<double>& expected = recorded[u];
    EXPECT_TRUE(BitwiseEqual(bank.EpsilonsFor(u), expected)) << "user " << u;
    std::optional<TplAccountant> reference;
    DriveReference(bank, options, &reference_cache, u, expected, &reference);
    ExpectSeriesMatchReference(bank.SeriesFor(u), expected, *reference, u);
  }
}

/// (cached, pool threads, seed)
class ParticipationIndexTest
    : public ::testing::TestWithParam<std::tuple<bool, int, int>> {
 protected:
  AccountantBankOptions Options() const {
    AccountantBankOptions options;
    options.share_loss_cache = std::get<0>(GetParam());
    return options;
  }

  /// Dense (All-row) and sparse releases interleaved, duplicate
  /// participants, late joiners, long quiet stretches so gaps settle.
  /// Appends each user's spend at every release to \p recorded.
  void DriveMixed(Rng* rng, const std::vector<TemporalCorrelations>& profiles,
                  std::size_t releases, AccountantBank* bank,
                  Recorded* recorded) {
    for (std::size_t i = 0; i < releases; ++i) {
      if (bank->num_users() == 0 || rng->Uniform() < 0.02) {
        const auto pick = static_cast<std::size_t>(rng->UniformInt(
            0, static_cast<std::int64_t>(profiles.size()) - 1));
        AddRecordedUser(profiles[pick], bank, recorded);
      }
      const double eps = 0.05 + 0.4 * rng->Uniform();
      if (rng->Uniform() < 0.1) {
        ASSERT_TRUE(bank->RecordRelease(eps).ok());
        for (std::vector<double>& spends : *recorded) spends.push_back(eps);
        continue;
      }
      std::vector<std::size_t> participants;
      std::vector<bool> selected(bank->num_users(), false);
      for (std::size_t u = 0; u < bank->num_users(); ++u) {
        if (rng->Uniform() < 0.04) {
          participants.push_back(u);
          selected[u] = true;
        }
      }
      if (!participants.empty() && rng->Uniform() < 0.3) {
        participants.push_back(participants.front());  // a duplicate
      }
      ASSERT_TRUE(bank->RecordRelease(eps, participants).ok());
      for (std::size_t u = 0; u < recorded->size(); ++u) {
        (*recorded)[u].push_back(selected[u] ? eps : 0.0);
      }
    }
  }
};

std::vector<TemporalCorrelations> IndexProfiles(Rng* rng) {
  const auto pb = StochasticMatrix::Random(3, rng);
  const auto pf = StochasticMatrix::Random(3, rng);
  return {TemporalCorrelations::Both(pb, pf).value(),
          TemporalCorrelations::BackwardOnly(pb),
          TemporalCorrelations::ForwardOnly(pf), Fig3Both(),
          TemporalCorrelations::None()};
}

TEST_P(ParticipationIndexTest, SeriesMatchRecordAndReference) {
  Rng rng(static_cast<std::uint64_t>(std::get<2>(GetParam())) + 55000);
  const std::vector<TemporalCorrelations> profiles = IndexProfiles(&rng);
  const int threads = std::get<1>(GetParam());
  std::optional<ThreadPool> pool;
  AccountantBank bank(Options());
  if (threads > 0) {
    pool.emplace(static_cast<std::size_t>(threads));
    bank.set_pool(&*pool);
  }
  Recorded recorded;
  for (int u = 0; u < 20; ++u) {
    AddRecordedUser(profiles[u % profiles.size()], &bank, &recorded);
  }
  DriveMixed(&rng, profiles, 600, &bank, &recorded);
  ExpectIndexMatchesRecordAndReference(bank, Options(), recorded);
}

TEST_P(ParticipationIndexTest, RestoreThenSparseReleasesMatch) {
  Rng rng(static_cast<std::uint64_t>(std::get<2>(GetParam())) + 56000);
  const std::vector<TemporalCorrelations> profiles = IndexProfiles(&rng);
  AccountantBank bank(Options());
  Recorded recorded;
  for (int u = 0; u < 20; ++u) {
    AddRecordedUser(profiles[u % profiles.size()], &bank, &recorded);
  }
  DriveMixed(&rng, profiles, 300, &bank, &recorded);
  auto restored = AccountantBank::Restore(bank.ExportImage(), Options());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->ParticipationIndexEntries(),
            bank.ParticipationIndexEntries());
  // Both banks take the same further releases.
  Rng again = rng;
  Recorded restored_recorded = recorded;
  DriveMixed(&rng, profiles, 300, &bank, &recorded);
  DriveMixed(&again, profiles, 300, &*restored, &restored_recorded);
  ExpectIndexMatchesRecordAndReference(*restored, Options(),
                                       restored_recorded);
  ASSERT_EQ(restored->num_users(), bank.num_users());
  for (std::size_t u = 0; u < bank.num_users(); ++u) {
    EXPECT_TRUE(BitwiseEqual(restored->TplSeriesFor(u), bank.TplSeriesFor(u)))
        << "user " << u;
  }
}

TEST_P(ParticipationIndexTest, SeriesRefilledInPlaceMatchByValueAndReference) {
  Rng rng(static_cast<std::uint64_t>(std::get<2>(GetParam())) + 57000);
  const std::vector<TemporalCorrelations> profiles = IndexProfiles(&rng);
  const int threads = std::get<1>(GetParam());
  std::optional<ThreadPool> pool;
  AccountantBank bank(Options());
  if (threads > 0) {
    pool.emplace(static_cast<std::size_t>(threads));
    bank.set_pool(&*pool);
  }
  Recorded recorded;
  for (int u = 0; u < 20; ++u) {
    AddRecordedUser(profiles[u % profiles.size()], &bank, &recorded);
  }
  DriveMixed(&rng, profiles, 600, &bank, &recorded);
  ASSERT_GT(bank.join_release(bank.num_users() - 1), 0u);  // late joiners

  // Earliest and latest joiners alternate, so one reused series falls
  // and rises in length on every call; the profiles cycle through
  // two-sided, backward-only, forward-only and no correlation.
  std::vector<std::size_t> order;
  for (std::size_t lo = 0, hi = bank.num_users(); lo < hi;) {
    order.push_back(lo++);
    if (lo < hi) order.push_back(--hi);
  }
  TemporalLossCache reference_cache(Options().cache);
  AccountantBank::UserSeries series;
  std::vector<double> eps;
  std::vector<double> tpl;
  std::size_t falls = 0;
  std::size_t rises = 0;
  for (const std::size_t u : order) {
    const std::size_t before = series.tpl.size();
    bank.SeriesFor(u, &series);
    falls += series.tpl.size() < before;
    rises += series.tpl.size() > before;
    const AccountantBank::UserSeries by_value = bank.SeriesFor(u);
    EXPECT_TRUE(BitwiseEqual(series.epsilons, by_value.epsilons));
    EXPECT_TRUE(BitwiseEqual(series.bpl, by_value.bpl)) << "user " << u;
    EXPECT_TRUE(BitwiseEqual(series.fpl, by_value.fpl)) << "user " << u;
    EXPECT_TRUE(BitwiseEqual(series.tpl, by_value.tpl)) << "user " << u;
    EXPECT_TRUE(SameBits(series.max_tpl, by_value.max_tpl)) << "user " << u;
    std::optional<TplAccountant> reference;
    DriveReference(bank, Options(), &reference_cache, u, recorded[u],
                   &reference);
    ExpectSeriesMatchReference(series, recorded[u], *reference, u);

    const double max_tpl = bank.TplSeriesFor(u, &eps, &tpl);
    EXPECT_TRUE(BitwiseEqual(eps, recorded[u])) << "user " << u;
    EXPECT_TRUE(BitwiseEqual(tpl, reference->TplSeries())) << "user " << u;
    EXPECT_TRUE(SameBits(max_tpl, reference->MaxTpl())) << "user " << u;
  }
  EXPECT_GT(falls, 0u);
  EXPECT_GT(rises, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    CachedUncachedPools, ParticipationIndexTest,
    ::testing::Combine(::testing::Bool(), ::testing::Values(0, 4),
                       ::testing::Range(1, 4)));

TEST(AccountantBank, DenseReleaseAddsOneSharedIndexEntry) {
  AccountantBank bank;
  for (int u = 0; u < 100; ++u) bank.AddUser(Fig3Both());
  ASSERT_TRUE(bank.RecordRelease(0.1).ok());
  EXPECT_EQ(bank.ParticipationIndexEntries(), 1u);
  // A duplicate participant is listed once.
  ASSERT_TRUE(bank.RecordRelease(0.2, {3, 3, 7}).ok());
  EXPECT_EQ(bank.ParticipationIndexEntries(), 3u);
  ASSERT_TRUE(bank.RecordRelease(0.3).ok());
  EXPECT_EQ(bank.ParticipationIndexEntries(), 4u);
  // A late joiner's series starts at its join: the All rows before it
  // are not its participations.
  const std::size_t late = bank.AddUser(Fig3Both());
  ASSERT_TRUE(bank.RecordRelease(0.4).ok());
  EXPECT_EQ(bank.ParticipationIndexEntries(), 5u);
  EXPECT_EQ(bank.EpsilonsFor(late), std::vector<double>({0.4}));
  EXPECT_EQ(bank.EpsilonsFor(3), std::vector<double>({0.1, 0.2, 0.3, 0.4}));
  EXPECT_EQ(bank.EpsilonsFor(4), std::vector<double>({0.1, 0.0, 0.3, 0.4}));
}

// ----------------------------------------------------------------------
// Run form: SeriesRunsFor is the one series pass; the dense views and
// the population views read its runs.

/// Every run is nonempty and holds other bits than the one before it,
/// and the runs expand to \p dense bitwise.
void ExpectMaximalRunsOf(const RunSeries& runs,
                         const std::vector<double>& dense, std::size_t user) {
  for (std::size_t r = 0; r < runs.size(); ++r) {
    EXPECT_GE(runs[r].length, 1u) << "user " << user << " run " << r;
    if (r > 0) {
      EXPECT_FALSE(SameBits(runs[r - 1].value, runs[r].value))
          << "user " << user << " run " << r;
    }
  }
  std::vector<double> expanded;
  ExpandRuns(runs, &expanded);
  EXPECT_TRUE(BitwiseEqual(expanded, dense)) << "user " << user;
}

TEST(AccountantBank, SeriesRunsAreMaximalAndExpandToTheDenseViews) {
  // 60 users, half Fig. 3 and half a random n = 8 pair, 20 of them
  // joining late; 3000 releases, every 500th dense, else 2 random
  // participants at one of three budgets. Users 0 and 1 are never
  // picked: they take part in the dense releases only.
  Rng rng(20261020);
  const TemporalCorrelations random =
      TemporalCorrelations::Both(StochasticMatrix::Random(8, &rng),
                                 StochasticMatrix::Random(8, &rng))
          .value();
  AccountantBank bank;
  for (int u = 0; u < 40; ++u) bank.AddUser(u % 2 ? Fig3Both() : random);
  const double budgets[] = {0.05, 0.1, 0.2};
  std::vector<std::size_t> participants(2);
  for (int t = 0; t < 3000; ++t) {
    if (t == 1000) {
      for (int u = 0; u < 20; ++u) bank.AddUser(u % 2 ? random : Fig3Both());
    }
    const double epsilon = budgets[rng.UniformInt(0, 2)];
    if (t % 500 == 0) {
      ASSERT_TRUE(bank.RecordRelease(epsilon).ok());
      continue;
    }
    for (std::size_t& p : participants) {
      p = static_cast<std::size_t>(rng.UniformInt(
          2, static_cast<std::int64_t>(bank.num_users()) - 1));
    }
    ASSERT_TRUE(bank.RecordRelease(epsilon, participants).ok());
  }

  RunSeries eps, bpl, fpl, tpl, eps_only, tpl_only;
  std::vector<double> overall(bank.horizon(), 0.0);
  for (std::size_t u = 0; u < bank.num_users(); ++u) {
    const double max_tpl = bank.SeriesRunsFor(u, &eps, &bpl, &fpl, &tpl);
    const AccountantBank::UserSeries dense = bank.SeriesFor(u);
    ExpectMaximalRunsOf(eps, dense.epsilons, u);
    ExpectMaximalRunsOf(bpl, dense.bpl, u);
    ExpectMaximalRunsOf(fpl, dense.fpl, u);
    ExpectMaximalRunsOf(tpl, dense.tpl, u);
    EXPECT_TRUE(SameBits(max_tpl, dense.max_tpl)) << "user " << u;
    // TPL = BPL + FPL - eps changes value only where a term does.
    EXPECT_LE(tpl.size(), bpl.size() + fpl.size() + eps.size())
        << "user " << u;
    if (u < 2) {
      // Six participations 500 releases apart: each gap settles into
      // one run (after about 80 steps each way on the Fig. 3 pair).
      EXPECT_LT(3 * tpl.size(), dense.tpl.size()) << "user " << u;
    }

    // Without BPL and FPL the pass gives the same spend and TPL runs.
    EXPECT_TRUE(SameBits(
        bank.SeriesRunsFor(u, &eps_only, nullptr, nullptr, &tpl_only),
        max_tpl));
    ExpectMaximalRunsOf(eps_only, dense.epsilons, u);
    ExpectMaximalRunsOf(tpl_only, dense.tpl, u);

    const std::size_t join = bank.join_release(u);
    for (std::size_t i = 0; i < dense.tpl.size(); ++i) {
      overall[join + i] = std::max(overall[join + i], dense.tpl[i]);
    }
  }
  // The population views walk the same runs.
  for (std::size_t t : {std::size_t{1}, std::size_t{999}, std::size_t{1000},
                        std::size_t{1001}, std::size_t{2345},
                        bank.horizon()}) {
    auto at = bank.MaxTplAt(t);
    ASSERT_TRUE(at.ok()) << at.status();
    EXPECT_TRUE(SameBits(*at, overall[t - 1])) << "t " << t;
  }
  EXPECT_TRUE(SameBits(bank.OverallAlpha(),
                       *std::max_element(overall.begin(), overall.end())));
}

// ----------------------------------------------------------------------
// Trajectory memo: the series pass reads each gap's trajectory from a
// per-thread memo keyed by cohort serial, direction and start value.
// Every view must stay bitwise the reference's whatever the memo holds:
// cold or warm, shared with other users, cleared when full, or left
// behind by a bank that is gone.

/// Fig. 3's pair (a participation's recurrence takes 70-80 steps to
/// settle, past kTrajectoryMaxSteps), a random n = 4 pair, the identity
/// (L(a) = a: every trajectory settles at its first step), one-sided
/// pairs and None().
std::vector<TemporalCorrelations> MemoProfiles(Rng* rng) {
  const auto pb = StochasticMatrix::Random(4, rng);
  const auto pf = StochasticMatrix::Random(4, rng);
  const auto identity = StochasticMatrix::Identity(3);
  return {Fig3Both(), TemporalCorrelations::Both(pb, pf).value(),
          TemporalCorrelations::Both(identity, identity).value(),
          TemporalCorrelations::BackwardOnly(pb),
          TemporalCorrelations::ForwardOnly(pf), TemporalCorrelations::None()};
}

/// Per profile, users taking part every 1-3 releases (gaps too short to
/// settle), every 20-80 and every 300-600; each shape once from the
/// start and once joining mid-horizon. Budgets come from three values,
/// so users share start values; a few releases are dense (everyone
/// takes part).
void DriveMemoSchedule(Rng* rng,
                       const std::vector<TemporalCorrelations>& profiles,
                       std::size_t releases, AccountantBank* bank,
                       Recorded* recorded) {
  const std::int64_t gaps[3][2] = {{1, 3}, {20, 80}, {300, 600}};
  const double budgets[3] = {0.05, 0.1, 0.2};
  const auto draw = [&](std::size_t shape, std::int64_t lo) {
    return static_cast<std::size_t>(rng->UniformInt(lo, gaps[shape][1]));
  };
  std::vector<std::size_t> shape_of;
  std::vector<std::size_t> next;  // each user's next participation
  const auto enroll = [&](std::size_t t) {
    for (const TemporalCorrelations& profile : profiles) {
      for (std::size_t shape = 0; shape < 3; ++shape) {
        AddRecordedUser(profile, bank, recorded);
        shape_of.push_back(shape);
        next.push_back(t + draw(shape, 0));
      }
    }
  };
  for (std::size_t t = 0; t < releases; ++t) {
    if (t == 0 || t == releases / 2) enroll(t);
    const double eps = budgets[rng->UniformInt(0, 2)];
    const bool dense = rng->Uniform() < 0.005;
    std::vector<std::size_t> participants;
    for (std::size_t u = 0; u < next.size(); ++u) {
      const bool due = next[u] == t;
      if (due) {
        participants.push_back(u);
        next[u] = t + draw(shape_of[u], gaps[shape_of[u]][0]);
      }
      (*recorded)[u].push_back(dense || due ? eps : 0.0);
    }
    ASSERT_TRUE((dense ? bank->RecordRelease(eps)
                       : bank->RecordRelease(eps, participants))
                    .ok());
  }
}

/// Every series view and population view of \p bank against reference
/// accountants driven with \p recorded. Returns the longest stretch,
/// over all users, from a participation until its BPL settles.
std::size_t ExpectEveryViewMatchesReference(
    const AccountantBank& bank, const AccountantBankOptions& options,
    const Recorded& recorded) {
  TemporalLossCache reference_cache(options.cache);
  const std::size_t horizon = bank.horizon();
  const std::vector<std::size_t> times = {1, horizon / 3, horizon / 2 + 1,
                                          horizon};
  std::vector<double> max_at(times.size(), 0.0);
  std::vector<double> alphas;
  std::size_t longest = 0;
  RunSeries eps_runs, bpl_runs, fpl_runs, tpl_runs;
  std::vector<double> dense_eps, dense_tpl;
  for (std::size_t u = 0; u < bank.num_users(); ++u) {
    std::optional<TplAccountant> reference;
    DriveReference(bank, options, &reference_cache, u, recorded[u],
                   &reference);
    const std::vector<double> bpl = reference->BplSeries();
    const std::vector<double> tpl = reference->TplSeries();
    ExpectSeriesMatchReference(bank.SeriesFor(u), recorded[u], *reference, u);
    EXPECT_TRUE(SameBits(bank.TplSeriesFor(u, &dense_eps, &dense_tpl),
                         reference->MaxTpl()))
        << "user " << u;
    EXPECT_TRUE(BitwiseEqual(dense_eps, recorded[u])) << "user " << u;
    EXPECT_TRUE(BitwiseEqual(dense_tpl, tpl)) << "user " << u;
    EXPECT_TRUE(BitwiseEqual(bank.TplSeriesFor(u), tpl)) << "user " << u;
    EXPECT_TRUE(SameBits(bank.MaxTplFor(u), reference->MaxTpl()))
        << "user " << u;
    bank.SeriesRunsFor(u, &eps_runs, &bpl_runs, &fpl_runs, &tpl_runs);
    std::vector<double> expanded;
    ExpandRuns(bpl_runs, &expanded);
    EXPECT_TRUE(BitwiseEqual(expanded, bpl)) << "user " << u;
    ExpandRuns(fpl_runs, &expanded);
    EXPECT_TRUE(BitwiseEqual(expanded, reference->FplSeries()))
        << "user " << u;
    ExpandRuns(tpl_runs, &expanded);
    EXPECT_TRUE(BitwiseEqual(expanded, tpl)) << "user " << u;
    alphas.push_back(reference->MaxTpl());
    for (std::size_t k = 0; k < times.size(); ++k) {
      const std::size_t join = bank.join_release(u);
      if (join < times[k]) {
        max_at[k] = std::max(max_at[k], tpl[times[k] - 1 - join]);
      }
    }
    std::size_t since = 0;  // steps since the last participation
    for (std::size_t i = 0; i < bpl.size(); ++i) {
      if (recorded[u][i] > 0.0) {
        since = 0;
      } else if (i > 0 && !SameBits(bpl[i], bpl[i - 1])) {
        longest = std::max(longest, ++since);
      }
    }
  }
  const std::vector<double> personalized = bank.PersonalizedAlphas();
  EXPECT_TRUE(BitwiseEqual(personalized, alphas));
  EXPECT_TRUE(SameBits(bank.OverallAlpha(),
                       *std::max_element(alphas.begin(), alphas.end())));
  for (std::size_t k = 0; k < times.size(); ++k) {
    const StatusOr<double> at = bank.MaxTplAt(times[k]);
    EXPECT_TRUE(at.ok() && SameBits(*at, max_at[k])) << "t = " << times[k];
  }
  return longest;
}

/// (cached, seed)
class TrajectoryMemoTest
    : public ::testing::TestWithParam<std::tuple<bool, int>> {};

TEST_P(TrajectoryMemoTest, EveryViewMatchesTheReferenceLiveAndRestored) {
  Rng rng(static_cast<std::uint64_t>(std::get<1>(GetParam())) + 57000);
  AccountantBankOptions options;
  options.share_loss_cache = std::get<0>(GetParam());
  AccountantBank bank(options);
  Recorded recorded;
  DriveMemoSchedule(&rng, MemoProfiles(&rng), 3000, &bank, &recorded);

  const std::uint64_t hits_before = ThreadTrajectoryMemoStats().hits;
  // Not vacuous: some gap settles past the memo's trajectory cap, so a
  // walk goes on from a capped trajectory's last value.
  EXPECT_GT(ExpectEveryViewMatchesReference(bank, options, recorded),
            kTrajectoryMaxSteps);
  // Users share start values, and the views repeat series.
  EXPECT_GT(ThreadTrajectoryMemoStats().hits, hits_before);

  // A restored bank has new cohorts: its series walk their own
  // trajectories, bitwise the same.
  StatusOr<AccountantBank> restored =
      AccountantBank::Restore(bank.ExportImage(), options);
  ASSERT_TRUE(restored.ok()) << restored.status();
  ExpectEveryViewMatchesReference(*restored, options, recorded);
}

INSTANTIATE_TEST_SUITE_P(CachedUncached, TrajectoryMemoTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Range(1, 3)));

TEST(TrajectoryMemo, ABankInAFreedBanksStorageGetsItsOwnTrajectories) {
  // Both banks see the same schedule, so their trajectories start from
  // the same values; only the matrices differ. The second bank lives
  // where the first one did, so nothing address-like tells them apart.
  const std::vector<TemporalCorrelations> profiles = {
      Fig3Both(), TemporalCorrelations::Both(
                      StochasticMatrix::FromRows({{0.6, 0.4}, {0.1, 0.9}}),
                      StochasticMatrix::FromRows({{0.7, 0.3}, {0.2, 0.8}}))
                      .value()};
  alignas(AccountantBank) unsigned char storage[sizeof(AccountantBank)];
  std::vector<double> first_tpl;
  for (std::size_t which = 0; which < 2; ++which) {
    AccountantBank* bank = new (storage) AccountantBank();
    Recorded recorded;
    for (int u = 0; u < 3; ++u) {
      AddRecordedUser(profiles[which], bank, &recorded);
    }
    for (std::size_t t = 0; t < 400; ++t) {
      std::vector<std::size_t> participants;
      for (std::size_t u = 0; u < 3; ++u) {
        const bool in = t % (50 * (u + 1)) == 0;
        if (in) participants.push_back(u);
        recorded[u].push_back(in ? 0.1 : 0.0);
      }
      ASSERT_TRUE(bank->RecordRelease(0.1, participants).ok());
    }
    ExpectEveryViewMatchesReference(*bank, AccountantBankOptions{}, recorded);
    if (which == 0) {
      first_tpl = bank->TplSeriesFor(0);
    } else {
      EXPECT_FALSE(BitwiseEqual(bank->TplSeriesFor(0), first_tpl));
    }
    bank->~AccountantBank();
  }
}

TEST(TrajectoryMemo, MoreStartValuesThanItHoldsStayBoundedAndBitwise) {
  // Fresh random budgets make nearly every start value new. Two shapes
  // overflow the memo each its own way.
  for (const bool long_walks : {true, false}) {
    Rng rng(long_walks ? 20261020 : 20261021);
    AccountantBank bank;
    Recorded recorded;
    // Long walks: 40 users on Fig. 3's slowly settling pair and one
    // participant per release, so each gap walks 40 steps or more and
    // the value arena fills first. Short walks: 4 users joining one
    // release apart take part in every release, so each walk is one
    // step and the entry table fills first.
    const std::size_t users = long_walks ? 40 : 4;
    for (std::size_t t = 0; t < 4000; ++t) {
      if (!long_walks && t < users) {
        AddRecordedUser(Fig3Both(), &bank, &recorded);
      } else if (long_walks && t == 0) {
        for (std::size_t u = 0; u < users; ++u) {
          AddRecordedUser(Fig3Both(), &bank, &recorded);
        }
      }
      const double eps = 0.05 + 0.4 * rng.Uniform();
      const auto in = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(users) - 1));
      for (std::size_t u = 0; u < recorded.size(); ++u) {
        recorded[u].push_back(!long_walks || u == in ? eps : 0.0);
      }
      if (long_walks) {
        ASSERT_TRUE(bank.RecordRelease(eps, {in}).ok());
      } else {
        ASSERT_TRUE(bank.RecordRelease(eps).ok());
      }
    }
    const std::uint64_t clears_before = ThreadTrajectoryMemoStats().clears;
    ExpectEveryViewMatchesReference(bank, AccountantBankOptions{}, recorded);
    const TrajectoryMemoStats stats = ThreadTrajectoryMemoStats();
    EXPECT_GT(stats.clears, clears_before) << "long walks " << long_walks;
    EXPECT_LE(stats.bytes, kTrajectoryMemoBytes);
    EXPECT_LE(stats.values * sizeof(double), kTrajectoryMemoBytes);
    EXPECT_GT(stats.entries, 0u);
  }
}

TEST(TrajectoryMemo, PooledPopulationViewsMatchSerialColdAndWarm) {
  // Pool workers keep their memos across ParallelForRange jobs: the
  // first pass finds them cold for this bank, the second warm.
  Rng rng(20261021);
  const std::vector<TemporalCorrelations> profiles = MemoProfiles(&rng);
  AccountantBank serial;
  Recorded recorded;
  DriveMemoSchedule(&rng, profiles, 2000, &serial, &recorded);
  const std::vector<double> expected = serial.PersonalizedAlphas();
  const double expected_overall = serial.OverallAlpha();

  ThreadPool pool(4);
  StatusOr<AccountantBank> pooled =
      AccountantBank::Restore(serial.ExportImage());
  ASSERT_TRUE(pooled.ok()) << pooled.status();
  pooled->set_pool(&pool);
  for (const char* pass : {"cold", "warm"}) {
    EXPECT_TRUE(BitwiseEqual(pooled->PersonalizedAlphas(), expected)) << pass;
    EXPECT_TRUE(SameBits(pooled->OverallAlpha(), expected_overall)) << pass;
    for (std::size_t t : {std::size_t{1}, serial.horizon() / 2,
                          serial.horizon()}) {
      EXPECT_TRUE(SameBits(*pooled->MaxTplAt(t), *serial.MaxTplAt(t)))
          << pass << " t = " << t;
    }
  }
}

// ----------------------------------------------------------------------
// Memory: the participation index is the bank's only per-release store,
// so a sparse release costs its few index entries and a schedule slot,
// not a row over the whole fleet.

/// Bytes the process holds from malloc: arena chunks plus the mmapped
/// ones that back large vectors (glibc only; the test skips elsewhere).
std::size_t HeapBytesInUse() {
#if defined(__GLIBC__)
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
#else
  return 0;
#endif
}

TEST(AccountantBankMemory, SparseReleaseCostsAtMost100HeapBytes) {
#if !defined(__GLIBC__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "needs glibc's own allocator (mallinfo2)";
#endif
  // 5k users over 8 random n=16 profiles, 100k releases of 5 random
  // participants each (duplicates allowed).
  Rng rng(20261018);
  std::vector<TemporalCorrelations> profiles;
  for (int p = 0; p < 8; ++p) {
    profiles.push_back(
        TemporalCorrelations::Both(StochasticMatrix::Random(16, &rng),
                                   StochasticMatrix::Random(16, &rng))
            .value());
  }
  constexpr std::size_t kUsers = 5000;
  constexpr std::size_t kReleases = 100000;
  AccountantBank bank;
  for (std::size_t u = 0; u < kUsers; ++u) bank.AddUser(profiles[u % 8]);
  std::vector<std::size_t> participants(5);
  const std::size_t before = HeapBytesInUse();
  for (std::size_t t = 0; t < kReleases; ++t) {
    for (std::size_t& p : participants) {
      p = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(kUsers) - 1));
    }
    ASSERT_TRUE(bank.RecordRelease(0.1, participants).ok());
  }
  const double per_release =
      (static_cast<double>(HeapBytesInUse()) - static_cast<double>(before)) /
      kReleases;
  EXPECT_LE(per_release, 100.0);
  RecordProperty("heap_bytes_per_sparse_release",
                 std::to_string(per_release));
}

TEST(AccountantBankMemory, SecondSeriesAtTheSameHorizonAllocatesNothing) {
#if !defined(__GLIBC__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "needs glibc's own allocator (mallinfo2)";
#endif
  Rng rng(20261019);
  const TemporalCorrelations both =
      TemporalCorrelations::Both(StochasticMatrix::Random(8, &rng),
                                 StochasticMatrix::Random(8, &rng))
          .value();
  AccountantBank bank;
  for (int u = 0; u < 100; ++u) bank.AddUser(both);
  std::vector<std::size_t> participants(3);
  for (int t = 0; t < 3000; ++t) {
    if (t % 50 == 0) {
      ASSERT_TRUE(bank.RecordRelease(0.1).ok());
      continue;
    }
    for (std::size_t& p : participants) {
      p = static_cast<std::size_t>(rng.UniformInt(0, 99));
    }
    ASSERT_TRUE(bank.RecordRelease(0.1, participants).ok());
  }
  AccountantBank::UserSeries series;
  std::vector<double> eps;
  std::vector<double> tpl;
  for (std::size_t u : {0u, 41u, 99u}) {
    // The first calls size the arrays, the pass's scratch and the loss
    // cache; the second ones must find everything in place.
    bank.SeriesFor(u, &series);
    bank.TplSeriesFor(u, &eps, &tpl);
    const std::vector<const double*> data = {
        series.epsilons.data(), series.bpl.data(), series.fpl.data(),
        series.tpl.data(), eps.data(), tpl.data()};
    const std::size_t before = HeapBytesInUse();
    bank.SeriesFor(u, &series);
    bank.TplSeriesFor(u, &eps, &tpl);
    EXPECT_EQ(HeapBytesInUse(), before) << "user " << u;
    EXPECT_EQ(data, (std::vector<const double*>{
                        series.epsilons.data(), series.bpl.data(),
                        series.fpl.data(), series.tpl.data(), eps.data(),
                        tpl.data()}))
        << "user " << u;
  }
}

}  // namespace
}  // namespace tcdp
