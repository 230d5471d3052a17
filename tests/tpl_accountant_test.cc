// Unit tests for core/tpl_accountant: the BPL/FPL/TPL recurrences,
// pinned to the paper's full Figure 3 series, plus Theorem 2 composition
// and Corollary 1.

#include "core/tpl_accountant.h"

#include <gtest/gtest.h>

#include <string>

#include "core/loss_cache.h"

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

TEST(TplAccountant, RejectsBadEpsilon) {
  TplAccountant acc(TemporalCorrelations::None());
  EXPECT_FALSE(acc.RecordRelease(0.0).ok());
  EXPECT_FALSE(acc.RecordRelease(-0.1).ok());
}

TEST(TplAccountant, EmptyAccountantBehaves) {
  TplAccountant acc(Fig3Both());
  EXPECT_EQ(acc.horizon(), 0u);
  EXPECT_DOUBLE_EQ(acc.MaxTpl(), 0.0);
  EXPECT_FALSE(acc.Bpl(1).ok());
}

TEST(TplAccountant, NoCorrelationCollapsesToEpsilon) {
  TplAccountant acc(TemporalCorrelations::None());
  ASSERT_TRUE(acc.RecordUniformReleases(0.3, 5).ok());
  for (std::size_t t = 1; t <= 5; ++t) {
    EXPECT_NEAR(*acc.Bpl(t), 0.3, 1e-12);
    EXPECT_NEAR(*acc.Fpl(t), 0.3, 1e-12);
    EXPECT_NEAR(*acc.Tpl(t), 0.3, 1e-12);
  }
}

// Figure 3(a)(i)/(b)(i): strongest correlation, eps=0.1 -> BPL grows
// linearly 0.1, 0.2, ..., 1.0 and FPL mirrors it backward.
TEST(TplAccountant, StrongestCorrelationLinearGrowth) {
  auto both = TemporalCorrelations::Both(StochasticMatrix::Identity(2),
                                         StochasticMatrix::Identity(2));
  ASSERT_TRUE(both.ok());
  TplAccountant acc(*both);
  ASSERT_TRUE(acc.RecordUniformReleases(0.1, 10).ok());
  for (std::size_t t = 1; t <= 10; ++t) {
    EXPECT_NEAR(*acc.Bpl(t), 0.1 * t, 1e-9) << "t=" << t;
    EXPECT_NEAR(*acc.Fpl(t), 0.1 * (11 - t), 1e-9) << "t=" << t;
    // TPL_t = 0.1 t + 0.1 (11-t) - 0.1 = 1.0 everywhere (Figure 3(c)(i)).
    EXPECT_NEAR(*acc.Tpl(t), 1.0, 1e-9) << "t=" << t;
  }
}

// Figure 3(a)(ii): the printed BPL series for P^B = (0.8 0.2; 0 1).
TEST(TplAccountant, Figure3BplSeries) {
  TplAccountant acc(TemporalCorrelations::BackwardOnly(Fig3Matrix()));
  ASSERT_TRUE(acc.RecordUniformReleases(0.1, 10).ok());
  const std::vector<double> expected = {0.10, 0.18, 0.25, 0.30, 0.35,
                                        0.39, 0.42, 0.45, 0.48, 0.50};
  auto series = acc.BplSeries();
  ASSERT_EQ(series.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(series[i], expected[i], 0.005) << "t=" << (i + 1);
  }
  // Backward-only: FPL stays at eps (Figure 3(b)(iii)).
  for (std::size_t t = 1; t <= 10; ++t) {
    EXPECT_NEAR(*acc.Fpl(t), 0.1, 1e-12);
  }
}

// Figure 3(b)(ii): FPL mirrors the BPL series backward in time.
TEST(TplAccountant, Figure3FplSeriesIsMirrored) {
  TplAccountant acc(TemporalCorrelations::ForwardOnly(Fig3Matrix()));
  ASSERT_TRUE(acc.RecordUniformReleases(0.1, 10).ok());
  const std::vector<double> expected = {0.50, 0.48, 0.45, 0.42, 0.39,
                                        0.35, 0.30, 0.25, 0.18, 0.10};
  auto series = acc.FplSeries();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(series[i], expected[i], 0.005) << "t=" << (i + 1);
  }
  // Forward-only: BPL stays at eps (Figure 3(a)(iii)).
  for (std::size_t t = 1; t <= 10; ++t) {
    EXPECT_NEAR(*acc.Bpl(t), 0.1, 1e-12);
  }
}

// Figure 3(c): TPL = BPL + FPL - eps, the printed hump-shaped series.
TEST(TplAccountant, Figure3TplSeries) {
  TplAccountant acc(Fig3Both());
  ASSERT_TRUE(acc.RecordUniformReleases(0.1, 10).ok());
  const std::vector<double> expected = {0.50, 0.56, 0.60, 0.62, 0.64,
                                        0.64, 0.62, 0.60, 0.56, 0.50};
  auto series = acc.TplSeries();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(series[i], expected[i], 0.01) << "t=" << (i + 1);
  }
  EXPECT_NEAR(acc.MaxTpl(), 0.64, 0.01);
}

TEST(TplAccountant, FplUpdatesRetroactivelyOnNewRelease) {
  // Example 3: "When r^11 is released, all FPL at time t in [1,10] will
  // be updated."
  TplAccountant acc(TemporalCorrelations::ForwardOnly(Fig3Matrix()));
  ASSERT_TRUE(acc.RecordUniformReleases(0.1, 10).ok());
  const double fpl1_before = *acc.Fpl(1);
  ASSERT_TRUE(acc.RecordRelease(0.1).ok());
  const double fpl1_after = *acc.Fpl(1);
  EXPECT_GT(fpl1_after, fpl1_before);
  // BPL at earlier times is unaffected by later releases.
  EXPECT_NEAR(*acc.Bpl(1), 0.1, 1e-12);
}

TEST(TplAccountant, BplUnaffectedByLaterReleases) {
  TplAccountant acc(Fig3Both());
  ASSERT_TRUE(acc.RecordUniformReleases(0.1, 5).ok());
  const double bpl3 = *acc.Bpl(3);
  ASSERT_TRUE(acc.RecordRelease(0.1).ok());
  EXPECT_DOUBLE_EQ(*acc.Bpl(3), bpl3);
}

TEST(TplAccountant, SequenceTplTheorem2Cases) {
  TplAccountant acc(Fig3Both());
  ASSERT_TRUE(acc.RecordUniformReleases(0.1, 6).ok());
  // j = 0: event-level TPL.
  EXPECT_NEAR(*acc.SequenceTpl(3, 0), *acc.Tpl(3), 1e-12);
  // j = 1: BPL_t + FPL_{t+1}.
  EXPECT_NEAR(*acc.SequenceTpl(2, 1), *acc.Bpl(2) + *acc.Fpl(3), 1e-12);
  // j = 2: BPL_t + FPL_{t+2} + eps_{t+1}.
  EXPECT_NEAR(*acc.SequenceTpl(2, 2),
              *acc.Bpl(2) + *acc.Fpl(4) + 0.1, 1e-12);
  // Out of range.
  EXPECT_FALSE(acc.SequenceTpl(5, 3).ok());
  EXPECT_FALSE(acc.SequenceTpl(0, 1).ok());
}

// Corollary 1: user-level TPL of the whole sequence = sum of budgets.
TEST(TplAccountant, Corollary1UserLevel) {
  TplAccountant acc(Fig3Both());
  ASSERT_TRUE(acc.RecordUniformReleases(0.1, 10).ok());
  EXPECT_NEAR(acc.UserLevelTpl(), 1.0, 1e-12);
  // And the full-span sequence TPL equals it:
  // BPL_1 + FPL_T + middle sum = 0.1 + 0.1 + 0.8.
  EXPECT_NEAR(*acc.SequenceTpl(1, 9), 1.0, 1e-12);
}

TEST(TplAccountant, NonUniformBudgetsCompose) {
  TplAccountant acc(TemporalCorrelations::BackwardOnly(Fig3Matrix()));
  ASSERT_TRUE(acc.RecordRelease(0.5).ok());
  ASSERT_TRUE(acc.RecordRelease(0.05).ok());
  // BPL_2 = L(0.5) + 0.05; L(0.5) = log(0.8(e^0.5 - 1)+1).
  const double expected = std::log(0.8 * std::expm1(0.5) + 1.0) + 0.05;
  EXPECT_NEAR(*acc.Bpl(2), expected, 1e-12);
}

TEST(TplAccountant, MaxWindowTplValidatesAndMatchesSequence) {
  TplAccountant acc(Fig3Both());
  ASSERT_TRUE(acc.RecordUniformReleases(0.1, 6).ok());
  EXPECT_FALSE(acc.MaxWindowTpl(0).ok());
  // w = 1 is the event-level maximum.
  auto w1 = acc.MaxWindowTpl(1);
  ASSERT_TRUE(w1.ok());
  EXPECT_NEAR(*w1, acc.MaxTpl(), 1e-12);
  // w >= horizon is the full-span sequence TPL.
  auto w9 = acc.MaxWindowTpl(9);
  ASSERT_TRUE(w9.ok());
  EXPECT_NEAR(*w9, *acc.SequenceTpl(1, 5), 1e-12);
  // Brute-force check for w = 3.
  auto w3 = acc.MaxWindowTpl(3);
  ASSERT_TRUE(w3.ok());
  double expected = 0.0;
  for (std::size_t t = 1; t <= 6; ++t) {
    const std::size_t j = std::min<std::size_t>(2, 6 - t);
    expected = std::max(expected, *acc.SequenceTpl(t, j));
  }
  EXPECT_NEAR(*w3, expected, 1e-12);
}

TEST(TplAccountant, MaxWindowTplMonotoneInW) {
  TplAccountant acc(Fig3Both());
  ASSERT_TRUE(acc.RecordUniformReleases(0.15, 8).ok());
  double prev = 0.0;
  for (std::size_t w = 1; w <= 8; ++w) {
    auto v = acc.MaxWindowTpl(w);
    ASSERT_TRUE(v.ok());
    EXPECT_GE(*v, prev - 1e-12) << "w=" << w;
    prev = *v;
  }
}

TEST(TplAccountant, MaxWindowTplEmptyIsZero) {
  TplAccountant acc(Fig3Both());
  auto v = acc.MaxWindowTpl(3);
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(*v, 0.0);
}

TEST(TplAccountant, RecordSkipPropagatesLossWithoutAccruingBudget) {
  TplAccountant acc(Fig3Both());
  ASSERT_TRUE(acc.RecordRelease(0.5).ok());
  ASSERT_TRUE(acc.RecordSkip().ok());
  ASSERT_TRUE(acc.RecordRelease(0.5).ok());
  EXPECT_EQ(acc.horizon(), 3u);
  EXPECT_DOUBLE_EQ(acc.UserLevelTpl(), 1.0);
  const auto bpl = acc.BplSeries();
  // The gap step: BPL_2 = L^B(BPL_1), inside (0, BPL_1] by Remark 1.
  EXPECT_GT(bpl[1], 0.0);
  EXPECT_LE(bpl[1], bpl[0]);
  EXPECT_GT(bpl[2], bpl[0]);  // leakage carried over the gap
  // TPL identity still holds with eps_t = 0.
  EXPECT_DOUBLE_EQ(*acc.Tpl(2), bpl[1] + *acc.Fpl(2));
}

TEST(TplAccountant, SkipOnlySequenceStaysAtZero) {
  TplAccountant acc(Fig3Both());
  ASSERT_TRUE(acc.RecordSkip().ok());
  ASSERT_TRUE(acc.RecordSkip().ok());
  EXPECT_EQ(acc.horizon(), 2u);
  EXPECT_DOUBLE_EQ(acc.MaxTpl(), 0.0);
  EXPECT_DOUBLE_EQ(acc.UserLevelTpl(), 0.0);
}

TEST(TplAccountant, SerializeDeserializeRoundTrip) {
  TplAccountant original(Fig3Both());
  ASSERT_TRUE(original.RecordRelease(0.1).ok());
  ASSERT_TRUE(original.RecordRelease(0.25).ok());
  ASSERT_TRUE(original.RecordRelease(0.05).ok());

  auto restored = TplAccountant::Deserialize(original.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->horizon(), 3u);
  EXPECT_EQ(restored->epsilons(), original.epsilons());
  for (std::size_t t = 1; t <= 3; ++t) {
    EXPECT_DOUBLE_EQ(*restored->Bpl(t), *original.Bpl(t));
    EXPECT_DOUBLE_EQ(*restored->Fpl(t), *original.Fpl(t));
    EXPECT_DOUBLE_EQ(*restored->Tpl(t), *original.Tpl(t));
  }
  // The restored accountant keeps accruing identically.
  ASSERT_TRUE(restored->RecordRelease(0.1).ok());
  TplAccountant continued(Fig3Both());
  for (double e : {0.1, 0.25, 0.05, 0.1}) {
    ASSERT_TRUE(continued.RecordRelease(e).ok());
  }
  EXPECT_DOUBLE_EQ(restored->MaxTpl(), continued.MaxTpl());
}

TEST(TplAccountant, SerializeHandlesPartialCorrelations) {
  TplAccountant backward_only(
      TemporalCorrelations::BackwardOnly(Fig3Matrix()));
  ASSERT_TRUE(backward_only.RecordRelease(0.2).ok());
  auto restored = TplAccountant::Deserialize(backward_only.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->correlations().has_backward());
  EXPECT_FALSE(restored->correlations().has_forward());

  TplAccountant none(TemporalCorrelations::None());
  ASSERT_TRUE(none.RecordRelease(0.2).ok());
  auto restored_none = TplAccountant::Deserialize(none.Serialize());
  ASSERT_TRUE(restored_none.ok());
  EXPECT_TRUE(restored_none->correlations().empty());
  EXPECT_DOUBLE_EQ(*restored_none->Tpl(1), 0.2);
}

TEST(TplAccountant, SerializedCacheBackedAccountantRestoresBitwise) {
  // The v2 header records the cache quantization step, so the restored
  // accountant replays through an identically quantized cache and the
  // series is bitwise equal to the live one — the drift documented
  // against v1 is gone.
  TemporalLossCache::Options cache_options;
  cache_options.alpha_resolution = 1e-6;  // coarse: drift would show
  TemporalLossCache cache(cache_options);
  auto corr = Fig3Both();
  TplAccountant live(corr, cache.Intern(corr.backward()),
                     cache.Intern(corr.forward()),
                     cache_options.alpha_resolution);
  ASSERT_TRUE(live.RecordRelease(0.1).ok());
  ASSERT_TRUE(live.RecordSkip().ok());
  ASSERT_TRUE(live.RecordRelease(0.3).ok());

  const std::string text = live.Serialize();
  EXPECT_EQ(text.rfind("tcdp-accountant-v2", 0), 0u);
  auto restored = TplAccountant::Deserialize(text);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->cache_alpha_resolution(),
            cache_options.alpha_resolution);
  EXPECT_EQ(restored->epsilons(), live.epsilons());
  EXPECT_EQ(restored->BplSeries(), live.BplSeries());
  EXPECT_EQ(restored->FplSeries(), live.FplSeries());
  EXPECT_EQ(restored->TplSeries(), live.TplSeries());
}

TEST(TplAccountant, DeserializeReadsLegacyV1AsDirect) {
  // A v1 blob (no quantization line) keeps restoring direct evaluators.
  TplAccountant direct(Fig3Both());
  ASSERT_TRUE(direct.RecordRelease(0.1).ok());
  ASSERT_TRUE(direct.RecordRelease(0.25).ok());
  std::string v1 = direct.Serialize();
  const std::string v2_header = "tcdp-accountant-v2\nquantization -1\n";
  ASSERT_EQ(v1.rfind(v2_header, 0), 0u);
  v1 = "tcdp-accountant-v1\n" + v1.substr(v2_header.size());
  auto restored = TplAccountant::Deserialize(v1);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_LT(restored->cache_alpha_resolution(), 0.0);
  EXPECT_EQ(restored->TplSeries(), direct.TplSeries());
}

TEST(TplAccountant, DeserializeRejectsMalformedInput) {
  EXPECT_FALSE(TplAccountant::Deserialize("").ok());
  EXPECT_FALSE(TplAccountant::Deserialize("wrong-header\n").ok());
  EXPECT_FALSE(
      TplAccountant::Deserialize("tcdp-accountant-v1\nbogus 2\n").ok());
  // v2 requires the quantization line before the matrices.
  EXPECT_FALSE(
      TplAccountant::Deserialize("tcdp-accountant-v2\nbackward 0\n").ok());
  // Non-finite quantization steps are rejected (inf would snap every
  // alpha to infinity and silently zero the losses).
  EXPECT_FALSE(TplAccountant::Deserialize(
                   "tcdp-accountant-v2\nquantization inf\nbackward 0\n"
                   "forward 0\nepsilons 0\n")
                   .ok());
  EXPECT_FALSE(TplAccountant::Deserialize(
                   "tcdp-accountant-v2\nquantization nan\nbackward 0\n"
                   "forward 0\nepsilons 0\n")
                   .ok());
  // Truncated matrix block.
  EXPECT_FALSE(TplAccountant::Deserialize(
                   "tcdp-accountant-v1\nbackward 2\n0.5,0.5\n")
                   .ok());
  // Truncated epsilon list.
  EXPECT_FALSE(TplAccountant::Deserialize("tcdp-accountant-v1\nbackward 0\n"
                                          "forward 0\nepsilons 2\n0.1\n")
                   .ok());
  // Non-positive epsilon is rejected on replay.
  EXPECT_FALSE(TplAccountant::Deserialize("tcdp-accountant-v1\nbackward 0\n"
                                          "forward 0\nepsilons 1\n-0.5\n")
                   .ok());
}

}  // namespace
}  // namespace tcdp
