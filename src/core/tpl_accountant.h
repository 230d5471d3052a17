#ifndef TCDP_CORE_TPL_ACCOUNTANT_H_
#define TCDP_CORE_TPL_ACCOUNTANT_H_

/// \file
/// Temporal-privacy-leakage accounting for a sequence of DP releases
/// (paper Section III-B/C):
///
///   BPL_t = L^B(BPL_{t-1}) + eps_t          (Equation 13, BPL_1 = eps_1)
///   FPL_t = L^F(FPL_{t+1}) + eps_t          (Equation 15, FPL_T = eps_T)
///   TPL_t = BPL_t + FPL_t - eps_t           (Equation 10)
///
/// BPL only ever grows as releases accumulate; FPL of *earlier* time
/// points retroactively increases whenever a new release happens — the
/// accountant recomputes the backward pass lazily.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/privacy_loss.h"
#include "core/temporal_correlations.h"

namespace tcdp {

/// \brief The parsed form of a serialized accountant: correlations, the
/// loss-cache quantization step, and the effective spend sequence
/// (0 entries are skips). Everything a restore path needs, with no
/// replay performed — `TplAccountant::Deserialize` replays an image,
/// while bulk consumers (snapshot restore in `src/server/`) inject the
/// fields directly and skip the per-release loss evaluations.
struct AccountantImage {
  TemporalCorrelations correlations = TemporalCorrelations::None();
  /// Negative = direct (uncached) evaluators.
  double cache_alpha_resolution = -1.0;
  std::vector<double> epsilons;
};

/// \brief Renders \p image in the "tcdp-accountant-v2" text format.
std::string SerializeAccountantImage(const AccountantImage& image);

/// \brief Parses a "tcdp-accountant-v1"/"-v2" blob. Hardened: any
/// truncated, corrupted, or semantically invalid input (bad header,
/// malformed matrices, element counts exceeding the input, non-finite
/// or negative budgets) returns InvalidArgument — never asserts,
/// allocates unboundedly, or reads past the text.
StatusOr<AccountantImage> ParseAccountantImage(const std::string& text);

/// \brief Tracks one user's BPL/FPL/TPL across an event-level release
/// sequence, given that user's temporal correlations.
class TplAccountant {
 public:
  /// \p correlations may lack either matrix; the missing direction's loss
  /// function is identically zero (classical DP adversary on that side).
  explicit TplAccountant(TemporalCorrelations correlations);

  /// Fleet construction: evaluate through externally supplied loss
  /// evaluators (e.g. a shared TemporalLossCache) instead of building
  /// per-user TemporalLossFunctions. A null evaluator means zero loss on
  /// that side; callers must pass evaluators consistent with
  /// \p correlations. When the evaluators come from a TemporalLossCache,
  /// pass that cache's alpha_resolution as \p cache_alpha_resolution so
  /// Serialize() can record it and Deserialize() can rebuild an
  /// identically quantized cache — the restored series is then bitwise
  /// equal to the live one. Negative (the default) means "direct
  /// evaluators" and restores the uncached path.
  TplAccountant(TemporalCorrelations correlations,
                std::shared_ptr<const LossEvaluator> backward_loss,
                std::shared_ptr<const LossEvaluator> forward_loss,
                double cache_alpha_resolution = -1.0);

  /// Appends a release with budget eps > 0 at time horizon()+1.
  Status RecordRelease(double epsilon);

  /// Appends a time step in which this user released nothing (a sparse
  /// schedule's gap): eps_t = 0, but prior leakage still propagates
  /// through the backward loss — BPL_t = L^B(BPL_{t-1}) — and the FPL
  /// horizon advances so later releases back-propagate over the gap.
  Status RecordSkip();

  /// Convenience: record \p count releases of the same budget.
  Status RecordUniformReleases(double epsilon, std::size_t count);

  std::size_t horizon() const { return epsilons_.size(); }
  const std::vector<double>& epsilons() const { return epsilons_; }
  const TemporalCorrelations& correlations() const { return correlations_; }

  /// \name Per-time-point leakage (1-based t in [1, horizon()]).
  /// All return OutOfRange for t outside the recorded range.
  /// @{
  StatusOr<double> Bpl(std::size_t t) const;
  StatusOr<double> Fpl(std::size_t t) const;
  StatusOr<double> Tpl(std::size_t t) const;
  /// @}

  /// Full series (index 0 = t=1).
  std::vector<double> BplSeries() const;
  std::vector<double> FplSeries() const;
  std::vector<double> TplSeries() const;

  /// max_t TPL_t — the alpha for which the recorded sequence is
  /// alpha-DP_T (Definition 8). 0 for an empty sequence.
  double MaxTpl() const;

  /// Theorem 2: leakage of the sub-sequence {M_t, ..., M_{t+j}}:
  ///   j = 0: TPL_t
  ///   j = 1: BPL_t + FPL_{t+1}
  ///   j >= 2: BPL_t + FPL_{t+j} + sum_{k=1}^{j-1} eps_{t+k}
  /// Returns OutOfRange when [t, t+j] is not within the horizon.
  StatusOr<double> SequenceTpl(std::size_t t, std::size_t j) const;

  /// Corollary 1: user-level leakage of the whole sequence = sum eps_k
  /// (temporal correlations do not amplify user-level DP).
  double UserLevelTpl() const;

  /// The correlated analogue of w-event privacy (Table II middle row):
  /// max over start times of SequenceTpl over windows of \p w consecutive
  /// releases (truncated at the horizon). Returns InvalidArgument for
  /// w == 0 and 0.0 for an empty sequence.
  StatusOr<double> MaxWindowTpl(std::size_t w) const;

  /// \name State persistence.
  /// A release service must survive restarts without losing its leakage
  /// history (BPL depends on every past release). The text format embeds
  /// the correlation matrices, the spend sequence (0 entries are skips),
  /// and — header "tcdp-accountant-v2" — the loss-cache quantization
  /// step, so a restored cache-backed accountant replays through an
  /// identically quantized cache and reproduces the live series bitwise.
  /// "tcdp-accountant-v1" inputs (no quantization line) remain readable
  /// and restore direct evaluators, as v1 writers always did.
  /// @{
  std::string Serialize() const;
  static StatusOr<TplAccountant> Deserialize(const std::string& text);
  /// @}

  /// The cache grid this accountant evaluates on; negative for direct
  /// (uncached) evaluators.
  double cache_alpha_resolution() const { return cache_alpha_resolution_; }

 private:
  void EnsureFplCache() const;
  void AppendStep(double epsilon);

  TemporalCorrelations correlations_;
  // Loss evaluators, possibly shared across users (null when the matrix
  // is absent — zero loss on that side).
  std::shared_ptr<const LossEvaluator> backward_loss_;
  std::shared_ptr<const LossEvaluator> forward_loss_;
  double cache_alpha_resolution_ = -1.0;

  std::vector<double> epsilons_;
  std::vector<double> bpl_;              // incremental forward pass
  mutable std::vector<double> fpl_;      // lazy backward pass
  mutable bool fpl_dirty_ = true;
};

}  // namespace tcdp

#endif  // TCDP_CORE_TPL_ACCOUNTANT_H_
