#ifndef TCDP_CORE_PRIVACY_LOSS_H_
#define TCDP_CORE_PRIVACY_LOSS_H_

/// \file
/// The paper's Algorithm 1: polynomial-time evaluation of the temporal
/// privacy-loss functions L^B / L^F of Equations (23)/(24).
///
/// For a transition matrix P and previous/next leakage alpha >= 0,
///
///   L(alpha) = max over ordered pairs of distinct rows (q, d) of
///              log [ (q_hat (e^alpha - 1) + 1) / (d_hat (e^alpha - 1) + 1) ]
///
/// where q_hat = sum_{j in S} q_j, d_hat = sum_{j in S} d_j for the
/// subset S selected by Theorem 4 / Corollary 2: start from
/// S = { j : q_j > d_j } and repeatedly drop every j whose ratio
/// q_j / d_j fails Inequality (21), until stable.
///
/// Numerics: all ratios are evaluated in log space so that alpha in the
/// hundreds (deep accumulation under strong correlations) cannot
/// overflow. The recurrence value satisfies 0 <= L(alpha) <= alpha
/// (Remark 1) — property-tested.

#include <cstddef>
#include <memory>
#include <vector>

#include "common/status.h"
#include "markov/stochastic_matrix.h"

namespace tcdp {

/// \brief log( c * (e^alpha - 1) + 1 ) evaluated stably for c in [0, 1]
/// and alpha >= 0 (helper exposed for tests and Theorem 5).
double LogLinearInExpAlpha(double c, double alpha);

/// \brief Outcome of the subset search for one ordered row pair.
struct PairLossResult {
  double loss = 0.0;             ///< log-ratio at the optimum (>= 0)
  double q_sum = 0.0;            ///< q_hat over the selected subset
  double d_sum = 0.0;            ///< d_hat over the selected subset
  std::vector<std::size_t> subset;  ///< selected coordinate indices
  std::size_t update_rounds = 0;    ///< removal passes performed
};

/// \brief Algorithm 1, Lines 3–11: optimal subset for one ordered pair.
///
/// Returns InvalidArgument when sizes mismatch or alpha is negative /
/// non-finite. alpha == 0 returns loss 0 with the initial Corollary-2
/// subset.
StatusOr<PairLossResult> ComputePairLoss(const std::vector<double>& q,
                                         const std::vector<double>& d,
                                         double alpha);

/// \brief Exact O(n log n) alternative to the Theorem 4 refinement loop.
///
/// Inequalities (21)/(22) say the optimal subset is a *threshold set* on
/// the per-coordinate ratio q_j/d_j: every kept coordinate's ratio
/// strictly exceeds the aggregate ratio, every dropped one's does not.
/// In the order sorted by q_j/d_j descending the optimum is therefore a
/// prefix; scanning all prefixes with cumulative sums finds it directly.
/// Agreement with ComputePairLoss (and with exhaustive subset
/// enumeration) is property-tested.
StatusOr<PairLossResult> ComputePairLossSorted(const std::vector<double>& q,
                                               const std::vector<double>& d,
                                               double alpha);

/// \brief Interface for a temporal loss function L(alpha): alpha >= 0 ->
/// [0, alpha]. Lets accountants share one evaluation backend — a direct
/// per-user TemporalLossFunction, the trivial zero loss, or a fleet-wide
/// memoizing cache (core/loss_cache.h).
class LossEvaluator {
 public:
  virtual ~LossEvaluator() = default;
  virtual double Evaluate(double alpha) const = 0;
};

/// How TemporalLossFunction solves each ordered row pair.
enum class PairLossMethod {
  kIterativeRefinement,  ///< the paper's Algorithm 1 removal loop
  kSortedPrefix,         ///< the O(n log n) threshold-set scan
};

/// Evaluation knobs for TemporalLossFunction. The default is the
/// O(n log n) threshold-set scan: it is property-tested equivalent to
/// the paper's iterative refinement (see LossBoundsTest) and
/// asymptotically cheaper per pair; kIterativeRefinement remains
/// available as the literal Algorithm-1 transcription.
struct LossEvalOptions {
  PairLossMethod method = PairLossMethod::kSortedPrefix;
};

/// \brief The full loss function for a transition matrix: the maximum
/// pair loss over all ordered pairs of distinct rows (Algorithm 1).
///
/// `EvaluateDetailed` runs Algorithm 1 per alpha: n(n-1) ordered pairs,
/// each an O(n log n) sorted-prefix scan (O(n^2) rounds for the
/// literal refinement loop). `Evaluate` answers from a table instead.
/// In the sorted scan only the two LogLinearInExpAlpha calls per prefix
/// depend on alpha; every pair's candidate order and prefix sums
/// (q_hat, d_hat) depend on the matrix alone, and L(alpha) is exactly
/// max(0, max over all pairs and prefixes of g(q_hat) - g(d_hat)).
/// The first `Evaluate` with alpha > 0 therefore collects those
/// aggregates once, dedupes them, and splits them into their Pareto
/// frontier (max q_hat, min d_hat) and the dominated rest; later calls
/// evaluate the frontier and recheck only dominated points that could
/// come within rounding of the maximum. The result is the same double
/// as `EvaluateDetailed(alpha).loss`, bit for bit (tests/
/// loss_table_test.cc).
///
/// Memory bound: a pair (a, b) has at most as many prefixes as
/// coordinates with P[a][j] > P[b][j], and a pair and its reverse split
/// the n coordinates, so a matrix has at most n^2 (n-1) / 2 aggregates
/// of 16 bytes each before dedupe: 30 KB for n = 16, 2 MB for n = 64.
/// The kept table adds 12 bytes per staircase corner, at most one per
/// dominated aggregate. The table is built only for a matrix that is
/// evaluated, never by the constructor, and only for n <=
/// kMaxTableStates (16.6 MB of aggregates at n = 128); larger matrices,
/// and matrices with a subnormal entry, keep the per-alpha scan.
class TemporalLossFunction : public LossEvaluator {
 public:
  /// Largest domain size that gets an aggregate table.
  static constexpr std::size_t kMaxTableStates = 128;

  explicit TemporalLossFunction(StochasticMatrix transition);

  const StochasticMatrix& transition() const { return transition_; }
  std::size_t domain_size() const { return transition_.size(); }

  /// L(alpha) for alpha >= 0. alpha = 0 gives 0. Asserts on negative
  /// alpha in debug builds; clamps to 0 otherwise. Thread-safe; the
  /// first call with alpha > 0 builds the aggregate table.
  double Evaluate(double alpha) const override;

  /// Bytes held by the aggregate table; 0 until the first Evaluate
  /// builds it, and for matrices that never get one.
  std::size_t table_bytes() const;

  using EvalOptions = LossEvalOptions;

  /// Detailed evaluation: the loss plus the maximizing pair's aggregates
  /// (q_hat, d_hat) and row indices — the inputs Theorem 5 needs
  /// (Algorithm 2 Lines 3–4).
  struct Detail {
    double loss = 0.0;
    double q_sum = 0.0;
    double d_sum = 0.0;
    std::size_t row_q = 0;   ///< numerator row index
    std::size_t row_d = 0;   ///< denominator row index
    std::size_t pairs_examined = 0;  ///< ordered pairs considered
  };
  Detail EvaluateDetailed(double alpha, const EvalOptions& options = {}) const;

 private:
  struct Table;
  struct LazyTable;

  StochasticMatrix transition_;
  // Shared by copies (they hold the same matrix); built on first use.
  std::shared_ptr<LazyTable> lazy_;
};

/// \brief Trivial loss function L(alpha) = 0 used when the adversary
/// lacks the corresponding correlation knowledge (BPL/FPL collapse to
/// PL0, Examples 2 and 3 case (iii)).
class ZeroLossFunction : public LossEvaluator {
 public:
  double Evaluate(double) const override { return 0.0; }
};

}  // namespace tcdp

#endif  // TCDP_CORE_PRIVACY_LOSS_H_
