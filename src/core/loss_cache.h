#ifndef TCDP_CORE_LOSS_CACHE_H_
#define TCDP_CORE_LOSS_CACHE_H_

/// \file
/// A fleet-wide, thread-safe memo cache for temporal loss evaluations.
///
/// Every user whose adversary knows the same transition matrix induces
/// the *same* loss function L(alpha) (Equations 23/24); a fleet of
/// thousands of users therefore re-solves identical Algorithm-1
/// instances over and over. `TemporalLossCache` removes that redundancy:
///
///  * `Intern` content-deduplicates transition matrices, so all users
///    sharing a matrix share one `TemporalLossFunction` and one value
///    table;
///  * evaluations are memoized keyed by the *quantized* argument: the
///    `alpha_resolution` grid point at or above alpha, so the cached
///    value upper-bounds the true loss (never under-reports leakage).
///    Quantization makes near-identical accumulated leakages (which
///    differ only in floating-point dust) collapse onto one entry, and
///    every caller that hits a bucket observes bitwise the same value
///    regardless of thread interleaving.
///
/// The returned evaluators keep the cache internals alive via
/// shared_ptr, so they may outlive the `TemporalLossCache` handle
/// itself.

#include <cstddef>
#include <cstdint>
#include <memory>

#include "core/privacy_loss.h"
#include "markov/stochastic_matrix.h"

namespace tcdp {

class TemporalLossCache {
 public:
  struct Options {
    /// Grid spacing for the alpha argument. Evaluations are performed at
    /// the grid point >= alpha (L is nondecreasing, so the memoized
    /// value stays an upper bound on the true loss); 0 disables
    /// quantization (exact-bits keys).
    double alpha_resolution = 1e-9;
  };

  /// Lock stripes per interned matrix's value table. Misses solve with
  /// the default LossEvalOptions, so `alpha_resolution` is the only
  /// setting a durable MANIFEST has to record to replay bitwise.
  static constexpr std::size_t kNumShards = 16;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::size_t entries = 0;            ///< memoized (matrix, alpha) pairs
    std::size_t distinct_matrices = 0;  ///< interned after deduplication
    double HitRate() const {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
  };

  TemporalLossCache();  // default Options
  explicit TemporalLossCache(const Options& options);

  /// Returns a shared, thread-safe evaluator for \p matrix's loss
  /// function. Matrices with identical contents map to the same
  /// underlying entry (compared exactly, not by hash alone).
  std::shared_ptr<const LossEvaluator> Intern(const StochasticMatrix& matrix);

  Stats stats() const;

  /// Drops every memoized value (interned evaluators stay valid and
  /// start re-populating).
  void Clear();

  class Impl;  // public so the returned evaluators can name it

 private:
  std::shared_ptr<Impl> impl_;
};

}  // namespace tcdp

#endif  // TCDP_CORE_LOSS_CACHE_H_
