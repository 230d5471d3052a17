#ifndef TCDP_CORE_LOSS_CACHE_H_
#define TCDP_CORE_LOSS_CACHE_H_

/// \file
/// A fleet-wide, thread-safe, bounded memo for temporal loss
/// evaluations.
///
/// Every user whose adversary knows the same transition matrix induces
/// the *same* loss function L(alpha) (Equations 23/24); a fleet of
/// thousands of users therefore re-solves identical Algorithm-1
/// instances over and over. `TemporalLossCache` removes that redundancy:
///
///  * `Intern` content-deduplicates transition matrices, so all users
///    sharing a matrix share one `TemporalLossFunction` (and the
///    aggregate table it builds on its first miss) under one small id;
///  * evaluations are memoized keyed by (id, *quantized* argument): the
///    `alpha_resolution` grid point at or above alpha, so the cached
///    value upper-bounds the true loss (never under-reports leakage).
///    Quantization makes near-identical accumulated leakages (which
///    differ only in floating-point dust) collapse onto one key.
///
/// The memo is one fixed table per cache, shared by every interned
/// matrix: kMemoSets 64-byte sets of kMemoWays slots, allocated at the
/// cache's first miss. A set is guarded by its own sequence word, so a
/// lookup takes no lock: a read that races a writer counts as a miss,
/// and an insert that finds the set busy is dropped. A full set evicts
/// one of its ways. Eviction and dropped inserts cost time only: a miss
/// evaluates `TemporalLossFunction::Evaluate` at the same snapped
/// argument, which is pure, so every lookup of a key returns bitwise
/// the same value regardless of thread interleaving or table history.
/// A cache's memory is therefore kMemoBytes plus the interned
/// functions' aggregate tables (`Stats::table_bytes`), whatever the
/// horizon.
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
    /// quantization (exact-bits keys). Misses solve with the default
    /// LossEvalOptions, so this is the only setting a durable MANIFEST
    /// has to record to replay bitwise.
    double alpha_resolution = 1e-9;
  };

  /// The memo table's shape: 2^14 sets of 3 ways, one 64-byte cache
  /// line per set, 1 MiB per cache. A bank whose recurrences visit more
  /// distinct keys than that evicts and re-evaluates some of them; a
  /// miss costs about 1-2 µs at n = 16, so the bound costs time, never
  /// a value.
  static constexpr std::size_t kMemoSets = std::size_t{1} << 14;
  static constexpr std::size_t kMemoWays = 3;
  static constexpr std::size_t kMemoSlots = kMemoSets * kMemoWays;
  static constexpr std::size_t kMemoBytes = kMemoSets * 64;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /// Occupied memo slots: (matrix, alpha) pairs held, at most
    /// kMemoSlots.
    std::size_t entries = 0;
    std::size_t distinct_matrices = 0;  ///< interned after deduplication
    /// Bytes of the interned functions' aggregate tables (built on a
    /// matrix's first miss; see TemporalLossFunction).
    std::size_t table_bytes = 0;
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

  class Impl;  // public so the returned evaluators can name it

 private:
  std::shared_ptr<Impl> impl_;
};

}  // namespace tcdp

#endif  // TCDP_CORE_LOSS_CACHE_H_
