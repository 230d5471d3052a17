#ifndef TCDP_MARKOV_STOCHASTIC_MATRIX_H_
#define TCDP_MARKOV_STOCHASTIC_MATRIX_H_

/// \file
/// Validated row-stochastic matrices — the representation of the paper's
/// temporal correlations (Definition 3).
///
/// Orientation conventions used throughout the library:
///  * Forward correlation P^F: row = value at time t-1, column = value at
///    time t; entry (r,c) = Pr(l^t = c | l^{t-1} = r).
///  * Backward correlation P^B: row = value at time t, column = value at
///    time t-1; entry (r,c) = Pr(l^{t-1} = c | l^t = r).
/// Both are plain row-stochastic matrices; the semantics live at use
/// sites (see tcdp::core::TemporalCorrelations).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "linalg/matrix.h"

namespace tcdp {

/// \brief A square matrix whose rows are probability distributions.
///
/// Construction validates shape, entry ranges, and row sums; the class
/// then guarantees the invariant for its lifetime.
class StochasticMatrix {
 public:
  /// Default: empty (0x0). Useful only as a placeholder before assignment.
  StochasticMatrix() = default;

  /// Validates and wraps \p m. Returns InvalidArgument when \p m is not
  /// square, has an entry outside [0,1] (tolerance \p tol), or has a row
  /// not summing to 1 within \p tol. Rows are re-normalized exactly.
  static StatusOr<StochasticMatrix> Create(Matrix m, double tol = 1e-6);

  /// Validates like Create but preserves every entry's exact bit
  /// pattern — no clamping, no row renormalization. This is the
  /// round-trip path for machine-written matrices (accountant blobs,
  /// WAL/snapshot records), where Create's forgiving `/ sum`
  /// renormalization would shift entries by ULPs on every
  /// serialize/parse cycle and break bitwise replay.
  static StatusOr<StochasticMatrix> CreateExact(Matrix m,
                                                double tol = 1e-6);

  /// Convenience for tests/examples: builds from an initializer list and
  /// asserts validity.
  static StochasticMatrix FromRows(
      std::initializer_list<std::initializer_list<double>> rows);

  /// The n x n matrix with every entry 1/n (no correlation).
  static StochasticMatrix Uniform(std::size_t n);

  /// Identity transition (the paper's "strongest" self-correlation,
  /// Examples 2 and 3).
  static StochasticMatrix Identity(std::size_t n);

  /// Permutation transition: row i has probability 1 at column perm[i].
  /// This is the generic "strongest correlation" matrix of Section VI
  /// ("probability 1.0 at each row but for different columns").
  /// Returns InvalidArgument if perm is not a permutation of [0, n).
  static StatusOr<StochasticMatrix> Permutation(
      const std::vector<std::size_t>& perm);

  /// Random matrix with entries drawn Uniform[0,1) then row-normalized
  /// (the Fig 5 runtime workload).
  static StochasticMatrix Random(std::size_t n, Rng* rng);

  std::size_t size() const { return matrix_.rows(); }
  bool empty() const { return matrix_.empty(); }
  const Matrix& matrix() const { return matrix_; }
  double At(std::size_t r, std::size_t c) const { return matrix_.At(r, c); }
  std::vector<double> Row(std::size_t r) const { return matrix_.Row(r); }

  /// Chapman–Kolmogorov: k-step transition matrix (this^k). k = 0 yields
  /// the identity.
  StochasticMatrix PowerK(std::size_t k) const;

  /// Applies one step to a distribution: returns dist * P.
  /// `PRECONDITION: dist.size() == size()`.
  std::vector<double> Propagate(const std::vector<double>& dist) const;

  /// True iff every entry matches \p other within \p tol.
  bool ApproxEquals(const StochasticMatrix& other, double tol = 1e-9) const {
    return matrix_.ApproxEquals(other.matrix_, tol);
  }

  std::string ToString(int precision = 4) const {
    return matrix_.ToString(precision);
  }

 private:
  explicit StochasticMatrix(Matrix m) : matrix_(std::move(m)) {}
  Matrix matrix_;
};

/// \brief A 64-bit hash of the matrix dimension and raw entry bit
/// patterns (common/hash.h: 64-bit words in four independent lanes).
///
/// Content identity for interning/cohorting: equal-bit matrices hash
/// equal; callers must still compare contents exactly on a match
/// (see ExactlyEquals). An in-memory key only: it is never persisted.
std::uint64_t FingerprintStochasticMatrix(const StochasticMatrix& matrix);

/// \brief True iff both matrices have bit-identical entries (stricter
/// than ApproxEquals, which the fingerprint cannot certify alone; 0.0
/// and -0.0 differ, as they do in the fingerprint and in print).
bool ExactlyEquals(const StochasticMatrix& a, const StochasticMatrix& b);

}  // namespace tcdp

#endif  // TCDP_MARKOV_STOCHASTIC_MATRIX_H_
