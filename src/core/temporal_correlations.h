#ifndef TCDP_CORE_TEMPORAL_CORRELATIONS_H_
#define TCDP_CORE_TEMPORAL_CORRELATIONS_H_

/// \file
/// The adversary model of the paper's Section III-A: adversary_T knows
/// all other users' data plus backward and/or forward temporal
/// correlations of the target user, given as transition matrices
/// (Definitions 3 and 4).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "common/status.h"
#include "markov/stochastic_matrix.h"

namespace tcdp {

/// \brief A user's temporal correlations: optional P^B and optional P^F.
///
/// The three adversary types of Definition 4 map to:
///  * adversary_T(P^B)        — has_backward() only   -> causes BPL only
///  * adversary_T(P^F)        — has_forward() only    -> causes FPL only
///  * adversary_T(P^B, P^F)   — both                  -> causes both
/// and TemporalCorrelations::None() is the classical DP adversary A_i.
class TemporalCorrelations {
 public:
  /// No correlation knowledge (classical DP adversary).
  static TemporalCorrelations None() { return TemporalCorrelations(); }

  /// Backward-only knowledge: P^B row r = distribution of l^{t-1} given
  /// l^t = r.
  static TemporalCorrelations BackwardOnly(StochasticMatrix backward);

  /// Forward-only knowledge: P^F row r = distribution of l^t given
  /// l^{t-1} = r.
  static TemporalCorrelations ForwardOnly(StochasticMatrix forward);

  /// Both matrices. Returns InvalidArgument if their dimensions differ.
  static StatusOr<TemporalCorrelations> Both(StochasticMatrix backward,
                                             StochasticMatrix forward);

  bool has_backward() const { return backward_.has_value(); }
  bool has_forward() const { return forward_.has_value(); }
  bool empty() const { return !has_backward() && !has_forward(); }

  /// `PRECONDITION: has_backward()`.
  const StochasticMatrix& backward() const { return *backward_; }
  /// `PRECONDITION: has_forward()`.
  const StochasticMatrix& forward() const { return *forward_; }

  /// Domain size n, or 0 when empty().
  std::size_t domain_size() const;

  std::string ToString() const;

 private:
  TemporalCorrelations() = default;
  std::optional<StochasticMatrix> backward_;
  std::optional<StochasticMatrix> forward_;
};

/// \brief Content fingerprint of \p corr's (P^B, P^F) pair under
/// \p seed: both matrices' fingerprints plus which are present, so
/// BackwardOnly(M) and ForwardOnly(M) differ. An in-memory key only
/// (common/hash.h): SameCorrelations confirms a match.
std::uint64_t FingerprintCorrelations(const TemporalCorrelations& corr,
                                      std::uint64_t seed = 0);

/// \brief True iff \p a and \p b hold the same matrices in the same
/// slots, bit for bit (ExactlyEquals).
bool SameCorrelations(const TemporalCorrelations& a,
                      const TemporalCorrelations& b);

/// \brief Adversary_T targeting one user (Definition 4). The tuple
/// knowledge D^t_K is implicit: the adversary knows every other user's
/// value at every time point.
struct AdversaryT {
  std::size_t target_user = 0;
  TemporalCorrelations knowledge;
};

}  // namespace tcdp

#endif  // TCDP_CORE_TEMPORAL_CORRELATIONS_H_
