#ifndef TCDP_KERNELS_KERNELS_H_
#define TCDP_KERNELS_KERNELS_H_

/// \file
/// The loops that dominate accounting: the bank's fused BPL column
/// update, the Algorithm-1 pair scan, and the dense row operations
/// behind Markov propagation.
///
/// **Determinism contract.** Each kernel's result is fixed bit for bit
/// by the order of its operations, stated here and pinned by
/// tests/kernels_test.cc:
///
///   * elementwise kernels (the fused BPL update family, Axpy) perform
///     one IEEE operation per element in the order written — Axpy is
///     an explicit mul-then-add, and kernels.cc is compiled with
///     -ffp-contract=off so no global flag fuses it into an FMA;
///   * reduction kernels (Dot, GatherPairSums) are specified in
///     **blocked-4 canonical order**: four independent accumulators
///     striding the input, a sequential tail folded into the lanes,
///     and the fixed horizontal sum (a0+a1)+(a2+a3);
///   * selection kernels (SelectGreater, FilterGt) move data without
///     arithmetic.

#include <cstddef>
#include <cstdint>

namespace tcdp {
namespace kernels {

/// bpl[i] = loss[i] + add[i]; eps_sum[i] += add[i].
void FusedLossAdd(const double* loss, const double* add, double* bpl,
                  double* eps_sum, std::size_t n);
/// bpl[i] = loss[i] + eps; eps_sum[i] += eps.
void FusedLossAddUniform(const double* loss, double eps, double* bpl,
                         double* eps_sum, std::size_t n);
/// bpl[i] = add[i]; eps_sum[i] += add[i]  (zero-loss cohorts).
void FusedFillAdd(const double* add, double* bpl, double* eps_sum,
                  std::size_t n);
/// bpl[i] = eps; eps_sum[i] += eps  (zero-loss, everyone participates).
void FusedFillUniform(double eps, double* bpl, double* eps_sum,
                      std::size_t n);

/// out[i] += a * x[i], explicit mul-then-add (never FMA-contracted).
void Axpy(double a, const double* x, double* out, std::size_t n);
/// Blocked-4 canonical dot product (see file comment).
double Dot(const double* a, const double* b, std::size_t n);

/// Writes ascending j with q[j] > d[j] into idx; returns the count.
/// idx must have room for n entries.
std::size_t SelectGreater(const double* q, const double* d, std::size_t n,
                          std::uint32_t* idx);
/// Blocked-4 canonical gather sums over idx: *q_sum = sum q[idx[i]],
/// *d_sum = sum d[idx[i]].
void GatherPairSums(const double* q, const double* d, const std::uint32_t* idx,
                    std::size_t m, double* q_sum, double* d_sum);
/// In-place compaction of the parallel arrays (value, idx): keeps
/// entries with value[i] > threshold, preserving order; returns the
/// kept count. NaN-free inputs; +inf entries always survive.
std::size_t FilterGt(double* value, std::uint32_t* idx, std::size_t m,
                     double threshold);

/// Expands the participation bitmask into per-slot budget adds:
/// add[i] = eps when bit users[i] is set in mask (a user id at or past
/// the mask width reads 0), else 0.0. It lives here so the staging
/// buffer contract sits next to the kernels that consume it.
void ExpandMaskEpsilon(const std::uint64_t* mask, std::size_t mask_words,
                       const std::uint32_t* users, std::size_t n, double eps,
                       double* add);

}  // namespace kernels
}  // namespace tcdp

#endif  // TCDP_KERNELS_KERNELS_H_
