#include "kernels/kernels.h"

// Compiled with -ffp-contract=off (CMakeLists.txt) so the explicit
// mul-then-add sequences never become FMAs under global flags such as
// -mfma. The compiler may still vectorize a loop where that keeps the
// order of its operations; the blocked-4 reductions spell that order
// out.

namespace tcdp {
namespace kernels {

void FusedLossAdd(const double* loss, const double* add, double* bpl,
                  double* eps_sum, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    bpl[i] = loss[i] + add[i];
    eps_sum[i] += add[i];
  }
}

void FusedLossAddUniform(const double* loss, double eps, double* bpl,
                         double* eps_sum, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    bpl[i] = loss[i] + eps;
    eps_sum[i] += eps;
  }
}

void FusedFillAdd(const double* add, double* bpl, double* eps_sum,
                  std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    bpl[i] = add[i];
    eps_sum[i] += add[i];
  }
}

void FusedFillUniform(double eps, double* bpl, double* eps_sum,
                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    bpl[i] = eps;
    eps_sum[i] += eps;
  }
}

void Axpy(double a, const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double p = a * x[i];
    out[i] += p;
  }
}

double Dot(const double* a, const double* b, std::size_t n) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    for (std::size_t j = 0; j < 4; ++j) {
      const double p = a[i + j] * b[i + j];
      acc[j] += p;
    }
  }
  for (std::size_t i = n4; i < n; ++i) {
    const double p = a[i] * b[i];
    acc[i - n4] += p;
  }
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

std::size_t SelectGreater(const double* q, const double* d, std::size_t n,
                          std::uint32_t* idx) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (q[i] > d[i]) idx[count++] = static_cast<std::uint32_t>(i);
  }
  return count;
}

void GatherPairSums(const double* q, const double* d, const std::uint32_t* idx,
                    std::size_t m, double* q_sum, double* d_sum) {
  double qa[4] = {0.0, 0.0, 0.0, 0.0};
  double da[4] = {0.0, 0.0, 0.0, 0.0};
  const std::size_t m4 = m & ~std::size_t{3};
  for (std::size_t i = 0; i < m4; i += 4) {
    for (std::size_t j = 0; j < 4; ++j) {
      qa[j] += q[idx[i + j]];
      da[j] += d[idx[i + j]];
    }
  }
  for (std::size_t i = m4; i < m; ++i) {
    qa[i - m4] += q[idx[i]];
    da[i - m4] += d[idx[i]];
  }
  *q_sum = (qa[0] + qa[1]) + (qa[2] + qa[3]);
  *d_sum = (da[0] + da[1]) + (da[2] + da[3]);
}

std::size_t FilterGt(double* value, std::uint32_t* idx, std::size_t m,
                     double threshold) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < m; ++i) {
    if (value[i] > threshold) {
      value[kept] = value[i];
      idx[kept] = idx[i];
      ++kept;
    }
  }
  return kept;
}

void ExpandMaskEpsilon(const std::uint64_t* mask, std::size_t mask_words,
                       const std::uint32_t* users, std::size_t n, double eps,
                       double* add) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t word = users[i] >> 6;
    const std::uint64_t bit =
        word < mask_words ? (mask[word] >> (users[i] & 63u)) & 1u : 0u;
    add[i] = bit != 0 ? eps : 0.0;
  }
}

}  // namespace kernels
}  // namespace tcdp
