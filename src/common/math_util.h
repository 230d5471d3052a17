#ifndef TCDP_COMMON_MATH_UTIL_H_
#define TCDP_COMMON_MATH_UTIL_H_

/// \file
/// Small numeric helpers shared across the library: tolerant comparisons,
/// guarded logs/exponentials, and probability-vector utilities.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace tcdp {

/// Default absolute tolerance for floating-point comparisons in this
/// library. Privacy-loss recurrences are contractions, so errors do not
/// amplify; 1e-9 is comfortably below every quantity we compare.
inline constexpr double kDefaultTol = 1e-9;

/// Positive infinity shorthand.
inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// \brief True iff |a - b| <= tol (absolute tolerance).
inline bool ApproxEqual(double a, double b, double tol = kDefaultTol) {
  return std::fabs(a - b) <= tol;
}

/// \brief True iff a and b agree to within max(|a|,|b|,1) * tol.
inline bool RelApproxEqual(double a, double b, double tol = kDefaultTol) {
  const double scale = std::max({std::fabs(a), std::fabs(b), 1.0});
  return std::fabs(a - b) <= scale * tol;
}

/// \brief Clamps \p x into [lo, hi].
inline double Clamp(double x, double lo, double hi) {
  return x < lo ? lo : (x > hi ? hi : x);
}

/// \brief Natural log that maps non-positive inputs to -inf instead of NaN.
inline double SafeLog(double x) {
  if (x < 0.0) return std::numeric_limits<double>::quiet_NaN();
  if (x == 0.0) return -kInf;
  return std::log(x);
}

/// \brief True iff \p x is a probability (in [0,1] within \p tol slack).
inline bool IsProbability(double x, double tol = kDefaultTol) {
  return x >= -tol && x <= 1.0 + tol && std::isfinite(x);
}

/// \brief True iff \p v sums to 1 within \p tol and every entry is a
/// probability.
bool IsProbabilityVector(const std::vector<double>& v,
                         double tol = 1e-6);

/// \brief Normalizes \p v in place to sum to 1. Returns false (and leaves
/// \p v untouched) if the sum is not strictly positive and finite.
bool NormalizeInPlace(std::vector<double>* v);

/// \brief L1 distance between two equally sized vectors.
double L1Distance(const std::vector<double>& a, const std::vector<double>& b);

/// \brief log(sum_i exp(x_i)) computed stably. Empty input -> -inf.
double LogSumExp(const std::vector<double>& x);

/// \brief Arithmetic mean; 0 for empty input.
double Mean(const std::vector<double>& v);

/// \brief Population standard deviation; 0 for size < 2.
double StdDev(const std::vector<double>& v);

}  // namespace tcdp

#endif  // TCDP_COMMON_MATH_UTIL_H_
