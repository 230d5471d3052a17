#include "markov/stochastic_matrix.h"

#include <cassert>
#include <cmath>
#include <cstring>
#include <string>

#include "common/hash.h"
#include "common/math_util.h"

namespace tcdp {

StatusOr<StochasticMatrix> StochasticMatrix::Create(Matrix m, double tol) {
  if (m.rows() != m.cols()) {
    return Status::InvalidArgument(
        "StochasticMatrix: matrix must be square, got " +
        std::to_string(m.rows()) + "x" + std::to_string(m.cols()));
  }
  if (m.rows() == 0) {
    return Status::InvalidArgument("StochasticMatrix: empty matrix");
  }
  for (std::size_t r = 0; r < m.rows(); ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < m.cols(); ++c) {
      const double v = m.At(r, c);
      if (!IsProbability(v, tol)) {
        return Status::InvalidArgument(
            "StochasticMatrix: entry (" + std::to_string(r) + "," +
            std::to_string(c) + ")=" + std::to_string(v) +
            " outside [0,1]");
      }
      sum += v;
    }
    if (std::fabs(sum - 1.0) > tol) {
      return Status::InvalidArgument(
          "StochasticMatrix: row " + std::to_string(r) + " sums to " +
          std::to_string(sum) + ", expected 1");
    }
    // Re-normalize exactly and clamp tiny negatives introduced upstream.
    for (std::size_t c = 0; c < m.cols(); ++c) {
      m.At(r, c) = Clamp(m.At(r, c), 0.0, 1.0) / sum;
    }
  }
  return StochasticMatrix(std::move(m));
}

StatusOr<StochasticMatrix> StochasticMatrix::CreateExact(Matrix m,
                                                         double tol) {
  if (m.rows() != m.cols() || m.rows() == 0) {
    return Status::InvalidArgument(
        "StochasticMatrix::CreateExact: matrix must be square and "
        "non-empty");
  }
  for (std::size_t r = 0; r < m.rows(); ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < m.cols(); ++c) {
      const double v = m.At(r, c);
      if (!(v >= 0.0) || !(v <= 1.0)) {
        return Status::InvalidArgument(
            "StochasticMatrix::CreateExact: entry (" + std::to_string(r) +
            "," + std::to_string(c) + ") outside [0,1]");
      }
      sum += v;
    }
    if (std::fabs(sum - 1.0) > tol) {
      return Status::InvalidArgument(
          "StochasticMatrix::CreateExact: row " + std::to_string(r) +
          " sums to " + std::to_string(sum) + ", expected 1");
    }
  }
  return StochasticMatrix(std::move(m));
}

StochasticMatrix StochasticMatrix::FromRows(
    std::initializer_list<std::initializer_list<double>> rows) {
  auto result = Create(Matrix(rows));
  assert(result.ok() && "FromRows: invalid stochastic matrix literal");
  return std::move(result).value();
}

StochasticMatrix StochasticMatrix::Uniform(std::size_t n) {
  assert(n > 0);
  return StochasticMatrix(Matrix(n, n, 1.0 / static_cast<double>(n)));
}

StochasticMatrix StochasticMatrix::Identity(std::size_t n) {
  assert(n > 0);
  return StochasticMatrix(Matrix::Identity(n));
}

StatusOr<StochasticMatrix> StochasticMatrix::Permutation(
    const std::vector<std::size_t>& perm) {
  const std::size_t n = perm.size();
  if (n == 0) return Status::InvalidArgument("Permutation: empty");
  std::vector<bool> seen(n, false);
  for (std::size_t p : perm) {
    if (p >= n || seen[p]) {
      return Status::InvalidArgument("Permutation: not a permutation of [0,n)");
    }
    seen[p] = true;
  }
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m.At(i, perm[i]) = 1.0;
  return StochasticMatrix(std::move(m));
}

StochasticMatrix StochasticMatrix::Random(std::size_t n, Rng* rng) {
  assert(n > 0 && rng != nullptr);
  Matrix m(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      // Strictly positive entries so rows always normalize.
      const double v = rng->Uniform() + 1e-12;
      m.At(r, c) = v;
      sum += v;
    }
    for (std::size_t c = 0; c < n; ++c) m.At(r, c) /= sum;
  }
  return StochasticMatrix(std::move(m));
}

StochasticMatrix StochasticMatrix::PowerK(std::size_t k) const {
  Matrix acc = Matrix::Identity(size());
  Matrix base = matrix_;
  while (k > 0) {
    if (k & 1u) {
      auto r = acc.Multiply(base);
      assert(r.ok());
      acc = std::move(r).value();
    }
    k >>= 1u;
    if (k > 0) {
      auto r = base.Multiply(base);
      assert(r.ok());
      base = std::move(r).value();
    }
  }
  return StochasticMatrix(std::move(acc));
}

std::vector<double> StochasticMatrix::Propagate(
    const std::vector<double>& dist) const {
  assert(dist.size() == size());
  return matrix_.LeftMultiply(dist);
}

std::uint64_t FingerprintStochasticMatrix(const StochasticMatrix& matrix) {
  const std::vector<double>& data = matrix.matrix().data();
  return HashBytes(data.data(), data.size() * sizeof(double), matrix.size());
}

bool ExactlyEquals(const StochasticMatrix& a, const StochasticMatrix& b) {
  const std::vector<double>& x = a.matrix().data();
  const std::vector<double>& y = b.matrix().data();
  return a.size() == b.size() && x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
}

}  // namespace tcdp
