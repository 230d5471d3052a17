#include "linalg/matrix.h"

#include <cassert>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "kernels/kernels.h"

namespace tcdp {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows)
    : rows_(rows.size()), cols_(0) {
  if (rows_ == 0) return;
  cols_ = rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    assert(row.size() == cols_ && "ragged initializer list");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

StatusOr<Matrix> Matrix::FromFlat(std::size_t rows, std::size_t cols,
                                  std::vector<double> data) {
  if (data.size() != rows * cols) {
    return Status::InvalidArgument(
        "FromFlat: data size " + std::to_string(data.size()) +
        " != rows*cols " + std::to_string(rows * cols));
  }
  Matrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.data_ = std::move(data);
  return m;
}

Matrix Matrix::Identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m.At(i, i) = 1.0;
  return m;
}

double& Matrix::At(std::size_t r, std::size_t c) {
  assert(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

double Matrix::At(std::size_t r, std::size_t c) const {
  assert(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

std::vector<double> Matrix::Row(std::size_t r) const {
  assert(r < rows_);
  return std::vector<double>(data_.begin() + static_cast<long>(r * cols_),
                             data_.begin() + static_cast<long>((r + 1) * cols_));
}

std::vector<double> Matrix::Col(std::size_t c) const {
  assert(c < cols_);
  std::vector<double> out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = At(r, c);
  return out;
}

void Matrix::SetRow(std::size_t r, const std::vector<double>& values) {
  assert(r < rows_ && values.size() == cols_);
  for (std::size_t c = 0; c < cols_; ++c) At(r, c) = values[c];
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out.At(c, r) = At(r, c);
  }
  return out;
}

StatusOr<Matrix> Matrix::Multiply(const Matrix& other) const {
  if (cols_ != other.rows_) {
    return Status::InvalidArgument(
        "Multiply: shape mismatch (" + std::to_string(rows_) + "x" +
        std::to_string(cols_) + ") * (" + std::to_string(other.rows_) + "x" +
        std::to_string(other.cols_) + ")");
  }
  Matrix out(rows_, other.cols_, 0.0);
  // ikj order keeps both the source row of `other` and the destination
  // row contiguous, so each inner loop is one axpy kernel call.
  for (std::size_t i = 0; i < rows_; ++i) {
    double* out_row = out.data_.data() + i * other.cols_;
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = At(i, k);
      if (aik == 0.0) continue;
      kernels::Axpy(aik, other.data_.data() + k * other.cols_, out_row,
                    other.cols_);
    }
  }
  return out;
}

std::vector<double> Matrix::LeftMultiply(const std::vector<double>& v) const {
  assert(v.size() == rows_);
  std::vector<double> out(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double vr = v[r];
    if (vr == 0.0) continue;
    kernels::Axpy(vr, data_.data() + r * cols_, out.data(), cols_);
  }
  return out;
}

std::vector<double> Matrix::RightMultiply(const std::vector<double>& v) const {
  assert(v.size() == cols_);
  std::vector<double> out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    out[r] = kernels::Dot(data_.data() + r * cols_, v.data(), cols_);
  }
  return out;
}

double Matrix::MaxAbsDiff(const Matrix& other) const {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  double m = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    m = std::max(m, std::fabs(data_[i] - other.data_[i]));
  }
  return m;
}

bool Matrix::ApproxEquals(const Matrix& other, double tol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  return MaxAbsDiff(other) <= tol;
}

std::string Matrix::ToString(int precision) const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision);
  for (std::size_t r = 0; r < rows_; ++r) {
    os << (r == 0 ? "[[" : " [");
    for (std::size_t c = 0; c < cols_; ++c) {
      os << At(r, c);
      if (c + 1 < cols_) os << ", ";
    }
    os << (r + 1 < rows_ ? "],\n" : "]]");
  }
  return os.str();
}

}  // namespace tcdp
