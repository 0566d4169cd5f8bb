#ifndef MEMGOAL_LA_MATRIX_H_
#define MEMGOAL_LA_MATRIX_H_

#include <cstddef>
#include <vector>

#include "common/check.h"

namespace memgoal::la {

/// Dense column vector, indexed 0..n-1.
using Vector = std::vector<double>;

/// Dot product of equal-length vectors.
double Dot(const Vector& a, const Vector& b);

/// y += alpha * x.
void Axpy(double alpha, const Vector& x, Vector* y);

/// Dense row-major matrix sized at construction.
///
/// Kernel contract, shared by every la kernel (Multiply, Invert,
/// RowReplaceInverse, the revised simplex): each output is computed by a
/// fixed sequence of floating-point operations in a fixed order, the one a
/// plain loop over the mathematical definition would use. Independent
/// outputs may be interleaved (four rows per pass, say, so four add chains
/// are in flight), but a sum is never reassociated, split into partial
/// sums or contracted into fused multiply-adds. Every result is therefore
/// bit-identical however a kernel is scheduled, which the golden digests
/// (tests/la_kernel_golden_test.cc and the scenario goldens) pin.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix Identity(size_t n);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& operator()(size_t i, size_t j) {
    MEMGOAL_DCHECK(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }
  double operator()(size_t i, size_t j) const {
    MEMGOAL_DCHECK(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }

  /// Row i's cols() contiguous elements.
  double* RowData(size_t i) {
    MEMGOAL_DCHECK(i < rows_);
    return data_.data() + i * cols_;
  }
  const double* RowData(size_t i) const {
    MEMGOAL_DCHECK(i < rows_);
    return data_.data() + i * cols_;
  }

  /// Copies row i into a vector.
  Vector Row(size_t i) const;
  /// Overwrites row i.
  void SetRow(size_t i, const Vector& row);

  /// Matrix-vector product (x.size() == cols()).
  Vector Multiply(const Vector& x) const;
  /// Matrix-matrix product (cols() == other.rows()).
  Matrix Multiply(const Matrix& other) const;

  /// Max absolute element; 0 for empty matrices.
  double MaxAbs() const;

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

}  // namespace memgoal::la

#endif  // MEMGOAL_LA_MATRIX_H_
