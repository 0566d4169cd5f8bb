#include "la/matrix.h"

#include <cmath>

namespace memgoal::la {

double Dot(const Vector& a, const Vector& b) {
  MEMGOAL_CHECK(a.size() == b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

void Axpy(double alpha, const Vector& x, Vector* y) {
  MEMGOAL_CHECK(x.size() == y->size());
  for (size_t i = 0; i < x.size(); ++i) (*y)[i] += alpha * x[i];
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Vector Matrix::Row(size_t i) const {
  MEMGOAL_CHECK(i < rows_);
  Vector row(cols_);
  for (size_t j = 0; j < cols_; ++j) row[j] = (*this)(i, j);
  return row;
}

void Matrix::SetRow(size_t i, const Vector& row) {
  MEMGOAL_CHECK(i < rows_);
  MEMGOAL_CHECK(row.size() == cols_);
  for (size_t j = 0; j < cols_; ++j) (*this)(i, j) = row[j];
}

Vector Matrix::Multiply(const Vector& x) const {
  MEMGOAL_CHECK(x.size() == cols_);
  Vector y(rows_, 0.0);
  // Four rows per pass: four independent dot-product chains, each in
  // column order.
  size_t i = 0;
  for (; i + 4 <= rows_; i += 4) {
    const double* r0 = RowData(i);
    const double* r1 = RowData(i + 1);
    const double* r2 = RowData(i + 2);
    const double* r3 = RowData(i + 3);
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (size_t j = 0; j < cols_; ++j) {
      const double xj = x[j];
      s0 += r0[j] * xj;
      s1 += r1[j] * xj;
      s2 += r2[j] * xj;
      s3 += r3[j] * xj;
    }
    y[i] = s0;
    y[i + 1] = s1;
    y[i + 2] = s2;
    y[i + 3] = s3;
  }
  for (; i < rows_; ++i) {
    const double* r = RowData(i);
    double sum = 0.0;
    for (size_t j = 0; j < cols_; ++j) sum += r[j] * x[j];
    y[i] = sum;
  }
  return y;
}

Matrix Matrix::Multiply(const Matrix& other) const {
  MEMGOAL_CHECK(cols_ == other.rows());
  Matrix result(rows_, other.cols());
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t k = 0; k < cols_; ++k) {
      const double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      for (size_t j = 0; j < other.cols(); ++j) {
        result(i, j) += aik * other(k, j);
      }
    }
  }
  return result;
}

double Matrix::MaxAbs() const {
  double result = 0.0;
  for (double x : data_) result = std::max(result, std::fabs(x));
  return result;
}

}  // namespace memgoal::la
