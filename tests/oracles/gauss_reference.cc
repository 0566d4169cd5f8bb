#include "oracles/gauss_reference.h"

#include <cmath>
#include <utility>

#include "common/check.h"

namespace memgoal::la {

namespace {

// Scale used to make the pivot threshold relative to the matrix magnitude
// (the same rule as la::Invert's).
double PivotThreshold(const Matrix& a, double tolerance) {
  const double scale = a.MaxAbs();
  return tolerance * (scale > 0.0 ? scale : 1.0);
}

}  // namespace

std::optional<Vector> SolveLinearSystem(Matrix a, Vector b) {
  MEMGOAL_CHECK(a.rows() == a.cols());
  MEMGOAL_CHECK(b.size() == a.rows());
  const size_t n = a.rows();
  const double threshold = PivotThreshold(a, kSingularTolerance);

  for (size_t col = 0; col < n; ++col) {
    // Partial pivoting: bring the largest remaining element into position.
    size_t pivot = col;
    for (size_t row = col + 1; row < n; ++row) {
      if (std::fabs(a(row, col)) > std::fabs(a(pivot, col))) pivot = row;
    }
    if (std::fabs(a(pivot, col)) < threshold) return std::nullopt;
    if (pivot != col) {
      for (size_t j = 0; j < n; ++j) std::swap(a(col, j), a(pivot, j));
      std::swap(b[col], b[pivot]);
    }
    const double inv_pivot = 1.0 / a(col, col);
    for (size_t row = col + 1; row < n; ++row) {
      const double factor = a(row, col) * inv_pivot;
      if (factor == 0.0) continue;
      a(row, col) = 0.0;
      for (size_t j = col + 1; j < n; ++j) a(row, j) -= factor * a(col, j);
      b[row] -= factor * b[col];
    }
  }

  Vector x(n, 0.0);
  for (size_t i = n; i-- > 0;) {
    double sum = b[i];
    for (size_t j = i + 1; j < n; ++j) sum -= a(i, j) * x[j];
    x[i] = sum / a(i, i);
  }
  return x;
}

size_t Rank(Matrix a, double tolerance) {
  const size_t rows = a.rows();
  const size_t cols = a.cols();
  const double threshold = PivotThreshold(a, tolerance);
  size_t rank = 0;
  for (size_t col = 0; col < cols && rank < rows; ++col) {
    size_t pivot = rank;
    for (size_t row = rank + 1; row < rows; ++row) {
      if (std::fabs(a(row, col)) > std::fabs(a(pivot, col))) pivot = row;
    }
    if (std::fabs(a(pivot, col)) < threshold) continue;
    if (pivot != rank) {
      for (size_t j = 0; j < cols; ++j) std::swap(a(rank, j), a(pivot, j));
    }
    const double inv_pivot = 1.0 / a(rank, col);
    for (size_t row = rank + 1; row < rows; ++row) {
      const double factor = a(row, col) * inv_pivot;
      if (factor == 0.0) continue;
      for (size_t j = col; j < cols; ++j) a(row, j) -= factor * a(rank, j);
    }
    ++rank;
  }
  return rank;
}

}  // namespace memgoal::la
