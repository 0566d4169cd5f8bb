#include "la/gauss.h"

#include <algorithm>
#include <cmath>

namespace memgoal::la {

namespace {

// Scale used to make the pivot threshold relative to the matrix magnitude.
double PivotThreshold(const Matrix& a, double tolerance) {
  const double scale = a.MaxAbs();
  return tolerance * (scale > 0.0 ? scale : 1.0);
}

// For each k < count: row rows[k] of m -= factors[k] * pivot, over columns
// [begin, m->cols()). Four rows per pass share each load of the pivot row;
// every element still takes exactly one update.
void EliminateRows(const size_t* rows, const double* factors, size_t count,
                   const double* pivot, size_t begin, Matrix* m) {
  const size_t n = m->cols();
  size_t k = 0;
  for (; k + 4 <= count; k += 4) {
    double* r0 = m->RowData(rows[k]);
    double* r1 = m->RowData(rows[k + 1]);
    double* r2 = m->RowData(rows[k + 2]);
    double* r3 = m->RowData(rows[k + 3]);
    const double f0 = factors[k], f1 = factors[k + 1];
    const double f2 = factors[k + 2], f3 = factors[k + 3];
    for (size_t j = begin; j < n; ++j) {
      const double p = pivot[j];
      r0[j] -= f0 * p;
      r1[j] -= f1 * p;
      r2[j] -= f2 * p;
      r3[j] -= f3 * p;
    }
  }
  for (; k < count; ++k) {
    double* r = m->RowData(rows[k]);
    const double f = factors[k];
    for (size_t j = begin; j < n; ++j) r[j] -= f * pivot[j];
  }
}

}  // namespace

std::optional<Matrix> Invert(const Matrix& a) {
  MEMGOAL_CHECK(a.rows() == a.cols());
  const size_t n = a.rows();
  const double threshold = PivotThreshold(a, kSingularTolerance);

  // Gauss-Jordan on [work | inv]. Step `col` reads work only in columns
  // >= col (the pivot search and the factors), so it eliminates only the
  // work columns after col: the ones at or before it are never read again
  // and do not feed inv.
  Matrix work = a;
  Matrix inv = Matrix::Identity(n);
  std::vector<size_t> rows;
  Vector factors;
  rows.reserve(n);
  factors.reserve(n);
  for (size_t col = 0; col < n; ++col) {
    size_t pivot = col;
    for (size_t row = col + 1; row < n; ++row) {
      if (std::fabs(work(row, col)) > std::fabs(work(pivot, col))) pivot = row;
    }
    if (std::fabs(work(pivot, col)) < threshold) return std::nullopt;
    double* pivot_work = work.RowData(col);
    double* pivot_inv = inv.RowData(col);
    if (pivot != col) {
      std::swap_ranges(pivot_work + col, pivot_work + n,
                       work.RowData(pivot) + col);
      std::swap_ranges(pivot_inv, pivot_inv + n, inv.RowData(pivot));
    }
    const double inv_pivot = 1.0 / pivot_work[col];
    for (size_t j = col + 1; j < n; ++j) pivot_work[j] *= inv_pivot;
    for (size_t j = 0; j < n; ++j) pivot_inv[j] *= inv_pivot;
    rows.clear();
    factors.clear();
    for (size_t row = 0; row < n; ++row) {
      const double factor = work(row, col);
      if (row == col || factor == 0.0) continue;
      rows.push_back(row);
      factors.push_back(factor);
    }
    EliminateRows(rows.data(), factors.data(), rows.size(), pivot_work,
                  col + 1, &work);
    EliminateRows(rows.data(), factors.data(), rows.size(), pivot_inv, 0,
                  &inv);
  }
  return inv;
}

}  // namespace memgoal::la
