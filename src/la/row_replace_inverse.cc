#include "la/row_replace_inverse.h"

#include <algorithm>
#include <cmath>

#include "la/gauss.h"
#include "obs/profiler.h"

namespace memgoal::la {

namespace {

// Every kernel below handles four rows per pass, so four independent add
// chains are in flight; each row's own sum still runs in column order and
// keeps its bits.

// sums[i] := sum over j of |m(i, j)|.
void RowAbsSums(const Matrix& m, double* sums) {
  const size_t rows = m.rows();
  const size_t n = m.cols();
  size_t i = 0;
  for (; i + 4 <= rows; i += 4) {
    const double* r0 = m.RowData(i);
    const double* r1 = m.RowData(i + 1);
    const double* r2 = m.RowData(i + 2);
    const double* r3 = m.RowData(i + 3);
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (size_t j = 0; j < n; ++j) {
      s0 += std::fabs(r0[j]);
      s1 += std::fabs(r1[j]);
      s2 += std::fabs(r2[j]);
      s3 += std::fabs(r3[j]);
    }
    sums[i] = s0;
    sums[i + 1] = s1;
    sums[i + 2] = s2;
    sums[i + 3] = s3;
  }
  for (; i < rows; ++i) {
    const double* r = m.RowData(i);
    double sum = 0.0;
    for (size_t j = 0; j < n; ++j) sum += std::fabs(r[j]);
    sums[i] = sum;
  }
}

// For each k < count: row rows[k] of m -= scales[k] * t, and
// sums[rows[k]] := the updated row's absolute sum.
void UpdateRows(const size_t* rows, const double* scales, size_t count,
                const double* t, Matrix* m, double* sums) {
  const size_t n = m->cols();
  size_t k = 0;
  for (; k + 4 <= count; k += 4) {
    double* r0 = m->RowData(rows[k]);
    double* r1 = m->RowData(rows[k + 1]);
    double* r2 = m->RowData(rows[k + 2]);
    double* r3 = m->RowData(rows[k + 3]);
    const double c0 = scales[k], c1 = scales[k + 1];
    const double c2 = scales[k + 2], c3 = scales[k + 3];
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (size_t j = 0; j < n; ++j) {
      const double tj = t[j];
      r0[j] -= c0 * tj;
      r1[j] -= c1 * tj;
      r2[j] -= c2 * tj;
      r3[j] -= c3 * tj;
      s0 += std::fabs(r0[j]);
      s1 += std::fabs(r1[j]);
      s2 += std::fabs(r2[j]);
      s3 += std::fabs(r3[j]);
    }
    sums[rows[k]] = s0;
    sums[rows[k + 1]] = s1;
    sums[rows[k + 2]] = s2;
    sums[rows[k + 3]] = s3;
  }
  for (; k < count; ++k) {
    double* r = m->RowData(rows[k]);
    const double c = scales[k];
    double sum = 0.0;
    for (size_t j = 0; j < n; ++j) {
      r[j] -= c * t[j];
      sum += std::fabs(r[j]);
    }
    sums[rows[k]] = sum;
  }
}

}  // namespace

bool RowReplaceInverse::Reset(const Matrix& a) {
  obs::ProfileScope profile(obs::Phase::kRowReplace);
  MEMGOAL_CHECK(a.rows() == a.cols());
  std::optional<Matrix> inv = Invert(a);
  if (!inv.has_value()) {
    initialized_ = false;
    return false;
  }
  a_ = a;
  inverse_ = std::move(*inv);
  const size_t n = a_.rows();
  a_row_abs_.resize(n);
  inverse_row_abs_.resize(n);
  RowAbsSums(a_, a_row_abs_.data());
  RowAbsSums(inverse_, inverse_row_abs_.data());
  initialized_ = true;
  updates_since_refresh_ = 0;
  return true;
}

void RowReplaceInverse::RowDifference(size_t row, const Vector& new_row,
                                      Vector* w) const {
  MEMGOAL_CHECK(initialized_);
  MEMGOAL_CHECK(row < a_.rows());
  MEMGOAL_CHECK(new_row.size() == a_.cols());
  w->resize(new_row.size());
  for (size_t j = 0; j < new_row.size(); ++j) {
    (*w)[j] = new_row[j] - a_(row, j);
  }
}

double RowReplaceInverse::Denominator(size_t row, const Vector& w) const {
  // den = 1 + w^T A^{-1} e_r = 1 + w . col_row(A^{-1}).
  double den = 1.0;
  for (size_t j = 0; j < w.size(); ++j) den += w[j] * inverse_(j, row);
  return den;
}

bool RowReplaceInverse::WouldRemainNonsingular(size_t row,
                                               const Vector& new_row) const {
  Vector w;
  RowDifference(row, new_row, &w);
  return std::fabs(Denominator(row, w)) > kDenominatorTolerance;
}

bool RowReplaceInverse::ReplaceRow(size_t row, const Vector& new_row) {
  obs::ProfileScope profile(obs::Phase::kRowReplace);
  RowDifference(row, new_row, &w_);
  const double den = Denominator(row, w_);
  if (std::fabs(den) <= kDenominatorTolerance) return false;

  const size_t n = a_.rows();
  if (++updates_since_refresh_ >= kRefreshInterval) {
    // Periodic O(n^3) refresh to wash out accumulated floating-point drift.
    Matrix updated = a_;
    updated.SetRow(row, new_row);
    if (Reset(updated)) return true;
    // The exact re-inversion gave up even though the O(n) probe passed:
    // Gauss pivoting rejects matrices around condition 1/kSingularTolerance,
    // well before the incremental update loses meaning. Defer the refresh
    // and fall through to the rank-one update; callers with stricter needs
    // gate on ConditionEstimate(). The failed Reset() only cleared the
    // initialized flag — a_ and inverse_ are assigned on success alone.
    initialized_ = true;
    updates_since_refresh_ = kRefreshInterval;
  }

  // t = w^T A^{-1}, accumulated along contiguous rows of A^{-1}, four rows
  // per pass: each t_j still adds its terms in row order.
  t_.assign(n, 0.0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double* r0 = inverse_.RowData(i);
    const double* r1 = inverse_.RowData(i + 1);
    const double* r2 = inverse_.RowData(i + 2);
    const double* r3 = inverse_.RowData(i + 3);
    const double w0 = w_[i], w1 = w_[i + 1], w2 = w_[i + 2], w3 = w_[i + 3];
    for (size_t j = 0; j < n; ++j) {
      double tj = t_[j];
      tj += w0 * r0[j];
      tj += w1 * r1[j];
      tj += w2 * r2[j];
      tj += w3 * r3[j];
      t_[j] = tj;
    }
  }
  for (; i < n; ++i) {
    const double wi = w_[i];
    const double* inv_row = inverse_.RowData(i);
    for (size_t j = 0; j < n; ++j) t_[j] += wi * inv_row[j];
  }
  // Rank-one update of every row with a nonzero scale u_i / den, where
  // u = A^{-1} e_row (column `row` of the inverse, read before any row
  // changes). A row whose scale is 0 is left untouched and its cached abs
  // sum stands.
  const double inv_den = 1.0 / den;
  rows_.clear();
  scales_.clear();
  for (size_t i = 0; i < n; ++i) {
    const double scale = inverse_(i, row) * inv_den;
    if (scale == 0.0) continue;
    rows_.push_back(i);
    scales_.push_back(scale);
  }
  UpdateRows(rows_.data(), scales_.data(), rows_.size(), t_.data(),
             &inverse_, inverse_row_abs_.data());
  a_.SetRow(row, new_row);
  double a_row_abs = 0.0;
  for (size_t j = 0; j < n; ++j) a_row_abs += std::fabs(a_(row, j));
  a_row_abs_[row] = a_row_abs;
  return true;
}

Vector RowReplaceInverse::Solve(const Vector& b) const {
  MEMGOAL_CHECK(initialized_);
  return inverse_.Multiply(b);
}

double RowReplaceInverse::ConditionEstimate() const {
  MEMGOAL_CHECK(initialized_);
  double a_norm = 0.0, inverse_norm = 0.0;
  for (size_t i = 0; i < a_.rows(); ++i) {
    a_norm = std::max(a_norm, a_row_abs_[i]);
    inverse_norm = std::max(inverse_norm, inverse_row_abs_[i]);
  }
  return a_norm * inverse_norm;
}

}  // namespace memgoal::la
