#ifndef MEMGOAL_LA_ROW_REPLACE_INVERSE_H_
#define MEMGOAL_LA_ROW_REPLACE_INVERSE_H_

#include <optional>

#include "la/matrix.h"

namespace memgoal::la {

/// Maintains the inverse of a square matrix under single-row replacement in
/// O(n^2) per update — the "incremental Gauss" algorithm the paper uses for
/// its linear-independence test and hyperplane approximation (§5, Table 1).
///
/// Replacing row r of A with v is the rank-one update
///     A' = A + e_r (v - a_r)^T,
/// so by the Sherman–Morrison formula
///     A'^{-1} = A^{-1} - (A^{-1} e_r) (w^T A^{-1}) / (1 + w^T A^{-1} e_r),
/// with w = v - a_r. The update denominator also serves as the singularity
/// test: |1 + w^T A^{-1} e_r| below a tolerance means A' is (numerically)
/// singular and the replacement is rejected. Probing the denominator alone
/// costs only O(n) (a dot product with one column of A^{-1}).
///
/// To bound drift from repeated rank-one updates, the inverse is refreshed
/// from scratch every `kRefreshInterval` committed updates.
class RowReplaceInverse {
 public:
  /// Tolerance for the Sherman–Morrison denominator, relative to 1.
  static constexpr double kDenominatorTolerance = 1e-8;
  static constexpr int kRefreshInterval = 64;

  RowReplaceInverse() = default;

  /// (Re)initializes from a full matrix in O(n^3). Returns false and leaves
  /// the object uninitialized if the matrix is singular.
  bool Reset(const Matrix& a);

  bool initialized() const { return initialized_; }
  size_t n() const { return a_.rows(); }
  const Matrix& matrix() const { return a_; }
  const Matrix& inverse() const { return inverse_; }

  /// Returns true if replacing row `row` with `new_row` keeps the matrix
  /// nonsingular. O(n); does not modify the object.
  bool WouldRemainNonsingular(size_t row, const Vector& new_row) const;

  /// Replaces row `row` with `new_row`, updating the inverse in O(n^2).
  /// Returns false (and leaves the object unchanged) if the replacement
  /// would make the matrix singular.
  bool ReplaceRow(size_t row, const Vector& new_row);

  /// Solves A x = b in O(n^2) using the maintained inverse.
  Vector Solve(const Vector& b) const;

  /// Infinity-norm condition estimate ‖A‖∞·‖A⁻¹‖∞. O(n): the per-row
  /// absolute sums are maintained incrementally by ReplaceRow/Reset (summed
  /// in the same index order a fresh pass would use, so the value is
  /// bit-identical to recomputing from scratch). Cheap upper proxy for how
  /// amplified measurement noise gets in Solve(); callers reset their store
  /// when it drifts past a sanity limit.
  double ConditionEstimate() const;

 private:
  /// w := new_row - row `row` of A.
  void RowDifference(size_t row, const Vector& new_row, Vector* w) const;
  /// The Sherman–Morrison denominator 1 + w^T A^{-1} e_row.
  double Denominator(size_t row, const Vector& w) const;

  bool initialized_ = false;
  int updates_since_refresh_ = 0;
  Matrix a_;
  Matrix inverse_;
  /// Cached per-row absolute sums of a_ and inverse_ (the ∞-norm is their
  /// max), kept in lockstep with the matrices.
  Vector a_row_abs_;
  Vector inverse_row_abs_;
  /// ReplaceRow scratch: w = new_row - old_row, t = w^T A^{-1}, and the
  /// rows it updates with their scales.
  Vector w_;
  Vector t_;
  std::vector<size_t> rows_;
  Vector scales_;
};

}  // namespace memgoal::la

#endif  // MEMGOAL_LA_ROW_REPLACE_INVERSE_H_
