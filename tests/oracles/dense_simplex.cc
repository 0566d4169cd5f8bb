#include "oracles/dense_simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"

namespace memgoal::la {

namespace {
constexpr double kEps = 1e-9;
/// Pricing-only tolerance, three orders tighter than kEps (the revised
/// solver's kPriceEps carries the rationale).
constexpr double kPriceEps = 1e-12;
// Generous safety bound; Bland's rule terminates finitely anyway, but a
// numerically cycling instance surfaces as kIterationLimit instead of
// aborting the process.
constexpr int kMaxIterations = 100000;

using Relation = LinearProgram::Relation;

// Lowers the upper bounds to explicit `x_j <= ub_j` rows after the
// program's own rows, then runs the two-phase tableau.
class DenseTableau {
 public:
  explicit DenseTableau(LinearProgram lp) : lp_(std::move(lp)) {
    for (size_t j = 0; j < lp_.num_vars; ++j) {
      if (lp_.upper[j] == std::numeric_limits<double>::infinity()) continue;
      Vector a(lp_.num_vars, 0.0);
      a[j] = 1.0;
      lp_.rows.push_back(a);
      lp_.relations.push_back(Relation::kLe);
      lp_.rhs.push_back(lp_.upper[j]);
    }
  }

  SimplexResult Solve();

 private:
  enum class IterateOutcome { kOptimal, kUnbounded, kIterationLimit };

  // Pivots the tableau on (pivot_row, pivot_col).
  void Pivot(size_t pivot_row, size_t pivot_col);

  // Runs simplex iterations on the current cost row. `allowed_cols` bounds
  // the entering-column search (used to exclude artificials in phase 2).
  IterateOutcome Iterate(size_t allowed_cols);

  LinearProgram lp_;
  int iterations_used_ = 0;

  // tableau_ has one row per constraint plus a trailing cost row; each row
  // has total_cols_ + 1 entries (RHS last).
  std::vector<Vector> tableau_;
  std::vector<size_t> basis_;
  size_t total_cols_ = 0;
  size_t artificial_begin_ = 0;
};

void DenseTableau::Pivot(size_t pivot_row, size_t pivot_col) {
  Vector& prow = tableau_[pivot_row];
  const double inv_pivot = 1.0 / prow[pivot_col];
  for (double& v : prow) v *= inv_pivot;
  prow[pivot_col] = 1.0;  // avoid residual rounding
  for (size_t r = 0; r < tableau_.size(); ++r) {
    if (r == pivot_row) continue;
    Vector& row = tableau_[r];
    const double factor = row[pivot_col];
    if (factor == 0.0) continue;
    for (size_t c = 0; c <= total_cols_; ++c) {
      const double sub = factor * prow[c];
      const double updated = row[c] - sub;
      // A result that is vanishingly small relative to the operands that
      // produced it is pure cancellation noise; snapping it to zero keeps
      // residue from long pivot chains out of the reduced-cost and ratio
      // tests (where a sign flip near the tolerance can cycle).
      row[c] = std::fabs(updated) <=
                       kEps * (std::fabs(row[c]) + std::fabs(sub))
                   ? 0.0
                   : updated;
    }
    row[pivot_col] = 0.0;
  }
  basis_[pivot_row] = pivot_col;
}

DenseTableau::IterateOutcome DenseTableau::Iterate(size_t allowed_cols) {
  const size_t m = lp_.relations.size();
  Vector& cost = tableau_[m];
  for (int iter = 0; iter < kMaxIterations; ++iter) {
    iterations_used_ = iter;
    // Scale-aware reduced-cost tolerance: relative to the cost row's
    // magnitude, so byte-scale and millisecond-scale objectives get the
    // same effective precision.
    double cost_scale = 1.0;
    for (size_t c = 0; c < allowed_cols; ++c) {
      cost_scale = std::max(cost_scale, std::fabs(cost[c]));
    }
    const double cost_tol = kPriceEps * cost_scale;
    // Bland's rule: entering column = smallest index with negative reduced
    // cost (we always minimize internally).
    size_t entering = total_cols_;
    for (size_t c = 0; c < allowed_cols; ++c) {
      if (cost[c] < -cost_tol) {
        entering = c;
        break;
      }
    }
    if (entering == total_cols_) return IterateOutcome::kOptimal;

    // Pivot eligibility is judged against the entering column's own
    // magnitude (a coefficient tiny relative to its column is numerical
    // noise, not a usable pivot).
    double col_scale = 0.0;
    for (size_t r = 0; r < m; ++r) {
      col_scale = std::max(col_scale, std::fabs(tableau_[r][entering]));
    }
    const double coeff_tol = kEps * std::max(1.0, col_scale);

    // Ratio test; ties broken by smallest basis variable index (Bland).
    size_t leaving = m;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (size_t r = 0; r < m; ++r) {
      const double coeff = tableau_[r][entering];
      if (coeff <= coeff_tol) continue;
      const double ratio = tableau_[r][total_cols_] / coeff;
      const double tie = kEps * (1.0 + std::fabs(best_ratio));
      if (ratio < best_ratio - tie ||
          (ratio < best_ratio + tie &&
           (leaving == m || basis_[r] < basis_[leaving]))) {
        best_ratio = ratio;
        leaving = r;
      }
    }
    if (leaving == m) return IterateOutcome::kUnbounded;
    Pivot(leaving, entering);
  }
  return IterateOutcome::kIterationLimit;
}

SimplexResult DenseTableau::Solve() {
  const size_t m = lp_.relations.size();
  if (m == 0) {
    // No constraints: the optimum sits at the lower bounds unless some
    // objective direction improves without limit.
    SimplexResult result;
    const double sign = lp_.minimize ? 1.0 : -1.0;
    for (size_t j = 0; j < lp_.num_vars; ++j) {
      if (sign * lp_.objective[j] < -kEps) {
        result.status = SimplexStatus::kUnbounded;
        return result;
      }
    }
    result.status = SimplexStatus::kOptimal;
    result.x.assign(lp_.num_vars, 0.0);
    result.objective = 0.0;
    return result;
  }

  // Normalize rows to nonnegative RHS.
  std::vector<Vector> rows = lp_.rows;
  std::vector<Relation> relations = lp_.relations;
  Vector rhs = lp_.rhs;
  for (size_t i = 0; i < m; ++i) {
    if (rhs[i] < 0.0) {
      for (double& v : rows[i]) v = -v;
      rhs[i] = -rhs[i];
      if (relations[i] == Relation::kLe) {
        relations[i] = Relation::kGe;
      } else if (relations[i] == Relation::kGe) {
        relations[i] = Relation::kLe;
      }
    }
  }

  // Column layout: [structural | slack/surplus | artificial | RHS].
  size_t num_slack = 0;
  for (Relation rel : relations) {
    if (rel != Relation::kEq) ++num_slack;
  }
  size_t num_artificial = 0;
  for (Relation rel : relations) {
    if (rel != Relation::kLe) ++num_artificial;
  }
  const size_t slack_begin = lp_.num_vars;
  artificial_begin_ = lp_.num_vars + num_slack;
  total_cols_ = artificial_begin_ + num_artificial;

  tableau_.assign(m + 1, Vector(total_cols_ + 1, 0.0));
  basis_.assign(m, 0);
  iterations_used_ = 0;

  size_t next_slack = slack_begin;
  size_t next_artificial = artificial_begin_;
  for (size_t i = 0; i < m; ++i) {
    Vector& row = tableau_[i];
    for (size_t j = 0; j < lp_.num_vars; ++j) row[j] = rows[i][j];
    row[total_cols_] = rhs[i];
    switch (relations[i]) {
      case Relation::kLe:
        row[next_slack] = 1.0;
        basis_[i] = next_slack++;
        break;
      case Relation::kGe:
        row[next_slack++] = -1.0;
        row[next_artificial] = 1.0;
        basis_[i] = next_artificial++;
        break;
      case Relation::kEq:
        row[next_artificial] = 1.0;
        basis_[i] = next_artificial++;
        break;
    }
  }

  SimplexResult result;

  if (num_artificial > 0) {
    // Phase 1: minimize the sum of artificials. The cost row starts as
    // sum(artificial columns) reduced over the initial basis, i.e. the
    // negated sum of rows whose basis variable is artificial.
    Vector& cost = tableau_[m];
    for (size_t i = 0; i < m; ++i) {
      if (basis_[i] < artificial_begin_) continue;
      for (size_t c = 0; c <= total_cols_; ++c) cost[c] -= tableau_[i][c];
    }
    for (size_t a = artificial_begin_; a < total_cols_; ++a) cost[a] = 0.0;

    const IterateOutcome outcome = Iterate(total_cols_);
    if (outcome == IterateOutcome::kIterationLimit) {
      result.status = SimplexStatus::kIterationLimit;
      result.iterations = iterations_used_;
      return result;
    }
    MEMGOAL_CHECK_MSG(outcome != IterateOutcome::kUnbounded,
                      "phase-1 objective cannot be unbounded");
    if (tableau_[m][total_cols_] < -1e-7) {
      result.status = SimplexStatus::kInfeasible;
      result.iterations = iterations_used_;
      return result;
    }
    // Drive any artificial still in the basis (at value ~0) out of it.
    for (size_t r = 0; r < m; ++r) {
      if (basis_[r] < artificial_begin_) continue;
      size_t col = artificial_begin_;
      for (size_t c = 0; c < artificial_begin_; ++c) {
        if (std::fabs(tableau_[r][c]) > kEps) {
          col = c;
          break;
        }
      }
      if (col < artificial_begin_) {
        Pivot(r, col);
      }
      // Else the row is redundant (all-zero over real columns); the
      // artificial stays basic at zero and is harmless since phase 2 never
      // selects artificial columns as entering.
    }
  }

  // Phase 2: install the real objective, reduced over the current basis.
  {
    Vector& cost = tableau_[m];
    std::fill(cost.begin(), cost.end(), 0.0);
    const double sign = lp_.minimize ? 1.0 : -1.0;
    for (size_t j = 0; j < lp_.num_vars; ++j) cost[j] = sign * lp_.objective[j];
    for (size_t r = 0; r < m; ++r) {
      const double coeff = cost[basis_[r]];
      if (coeff == 0.0) continue;
      for (size_t c = 0; c <= total_cols_; ++c) {
        cost[c] -= coeff * tableau_[r][c];
      }
      cost[basis_[r]] = 0.0;
    }
    const IterateOutcome outcome = Iterate(artificial_begin_);
    if (outcome == IterateOutcome::kIterationLimit) {
      result.status = SimplexStatus::kIterationLimit;
      result.iterations = iterations_used_;
      return result;
    }
    if (outcome == IterateOutcome::kUnbounded) {
      result.status = SimplexStatus::kUnbounded;
      result.iterations = iterations_used_;
      return result;
    }
  }

  result.status = SimplexStatus::kOptimal;
  result.iterations = iterations_used_;
  result.x.assign(lp_.num_vars, 0.0);
  for (size_t r = 0; r < m; ++r) {
    if (basis_[r] < lp_.num_vars) {
      result.x[basis_[r]] = tableau_[r][total_cols_];
    }
  }
  double objective = 0.0;
  for (size_t j = 0; j < lp_.num_vars; ++j) {
    objective += lp_.objective[j] * result.x[j];
  }
  result.objective = objective;
  return result;
}

}  // namespace

SimplexResult SolveDense(const LinearProgram& lp) {
  return DenseTableau(lp).Solve();
}

SimplexResult SolveDenseRung(const SimplexSolver& rung,
                             const SimplexBasis* /*warm*/) {
  return SolveDense(rung.program());
}

}  // namespace memgoal::la
