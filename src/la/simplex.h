#ifndef MEMGOAL_LA_SIMPLEX_H_
#define MEMGOAL_LA_SIMPLEX_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "la/matrix.h"

namespace memgoal::la {

enum class SimplexStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  /// The iteration safety bound was hit before the solve terminated. The
  /// problem is *not* classified (it may well be feasible and bounded);
  /// callers treat it like any other non-optimal outcome — the optimizer's
  /// relaxed-goal retry ladder reposes the LP instead of trusting a
  /// half-finished basis.
  kIterationLimit,
};

/// A variable-status basis snapshot of the solver: one entry per
/// structural variable followed by one per constraint row (that row's slack
/// variable). Feeding a prior solve's basis back in as a warm start lets a
/// steady-state re-solve skip phase 1 and start pricing from the old
/// optimum. The snapshot is only a hint: the solver validates it against
/// the new problem (dimensions, basis nonsingularity, implied-point
/// feasibility) and silently cold-starts when it no longer applies.
struct SimplexBasis {
  enum class VarStatus : uint8_t {
    kAtLower = 0,
    kAtUpper = 1,
    kBasic = 2,
  };
  std::vector<VarStatus> status;

  bool empty() const { return status.empty(); }

  /// Compact text form ('L'/'U'/'B' per variable) for decision records.
  std::string ToText() const;
};

struct SimplexResult {
  SimplexStatus status = SimplexStatus::kInfeasible;
  /// Optimal variable assignment (valid only when status == kOptimal).
  Vector x;
  /// Objective value at x, in the caller's orientation (min or max).
  double objective = 0.0;
  /// Final basis (empty when it is not expressible — e.g. a residual
  /// artificial). Feed back into Solve() as a warm start.
  SimplexBasis basis;
  /// Simplex iterations spent (pivots + bound flips).
  int iterations = 0;
};

/// A linear program in the solver's native form:
///
///     min (or max)  c^T x
///     s.t.          a_i^T x  {<=, >=, =}  b_i      for each row
///                   0 <= x_j <= upper_j             for all variables
///
/// with upper_j = +infinity where no bound is set.
struct LinearProgram {
  enum class Relation { kLe, kGe, kEq };

  size_t num_vars = 0;
  bool minimize = true;
  Vector objective;
  std::vector<Vector> rows;
  std::vector<Relation> relations;
  Vector rhs;
  Vector upper;
};

/// Simplex solver for the partitioning linear programs: builds a
/// LinearProgram and solves it with the revised simplex (sparse columns,
/// implicit variable bounds, an LU-factorized basis updated in product form
/// with periodic refactorization, Dantzig pricing with Bland's-rule
/// fallback on stall, optional warm starts; see la/revised_simplex.h). The
/// partitioning LP (one coupling row, n bounded variables) solves with a
/// 1x1 basis regardless of n. This replaces the lp-solve library used in
/// the paper (§5, reference [3]).
///
/// Configure the program, then call Solve(); solving leaves the configured
/// program untouched.
class SimplexSolver {
 public:
  explicit SimplexSolver(size_t num_vars);

  /// Sets the objective coefficients (size must equal num_vars).
  void SetObjective(const Vector& c, bool minimize = true);

  void AddLe(const Vector& a, double b);
  void AddGe(const Vector& a, double b);
  void AddEq(const Vector& a, double b);

  /// Bounds x_var <= ub. Repeated calls keep the tightest bound.
  void SetUpperBound(size_t var, double ub);

  /// Solves the configured program. `warm` seeds the initial basis from a
  /// previous solve of a same-shaped program.
  SimplexResult Solve(const SimplexBasis* warm = nullptr) const;

  /// The program as configured so far.
  const LinearProgram& program() const { return lp_; }

 private:
  void AddConstraint(const Vector& a, LinearProgram::Relation relation,
                     double b);

  LinearProgram lp_;
};

}  // namespace memgoal::la

#endif  // MEMGOAL_LA_SIMPLEX_H_
