#include "la/simplex.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "la/revised_simplex.h"
#include "obs/profiler.h"

namespace memgoal::la {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
// Generous safety bound; Bland's-rule fallback terminates finitely anyway,
// but a numerically cycling instance surfaces as kIterationLimit instead of
// aborting the process.
constexpr int kMaxIterations = 100000;
}  // namespace

std::string SimplexBasis::ToText() const {
  std::string text;
  text.reserve(status.size());
  for (VarStatus s : status) {
    switch (s) {
      case VarStatus::kAtLower:
        text.push_back('L');
        break;
      case VarStatus::kAtUpper:
        text.push_back('U');
        break;
      case VarStatus::kBasic:
        text.push_back('B');
        break;
    }
  }
  return text;
}

// num_vars == 0 is allowed: the partitioning LP degenerates to zero
// variables when every node is down, and the solver then just classifies
// the constant constraints as satisfied or infeasible.
SimplexSolver::SimplexSolver(size_t num_vars) {
  lp_.num_vars = num_vars;
  lp_.objective.assign(num_vars, 0.0);
  lp_.upper.assign(num_vars, kInf);
}

void SimplexSolver::SetObjective(const Vector& c, bool minimize) {
  MEMGOAL_CHECK(c.size() == lp_.num_vars);
  lp_.objective = c;
  lp_.minimize = minimize;
}

void SimplexSolver::AddConstraint(const Vector& a,
                                  LinearProgram::Relation relation,
                                  double b) {
  MEMGOAL_CHECK(a.size() == lp_.num_vars);
  lp_.rows.push_back(a);
  lp_.relations.push_back(relation);
  lp_.rhs.push_back(b);
}

void SimplexSolver::AddLe(const Vector& a, double b) {
  AddConstraint(a, LinearProgram::Relation::kLe, b);
}

void SimplexSolver::AddGe(const Vector& a, double b) {
  AddConstraint(a, LinearProgram::Relation::kGe, b);
}

void SimplexSolver::AddEq(const Vector& a, double b) {
  AddConstraint(a, LinearProgram::Relation::kEq, b);
}

void SimplexSolver::SetUpperBound(size_t var, double ub) {
  MEMGOAL_CHECK(var < lp_.num_vars);
  lp_.upper[var] = std::min(lp_.upper[var], ub);
}

SimplexResult SimplexSolver::Solve(const SimplexBasis* warm) const {
  obs::ProfileScope profile(obs::Phase::kSimplexSolve);
  return SolveRevised(lp_, warm, kMaxIterations);
}

}  // namespace memgoal::la
