#include "core/optimizer.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "la/simplex.h"

namespace memgoal::core {

namespace {

double PredictRt(const la::Vector& grad, double intercept,
                 const la::Vector& x) {
  return la::Dot(grad, x) + intercept;
}

}  // namespace

la::SimplexSolver PosePartitioningLp(const OptimizerInput& input,
                                     bool equality, double goal_rt) {
  const size_t n = input.upper_bounds.size();
  la::SimplexSolver solver(n);
  solver.SetObjective(input.planes.grad_0);
  const double rhs = goal_rt - input.planes.intercept_k;
  if (equality) {
    solver.AddEq(input.planes.grad_k, rhs);
  } else {
    solver.AddLe(input.planes.grad_k, rhs);
  }
  for (size_t i = 0; i < n; ++i) {
    solver.SetUpperBound(i, input.upper_bounds[i]);
  }
  return solver;
}

void SnapToBounds(const la::Vector& upper_bounds, la::Vector* allocation) {
  for (size_t i = 0; i < upper_bounds.size(); ++i) {
    const double ub = upper_bounds[i];
    const double snap = 1e-9 * std::max(1.0, ub);
    double v = (*allocation)[i];
    if (std::fabs(v - ub) <= snap) {
      v = ub;
    } else if (std::fabs(v) <= snap) {
      v = 0.0;
    }
    (*allocation)[i] = std::min(std::max(v, 0.0), ub);
  }
}

OptimizerOutput SolvePartitioning(const OptimizerInput& input) {
  return SolvePartitioningWith(
      input, [](const la::SimplexSolver& rung, const la::SimplexBasis* warm) {
        return rung.Solve(warm);
      });
}

OptimizerOutput SolvePartitioningWith(const OptimizerInput& input,
                                      RungSolver solve_rung) {
  const size_t n = input.upper_bounds.size();
  MEMGOAL_CHECK(n > 0);
  MEMGOAL_CHECK(input.planes.grad_k.size() == n);
  MEMGOAL_CHECK(input.planes.grad_0.size() == n);

  OptimizerOutput output;
  // Only the first (equality) rung warm-starts; the later rungs re-pose the
  // LP. The relaxed rungs let a transiently pessimistic fit (e.g. points
  // polluted by a gray-failure episode) still yield a best *aimed*
  // allocation rather than silently keep the stale one.
  GoalLadderResult ladder = WalkGoalLadder(
      input.goal_rt,
      [&](bool equality, double goal_rt) {
        return solve_rung(PosePartitioningLp(input, equality, goal_rt),
                          equality ? input.warm : nullptr);
      },
      &output.lp_stats);
  output.mode = ladder.mode;
  output.relaxed_rung = ladder.relaxed_rung;
  output.relaxed_goal_rt = ladder.relaxed_goal_rt;
  if (ladder.mode == OptimizerMode::kBestEffort) {
    // Goal unreachable within bounds according to the fitted plane. The
    // fit may well be stale or noisy here (points collected around a
    // stuck allocation are nearly collinear), so fall back on the paper's
    // §3 monotonicity assumption — more dedicated buffer never hurts the
    // class — and allocate everything available. The feedback loop
    // revisits the decision with fresh measurements next interval.
    output.allocation = input.upper_bounds;
  } else {
    output.allocation = std::move(ladder.lp.x);
    output.basis = std::move(ladder.lp.basis);
  }
  SnapToBounds(input.upper_bounds, &output.allocation);
  output.predicted_rt_k =
      PredictRt(input.planes.grad_k, input.planes.intercept_k,
                output.allocation);
  output.predicted_rt_0 =
      PredictRt(input.planes.grad_0, input.planes.intercept_0,
                output.allocation);
  return output;
}

}  // namespace memgoal::core
