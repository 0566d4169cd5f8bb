#include "core/variance_optimizer.h"

#include <cmath>

#include "common/check.h"
#include "la/simplex.h"

namespace memgoal::core {

la::SimplexSolver PoseVarianceLp(const VarianceOptimizerInput& input,
                                 bool equality, double goal_rt) {
  const size_t n = input.upper_bounds.size();
  la::SimplexSolver solver(2 * n);

  la::Vector objective(2 * n, 0.0);
  for (size_t i = 0; i < n; ++i) objective[n + i] = 1.0;
  solver.SetObjective(objective);

  // d_i(x) = RT_i(x) - mu(x) is linear: gradient g_i - (1/n) sum_j g_j,
  // intercept c_i - (1/n) sum_j c_j.
  la::Vector mean_of_grads(n, 0.0);
  double mean_of_intercepts = 0.0;
  for (const MeasureStore::NodePlane& plane : input.node_planes) {
    la::Axpy(1.0 / static_cast<double>(n), plane.grad, &mean_of_grads);
    mean_of_intercepts +=
        plane.intercept / static_cast<double>(n);
  }
  for (size_t i = 0; i < n; ++i) {
    const MeasureStore::NodePlane& plane = input.node_planes[i];
    la::Vector row(2 * n, 0.0);
    double intercept_diff = plane.intercept - mean_of_intercepts;
    for (size_t j = 0; j < n; ++j) {
      row[j] = plane.grad[j] - mean_of_grads[j];
    }
    // t_i >= d_i(x):   d_grad . x - t_i <= -d_intercept
    row[n + i] = -1.0;
    solver.AddLe(row, -intercept_diff);
    // t_i >= -d_i(x): -d_grad . x - t_i <= d_intercept
    for (size_t j = 0; j < n; ++j) row[j] = -row[j];
    solver.AddLe(row, intercept_diff);
  }

  la::Vector goal_row(2 * n, 0.0);
  for (size_t j = 0; j < n; ++j) goal_row[j] = input.mean_grad[j];
  const double rhs = goal_rt - input.mean_intercept;
  if (equality) {
    solver.AddEq(goal_row, rhs);
  } else {
    solver.AddLe(goal_row, rhs);
  }
  for (size_t j = 0; j < n; ++j) {
    solver.SetUpperBound(j, input.upper_bounds[j]);
  }
  return solver;
}

VarianceOptimizerOutput SolveVariancePartitioning(
    const VarianceOptimizerInput& input) {
  return SolveVariancePartitioningWith(
      input, [](const la::SimplexSolver& rung, const la::SimplexBasis* warm) {
        return rung.Solve(warm);
      });
}

VarianceOptimizerOutput SolveVariancePartitioningWith(
    const VarianceOptimizerInput& input, RungSolver solve_rung) {
  const size_t n = input.upper_bounds.size();
  MEMGOAL_CHECK(n > 0);
  MEMGOAL_CHECK(input.node_planes.size() == n);
  MEMGOAL_CHECK(input.mean_grad.size() == n);
  for (const MeasureStore::NodePlane& plane : input.node_planes) {
    MEMGOAL_CHECK(plane.grad.size() == n);
  }

  VarianceOptimizerOutput output;
  GoalLadderResult ladder = WalkGoalLadder(
      input.goal_rt,
      [&](bool equality, double goal_rt) {
        return solve_rung(PoseVarianceLp(input, equality, goal_rt), nullptr);
      },
      &output.lp_stats);
  output.mode = ladder.mode;
  output.relaxed_goal_rt = ladder.relaxed_goal_rt;
  if (ladder.mode == OptimizerMode::kBestEffort) {
    // Goal unreachable per the fits: saturate, as in SolvePartitioning.
    output.allocation = input.upper_bounds;
  } else {
    output.allocation.assign(ladder.lp.x.begin(),
                             ladder.lp.x.begin() + static_cast<ptrdiff_t>(n));
  }
  SnapToBounds(input.upper_bounds, &output.allocation);

  output.predicted_rt_per_node.resize(n);
  double mean = 0.0;
  for (size_t i = 0; i < n; ++i) {
    output.predicted_rt_per_node[i] =
        la::Dot(input.node_planes[i].grad, output.allocation) +
        input.node_planes[i].intercept;
    mean += output.predicted_rt_per_node[i] / static_cast<double>(n);
  }
  output.predicted_mean_rt = mean;
  double mad = 0.0;
  for (size_t i = 0; i < n; ++i) {
    mad += std::fabs(output.predicted_rt_per_node[i] - mean) /
           static_cast<double>(n);
  }
  output.predicted_mad_rt = mad;
  return output;
}

}  // namespace memgoal::core
