#ifndef MEMGOAL_CORE_VARIANCE_OPTIMIZER_H_
#define MEMGOAL_CORE_VARIANCE_OPTIMIZER_H_

#include <vector>

#include "core/measure.h"
#include "core/optimizer.h"
#include "la/matrix.h"

namespace memgoal::core {

/// Inputs of the variance-aware partitioning problem — the paper's §8
/// future-work objective: "a given mean response time goal together with a
/// maximal coefficient of variation among the different nodes ...
/// minimizing the variation".
struct VarianceOptimizerInput {
  /// Per-node response-time planes of the goal class (equation 3 fits).
  std::vector<MeasureStore::NodePlane> node_planes;
  /// Aggregate goal-class plane (equation 4 fit) for the goal constraint.
  la::Vector mean_grad;
  double mean_intercept = 0.0;
  /// Response-time goal (ms).
  double goal_rt = 0.0;
  /// Per-node capacity bounds (bytes), equation 6.
  la::Vector upper_bounds;
};

struct VarianceOptimizerOutput {
  OptimizerMode mode = OptimizerMode::kBestEffort;
  la::Vector allocation;
  /// Plane-predicted per-node response times at `allocation`.
  la::Vector predicted_rt_per_node;
  /// Predicted mean and mean absolute deviation across nodes.
  double predicted_mean_rt = 0.0;
  double predicted_mad_rt = 0.0;
  /// The relaxed goal actually used (mode == kGoalRelaxed only).
  double relaxed_goal_rt = 0.0;
  /// Simplex outcome counts of this solve's fallback chain.
  obs::LpOutcomeStats lp_stats;
};

/// Poses one rung of the variance LP below over [x_0..x_{n-1},
/// t_0..t_{n-1}], with the mean-plane goal row as an equality or as `<=`.
la::SimplexSolver PoseVarianceLp(const VarianceOptimizerInput& input,
                                 bool equality, double goal_rt);

/// Solves
///     min  sum_i t_i                              (L1 dispersion)
///     s.t. t_i >= +(RT_i(x) - mu(x))              for every node i
///          t_i >= -(RT_i(x) - mu(x))
///          mean-plane RT(x) = goal                (inequality fallback)
///          0 <= x_i <= U_i,  t_i >= 0
/// where RT_i(x) are the per-node planes and mu(x) their unweighted mean —
/// all linear in x, so the whole problem stays a linear program (mean
/// absolute deviation replaces the coefficient of variation; for a fixed
/// mean the two rank allocations identically to first order).
///
/// Falls back exactly like SolvePartitioning: equality, then inequality,
/// then the relaxed-goal ladder, then the §3 monotonicity saturation.
VarianceOptimizerOutput SolveVariancePartitioning(
    const VarianceOptimizerInput& input);

/// SolveVariancePartitioning with every rung solved by `solve_rung`
/// (always cold: `warm` is null) instead of SimplexSolver::Solve.
VarianceOptimizerOutput SolveVariancePartitioningWith(
    const VarianceOptimizerInput& input, RungSolver solve_rung);

}  // namespace memgoal::core

#endif  // MEMGOAL_CORE_VARIANCE_OPTIMIZER_H_
