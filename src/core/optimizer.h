#ifndef MEMGOAL_CORE_OPTIMIZER_H_
#define MEMGOAL_CORE_OPTIMIZER_H_

#include <cstddef>
#include <cstdint>
#include <iterator>

#include "core/measure.h"
#include "la/matrix.h"
#include "la/simplex.h"
#include "obs/decision_log.h"

namespace memgoal::core {

/// Inputs of the buffer-partitioning linear program (§4).
struct OptimizerInput {
  /// Fitted response-time hyperplanes of the goal class and no-goal class.
  MeasureStore::Planes planes;
  /// Response-time goal of the class being re-partitioned (ms).
  double goal_rt = 0.0;
  /// Per-node upper bounds U_i = SIZE_i - sum_{l != k} LM_l,i (equation 6),
  /// in bytes.
  la::Vector upper_bounds;
  /// Optional warm-start basis from the previous control interval's solve.
  /// Applied to the first (equality) solve; the fallback chain re-poses the
  /// LP, so later rungs start cold. The solver validates the basis and
  /// silently cold-starts when it no longer fits.
  const la::SimplexBasis* warm = nullptr;
};

/// How the returned allocation was obtained.
enum class OptimizerMode {
  /// LP solved with the goal constraint as an equality (the paper's
  /// formulation).
  kGoalEquality,
  /// Equality was infeasible within bounds but satisfying the goal with
  /// slack was possible (predicted RT_k <= goal).
  kGoalInequality,
  /// Even the inequality LP was infeasible, but a retry with a
  /// proportionally relaxed goal succeeded: the allocation aims at the
  /// loosest of goal·(1+ρ) that was feasible per the fitted planes,
  /// instead of silently keeping a stale partitioning.
  kGoalRelaxed,
  /// The goal is unreachable even with all available memory: the allocation
  /// minimizes the predicted RT_k instead, and the feedback loop retries
  /// next interval.
  kBestEffort,
};

/// Stable label for logs and the decision records.
inline const char* OptimizerModeName(OptimizerMode mode) {
  switch (mode) {
    case OptimizerMode::kGoalEquality:
      return "goal_equality";
    case OptimizerMode::kGoalInequality:
      return "goal_inequality";
    case OptimizerMode::kGoalRelaxed:
      return "goal_relaxed";
    case OptimizerMode::kBestEffort:
      return "best_effort";
  }
  return "?";
}

/// Relaxation ladder tried when the inequality LP is infeasible: the goal
/// constraint is re-posed at goal·(1+ρ) for each ρ in order, first feasible
/// wins. Beyond +50% the best-effort saturation is more honest.
inline constexpr double kGoalRelaxationLadder[] = {0.10, 0.25, 0.50};

/// Adds one simplex solve's terminal status to the counters.
inline void CountLpOutcome(la::SimplexStatus status,
                           obs::LpOutcomeStats* stats) {
  switch (status) {
    case la::SimplexStatus::kOptimal:
      ++stats->optimal;
      break;
    case la::SimplexStatus::kInfeasible:
      ++stats->infeasible;
      break;
    case la::SimplexStatus::kUnbounded:
      ++stats->unbounded;
      break;
    case la::SimplexStatus::kIterationLimit:
      ++stats->iteration_limit;
      break;
  }
}

/// Where the fallback chain stopped.
struct GoalLadderResult {
  /// The winning rung's solve (status kOptimal), else the last failed one.
  la::SimplexResult lp;
  /// kBestEffort when no rung was optimal.
  OptimizerMode mode = OptimizerMode::kBestEffort;
  /// Winning index into kGoalRelaxationLadder (mode == kGoalRelaxed only);
  /// -1 otherwise.
  int relaxed_rung = -1;
  /// The relaxed goal of that rung (mode == kGoalRelaxed only).
  double relaxed_goal_rt = 0.0;
};

/// The fallback chain both optimizers walk: the goal as an equality, then
/// as an inequality, then each relaxed goal of kGoalRelaxationLadder as an
/// inequality; the first optimal rung wins. `solve(equality, goal_rt)`
/// solves one rung (equality is true on the first rung only). Every
/// outcome and relaxed retry is counted into `stats`.
template <typename Solve>
GoalLadderResult WalkGoalLadder(double goal_rt, Solve&& solve,
                                obs::LpOutcomeStats* stats) {
  GoalLadderResult result;
  for (const bool equality : {true, false}) {
    result.lp = solve(equality, goal_rt);
    CountLpOutcome(result.lp.status, stats);
    if (result.lp.status == la::SimplexStatus::kOptimal) {
      result.mode = equality ? OptimizerMode::kGoalEquality
                             : OptimizerMode::kGoalInequality;
      return result;
    }
  }
  for (size_t rung = 0; rung < std::size(kGoalRelaxationLadder); ++rung) {
    ++stats->relaxed_retries;
    const double relaxed = goal_rt * (1.0 + kGoalRelaxationLadder[rung]);
    result.lp = solve(false, relaxed);
    CountLpOutcome(result.lp.status, stats);
    if (result.lp.status == la::SimplexStatus::kOptimal) {
      result.mode = OptimizerMode::kGoalRelaxed;
      result.relaxed_rung = static_cast<int>(rung);
      result.relaxed_goal_rt = relaxed;
      return result;
    }
  }
  return result;
}

struct OptimizerOutput {
  OptimizerMode mode = OptimizerMode::kBestEffort;
  /// New per-node dedicated buffer sizes (bytes).
  la::Vector allocation;
  /// Plane-predicted response times at `allocation`.
  double predicted_rt_k = 0.0;
  double predicted_rt_0 = 0.0;
  /// The relaxed goal actually used (mode == kGoalRelaxed only).
  double relaxed_goal_rt = 0.0;
  /// Index into kGoalRelaxationLadder of the rung that produced a feasible
  /// LP (mode == kGoalRelaxed only); -1 otherwise.
  int relaxed_rung = -1;
  /// Simplex outcome counts of this solve's fallback chain.
  obs::LpOutcomeStats lp_stats;
  /// Final basis of the solve that produced `allocation` (empty for
  /// best effort). Feed back as `OptimizerInput::warm` next interval.
  la::SimplexBasis basis;
};

/// Poses one rung of §4's LP: minimize the no-goal plane subject to the
/// goal plane meeting `goal_rt` (as an equality, or as `<=`) and the
/// per-node capacity bounds.
la::SimplexSolver PosePartitioningLp(const OptimizerInput& input,
                                     bool equality, double goal_rt);

/// Snaps each LP value within relative tolerance 1e-9 of a bound exactly
/// onto it, then clamps it into [0, upper_bounds[i]], so sub-tolerance
/// solver arithmetic never moves the controller's page rounding.
void SnapToBounds(const la::Vector& upper_bounds, la::Vector* allocation);

/// Solves one posed rung of the fallback chain, warm-started from `warm`
/// when it is non-null.
using RungSolver = la::SimplexResult (*)(const la::SimplexSolver& rung,
                                         const la::SimplexBasis* warm);

/// Solves for the new partitioning of one goal class: minimize the
/// predicted no-goal response time subject to the goal class's hyperplane
/// meeting its goal and the per-node capacity bounds (§4's LP), with the
/// documented fallbacks when that LP is infeasible.
OptimizerOutput SolvePartitioning(const OptimizerInput& input);

/// SolvePartitioning with every rung solved by `solve_rung` instead of
/// SimplexSolver::Solve; the fallback chain and the post-processing are
/// shared, so a differential test can run them on another LP solver.
OptimizerOutput SolvePartitioningWith(const OptimizerInput& input,
                                      RungSolver solve_rung);

}  // namespace memgoal::core

#endif  // MEMGOAL_CORE_OPTIMIZER_H_
