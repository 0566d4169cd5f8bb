#ifndef MEMGOAL_OBS_DECISION_LOG_H_
#define MEMGOAL_OBS_DECISION_LOG_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace memgoal::obs {

/// Per-SimplexStatus outcome counts of partitioning LP solves: one
/// optimization's fallback chain (an equality miss plus an inequality hit
/// counts both), or a controller's running total of them.
struct LpOutcomeStats {
  uint64_t optimal = 0;
  uint64_t infeasible = 0;
  uint64_t unbounded = 0;
  /// Solves cut off by the simplex iteration safety bound. Distinct from
  /// infeasible: the LP was never classified, and the retry ladder re-poses
  /// it rather than trusting a half-finished basis.
  uint64_t iteration_limit = 0;
  /// Relaxed-goal retries attempted after the inequality LP was infeasible.
  uint64_t relaxed_retries = 0;

  LpOutcomeStats& operator+=(const LpOutcomeStats& other) {
    optimal += other.optimal;
    infeasible += other.infeasible;
    unbounded += other.unbounded;
    iteration_limit += other.iteration_limit;
    relaxed_retries += other.relaxed_retries;
    return *this;
  }
};

/// The one record of a coordinator check, tracing the full feedback chain
/// of the paper's method: the measure point (accepted or rejected, and
/// why), the basis condition estimate, the fitted plane coefficients, the
/// LP status including which relaxation rung fired, and the shipped vs.
/// clamped vs. granted per-node allocation. The goal controller fills it
/// on every check, whatever sinks are attached, and hands it to the
/// attainment tracker and then to the decision log.
///
/// Doubles serialize with %.17g, so a record round-trips bit-exactly: the
/// replay test parses one record and re-runs SolvePartitioning on the
/// logged {planes, goal, bounds} to reproduce the logged allocation
/// bit-for-bit. Stage fields are optional (has_* / *_run flags) because a
/// check can exit early — e.g. no finished requests, within tolerance, or
/// a warm-up resize that never reaches the LP.
struct DecisionRecord {
  int interval = 0;
  double sim_time_ms = 0.0;
  int klass = 0;
  int home = 0;
  /// Fencing epoch of the coordinator's lease at check time.
  uint64_t epoch = 1;
  /// False when the check was skipped in the leaseless static fallback
  /// (minority side of a partition); the stage fields below then stay at
  /// their defaults.
  bool lease_held = true;

  // Measurement stage.
  double observed_rt_k = 0.0;
  bool has_observed_rt_0 = false;
  double observed_rt_0 = 0.0;
  /// 0 exactly when the check exited before measuring the class (every
  /// goal is > 0).
  double goal_rt = 0.0;
  double tolerance_delta = 0.0;
  /// "accepted", "refreshed", "outlier", "rejected_dependent",
  /// "condition_reset", or "" when no measurement was recorded.
  std::string measure_outcome;
  std::vector<double> measured_allocation;
  double condition_estimate = 0.0;
  bool store_ready = false;
  int store_size = 0;

  // Approximation stage.
  bool has_planes = false;
  std::vector<double> grad_k;
  double intercept_k = 0.0;
  std::vector<double> grad_0;
  double intercept_0 = 0.0;

  // Optimization stage.
  std::vector<double> upper_bounds;
  bool lp_run = false;
  /// "goal_equality", "goal_inequality", "goal_relaxed", "best_effort".
  std::string lp_mode;
  /// Index into kGoalRelaxationLadder that produced a feasible LP, or -1.
  int relaxed_rung = -1;
  double relaxed_goal_rt = 0.0;
  /// Serialized as lp_optimal, lp_infeasible, lp_unbounded,
  /// lp_iteration_limit and lp_relaxed_retries.
  LpOutcomeStats lp;
  /// True when the previous interval's simplex basis was offered as a warm
  /// start; lp_warm_basis is its 'L'/'U'/'B' text form (empty when cold),
  /// so a replay can reproduce the warm-started solve exactly.
  bool lp_warm = false;
  std::string lp_warm_basis;
  /// Raw LP solution before damping/clamping/rounding.
  std::vector<double> lp_allocation;

  // Actuation stage.
  /// What SendAllocations asked each node for after damping and frame
  /// rounding ("" / empty when the check exited before resizing).
  std::vector<double> shipped_allocation;
  /// What the nodes actually granted (ack'd views).
  std::vector<double> granted_allocation;

  // Goal-miss root-cause card, the only copy of it: AttainmentTracker::
  // RecordMiss writes the budget join and the baseline, the goal controller
  // the fault snapshot. Optional: serialized only when miss_card is true,
  // and parsed leniently so records written before the attainment layer —
  // or by runs without the tracker — still round-trip.
  bool miss_card = false;
  /// Dominant budget phase of the last finalized interval ("disk_wait",
  /// "fetch_wait", ...; see obs/latency_budget.h).
  std::string miss_dominant_phase;
  double miss_dominant_ms = 0.0;
  /// Per-request mean sim-ms per budget phase, in BudgetPhase order.
  std::vector<double> miss_phase_ms;
  /// Mean observed RT over the recent satisfied checks, and how far this
  /// miss deviates from it.
  double miss_baseline_rt = 0.0;
  double miss_deviation_ms = 0.0;
  // Coincident fault state at the missed check.
  uint64_t miss_nodes_down = 0;
  uint64_t miss_nodes_degraded = 0;
  bool miss_partitioned = false;
  /// Corruption strikes injected since the class's previous measured check.
  uint64_t miss_corruptions = 0;

  /// Single-line JSON object (no trailing newline).
  std::string ToJson() const;
};

/// Append-only JSONL sink for decision records.
class DecisionLog {
 public:
  void Append(DecisionRecord record) { records_.push_back(std::move(record)); }

  const std::vector<DecisionRecord>& records() const { return records_; }
  size_t size() const { return records_.size(); }

  /// One ToJson line per record.
  void WriteJsonl(std::FILE* out) const;

 private:
  std::vector<DecisionRecord> records_;
};

}  // namespace memgoal::obs

#endif  // MEMGOAL_OBS_DECISION_LOG_H_
