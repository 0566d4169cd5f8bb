#ifndef MEMGOAL_OBS_ATTAINMENT_H_
#define MEMGOAL_OBS_ATTAINMENT_H_

#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "obs/decision_log.h"
#include "obs/latency_budget.h"

namespace memgoal::obs {

class Registry;

/// Goal-attainment observability: per-class response-time budget
/// attribution, SLO burn-rate monitoring, and goal-miss root-cause cards.
///
/// Like the tracer and the profiler, the tracker is branch-on-bool
/// disabled: instrumented sites test `enabled()` (or hold a null pointer)
/// and the bench_table1_overhead gate enforces that the disabled layer
/// costs neither wall clock nor one bit of simulation output. The tracker
/// itself is a pure observer — it only reads the simulated clock through
/// the values handed to it, never draws randomness and never schedules an
/// event, so an *enabled* tracker cannot perturb the simulation either.
///
/// Three coupled views:
///  1. Budget attribution: every completed request's RequestBudget is
///     folded into a per-(class, node) accumulator; OnIntervalEnd
///     finalizes one row per (class, node, interval), exported as
///     JSONL/CSV and mirrored into the metrics registry.
///  2. SLO monitor: per goal class, the cumulative attainment ratio,
///     error-budget consumption against an allowed miss fraction, and
///     fast/slow-window burn rates over observation intervals, plus
///     convergence diagnostics (allocation oscillation count,
///     intervals-since-last-miss, LP relaxation-rung residency).
///  3. Miss cards: on each missed coordinator check the caller joins the
///     latest budget row with the check's decision record and the active
///     fault state into a structured root-cause card.
class AttainmentTracker {
 public:
  /// Allowed goal-miss fraction the error budget is charged against.
  static constexpr double kErrorBudgetFraction = 0.1;
  /// Burn-rate window lengths, in observation intervals.
  static constexpr int kFastWindow = 6;
  static constexpr int kSlowWindow = 36;
  /// Satisfied-check observations kept per class as the converged-baseline
  /// estimate a miss is compared against.
  static constexpr int kBaselineWindow = 8;

  AttainmentTracker() = default;
  AttainmentTracker(const AttainmentTracker&) = delete;
  AttainmentTracker& operator=(const AttainmentTracker&) = delete;

  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // -- Budget attribution ---------------------------------------------------

  /// Hot path: folds one completed request's decomposed latency into the
  /// current interval's (class, node) accumulator. `response_ms` is the
  /// measured response time the budget was closed against.
  void RecordRequest(uint32_t klass, uint32_t node, double response_ms,
                     const RequestBudget& budget);

  /// One finalized (class, node, interval) budget row.
  struct BudgetRow {
    int interval = 0;
    double sim_time_ms = 0.0;
    uint32_t klass = 0;
    uint32_t node = 0;
    uint64_t requests = 0;
    double rt_sum_ms = 0.0;
    double phase_ms[kNumBudgetPhases] = {};
  };

  // -- Interval feed --------------------------------------------------------

  /// Per-class outcome of one observation interval, as the metrics log saw
  /// it (fed by ClusterSystem's interval loop).
  struct ClassSample {
    uint32_t klass = 0;
    bool has_goal = false;
    bool satisfied = false;
    uint64_t ops_completed = 0;
    uint64_t dedicated_bytes = 0;
  };

  /// Finalizes the interval: flushes budget accumulators into rows and
  /// advances every per-class SLO window.
  void OnIntervalEnd(int interval, double sim_time_ms,
                     const std::vector<ClassSample>& samples);

  // -- Controller feed ------------------------------------------------------

  /// Folds one finished coordinator check into its class's SLO state: the
  /// relaxation-rung residency and, when the check measured the class
  /// within its band, the converged baseline. The LP outcome is known only
  /// now, so the miss card the check recorded (if any) takes its
  /// lp_run/lp_mode/relaxed_rung from the record here. Fed from the goal
  /// controller on every check exit path, whether or not a decision log is
  /// attached.
  void RecordCheck(const DecisionRecord& record);

  // -- Miss cards -----------------------------------------------------------

  /// Cluster fault state at miss time, read from the fault injector.
  struct FaultState {
    uint64_t nodes_down = 0;
    uint64_t nodes_degraded = 0;
    bool partitioned = false;
    uint64_t partition_epoch = 0;
    /// Corruption strikes injected since the previous check of this class.
    uint64_t corruptions_since_last_check = 0;
  };

  /// Structured root cause of one missed goal check.
  struct MissCard {
    int interval = 0;
    double sim_time_ms = 0.0;
    uint32_t klass = 0;
    double observed_rt_ms = 0.0;
    double goal_rt_ms = 0.0;
    double tolerance_ms = 0.0;
    /// Mean over the last kBaselineWindow satisfied checks (0 when the
    /// class never satisfied a check yet).
    double baseline_rt_ms = 0.0;
    double deviation_ms = 0.0;
    /// Per-request mean budget of the last finalized interval, and the
    /// phase that dominated it.
    double phase_mean_ms[kNumBudgetPhases] = {};
    BudgetPhase dominant_phase = BudgetPhase::kResidual;
    double dominant_ms = 0.0;
    // Coincident faults.
    uint64_t nodes_down = 0;
    uint64_t nodes_degraded = 0;
    bool partitioned = false;
    uint64_t partition_epoch = 0;
    uint64_t corruptions = 0;
    // Controller state.
    bool lp_run = false;
    std::string lp_mode;
    int relaxed_rung = -1;
  };

  /// Builds and stores the miss card of a check found too slow, from the
  /// record's measurement stage (interval, class, observed RT, goal,
  /// tolerance) and `faults`, and writes the card into the record's miss_*
  /// fields. Called at detection, before the check's LP runs.
  void RecordMiss(DecisionRecord* record, const FaultState& faults);

  /// Cumulative corruption-strike total at the last check of `klass`
  /// (helper for computing corruptions_since_last_check deterministically).
  uint64_t NoteCorruptions(uint32_t klass, uint64_t cumulative_corruptions);

  // -- Export ---------------------------------------------------------------

  /// Mirrors per-class budget and SLO instruments into the registry
  /// ("class<k>.budget.<phase>_ms", "class<k>.slo.*"). Called once per
  /// interval before the registry snapshot.
  void PublishTo(Registry* registry) const;

  /// One JSON object per budget row, then one per miss card
  /// (`"type":"miss_card"`). Doubles use %.17g so rows round-trip exactly.
  void WriteJsonl(std::FILE* out) const;
  /// Budget rows only, long-format CSV.
  void WriteCsv(std::FILE* out) const;
  /// Human-readable per-class attainment + miss summary (end of run).
  void WriteSummary(std::FILE* out) const;

  const std::vector<BudgetRow>& rows() const { return rows_; }
  const std::vector<MissCard>& cards() const { return cards_; }
  uint64_t requests_recorded() const { return requests_recorded_; }
  /// Largest |response_ms - budget.Sum()| seen by RecordRequest: the
  /// closed-budget property the tests gate at 1e-9.
  double max_sum_error() const { return max_sum_error_; }

  struct SloState {
    uint64_t intervals_counted = 0;
    uint64_t intervals_satisfied = 0;
    uint64_t misses = 0;
    int64_t intervals_since_miss = -1;  // -1 = never missed
    /// Sliding satisfaction window (front = oldest), capped at kSlowWindow.
    std::deque<bool> window;
    /// Allocation oscillation: direction reversals of the per-interval
    /// dedicated-bytes delta.
    uint64_t oscillations = 0;
    uint64_t last_dedicated_bytes = 0;
    int last_delta_sign = 0;
    bool has_last_bytes = false;
    /// Converged baseline: last kBaselineWindow satisfied-check RTs.
    std::deque<double> baseline_rts;
    /// LP relaxation-rung residency over checks (rung+1 indexed; [0] = no
    /// relaxation).
    std::vector<uint64_t> rung_checks;
    uint64_t checks = 0;
    uint64_t last_corruptions = 0;
  };
  /// Per-class SLO state (tests); classes appear once observed.
  const std::map<uint32_t, SloState>& slo() const { return slo_; }

  /// Fraction of the last `window` intervals missed, scaled by the error
  /// budget: burn rate 1.0 = missing exactly at the allowed rate.
  static double BurnRate(const SloState& state, int window);

 private:
  struct Accum {
    uint64_t requests = 0;
    double rt_sum_ms = 0.0;
    double phase_ms[kNumBudgetPhases] = {};
  };

  bool enabled_ = false;
  // (klass << 32 | node) -> current-interval accumulator. std::map for
  // deterministic flush order.
  std::map<uint64_t, Accum> current_;
  std::vector<BudgetRow> rows_;
  std::vector<MissCard> cards_;
  std::map<uint32_t, SloState> slo_;
  // Last finalized interval's per-class budget (summed over nodes), the
  // miss card's attribution source.
  std::map<uint32_t, Accum> last_interval_;
  uint64_t requests_recorded_ = 0;
  double max_sum_error_ = 0.0;
};

}  // namespace memgoal::obs

#endif  // MEMGOAL_OBS_ATTAINMENT_H_
