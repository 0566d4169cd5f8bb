#ifndef MEMGOAL_OBS_ATTAINMENT_H_
#define MEMGOAL_OBS_ATTAINMENT_H_

#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
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
///     intervals-since-last-miss).
///  3. Miss cards: on each missed coordinator check the tracker joins the
///     last finalized budget with the converged baseline in the check's
///     decision record, the only place a card lives; the controller adds
///     the active fault state.
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

  /// Folds one finished coordinator check into its class's SLO state: a
  /// check that measured the class within its band refreshes the converged
  /// baseline. Fed from the goal controller on every check exit path,
  /// whether or not a decision log is attached.
  void RecordCheck(const DecisionRecord& record);

  /// Writes the miss card of a check found too slow into the record's
  /// miss_* fields: the last finalized interval's per-request mean budget
  /// and its dominant phase, and the deviation of the record's observed RT
  /// from the converged baseline. The fault snapshot is the controller's
  /// to write. Called at detection, before the check's LP runs.
  void RecordMiss(DecisionRecord* record);

  // -- Export ---------------------------------------------------------------

  /// Mirrors per-class budget and SLO instruments into the registry
  /// ("class<k>.budget.<phase>_ms", "class<k>.slo.*"). Called once per
  /// interval before the registry snapshot.
  void PublishTo(Registry* registry) const;

  /// One JSON object per budget row. Doubles use %.17g so rows round-trip
  /// exactly.
  void WriteJsonl(std::FILE* out) const;
  /// The same rows, long-format CSV.
  void WriteCsv(std::FILE* out) const;
  /// Human-readable per-class attainment + miss summary (end of run).
  void WriteSummary(std::FILE* out) const;

  const std::vector<BudgetRow>& rows() const { return rows_; }
  /// Miss cards written by RecordMiss, over all classes.
  uint64_t misses_recorded() const { return misses_recorded_; }
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
    /// Miss cards by dominant budget phase, in BudgetPhase order.
    uint64_t miss_phases[kNumBudgetPhases] = {};
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
  std::map<uint32_t, SloState> slo_;
  // Last finalized interval's per-class budget (summed over nodes), the
  // miss card's attribution source.
  std::map<uint32_t, Accum> last_interval_;
  uint64_t requests_recorded_ = 0;
  uint64_t misses_recorded_ = 0;
  double max_sum_error_ = 0.0;
};

}  // namespace memgoal::obs

#endif  // MEMGOAL_OBS_ATTAINMENT_H_
