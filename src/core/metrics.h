#ifndef MEMGOAL_CORE_METRICS_H_
#define MEMGOAL_CORE_METRICS_H_

#include <array>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "obs/decision_log.h"
#include "sim/simulator.h"
#include "storage/types.h"

namespace memgoal::core {

/// Per-class measurements of one observation interval.
struct ClassIntervalMetrics {
  ClassId klass = kNoGoalClass;
  /// Arrival-rate-weighted mean response time across nodes (equation 4);
  /// 0 if no operation completed this interval.
  double observed_rt_ms = 0.0;
  /// Goal at interval end; 0 for the no-goal class.
  double goal_rt_ms = 0.0;
  /// Coordinator tolerance at interval end (0 when not applicable).
  double tolerance_ms = 0.0;
  /// observed <= goal + tolerance (always false for the no-goal class).
  bool satisfied = false;
  /// System-wide dedicated buffer for this class (bytes).
  uint64_t dedicated_bytes = 0;
  uint64_t ops_completed = 0;
  uint64_t ops_arrived = 0;
  /// Operations aborted this interval because their node crashed while they
  /// were in flight (failed, not completed).
  uint64_t ops_failed = 0;
};

/// One observation interval across all classes.
struct IntervalRecord {
  int index = 0;
  sim::SimTime end_time_ms = 0.0;
  /// Nodes alive at the interval boundary (availability column).
  uint32_t nodes_up = 0;
  /// LP outcome counters, cumulative up to this interval boundary.
  obs::LpOutcomeStats lp;
  std::vector<ClassIntervalMetrics> classes;

  /// Metrics row for `klass`; aborts if absent.
  const ClassIntervalMetrics& ForClass(ClassId klass) const;
};

/// Cumulative access counters, per storage level.
struct AccessCounters {
  std::array<uint64_t, 4> by_level{};  // indexed by StorageLevel
  /// Remote fetches that found their target node dead (or freshly
  /// re-crashed) and fell back to the disk path after a detection timeout.
  uint64_t fetch_fallbacks = 0;

  uint64_t total() const {
    return by_level[0] + by_level[1] + by_level[2] + by_level[3];
  }
  double HitFraction(StorageLevel level) const {
    const uint64_t t = total();
    return t == 0 ? 0.0
                  : static_cast<double>(by_level[static_cast<int>(level)]) /
                        static_cast<double>(t);
  }
};

/// Append-only log of interval records produced by a simulation run.
class MetricsLog {
 public:
  void Append(IntervalRecord record) { records_.push_back(std::move(record)); }

  const std::vector<IntervalRecord>& records() const { return records_; }
  bool empty() const { return records_.empty(); }
  const IntervalRecord& back() const { return records_.back(); }

  /// Writes the log as CSV (one row per class per interval) to `out`.
  void WriteCsv(std::FILE* out) const;

 private:
  std::vector<IntervalRecord> records_;
};

}  // namespace memgoal::core

#endif  // MEMGOAL_CORE_METRICS_H_
