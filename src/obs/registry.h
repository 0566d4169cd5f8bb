#ifndef MEMGOAL_OBS_REGISTRY_H_
#define MEMGOAL_OBS_REGISTRY_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/stats.h"

namespace memgoal::obs {

/// Unified metrics registry: named counters, gauges and histogram views
/// behind one interface, snapshotted once per observation interval and
/// exportable as CSV (long format) and JSONL (one object per interval).
///
/// It replaces three previously disjoint telemetry paths — the controller's
/// `ProtocolStats` struct, the per-interval `MetricsLog`, and ad-hoc
/// per-node counters — with one namespace. Producers either own a
/// registry-allocated instrument (Counter/Gauge pointers are stable for the
/// registry's lifetime) or mirror an externally accumulated value into one
/// at snapshot time via Counter::Set / Gauge::Set.
///
/// Naming convention: dot-separated paths, lowest-cardinality prefix first,
/// e.g. "class1.access.local_buffer", "node0.cpu.wait", "ctrl.goal.checks".
/// Orders instrument names "naturally": maximal digit runs compare as
/// numbers, everything else byte-wise. This puts "class2.rt" before
/// "class10.rt" (lexicographic order would not), so per-class columns in
/// CSV/JSONL snapshots appear in class-id order and diffs across runs and
/// thread counts stay byte-stable as class counts grow past 9.
struct NaturalLess {
  bool operator()(const std::string& a, const std::string& b) const;
};

class Registry {
 public:
  /// Monotonic counter. Snapshots report the cumulative value and the delta
  /// against the previous snapshot (the per-interval rate).
  class Counter {
   public:
    void Add(uint64_t n = 1) { value_ += n; }
    /// Mirrors an externally accumulated cumulative count. A mirror that
    /// goes backwards (the source was reset or restarted) is clamped: the
    /// counter holds its current value for that call — a monotonic counter
    /// never decreases, so the per-interval delta reads zero instead of
    /// wrapping — and later increments from the source advance it again.
    /// Each clamp is counted; snapshots surface the registry-wide total as
    /// a synthetic "obs.counter_regressions" counter.
    void Set(uint64_t cumulative);
    uint64_t value() const { return value_; }
    /// Number of times Set() observed the mirror going backwards.
    uint64_t regressions() const { return regressions_; }

   private:
    friend class Registry;
    uint64_t value_ = 0;
    uint64_t snapshot_base_ = 0;
    // value_ = external_offset_ + the source's last mirrored reading, so a
    // re-anchored (post-reset) source keeps producing correct deltas.
    uint64_t external_offset_ = 0;
    uint64_t regressions_ = 0;
  };

  /// Last-value gauge.
  class Gauge {
   public:
    void Set(double v) { value_ = v; }
    double value() const { return value_; }

   private:
    double value_ = 0.0;
  };

  /// Returns the instrument registered under `name`, creating it on first
  /// use. Pointers stay valid for the registry's lifetime. A name may hold
  /// only one instrument kind.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);

  /// Registers a *view* onto a histogram owned elsewhere (e.g. a
  /// sim::Resource's wait/busy histogram). Each snapshot evaluates the
  /// given quantiles and carries the saturation flag and overflow count, so
  /// exports can mark quantiles clipped at the histogram's upper bound
  /// instead of silently under-reporting saturated tails.
  void RegisterHistogram(const std::string& name,
                         const common::Histogram* histogram,
                         std::vector<double> quantiles);

  enum class Kind { kCounter, kGauge, kQuantile };

  struct SnapshotEntry {
    std::string name;  // quantiles export as "<name>.p<q*100>"
    Kind kind = Kind::kCounter;
    double value = 0.0;
    uint64_t delta = 0;        // counters: increase since last snapshot
    bool saturated = false;    // quantiles: clipped at the histogram bound
    uint64_t overflow = 0;     // quantiles: samples beyond the bound
  };

  struct Snapshot {
    int interval = 0;
    double sim_time_ms = 0.0;
    std::vector<SnapshotEntry> entries;
  };

  /// Captures every instrument, rolls counter deltas forward, and appends
  /// the snapshot to the retained history.
  const Snapshot& TakeSnapshot(int interval, double sim_time_ms);

  const std::vector<Snapshot>& history() const { return history_; }

  /// Long-format CSV: interval,sim_time_ms,name,kind,value,delta,saturated,
  /// overflow — one row per instrument per interval.
  void WriteCsv(std::FILE* out) const;

  /// One JSON object per interval:
  /// {"interval":..,"sim_time_ms":..,"metrics":{name:value,...},
  ///  "saturated":[names...]}.
  void WriteJsonl(std::FILE* out) const;

 private:
  struct HistogramView {
    const common::Histogram* histogram = nullptr;
    std::vector<double> quantiles;
  };

  // std::map: stable node addresses for handed-out pointers and
  // deterministic (naturally sorted: class2 before class10) export order.
  std::map<std::string, Counter, NaturalLess> counters_;
  std::map<std::string, Gauge, NaturalLess> gauges_;
  std::map<std::string, HistogramView, NaturalLess> histograms_;
  std::vector<Snapshot> history_;
  // Delta base for the synthetic "obs.counter_regressions" entry.
  uint64_t regressions_snapshot_base_ = 0;
};

}  // namespace memgoal::obs

#endif  // MEMGOAL_OBS_REGISTRY_H_
