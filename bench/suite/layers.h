// Per-layer unit costs, timed from outside each module through its public
// functions at the shape a workload gives it.

#ifndef MEMGOAL_BENCH_SUITE_LAYERS_H_
#define MEMGOAL_BENCH_SUITE_LAYERS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "workload/spec.h"

namespace memgoal::bench::suite {

/// The shape a workload puts each layer in.
struct LayerShape {
  uint32_t nodes = 3;
  uint32_t db_pages = 2000;
  /// Event-queue population (mean pending events at interval boundaries).
  double pending_events = 64.0;
  /// Buffer frames per node: the replacement heap's population.
  uint32_t frames_per_node = 512;
  /// Cached copies per cached page: the holders a ranking sorts.
  double copies = 1.0;
  double bandwidth_mbit_per_s = 100.0;
  /// The goal class: page range and skew of the sampler and heat tracker.
  workload::ClassSpec goal_class;
};

/// Host cost per operation of each layer's hot-path call, as
/// (metric name, value) pairs in nanoseconds ("_ns") or microseconds
/// ("_us"). Each is the median of several timed repetitions.
std::vector<std::pair<std::string, double>> MeasureLayers(
    const LayerShape& shape, uint64_t seed);

}  // namespace memgoal::bench::suite

#endif  // MEMGOAL_BENCH_SUITE_LAYERS_H_
