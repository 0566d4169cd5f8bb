#ifndef MEMGOAL_CORE_SCENARIO_H_
#define MEMGOAL_CORE_SCENARIO_H_

#include <optional>
#include <string>
#include <vector>

#include "common/config.h"
#include "core/system.h"
#include "workload/spec.h"

namespace memgoal::core {

/// A fully resolved scenario: everything needed to construct and run a
/// ClusterSystem, decoupled from where the key=value text came from (a
/// .conf file, argv overrides, or a test-supplied string). memgoal_sim,
/// the examples and the test harnesses all build runs through this struct,
/// so a scenario file exercises the exact model configuration in each.
struct Scenario {
  SystemConfig system;
  /// In id order: classes[c] is class c, the no-goal class 0 first.
  std::vector<workload::ClassSpec> classes;
  int intervals = 40;
  bool audit = false;
  /// Nonzero when a generated chaos schedule was overlaid on the scripted
  /// faults; chaos_events is its event count (for the runner's summary).
  uint64_t chaos_seed = 0;
  size_t chaos_events = 0;
};

/// Builds a Scenario from parsed key=value config. Reads every model key
/// (listed in tools/memgoal_sim.cc's header comment, the keys memgoal_sim
/// and the examples take), so a caller may follow up with
/// Config::RejectUnknownFlags. Observability output paths
/// (trace_out, decision_log, ...) are CLI concerns and are not read here.
/// Returns std::nullopt and sets *error on invalid input.
std::optional<Scenario> LoadScenario(common::Config& config,
                                     std::string* error);

/// Parses a "begin:end" page range of a `db_pages`-page database; returns
/// false unless both ends are decimal integers with
/// begin < end <= db_pages.
bool ParsePageRange(const std::string& text, PageId db_pages,
                    workload::PageRange* out);

}  // namespace memgoal::core

#endif  // MEMGOAL_CORE_SCENARIO_H_
