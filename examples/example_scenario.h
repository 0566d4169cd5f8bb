// The one way the examples build their cluster, the way tools/memgoal_sim
// does: a checked-in scenario file under tools/scenarios/, then the
// example's stated deviations from it, then the command line's key=value
// overrides, all read and range-checked by core::LoadScenario. So the
// examples take the scenario keys memgoal_sim documents, and bad input
// ends in an "error: " line, never in a CHECK abort.

#ifndef MEMGOAL_EXAMPLES_EXAMPLE_SCENARIO_H_
#define MEMGOAL_EXAMPLES_EXAMPLE_SCENARIO_H_

#include <cstddef>
#include <cstdio>
#include <optional>
#include <string>

#include "common/config.h"
#include "core/scenario.h"

namespace memgoal::examples {

struct ExampleScenario {
  /// File name under tools/scenarios/.
  const char* file = nullptr;
  /// Scenario text the example applies on top of the file.
  const char* deviations = "";
  /// The example reads classes 0..classes-1.
  size_t classes = 2;
  /// 1 when the example summarises the second half of the run.
  int min_intervals = 0;
};

/// Loads `example`'s scenario with argv's overrides into `config`. Prints
/// "error: ..." and returns std::nullopt on bad input, on fewer classes or
/// intervals than the example reads, and on audit=1 (only memgoal_sim
/// attaches the invariant auditor). The example reads its own flags from
/// `config` afterwards, then calls RejectUnknownFlags.
inline std::optional<core::Scenario> LoadExampleScenario(
    common::Config& config, int argc, char** argv,
    const ExampleScenario& example) {
  std::string error;
  std::optional<core::Scenario> scenario;
  if (!config.ParseFile(MEMGOAL_SCENARIO_DIR "/" + std::string(example.file)) ||
      !config.ParseText(example.deviations) || !config.ParseArgs(argc, argv)) {
    error = config.error();
  } else {
    scenario = core::LoadScenario(config, &error);
  }
  if (scenario && scenario->classes.size() < example.classes) {
    error = "classes must be >= " + std::to_string(example.classes) +
            ", got " + std::to_string(scenario->classes.size());
    scenario.reset();
  } else if (scenario && scenario->intervals < example.min_intervals) {
    error = "intervals must be >= " + std::to_string(example.min_intervals) +
            " (the summary reads the second half of the run), got " +
            std::to_string(scenario->intervals);
    scenario.reset();
  } else if (scenario && scenario->audit) {
    error = "audit is not run by the examples; use memgoal_sim";
    scenario.reset();
  }
  if (!scenario) std::fprintf(stderr, "error: %s\n", error.c_str());
  return scenario;
}

/// Config::RejectUnknownFlags, printing its error.
inline bool RejectUnknownFlags(common::Config& config) {
  if (config.RejectUnknownFlags()) return true;
  std::fprintf(stderr, "error: %s\n", config.error().c_str());
  return false;
}

/// Warns about every key nothing read, such as an old flag spelling.
inline void WarnUnusedKeys(const common::Config& config) {
  for (const std::string& key : config.UnusedKeys()) {
    std::fprintf(stderr, "warning: unused argument %s\n", key.c_str());
  }
}

}  // namespace memgoal::examples

#endif  // MEMGOAL_EXAMPLES_EXAMPLE_SCENARIO_H_
