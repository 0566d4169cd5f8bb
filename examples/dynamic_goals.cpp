// Demonstrates the *dynamic* half of the paper's claims (§1: "copes with
// evolving workload characteristics and also allows dynamic adjustments of
// the class-specific response time goals"). One run, three regime changes:
//
//   phase 1 (intervals  0-19): moderate goal;
//   phase 2 (intervals 20-39): the goal tightens sharply (SLA upgrade);
//   phase 3 (intervals 40-59): the background class doubles its arrival
//                              rate (workload surge) — the partitioning
//                              must re-defend the unchanged goal;
//   phase 4 (intervals 60-79): the goal relaxes; memory flows back to the
//                              no-goal class.
//
// The cluster is tools/scenarios/base.conf with a phase-1 goal of 7 ms,
// run for the four phases' 80 intervals.
//
// Usage: dynamic_goals [key=value ...]   (any scenario key, as memgoal_sim;
//                                         intervals stays 80)

#include <cstdio>
#include <optional>

#include "common/config.h"
#include "core/scenario.h"
#include "core/system.h"
#include "example_scenario.h"

namespace {

using memgoal::kNoGoalClass;

}  // namespace

int main(int argc, char** argv) {
  memgoal::common::Config config;
  const std::optional<memgoal::core::Scenario> scenario =
      memgoal::examples::LoadExampleScenario(
          config, argc, argv,
          {.file = "base.conf",
           .deviations = "class1_goal_ms = 7\nintervals = 80\n"});
  if (!scenario || !memgoal::examples::RejectUnknownFlags(config)) return 1;
  // The phase script and the summary below read records 0-79.
  if (scenario->intervals != 80) {
    std::fprintf(stderr,
                 "error: intervals must be 80 (the phase script covers "
                 "intervals 0-79), got %d\n",
                 scenario->intervals);
    return 1;
  }

  memgoal::core::ClusterSystem system(scenario->system);
  for (const memgoal::workload::ClassSpec& spec : scenario->classes) {
    system.AddClass(spec);
  }

  std::printf(
      "interval  phase                     rt_goal   goal  dedicated_KB  "
      "satisfied  rt_background\n");
  const char* phase = "1: moderate goal";
  system.SetIntervalCallback(
      [&](const memgoal::core::IntervalRecord& record) {
        const auto& m = record.ForClass(1);
        const auto& bg = record.ForClass(kNoGoalClass);
        std::printf("%8d  %-24s %8.3f  %5.2f  %12llu  %9s  %13.3f\n",
                    record.index, phase, m.observed_rt_ms, m.goal_rt_ms,
                    static_cast<unsigned long long>(m.dedicated_bytes / 1024),
                    m.satisfied ? "yes" : "no", bg.observed_rt_ms);
        switch (record.index) {
          case 19:
            phase = "2: goal tightened";
            system.SetGoal(1, 3.0);
            break;
          case 39:
            phase = "3: background surge";
            system.SetInterarrival(kNoGoalClass, 28.0);
            break;
          case 59:
            phase = "4: goal relaxed";
            system.SetGoal(1, 12.0);
            system.SetInterarrival(kNoGoalClass, 40.0);
            break;
          default:
            break;
        }
      });
  system.Start();
  system.RunIntervals(scenario->intervals);

  // Summarize how each phase ended (mean of its last 5 intervals).
  const auto& records = system.metrics().records();
  auto tail_mean = [&](int from, int to) {
    double rt = 0.0, dedicated = 0.0;
    int n = 0;
    for (int i = to - 5; i < to; ++i) {
      rt += records[static_cast<size_t>(i)].ForClass(1).observed_rt_ms;
      dedicated += static_cast<double>(
          records[static_cast<size_t>(i)].ForClass(1).dedicated_bytes);
      ++n;
    }
    std::printf("  intervals %2d-%2d: rt=%7.3f ms, dedicated=%6.0f KB\n",
                from, to - 1, rt / n, dedicated / n / 1024.0);
  };
  std::printf("\nPhase endings:\n");
  tail_mean(0, 20);
  tail_mean(20, 40);
  tail_mean(40, 60);
  tail_mean(60, 80);
  memgoal::examples::WarnUnusedKeys(config);
  return 0;
}
