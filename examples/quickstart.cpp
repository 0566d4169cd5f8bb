// Quickstart: the paper's base experiment (tools/scenarios/base.conf) — a
// 3-node network of workstations, one goal class and the no-goal
// background class, managed by the paper's goal-oriented buffer
// partitioning at the calibrated operating point. Prints one line per
// observation interval showing how the feedback loop moves the dedicated
// buffer until the response-time goal is met.
//
// Usage: quickstart [key=value ...]   (any scenario key, as memgoal_sim)
//   e.g. quickstart class1_goal_ms=3 class1_skew=0.5 seed=7

#include <cstdio>
#include <optional>

#include "common/config.h"
#include "core/goal_controller.h"
#include "core/scenario.h"
#include "core/system.h"
#include "example_scenario.h"

using memgoal::ClassId;
using memgoal::kNoGoalClass;

int main(int argc, char** argv) {
  memgoal::common::Config config;
  const std::optional<memgoal::core::Scenario> scenario =
      memgoal::examples::LoadExampleScenario(config, argc, argv,
                                             {.file = "base.conf"});
  if (!scenario || !memgoal::examples::RejectUnknownFlags(config)) return 1;

  memgoal::core::ClusterSystem system(scenario->system);
  for (const memgoal::workload::ClassSpec& spec : scenario->classes) {
    system.AddClass(spec);
  }

  std::printf(
      "interval  rt_goal_class  goal  tolerance  dedicated_KB  satisfied  "
      "rt_nogoal\n");
  system.SetIntervalCallback([](const memgoal::core::IntervalRecord& record) {
    const auto& goal_row = record.ForClass(1);
    const auto& nogoal_row = record.ForClass(kNoGoalClass);
    std::printf("%8d  %13.3f  %4.2f  %9.3f  %12llu  %9s  %9.3f\n",
                record.index, goal_row.observed_rt_ms, goal_row.goal_rt_ms,
                goal_row.tolerance_ms,
                static_cast<unsigned long long>(goal_row.dedicated_bytes /
                                                1024),
                goal_row.satisfied ? "yes" : "no",
                nogoal_row.observed_rt_ms);
  });

  system.Start();
  system.RunIntervals(scenario->intervals);

  const auto& stats =
      dynamic_cast<memgoal::core::GoalOrientedController&>(system.controller())
          .stats();
  std::printf(
      "\nchecks=%llu violations=%llu warmups=%llu lp=%llu best_effort=%llu "
      "reports=%llu alloc_cmds=%llu\n",
      static_cast<unsigned long long>(stats.checks),
      static_cast<unsigned long long>(stats.violations),
      static_cast<unsigned long long>(stats.warmup_steps),
      static_cast<unsigned long long>(stats.lp_optimizations),
      static_cast<unsigned long long>(stats.best_effort_allocations),
      static_cast<unsigned long long>(stats.reports_sent),
      static_cast<unsigned long long>(stats.allocation_commands));
  for (ClassId klass : {ClassId{1}, kNoGoalClass}) {
    const auto& counters = system.counters(klass);
    std::printf(
        "class %u levels: local=%.3f remote=%.3f ldisk=%.3f rdisk=%.3f\n",
        klass,
        counters.HitFraction(memgoal::StorageLevel::kLocalBuffer),
        counters.HitFraction(memgoal::StorageLevel::kRemoteBuffer),
        counters.HitFraction(memgoal::StorageLevel::kLocalDisk),
        counters.HitFraction(memgoal::StorageLevel::kRemoteDisk));
  }

  memgoal::examples::WarnUnusedKeys(config);
  return 0;
}
