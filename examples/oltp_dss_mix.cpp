// The motivating scenario from the paper's introduction: short OLTP
// transactions sharing a network of workstations with complex
// decision-support (DSS) queries. Without load control the resource-hungry
// DSS queries crowd the OLTP working set out of the buffers; with the
// goal-oriented partitioning the OLTP class gets exactly the dedicated
// buffer it needs to hold its response-time SLA, while the DSS class keeps
// the rest.
//
// The workload is tools/scenarios/oltp_dss.conf: OLTP is class 1 (short
// transactions on a hot working set, with the goal class1_goal_ms), DSS is
// the no-goal class 0 (long, almost uniform scans). The example runs it
// twice — unmanaged, then managed — and compares the OLTP response times.
//
// Usage: oltp_dss_mix [key=value ...]   (any scenario key, as memgoal_sim)

#include <cstdio>
#include <memory>
#include <optional>

#include "baseline/static_controllers.h"
#include "common/config.h"
#include "common/stats.h"
#include "core/scenario.h"
#include "core/system.h"
#include "example_scenario.h"

namespace {

using memgoal::ClassId;
using memgoal::kNoGoalClass;

constexpr ClassId kOltp = 1;

struct RunResult {
  double oltp_rt_ms = 0.0;
  double dss_rt_ms = 0.0;
  double satisfied_frac = 0.0;
  uint64_t dedicated_bytes = 0;
};

RunResult Run(const memgoal::core::Scenario& scenario, bool managed) {
  memgoal::core::ClusterSystem system(scenario.system);
  for (const memgoal::workload::ClassSpec& spec : scenario.classes) {
    system.AddClass(spec);
  }
  if (!managed) {
    system.SetController(
        std::make_unique<memgoal::baseline::NoPartitioningController>());
  }
  system.Start();
  system.RunIntervals(scenario.intervals);

  const double goal_ms = scenario.classes[kOltp].goal_rt_ms.value();
  RunResult result;
  memgoal::common::RunningStats oltp_rt, dss_rt;
  int satisfied = 0, counted = 0;
  const auto& records = system.metrics().records();
  for (size_t i = records.size() / 2; i < records.size(); ++i) {
    const auto& oltp_row = records[i].ForClass(kOltp);
    oltp_rt.Add(oltp_row.observed_rt_ms);
    dss_rt.Add(records[i].ForClass(kNoGoalClass).observed_rt_ms);
    // Judge both runs against the goal (the unmanaged run's controller
    // ignores it), with a flat 10% band.
    satisfied += oltp_row.observed_rt_ms <= goal_ms * 1.10 ? 1 : 0;
    ++counted;
  }
  result.oltp_rt_ms = oltp_rt.mean();
  result.dss_rt_ms = dss_rt.mean();
  result.satisfied_frac = static_cast<double>(satisfied) / counted;
  result.dedicated_bytes = system.TotalDedicatedBytes(kOltp);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  memgoal::common::Config config;
  const std::optional<memgoal::core::Scenario> scenario =
      memgoal::examples::LoadExampleScenario(
          config, argc, argv, {.file = "oltp_dss.conf", .min_intervals = 1});
  if (!scenario || !memgoal::examples::RejectUnknownFlags(config)) return 1;

  const double goal_ms = scenario->classes[kOltp].goal_rt_ms.value();
  const RunResult unmanaged = Run(*scenario, /*managed=*/false);
  const RunResult managed = Run(*scenario, /*managed=*/true);

  std::printf("OLTP goal: %.3f ms\n\n", goal_ms);
  std::printf("%-22s %12s %12s\n", "", "unmanaged", "goal-managed");
  std::printf("%-22s %12.3f %12.3f\n", "OLTP response (ms)",
              unmanaged.oltp_rt_ms, managed.oltp_rt_ms);
  std::printf("%-22s %12.3f %12.3f\n", "DSS response (ms)",
              unmanaged.dss_rt_ms, managed.dss_rt_ms);
  std::printf("%-22s %12.2f %12.2f\n", "OLTP goal satisfied",
              unmanaged.satisfied_frac, managed.satisfied_frac);
  std::printf("%-22s %12llu %12llu\n", "OLTP dedicated (KB)",
              static_cast<unsigned long long>(unmanaged.dedicated_bytes / 1024),
              static_cast<unsigned long long>(managed.dedicated_bytes / 1024));

  if (managed.oltp_rt_ms <= goal_ms * 1.15) {
    std::printf("\nOLTP goal held; DSS absorbed the buffer loss.\n");
  } else {
    std::printf("\nOLTP goal missed; inspect parameters.\n");
  }
  memgoal::examples::WarnUnusedKeys(config);
  return 0;
}
