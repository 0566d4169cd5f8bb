// A larger network of workstations: 6 nodes, two goal classes with
// different SLAs plus the no-goal background class. Demonstrates that the
// distributed implementation (one coordinator per class, spread over the
// nodes; agents everywhere) handles N > 3 and several concurrent
// feedback loops, and reports the protocol overhead at this scale.
//
// The cluster is tools/scenarios/now_scaling.conf.
//
// Usage: now_scaling [key=value ...]   (any scenario key, as memgoal_sim)

#include <cstdio>
#include <optional>

#include "common/config.h"
#include "common/stats.h"
#include "core/goal_controller.h"
#include "core/scenario.h"
#include "core/system.h"
#include "example_scenario.h"
#include "net/network.h"

namespace {

using memgoal::ClassId;
using memgoal::kNoGoalClass;
using memgoal::NodeId;

}  // namespace

int main(int argc, char** argv) {
  memgoal::common::Config config;
  const std::optional<memgoal::core::Scenario> scenario =
      memgoal::examples::LoadExampleScenario(
          config, argc, argv,
          {.file = "now_scaling.conf", .classes = 3, .min_intervals = 1});
  if (!scenario || !memgoal::examples::RejectUnknownFlags(config)) return 1;

  memgoal::core::ClusterSystem system(scenario->system);
  for (const memgoal::workload::ClassSpec& spec : scenario->classes) {
    system.AddClass(spec);
  }
  system.Start();
  system.RunIntervals(scenario->intervals);

  const auto& controller =
      dynamic_cast<memgoal::core::GoalOrientedController&>(
          system.controller());
  std::printf("nodes=%u, coordinators: class1@node%u class2@node%u\n\n",
              system.num_nodes(), controller.coordinator_node(1),
              controller.coordinator_node(2));

  std::printf("%-8s %10s %8s %12s %10s\n", "class", "rt_ms", "goal",
              "dedicated_KB", "satisfied");
  const auto& records = system.metrics().records();
  for (ClassId klass : {ClassId{1}, ClassId{2}, kNoGoalClass}) {
    memgoal::common::RunningStats rt;
    int satisfied = 0, counted = 0;
    for (size_t i = records.size() / 2; i < records.size(); ++i) {
      const auto& m = records[i].ForClass(klass);
      rt.Add(m.observed_rt_ms);
      satisfied += m.satisfied ? 1 : 0;
      ++counted;
    }
    std::printf("%-8u %10.3f %8.2f %12llu %9.2f\n", klass, rt.mean(),
                klass == kNoGoalClass
                    ? 0.0
                    : system.spec(klass).goal_rt_ms.value_or(0.0),
                static_cast<unsigned long long>(
                    system.TotalDedicatedBytes(klass) / 1024),
                static_cast<double>(satisfied) / counted);
  }

  // Per-node dedicated layout: the LP places memory where it pays off.
  std::printf("\nper-node dedicated KB (class1/class2):\n");
  for (NodeId i = 0; i < system.num_nodes(); ++i) {
    std::printf("  node%u: %llu / %llu\n", i,
                static_cast<unsigned long long>(
                    system.DedicatedBytes(1, i) / 1024),
                static_cast<unsigned long long>(
                    system.DedicatedBytes(2, i) / 1024));
  }

  // A single node sends nothing over the network.
  const auto& network = system.network();
  const double total_bytes = static_cast<double>(network.total_bytes_sent());
  std::printf("\npartitioning-protocol traffic: %.4f%% of %.1f MB total\n",
              total_bytes > 0.0
                  ? 100.0 *
                        static_cast<double>(network.bytes_sent(
                            memgoal::net::TrafficClass::kPartitionProtocol)) /
                        total_bytes
                  : 0.0,
              total_bytes / 1e6);
  memgoal::examples::WarnUnusedKeys(config);
  return 0;
}
