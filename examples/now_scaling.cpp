// A larger network of workstations: 6 nodes, two goal classes with
// different SLAs plus the no-goal background class. Demonstrates that the
// distributed implementation (one coordinator per class, spread over the
// nodes; agents everywhere) handles N > 3 and several concurrent
// feedback loops, and reports the protocol overhead at this scale.
//
// Usage: now_scaling [key=value ...]   (nodes=6 intervals=40 seed=1)

#include <cstdio>

#include "common/config.h"
#include "common/stats.h"
#include "core/goal_controller.h"
#include "core/system.h"
#include "net/network.h"

namespace {

using memgoal::ClassId;
using memgoal::kNoGoalClass;
using memgoal::NodeId;

}  // namespace

int main(int argc, char** argv) {
  memgoal::common::Config args;
  if (!args.ParseArgs(argc, argv)) {
    std::fprintf(stderr, "%s\n", args.error().c_str());
    return 1;
  }
  const auto nodes = static_cast<uint32_t>(
      args.GetInt("nodes", 6, {1, memgoal::core::kMaxNodes}));
  const int intervals = static_cast<int>(
      args.GetInt("intervals", 40, memgoal::common::kIntCount));

  memgoal::core::SystemConfig config;
  config.num_nodes = nodes;
  config.cache_bytes_per_node = 2ull << 20;
  config.db_pages = 3000;
  config.disk.avg_seek_ms = 4.0;
  config.disk.rotation_ms = 6.0;
  config.disk.transfer_mb_per_s = 20.0;
  config.seed = static_cast<uint64_t>(args.GetInt("seed", 1));

  memgoal::core::ClusterSystem system(config);

  memgoal::workload::ClassSpec k1;  // interactive: tight goal
  k1.id = 1;
  k1.goal_rt_ms = args.GetDouble("goal1_ms", 3.0);
  k1.accesses_per_op = 4;
  k1.mean_interarrival_ms = 40.0;
  k1.pages = {0, 1000};
  k1.zipf_skew = 0.3;
  system.AddClass(k1);

  memgoal::workload::ClassSpec k2;  // reporting: looser goal
  k2.id = 2;
  k2.goal_rt_ms = args.GetDouble("goal2_ms", 10.0);
  k2.accesses_per_op = 8;
  k2.mean_interarrival_ms = 80.0;
  k2.pages = {1000, 2000};
  system.AddClass(k2);

  memgoal::workload::ClassSpec background;
  background.id = kNoGoalClass;
  background.accesses_per_op = 4;
  background.mean_interarrival_ms = 40.0;
  background.pages = {2000, 3000};
  system.AddClass(background);
  if (!args.RejectUnknownFlags()) {
    std::fprintf(stderr, "%s\n", args.error().c_str());
    return 1;
  }

  system.Start();
  system.RunIntervals(intervals);

  const auto& controller =
      dynamic_cast<memgoal::core::GoalOrientedController&>(
          system.controller());
  std::printf("nodes=%u, coordinators: class1@node%u class2@node%u\n\n",
              nodes, controller.coordinator_node(1),
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
                counted > 0 ? static_cast<double>(satisfied) / counted : 0.0);
  }

  // Per-node dedicated layout: the LP places memory where it pays off.
  std::printf("\nper-node dedicated KB (class1/class2):\n");
  for (NodeId i = 0; i < nodes; ++i) {
    std::printf("  node%u: %llu / %llu\n", i,
                static_cast<unsigned long long>(
                    system.DedicatedBytes(1, i) / 1024),
                static_cast<unsigned long long>(
                    system.DedicatedBytes(2, i) / 1024));
  }

  const auto& network = system.network();
  std::printf("\npartitioning-protocol traffic: %.4f%% of %.1f MB total\n",
              100.0 *
                  static_cast<double>(network.bytes_sent(
                      memgoal::net::TrafficClass::kPartitionProtocol)) /
                  static_cast<double>(network.total_bytes_sent()),
              static_cast<double>(network.total_bytes_sent()) / 1e6);
  return 0;
}
