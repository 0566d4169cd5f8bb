// Quickstart: a 3-node network of workstations, one goal class and the
// no-goal background class, managed by the paper's goal-oriented buffer
// partitioning. Prints one line per observation interval showing how the
// feedback loop moves the dedicated buffer until the response-time goal is
// met.
//
// Usage: quickstart [key=value ...]
//   e.g. quickstart goal_ms=2.0 intervals=40 skew=0.5 seed=7

#include <cstdio>
#include <limits>

#include "baseline/static_controllers.h"
#include "common/config.h"
#include "core/goal_controller.h"
#include "core/system.h"

using memgoal::ClassId;
using memgoal::kNoGoalClass;

int main(int argc, char** argv) {
  memgoal::common::Config args;
  if (!args.ParseArgs(argc, argv)) {
    std::fprintf(stderr, "%s\n", args.error().c_str());
    return 1;
  }

  memgoal::core::SystemConfig config;
  config.num_nodes = static_cast<uint32_t>(
      args.GetInt("nodes", 3, {1, memgoal::core::kMaxNodes}));
  config.cache_bytes_per_node =
      static_cast<uint64_t>(args.GetInt("cache_bytes", 64 * 4096, {0}));
  // Each of the two classes needs a page of its own.
  config.db_pages = static_cast<uint32_t>(args.GetInt(
      "db_pages", 240, {2, std::numeric_limits<uint32_t>::max()}));
  config.observation_interval_ms = args.GetDouble("interval_ms", 1000.0);
  config.seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  config.disk.avg_seek_ms = args.GetDouble("disk_seek_ms", 8.0);
  config.disk.rotation_ms = args.GetDouble("disk_rotation_ms", 8.33);
  config.disk.transfer_mb_per_s = args.GetDouble("disk_transfer", 10.0);

  memgoal::core::ClusterSystem system(config);

  memgoal::workload::ClassSpec goal_class;
  goal_class.id = 1;
  goal_class.goal_rt_ms = args.GetDouble("goal_ms", 2.0);
  goal_class.accesses_per_op = static_cast<int>(args.GetInt("accesses", 4));
  goal_class.mean_interarrival_ms = args.GetDouble("interarrival_ms", 25.0);
  goal_class.pages = {0, static_cast<memgoal::PageId>(args.GetInt(
                             "goal_pages", config.db_pages / 2))};
  goal_class.zipf_skew = args.GetDouble("skew", 0.0);
  system.AddClass(goal_class);

  memgoal::workload::ClassSpec nogoal_class;
  nogoal_class.id = kNoGoalClass;
  nogoal_class.accesses_per_op =
      static_cast<int>(args.GetInt("ng_accesses", goal_class.accesses_per_op));
  nogoal_class.mean_interarrival_ms =
      args.GetDouble("ng_interarrival_ms", goal_class.mean_interarrival_ms);
  const auto ng_pages = static_cast<memgoal::PageId>(args.GetInt(
      "ng_pages", config.db_pages - goal_class.pages.end));
  nogoal_class.pages = {goal_class.pages.end,
                        goal_class.pages.end + ng_pages};
  nogoal_class.zipf_skew = args.GetDouble("ng_skew", goal_class.zipf_skew);
  system.AddClass(nogoal_class);

  // controller=goal (default) runs the paper's algorithm; controller=static
  // freezes a fixed share (static_fraction) of every node's cache for the
  // goal class, which is handy for calibration sweeps.
  const std::string controller = args.GetString("controller", "goal");
  if (controller == "static") {
    system.SetController(
        std::make_unique<memgoal::baseline::StaticPartitioningController>(
            std::map<ClassId, double>{
                {1, args.GetDouble("static_fraction", 0.5)}}));
  } else if (controller == "none") {
    system.SetController(
        std::make_unique<memgoal::baseline::NoPartitioningController>());
  }

  const int intervals = static_cast<int>(
      args.GetInt("intervals", 30, memgoal::common::kIntCount));
  if (!args.RejectUnknownFlags()) {
    std::fprintf(stderr, "%s\n", args.error().c_str());
    return 1;
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
  system.RunIntervals(intervals);

  if (auto* goal_controller =
          dynamic_cast<memgoal::core::GoalOrientedController*>(
              &system.controller())) {
    const auto& stats = goal_controller->stats();
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
  }
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

  for (const std::string& key : args.UnusedKeys()) {
    std::fprintf(stderr, "warning: unused argument %s\n", key.c_str());
  }
  return 0;
}
