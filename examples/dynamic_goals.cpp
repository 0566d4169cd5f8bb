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
// Usage: dynamic_goals [key=value ...]   (seed=1)

#include <cstdio>

#include "common/config.h"
#include "core/system.h"

namespace {

using memgoal::ClassId;
using memgoal::kNoGoalClass;

}  // namespace

int main(int argc, char** argv) {
  memgoal::common::Config args;
  if (!args.ParseArgs(argc, argv)) {
    std::fprintf(stderr, "%s\n", args.error().c_str());
    return 1;
  }

  memgoal::core::SystemConfig config;
  config.num_nodes = 3;
  config.cache_bytes_per_node = 2ull << 20;
  config.db_pages = 2000;
  config.disk.avg_seek_ms = 4.0;
  config.disk.rotation_ms = 6.0;
  config.disk.transfer_mb_per_s = 20.0;
  config.seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  if (!args.RejectUnknownFlags()) {
    std::fprintf(stderr, "%s\n", args.error().c_str());
    return 1;
  }

  memgoal::core::ClusterSystem system(config);

  memgoal::workload::ClassSpec goal_class;
  goal_class.id = 1;
  goal_class.goal_rt_ms = 7.0;  // phase-1 goal
  goal_class.accesses_per_op = 4;
  goal_class.mean_interarrival_ms = 40.0;
  goal_class.pages = {0, 1000};
  system.AddClass(goal_class);

  memgoal::workload::ClassSpec background;
  background.id = kNoGoalClass;
  background.accesses_per_op = 4;
  background.mean_interarrival_ms = 40.0;
  background.pages = {1000, 2000};
  system.AddClass(background);

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
  system.RunIntervals(80);

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
  return 0;
}
