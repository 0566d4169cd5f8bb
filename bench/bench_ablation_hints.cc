// Ablation A3: sensitivity of the threshold-based heat-dissemination
// protocol (§6). A lower threshold re-reports page heat to the home node
// on smaller changes: more hint traffic, fresher global-heat knowledge for
// the cost-based policy's last-copy valuations. The interesting shape is
// that traffic falls steeply with the threshold while response times stay
// nearly flat — the justification for threshold-based (rather than eager)
// dissemination.
//
// Usage: bench_ablation_hints [key=value ...] [--quick] [--threads=N]
//        (intervals=30 seed=1 threads=0)

#include <cstdio>
#include <memory>
#include <vector>

#include "baseline/static_controllers.h"
#include "bench/experiment.h"
#include "common/config.h"
#include "common/stats.h"
#include "net/network.h"

namespace memgoal::bench {
namespace {

int Run(int argc, char** argv) {
  common::Config args;
  if (!args.ParseArgs(argc, argv)) {
    std::fprintf(stderr, "%s\n", args.error().c_str());
    return 1;
  }
  const bool quick = args.GetBool("quick", false);
  const int intervals = static_cast<int>(
      args.GetInt("intervals", quick ? 10 : 30, common::kIntCount));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  BenchReporter reporter("ablation_hints", &args);
  if (!args.RejectUnknownFlags()) {
    std::fprintf(stderr, "%s\n", args.error().c_str());
    return 1;
  }
  TrialRunner runner(reporter.threads());
  runner.SetProfiler(reporter.profiler());
  reporter.AddSetup("seed", static_cast<double>(seed));
  reporter.AddSetup("intervals", intervals);

  // One trial per threshold on the runner's pool.
  const std::vector<double> thresholds =
      quick ? std::vector<double>{0.1, 1.0}
            : std::vector<double>{0.05, 0.1, 0.2, 0.5, 1.0, 2.0};
  struct HintRow {
    uint64_t hint_bytes = 0;
    uint64_t hint_msgs = 0;
    double hint_share = 0.0;
    double rt_goal = 0.0;
    double disk = 0.0;
  };
  const std::vector<HintRow> rows = runner.Run(
      static_cast<int>(thresholds.size()), [&](int trial) {
        Setup setup;
        setup.seed = seed;
        setup.hint_heat_threshold = thresholds[static_cast<size_t>(trial)];
        std::unique_ptr<core::ClusterSystem> system = BuildSystem(setup);
        system->SetController(
            std::make_unique<baseline::NoPartitioningController>());
        system->Start();
        for (NodeId i = 0; i < setup.num_nodes; ++i) {
          system->ApplyAllocation(1, i, setup.cache_bytes_per_node / 2);
        }
        system->RunIntervals(intervals);
        reporter.AddEvents(system->simulator().events_processed(),
                           system->simulator().Now());

        common::RunningStats rt_goal;
        const auto& records = system->metrics().records();
        for (size_t i = records.size() / 2; i < records.size(); ++i) {
          rt_goal.Add(records[i].ForClass(1).observed_rt_ms);
        }
        const net::Network& network = system->network();
        const core::AccessCounters& counters = system->counters(1);
        HintRow row;
        row.hint_bytes = network.bytes_sent(net::TrafficClass::kHeatHint);
        row.hint_msgs = network.messages_sent(net::TrafficClass::kHeatHint);
        row.hint_share = static_cast<double>(row.hint_bytes) /
                         static_cast<double>(network.total_bytes_sent());
        row.rt_goal = rt_goal.mean();
        row.disk = counters.HitFraction(StorageLevel::kLocalDisk) +
                   counters.HitFraction(StorageLevel::kRemoteDisk);
        return row;
      });

  std::printf(
      "hint_threshold,hint_bytes,hint_msgs,hint_share,goal_rt_ms,"
      "disk_frac\n");
  for (size_t i = 0; i < thresholds.size(); ++i) {
    std::printf("%.2f,%llu,%llu,%.4f,%.3f,%.3f\n", thresholds[i],
                static_cast<unsigned long long>(rows[i].hint_bytes),
                static_cast<unsigned long long>(rows[i].hint_msgs),
                rows[i].hint_share, rows[i].rt_goal, rows[i].disk);
    char metric[48];
    std::snprintf(metric, sizeof(metric), "goal_rt_ms_threshold_%.2f",
                  thresholds[i]);
    reporter.AddMetric(metric, rows[i].rt_goal);
  }
  std::fflush(stdout);
  reporter.Finish();
  return 0;
}

}  // namespace
}  // namespace memgoal::bench

int main(int argc, char** argv) { return memgoal::bench::Run(argc, argv); }
