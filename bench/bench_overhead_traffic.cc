// Reproduces §7.5 (overhead): runs the base experiment with goal changes
// and reports the network traffic broken down by category. The paper's
// claim: messages of the partitioning method make up less than 0.1% of the
// total network traffic, with negligible CPU and memory overhead (CPU costs
// are measured separately by bench_table1_overhead).
//
// Usage: bench_overhead_traffic [key=value ...] [--quick] [--threads=N]
//        (intervals=60 seed=1 threads=0)

#include <cstdio>
#include <memory>

#include "bench/experiment.h"
#include "common/config.h"
#include "core/goal_controller.h"
#include "net/network.h"

namespace memgoal::bench {
namespace {

int Run(int argc, char** argv) {
  common::Config args;
  if (!args.ParseArgs(argc, argv)) {
    std::fprintf(stderr, "%s\n", args.error().c_str());
    return 1;
  }
  Setup setup;
  setup.seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  const bool quick = args.GetBool("quick", false);
  const int intervals = static_cast<int>(
      args.GetInt("intervals", quick ? 20 : 60, common::kIntCount));
  BenchReporter reporter("overhead_traffic", &args);
  if (!args.RejectUnknownFlags()) {
    std::fprintf(stderr, "%s\n", args.error().c_str());
    return 1;
  }
  TrialRunner runner(reporter.threads());
  runner.SetProfiler(reporter.profiler());
  reporter.AddSetup("seed", static_cast<double>(setup.seed));
  reporter.AddSetup("intervals", intervals);

  const GoalBand band = CalibrateGoalBand(setup, 1, &runner, quick ? 12 : 18);
  const double goal_lo = band.lo;
  const double goal_hi = band.hi;

  std::unique_ptr<core::ClusterSystem> system = BuildSystem(setup);
  GoalChangeDriver driver(system.get(), 1, goal_lo, goal_hi, setup.seed + 7);
  system->SetIntervalCallback([&](const core::IntervalRecord& record) {
    driver.OnInterval(record);
  });
  system->Start();
  system->RunIntervals(intervals);

  const net::Network& network = system->network();
  const uint64_t total_bytes = network.total_bytes_sent();
  std::printf("category,bytes,messages,share_of_bytes\n");
  for (int c = 0; c < net::kNumTrafficClasses; ++c) {
    const auto traffic_class = static_cast<net::TrafficClass>(c);
    std::printf("%s,%llu,%llu,%.6f\n", net::TrafficClassName(traffic_class),
                static_cast<unsigned long long>(
                    network.bytes_sent(traffic_class)),
                static_cast<unsigned long long>(
                    network.messages_sent(traffic_class)),
                static_cast<double>(network.bytes_sent(traffic_class)) /
                    static_cast<double>(total_bytes));
  }
  const double protocol_share =
      static_cast<double>(
          network.bytes_sent(net::TrafficClass::kPartitionProtocol)) /
      static_cast<double>(total_bytes);
  std::printf("total,%llu,%llu,1.0\n",
              static_cast<unsigned long long>(total_bytes),
              static_cast<unsigned long long>(network.total_messages_sent()));
  std::printf("\n# partitioning-protocol share of network bytes: %.4f%% "
              "(paper: < 0.1%%)\n",
              100.0 * protocol_share);

  const auto& controller =
      dynamic_cast<core::GoalOrientedController&>(system->controller());
  const auto& stats = controller.stats();
  std::printf("# goal changes=%d, checks=%llu, reports=%llu, "
              "allocation commands=%llu\n",
              driver.goals_completed(),
              static_cast<unsigned long long>(stats.checks),
              static_cast<unsigned long long>(stats.reports_sent),
              static_cast<unsigned long long>(stats.allocation_commands));
  reporter.AddEvents(system->simulator().events_processed(),
                     system->simulator().Now());
  reporter.AddMetric("protocol_share_of_bytes", protocol_share);
  reporter.AddMetric("total_network_bytes",
                     static_cast<double>(total_bytes));
  reporter.AddMetric("goals_completed", driver.goals_completed());
  reporter.Finish();
  return 0;
}

}  // namespace
}  // namespace memgoal::bench

int main(int argc, char** argv) { return memgoal::bench::Run(argc, argv); }
