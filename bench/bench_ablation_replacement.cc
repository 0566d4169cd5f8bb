// Ablation A1 (motivates §6): the same goal-oriented partitioning run with
// different local replacement policies. The cost-based policy of Sinnwell &
// Weikum exploits the remote cache (fewer duplicate copies, fewer disk
// reads) and should dominate plain LRU/FIFO, with LRU-K in between.
//
// Reports, per policy, the steady-state goal-class response time under a
// fixed 1/2-cache dedication plus the storage-level breakdown.
//
// Usage: bench_ablation_replacement [key=value ...] [--quick] [--threads=N]
//        (intervals=30 seed=1 threads=0)

#include <array>
#include <cstdio>
#include <memory>
#include <vector>

#include "baseline/static_controllers.h"
#include "bench/experiment.h"
#include "common/config.h"
#include "common/stats.h"

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
      args.GetInt("intervals", quick ? 12 : 30, common::kIntCount));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  const double fraction = args.GetDouble("fraction", 0.5);
  BenchReporter reporter("ablation_replacement", &args);
  if (!args.RejectUnknownFlags()) {
    std::fprintf(stderr, "%s\n", args.error().c_str());
    return 1;
  }
  TrialRunner runner(reporter.threads());
  runner.SetProfiler(reporter.profiler());
  reporter.AddSetup("seed", static_cast<double>(seed));
  reporter.AddSetup("intervals", intervals);
  reporter.AddSetup("fraction", fraction);

  // One trial per replacement policy.
  const std::array<cache::PolicyKind, 4> policies = {
      cache::PolicyKind::kCostBased, cache::PolicyKind::kLruK,
      cache::PolicyKind::kLru, cache::PolicyKind::kFifo};
  struct PolicyRow {
    double rt_goal = 0.0;
    double rt_nogoal = 0.0;
    double local = 0.0;
    double remote = 0.0;
    double disk = 0.0;
  };
  const std::vector<PolicyRow> rows = runner.Run(
      static_cast<int>(policies.size()), [&](int trial) {
        Setup setup;
        setup.seed = seed;
        setup.policy = policies[static_cast<size_t>(trial)];
        std::unique_ptr<core::ClusterSystem> system = BuildSystem(setup);
        system->SetController(
            std::make_unique<baseline::NoPartitioningController>());
        system->Start();
        const auto bytes = static_cast<uint64_t>(
            fraction * static_cast<double>(setup.cache_bytes_per_node));
        for (NodeId i = 0; i < setup.num_nodes; ++i) {
          system->ApplyAllocation(1, i, bytes);
        }
        system->RunIntervals(intervals);
        reporter.AddEvents(system->simulator().events_processed(),
                           system->simulator().Now());

        common::RunningStats rt_goal, rt_nogoal;
        const auto& records = system->metrics().records();
        for (size_t i = records.size() / 2; i < records.size(); ++i) {
          rt_goal.Add(records[i].ForClass(1).observed_rt_ms);
          rt_nogoal.Add(records[i].ForClass(kNoGoalClass).observed_rt_ms);
        }
        const core::AccessCounters& counters = system->counters(1);
        PolicyRow row;
        row.rt_goal = rt_goal.mean();
        row.rt_nogoal = rt_nogoal.mean();
        row.local = counters.HitFraction(StorageLevel::kLocalBuffer);
        row.remote = counters.HitFraction(StorageLevel::kRemoteBuffer);
        row.disk = counters.HitFraction(StorageLevel::kLocalDisk) +
                   counters.HitFraction(StorageLevel::kRemoteDisk);
        return row;
      });

  std::printf(
      "policy,goal_class_rt_ms,nogoal_rt_ms,local_frac,remote_frac,"
      "disk_frac\n");
  for (size_t i = 0; i < policies.size(); ++i) {
    std::printf("%s,%.3f,%.3f,%.3f,%.3f,%.3f\n", PolicyKindName(policies[i]),
                rows[i].rt_goal, rows[i].rt_nogoal, rows[i].local,
                rows[i].remote, rows[i].disk);
    reporter.AddMetric(std::string("rt_goal_ms_") +
                           PolicyKindName(policies[i]),
                       rows[i].rt_goal);
  }
  std::fflush(stdout);
  reporter.Finish();
  return 0;
}

}  // namespace
}  // namespace memgoal::bench

int main(int argc, char** argv) { return memgoal::bench::Run(argc, argv); }
