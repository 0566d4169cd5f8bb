// Ablation A4 — the paper's §8 future-work objective: replacing "minimize
// the no-goal class's mean response time" with "minimize the variation of
// the goal class's per-node response times". With a node-skewed arrival
// distribution the busy nodes run slower than the idle ones; the variance
// objective should shift dedicated buffer towards the busy nodes and
// flatten the per-node response-time profile, at some cost to the no-goal
// class.
//
// Usage: bench_ablation_objective [key=value ...] [--quick] [--threads=N]
//        (intervals=60 seed=1 threads=0)

#include <cmath>
#include <cstdio>
#include <memory>

#include "bench/experiment.h"
#include "la/matrix.h"
#include "common/config.h"
#include "common/stats.h"
#include "core/system.h"

namespace memgoal::bench {
namespace {

struct Outcome {
  double rt_mean = 0.0;
  double rt_spread = 0.0;  // mean absolute deviation across nodes
  double nogoal_rt = 0.0;
  double satisfied_frac = 0.0;
  la::Vector per_node_rt;
  la::Vector per_node_dedicated;
};

Outcome Run(core::PartitioningObjective objective, double goal,
            uint64_t seed, int intervals, BenchReporter* reporter) {
  Setup setup;
  setup.seed = seed;
  core::SystemConfig config = setup.ToConfig();
  config.objective = objective;
  auto system = std::make_unique<core::ClusterSystem>(config);

  workload::ClassSpec goal_class;
  goal_class.id = 1;
  goal_class.goal_rt_ms = goal;
  goal_class.accesses_per_op = setup.accesses_per_op;
  goal_class.mean_interarrival_ms = setup.interarrival_ms;
  // Node 0 carries twice the load of node 2.
  goal_class.per_node_interarrival_ms = {30.0, 45.0, 60.0};
  goal_class.pages = {0, 1000};
  system->AddClass(goal_class);

  workload::ClassSpec nogoal;
  nogoal.id = kNoGoalClass;
  nogoal.accesses_per_op = setup.accesses_per_op;
  nogoal.mean_interarrival_ms = setup.interarrival_ms;
  nogoal.pages = {1000, 2000};
  system->AddClass(nogoal);

  // Accumulate per-node statistics over the settled tail via the interval
  // callback (observations are only valid at interval boundaries).
  common::RunningStats rt, nogoal_rt;
  std::vector<common::RunningStats> per_node(3), per_node_dedicated(3);
  int satisfied = 0, counted = 0;
  system->SetIntervalCallback([&](const core::IntervalRecord& record) {
    if (record.index < intervals / 2) return;
    const auto& m = record.ForClass(1);
    rt.Add(m.observed_rt_ms);
    nogoal_rt.Add(record.ForClass(kNoGoalClass).observed_rt_ms);
    satisfied += m.satisfied ? 1 : 0;
    ++counted;
    for (NodeId i = 0; i < 3; ++i) {
      const auto& obs = system->observation(1, i);
      if (obs.has_rt) per_node[i].Add(obs.mean_rt_ms);
      per_node_dedicated[i].Add(
          static_cast<double>(system->DedicatedBytes(1, i)));
    }
  });

  system->Start();
  system->RunIntervals(intervals);
  reporter->AddEvents(system->simulator().events_processed(),
                      system->simulator().Now());

  Outcome outcome;
  outcome.rt_mean = rt.mean();
  outcome.nogoal_rt = nogoal_rt.mean();
  outcome.satisfied_frac =
      counted > 0 ? static_cast<double>(satisfied) / counted : 0.0;
  double node_mean = 0.0;
  for (NodeId i = 0; i < 3; ++i) {
    outcome.per_node_rt.push_back(per_node[i].mean());
    outcome.per_node_dedicated.push_back(per_node_dedicated[i].mean());
    node_mean += per_node[i].mean() / 3.0;
  }
  for (NodeId i = 0; i < 3; ++i) {
    outcome.rt_spread += std::fabs(outcome.per_node_rt[i] - node_mean) / 3.0;
  }
  return outcome;
}

int Main(int argc, char** argv) {
  common::Config args;
  if (!args.ParseArgs(argc, argv)) {
    std::fprintf(stderr, "%s\n", args.error().c_str());
    return 1;
  }
  const bool quick = args.GetBool("quick", false);
  const int intervals = static_cast<int>(
      args.GetInt("intervals", quick ? 20 : 60, common::kIntCount));
  const auto seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  BenchReporter reporter("ablation_objective", &args);
  if (!args.RejectUnknownFlags()) {
    std::fprintf(stderr, "%s\n", args.error().c_str());
    return 1;
  }
  TrialRunner runner(reporter.threads());
  runner.SetProfiler(reporter.profiler());
  reporter.AddSetup("seed", static_cast<double>(seed));
  reporter.AddSetup("intervals", intervals);

  Setup calibration;
  calibration.seed = seed + 999;
  const GoalBand band =
      CalibrateGoalBand(calibration, 1, &runner, quick ? 12 : 18);
  const double goal = band.lo + 0.4 * (band.hi - band.lo);
  std::printf("# goal %.3f ms (band [%.3f, %.3f])\n", goal, band.lo,
              band.hi);

  std::printf(
      "objective,goal_rt_ms,node_spread_ms,rt_node0,rt_node1,rt_node2,"
      "ded_KB_node0,ded_KB_node1,ded_KB_node2,satisfied_frac,nogoal_rt_ms\n");
  struct RowSpec {
    const char* name;
    core::PartitioningObjective objective;
  };
  const RowSpec rows[] = {
      {"min-nogoal-rt", core::PartitioningObjective::kMinimizeNoGoalRt},
      {"min-node-variance",
       core::PartitioningObjective::kMinimizeNodeVariance},
  };
  // One trial per objective on the runner's pool.
  const std::vector<Outcome> outcomes = runner.Run(2, [&](int trial) {
    return Run(rows[trial].objective, goal, seed, intervals, &reporter);
  });
  for (int i = 0; i < 2; ++i) {
    const Outcome& outcome = outcomes[static_cast<size_t>(i)];
    std::printf("%s,%.3f,%.3f,%.3f,%.3f,%.3f,%.0f,%.0f,%.0f,%.2f,%.3f\n",
                rows[i].name, outcome.rt_mean, outcome.rt_spread,
                outcome.per_node_rt[0], outcome.per_node_rt[1],
                outcome.per_node_rt[2], outcome.per_node_dedicated[0] / 1024,
                outcome.per_node_dedicated[1] / 1024,
                outcome.per_node_dedicated[2] / 1024,
                outcome.satisfied_frac, outcome.nogoal_rt);
    reporter.AddMetric(std::string("node_spread_ms_") + rows[i].name,
                       outcome.rt_spread);
  }
  std::fflush(stdout);
  reporter.Finish();
  return 0;
}

}  // namespace
}  // namespace memgoal::bench

int main(int argc, char** argv) { return memgoal::bench::Main(argc, argv); }
