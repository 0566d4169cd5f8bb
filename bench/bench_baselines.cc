// Ablation A2 (motivates §4): the goal-oriented LP partitioning against
// the single-server baselines ported to the NOW — fragment fencing
// (VLDB'93), class fencing (SIGMOD'96), a static administrator-chosen
// partitioning and no partitioning at all. A fixed *binding* goal (below
// the zero-dedication response time) is installed; we report how quickly
// and how reliably each controller satisfies it, and what it costs the
// no-goal class.
//
// Usage: bench_baselines [key=value ...] [--quick] [--threads=N]
//        (intervals=50 seed=1 threads=0)

#include <cstdio>
#include <functional>
#include <iterator>
#include <memory>
#include <vector>

#include "baseline/fencing.h"
#include "baseline/static_controllers.h"
#include "bench/experiment.h"
#include "core/goal_controller.h"
#include "common/config.h"
#include "common/stats.h"

namespace memgoal::bench {
namespace {

struct Row {
  const char* name;
  std::function<std::unique_ptr<core::Controller>()> make;
};

int Run(int argc, char** argv) {
  common::Config args;
  if (!args.ParseArgs(argc, argv)) {
    std::fprintf(stderr, "%s\n", args.error().c_str());
    return 1;
  }
  const bool quick = args.GetBool("quick", false);
  const int intervals = static_cast<int>(
      args.GetInt("intervals", quick ? 16 : 50, common::kIntCount));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  BenchReporter reporter("baselines", &args);
  if (!args.RejectUnknownFlags()) {
    std::fprintf(stderr, "%s\n", args.error().c_str());
    return 1;
  }
  TrialRunner runner(reporter.threads());
  runner.SetProfiler(reporter.profiler());
  reporter.AddSetup("seed", static_cast<double>(seed));
  reporter.AddSetup("intervals", intervals);

  Setup setup;
  setup.seed = seed;

  // A binding goal one third into the calibrated band.
  const GoalBand band = CalibrateGoalBand(setup, 1, &runner, quick ? 12 : 18);
  const double goal = band.lo + (band.hi - band.lo) / 3.0;
  std::printf("# binding goal: %.3f ms (band [%.3f, %.3f], RT(0)=%.3f)\n",
              goal, band.lo, band.hi, band.rt_zero);

  const Row rows[] = {
      {"goal-oriented",
       [] { return std::make_unique<core::GoalOrientedController>(); }},
      {"fragment-fencing",
       [] { return std::make_unique<baseline::FragmentFencingController>(); }},
      {"class-fencing",
       [] { return std::make_unique<baseline::ClassFencingController>(); }},
      {"static-half",
       [] {
         return std::make_unique<baseline::StaticPartitioningController>(
             std::map<ClassId, double>{{1, 0.5}});
       }},
      {"none",
       [] { return std::make_unique<baseline::NoPartitioningController>(); }},
  };

  // One trial per controller on the runner's pool.
  struct Outcome {
    int first_satisfied = -1;
    double satisfied_frac = 0.0;
    double rt_goal = 0.0;
    double rt_nogoal = 0.0;
    uint64_t dedicated_bytes = 0;
  };
  constexpr int kNumRows = static_cast<int>(std::size(rows));
  const std::vector<Outcome> outcomes = runner.Run(kNumRows, [&](int trial) {
    const Row& row = rows[trial];
    std::unique_ptr<core::ClusterSystem> system = BuildSystem(setup);
    system->SetController(row.make());
    system->SetGoal(1, goal);

    int first_satisfied = -1;
    int satisfied = 0, counted = 0;
    common::RunningStats rt_goal, rt_nogoal;
    system->SetIntervalCallback([&](const core::IntervalRecord& record) {
      const auto& m = record.ForClass(1);
      if (m.satisfied && first_satisfied < 0) first_satisfied = record.index;
      if (record.index >= 5) {  // skip the cold-cache ramp
        satisfied += m.satisfied ? 1 : 0;
        ++counted;
        rt_goal.Add(m.observed_rt_ms);
        rt_nogoal.Add(record.ForClass(kNoGoalClass).observed_rt_ms);
      }
    });
    system->Start();
    system->RunIntervals(intervals);
    reporter.AddEvents(system->simulator().events_processed(),
                       system->simulator().Now());
    Outcome outcome;
    outcome.first_satisfied = first_satisfied;
    outcome.satisfied_frac =
        counted > 0 ? static_cast<double>(satisfied) / counted : 0.0;
    outcome.rt_goal = rt_goal.mean();
    outcome.rt_nogoal = rt_nogoal.mean();
    outcome.dedicated_bytes = system->TotalDedicatedBytes(1);
    return outcome;
  });

  std::printf(
      "controller,first_satisfied_interval,satisfied_frac,goal_rt_mean_ms,"
      "nogoal_rt_mean_ms,final_dedicated_bytes\n");
  for (int i = 0; i < kNumRows; ++i) {
    std::printf("%s,%d,%.2f,%.3f,%.3f,%llu\n", rows[i].name,
                outcomes[i].first_satisfied, outcomes[i].satisfied_frac,
                outcomes[i].rt_goal, outcomes[i].rt_nogoal,
                static_cast<unsigned long long>(outcomes[i].dedicated_bytes));
    reporter.AddMetric(std::string("satisfied_frac_") + rows[i].name,
                       outcomes[i].satisfied_frac);
  }
  std::fflush(stdout);
  reporter.Finish();
  return 0;
}

}  // namespace
}  // namespace memgoal::bench

int main(int argc, char** argv) { return memgoal::bench::Run(argc, argv); }
