// Reproduces Figure 2 (§7.2, base experiment): one goal class plus the
// no-goal class on a 3-node NOW; whenever the goal has been satisfied for
// four consecutive observation intervals a new random goal is drawn from
// the satisfiable band, so the trace shows the feedback loop re-converging
// over and over. Prints the figure's three series (observed response time,
// response-time goal, total dedicated cache) as CSV.
//
// Usage: bench_fig2_base [key=value ...] [--quick] [--threads=N]
//                        [--profile] [--bench-json=DIR]
//        (intervals=80 seed=1 skew=0.0 threads=0)

#include <cstdio>

#include "bench/experiment.h"
#include "common/config.h"

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
  setup.skew = args.GetDouble("skew", 0.0);
  const bool quick = args.GetBool("quick", false);
  const int intervals = static_cast<int>(
      args.GetInt("intervals", quick ? 24 : 80, common::kIntCount));
  BenchReporter reporter("fig2_base", &args);
  if (!args.RejectUnknownFlags()) {
    std::fprintf(stderr, "%s\n", args.error().c_str());
    return 1;
  }
  TrialRunner runner(reporter.threads());
  runner.SetProfiler(reporter.profiler());
  reporter.AddSetup("seed", static_cast<double>(setup.seed));
  reporter.AddSetup("skew", setup.skew);
  reporter.AddSetup("intervals", intervals);

  std::fprintf(stderr, "# fig2: calibrating goal band...\n");
  const GoalBand band = CalibrateGoalBand(setup, 1, &runner, quick ? 12 : 18);
  const double goal_lo = band.lo;
  const double goal_hi = band.hi;
  std::fprintf(stderr, "# goal band [%.3f, %.3f] ms\n", goal_lo, goal_hi);

  std::unique_ptr<core::ClusterSystem> system = BuildSystem(setup);
  GoalChangeDriver driver(system.get(), 1, goal_lo, goal_hi, setup.seed + 7);

  std::printf(
      "interval,observed_rt_ms,goal_rt_ms,dedicated_bytes,satisfied,"
      "nogoal_rt_ms\n");
  system->SetIntervalCallback([&](const core::IntervalRecord& record) {
    driver.OnInterval(record);
    const auto& m = record.ForClass(1);
    const auto& ng = record.ForClass(kNoGoalClass);
    std::printf("%d,%.4f,%.4f,%llu,%d,%.4f\n", record.index, m.observed_rt_ms,
                m.goal_rt_ms,
                static_cast<unsigned long long>(m.dedicated_bytes),
                m.satisfied ? 1 : 0, ng.observed_rt_ms);
  });
  system->Start();
  system->RunIntervals(intervals);

  std::fprintf(stderr,
               "# goals completed=%d, mean convergence=%.2f intervals "
               "(n=%lld, censored=%d)\n",
               driver.goals_completed(), driver.iterations().mean(),
               static_cast<long long>(driver.iterations().count()),
               driver.censored());
  reporter.AddEvents(system->simulator().events_processed(),
                     system->simulator().Now());
  reporter.AddMetric("goal_lo_ms", goal_lo);
  reporter.AddMetric("goal_hi_ms", goal_hi);
  reporter.AddMetric("goals_completed", driver.goals_completed());
  reporter.AddMetric("mean_convergence_iterations",
                     driver.iterations().mean());
  reporter.Finish();
  return 0;
}

}  // namespace
}  // namespace memgoal::bench

int main(int argc, char** argv) { return memgoal::bench::Run(argc, argv); }
