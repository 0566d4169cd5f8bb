// Reproduces Table 2 (§7.3): convergence speed of the feedback loop —
// mean observation intervals from a goal change to first satisfaction —
// as a function of the Zipf access skew theta. Goals are drawn from the
// paper's satisfiable band [RT(2/3 cache dedicated), RT(1/3 dedicated)],
// and runs are pooled until the 99% confidence half-width of the mean
// drops below 1 iteration.
//
// Paper's values: theta  0     0.25  0.5   0.75  1
//                 iters  1.84  2.41  3.55  3.88  3.95
//
// Usage: bench_table2_skew [key=value ...] [--quick] [--threads=N]
//        (intervals=100 max_runs=5 threads=0; threads=0 uses all cores)

#include <cstdio>
#include <vector>

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
      args.GetInt("intervals", quick ? 30 : 100, common::kIntCount));
  const int max_runs = static_cast<int>(args.GetInt("max_runs", quick ? 2 : 5));
  const uint64_t seed0 = static_cast<uint64_t>(args.GetInt("seed", 1));
  BenchReporter reporter("table2_skew", &args);
  if (!args.RejectUnknownFlags()) {
    std::fprintf(stderr, "%s\n", args.error().c_str());
    return 1;
  }
  TrialRunner runner(reporter.threads());
  runner.SetProfiler(reporter.profiler());
  reporter.AddSetup("seed", static_cast<double>(seed0));
  reporter.AddSetup("intervals", intervals);
  reporter.AddSetup("max_runs", max_runs);

  const double paper[] = {1.84, 2.41, 3.55, 3.88, 3.95};
  const double skews[] = {0.0, 0.25, 0.5, 0.75, 1.0};
  // Quick mode keeps the endpoints of the sweep.
  const std::vector<int> rows =
      quick ? std::vector<int>{0, 4} : std::vector<int>{0, 1, 2, 3, 4};

  ConvergencePlan plan;
  plan.max_runs = max_runs;
  plan.intervals_per_run = intervals;
  if (quick) plan.calibration_intervals = 12;

  std::printf(
      "skew,mean_iterations,ci99_half_width,samples,censored,runs,"
      "goal_lo_ms,goal_hi_ms,paper_iterations\n");
  for (int s : rows) {
    Setup setup;
    setup.skew = skews[s];
    // One master seed per row; the row's trials derive their streams from
    // it by trial index.
    setup.seed = seed0 + 100 * static_cast<uint64_t>(s);
    const ConvergenceResult result =
        MeasureConvergence(setup, plan, &runner);
    std::printf("%.2f,%.3f,%.3f,%lld,%d,%d,%.3f,%.3f,%.2f\n", skews[s],
                result.iterations.mean(),
                common::ConfidenceHalfWidth(result.iterations, 0.99),
                static_cast<long long>(result.iterations.count()),
                result.censored, result.runs_used, result.goal_lo,
                result.goal_hi, paper[s]);
    std::fflush(stdout);
    reporter.AddEvents(result.events_processed, result.sim_time_ms);
    char metric[32];
    std::snprintf(metric, sizeof(metric), "iterations_skew_%.2f", skews[s]);
    reporter.AddMetric(metric, result.iterations.mean());
  }
  reporter.Finish();
  return 0;
}

}  // namespace
}  // namespace memgoal::bench

int main(int argc, char** argv) { return memgoal::bench::Run(argc, argv); }
