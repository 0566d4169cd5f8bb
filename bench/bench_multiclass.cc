// Reproduces §7.4 (multiple goal classes):
//
// Part A — two goal classes with *disjoint* page sets and twice the cache
// per node: convergence speed of class 1 matches the single-class Table 2
// values for each skew.
//
// Part B — data-sharing sweep: class 2 draws a growing fraction of its
// accesses from class 1's pages. As sharing rises, class 2's dedicated
// buffer shrinks (it freerides on class 1's pool) and eventually reaches
// zero while its goal stays satisfied — the paper's Example 2.
//
// Usage: bench_multiclass [key=value ...] [--quick] [--threads=N]
//        (intervals=100 part=ab threads=0)

#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "baseline/static_controllers.h"
#include "bench/experiment.h"
#include "common/config.h"
#include "common/stats.h"

namespace memgoal::bench {
namespace {

Setup TwoClassSetup(uint64_t seed) {
  Setup setup;
  setup.seed = seed;
  setup.goal_classes = 2;
  // §7.4: "twice the amount of cache buffer memory at each node".
  setup.cache_bytes_per_node = 4ull << 20;
  return setup;
}

void PartA(const ConvergencePlan& plan, uint64_t seed0, bool quick,
           TrialRunner* runner, BenchReporter* reporter) {
  std::printf("# Part A: disjoint page sets, convergence of class 1\n");
  std::printf(
      "skew,mean_iterations,ci99_half_width,samples,censored,"
      "paper_single_class\n");
  const double skews[] = {0.0, 0.5, 1.0};
  const double paper[] = {1.84, 3.55, 3.95};
  const int num_rows = quick ? 1 : 3;
  for (int s = 0; s < num_rows; ++s) {
    Setup setup = TwoClassSetup(seed0 + 40 + 10 * static_cast<uint64_t>(s));
    setup.skew = skews[s];
    const ConvergenceResult result =
        MeasureConvergence(setup, plan, runner);
    std::printf("%.2f,%.3f,%.3f,%lld,%d,%.2f\n", skews[s],
                result.iterations.mean(),
                common::ConfidenceHalfWidth(result.iterations, 0.99),
                static_cast<long long>(result.iterations.count()),
                result.censored, paper[s]);
    std::fflush(stdout);
    reporter->AddEvents(result.events_processed, result.sim_time_ms);
    char metric[48];
    std::snprintf(metric, sizeof(metric), "parta_iterations_skew_%.2f",
                  skews[s]);
    reporter->AddMetric(metric, result.iterations.mean());
  }
}

// Steady-state response times of both goal classes under a reference
// partitioning (class 1 at 2/3, class 2 at 1/4 of each node's cache) with
// no sharing. Goals derived from this state are jointly satisfiable: class
// 1 needs its large pool, class 2 needs a moderate one — which freeriding
// can progressively replace as sharing rises.
std::pair<double, double> CalibratePartB(uint64_t seed) {
  Setup setup = TwoClassSetup(seed);
  std::unique_ptr<core::ClusterSystem> system = BuildSystem(setup);
  system->SetController(
      std::make_unique<baseline::NoPartitioningController>());
  system->Start();
  for (NodeId i = 0; i < setup.num_nodes; ++i) {
    system->ApplyAllocation(
        1, i, setup.cache_bytes_per_node * 2 / 3);
    system->ApplyAllocation(2, i, setup.cache_bytes_per_node / 4);
  }
  const int intervals = 18;
  system->RunIntervals(intervals);
  common::RunningStats rt_k1, rt_k2;
  const auto& records = system->metrics().records();
  for (size_t i = records.size() * 2 / 3; i < records.size(); ++i) {
    rt_k1.Add(records[i].ForClass(1).observed_rt_ms);
    rt_k2.Add(records[i].ForClass(2).observed_rt_ms);
  }
  return {rt_k1.mean(), rt_k2.mean()};
}

void PartB(int intervals, uint64_t seed0, bool quick, TrialRunner* runner,
           BenchReporter* reporter) {
  std::printf("\n# Part B: data-sharing sweep (class 2 shares class 1's "
              "pages)\n");

  const auto [rt_k1_ref, rt_k2_ref] = CalibratePartB(seed0 + 777);
  // Slight slack above the reference state: class 1's goal pins its pool
  // near 2/3, class 2's goal needs roughly the 1/4 pool — or, once sharing
  // is high, none at all (the paper's Example 2).
  const double goal_k1 = 1.10 * rt_k1_ref;
  const double goal_k2 = 1.25 * rt_k2_ref;
  std::printf("# goal_k1=%.3f ms (tight), goal_k2=%.3f ms\n", goal_k1,
              goal_k2);

  // Each sweep point is an independent trial on the runner's pool; results
  // are printed in sweep order after all trials joined.
  const std::vector<double> shares =
      quick ? std::vector<double>{0.0, 1.0}
            : std::vector<double>{0.0, 0.25, 0.5, 0.75, 1.0};
  struct ShareRow {
    double dedicated_k1 = 0.0;
    double dedicated_k2 = 0.0;
    double satisfied_k2_frac = 0.0;
    double rt_k2_ms = 0.0;
  };
  const std::vector<ShareRow> results = runner->Run(
      static_cast<int>(shares.size()), [&](int trial) {
        Setup setup = TwoClassSetup(seed0);
        setup.share_prob = shares[static_cast<size_t>(trial)];
        std::unique_ptr<core::ClusterSystem> system = BuildSystem(setup);
        system->SetGoal(1, goal_k1);
        system->SetGoal(2, goal_k2);

        common::RunningStats dedicated_k1, dedicated_k2, rt_k2;
        int satisfied_k2 = 0, counted = 0;
        system->SetIntervalCallback([&](const core::IntervalRecord& record) {
          if (record.index < intervals / 2) return;  // settle first
          dedicated_k1.Add(static_cast<double>(
              record.ForClass(1).dedicated_bytes));
          dedicated_k2.Add(static_cast<double>(
              record.ForClass(2).dedicated_bytes));
          rt_k2.Add(record.ForClass(2).observed_rt_ms);
          satisfied_k2 += record.ForClass(2).satisfied ? 1 : 0;
          ++counted;
        });
        system->Start();
        system->RunIntervals(intervals);
        reporter->AddEvents(system->simulator().events_processed(),
                            system->simulator().Now());
        ShareRow row;
        row.dedicated_k1 = dedicated_k1.mean();
        row.dedicated_k2 = dedicated_k2.mean();
        row.satisfied_k2_frac =
            counted > 0 ? static_cast<double>(satisfied_k2) / counted : 0.0;
        row.rt_k2_ms = rt_k2.mean();
        return row;
      });

  std::printf(
      "share_prob,dedicated_k1_bytes,dedicated_k2_bytes,satisfied_k2_frac,"
      "rt_k2_ms\n");
  for (size_t i = 0; i < shares.size(); ++i) {
    std::printf("%.2f,%.0f,%.0f,%.2f,%.3f\n", shares[i],
                results[i].dedicated_k1, results[i].dedicated_k2,
                results[i].satisfied_k2_frac, results[i].rt_k2_ms);
    char metric[48];
    std::snprintf(metric, sizeof(metric), "partb_rt_k2_share_%.2f",
                  shares[i]);
    reporter->AddMetric(metric, results[i].rt_k2_ms);
  }
  std::fflush(stdout);
}

int Run(int argc, char** argv) {
  common::Config args;
  if (!args.ParseArgs(argc, argv)) {
    std::fprintf(stderr, "%s\n", args.error().c_str());
    return 1;
  }
  const bool quick = args.GetBool("quick", false);
  const int intervals = static_cast<int>(
      args.GetInt("intervals", quick ? 24 : 100, common::kIntCount));
  const int max_runs =
      static_cast<int>(args.GetInt("max_runs", quick ? 2 : 4));
  const uint64_t seed0 = static_cast<uint64_t>(args.GetInt("seed", 1));
  const std::string part = args.GetString("part", "ab");
  BenchReporter reporter("multiclass", &args);
  if (!args.RejectUnknownFlags()) {
    std::fprintf(stderr, "%s\n", args.error().c_str());
    return 1;
  }
  TrialRunner runner(reporter.threads());
  runner.SetProfiler(reporter.profiler());
  reporter.AddSetup("seed", static_cast<double>(seed0));
  reporter.AddSetup("intervals", intervals);
  reporter.AddSetup("part", part);

  ConvergencePlan plan;
  plan.max_runs = max_runs;
  plan.intervals_per_run = intervals;
  if (quick) plan.calibration_intervals = 12;

  if (part.find('a') != std::string::npos) {
    PartA(plan, seed0, quick, &runner, &reporter);
  }
  if (part.find('b') != std::string::npos) {
    PartB(intervals / 2 * 2, seed0, quick, &runner, &reporter);
  }
  reporter.Finish();
  return 0;
}

}  // namespace
}  // namespace memgoal::bench

int main(int argc, char** argv) { return memgoal::bench::Run(argc, argv); }
