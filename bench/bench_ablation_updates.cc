// Ablation A5 — update intensity vs the read workload's goal (the §3 update
// model layered under the §4/§5 partitioning): as the update-transaction
// rate on the goal class's pages rises, commit-time invalidations churn the
// dedicated pools and WAL/page forces load the disks; the feedback loop has
// to defend the goal with more dedicated memory until it no longer can.
//
// Usage: bench_ablation_updates [key=value ...] [--quick] [--threads=N]
//        (intervals=40 seed=1 threads=0)

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/experiment.h"
#include "common/config.h"
#include "common/stats.h"
#include "txn/transaction.h"
#include "txn/update_source.h"

namespace memgoal::bench {
namespace {

int Main(int argc, char** argv) {
  common::Config args;
  if (!args.ParseArgs(argc, argv)) {
    std::fprintf(stderr, "%s\n", args.error().c_str());
    return 1;
  }
  const bool quick = args.GetBool("quick", false);
  const int intervals = static_cast<int>(
      args.GetInt("intervals", quick ? 16 : 40, common::kIntCount));
  const auto seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  BenchReporter reporter("ablation_updates", &args);
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
  std::printf("# goal %.3f ms (read-only band [%.3f, %.3f])\n", goal,
              band.lo, band.hi);

  // 0 = no updates (read-only reference row). One trial per rate on the
  // runner's pool.
  const std::vector<double> interarrivals =
      quick ? std::vector<double>{0.0, 200.0}
            : std::vector<double>{0.0, 800.0, 400.0, 200.0, 100.0};
  struct UpdateRow {
    uint64_t committed = 0;
    double txn_latency_ms = 0.0;
    double rt = 0.0;
    double satisfied_frac = 0.0;
    double dedicated_kb = 0.0;
    uint64_t invalidations = 0;
    uint64_t deaths = 0;
  };
  const std::vector<UpdateRow> rows = runner.Run(
      static_cast<int>(interarrivals.size()), [&](int trial) {
        const double interarrival = interarrivals[static_cast<size_t>(trial)];
        Setup setup;
        setup.seed = seed;
        std::unique_ptr<core::ClusterSystem> system = BuildSystem(setup);
        system->SetGoal(1, goal);

        txn::TransactionManager manager(system.get());
        std::unique_ptr<txn::UpdateSource> updates;
        if (interarrival > 0.0) {
          txn::UpdateSource::Params params;
          params.klass = 1;
          params.mean_interarrival_ms = interarrival;
          params.reads_per_txn = 3;
          params.writes_per_txn = 1;
          updates = std::make_unique<txn::UpdateSource>(system.get(),
                                                        &manager, params);
        }

        common::RunningStats rt, dedicated;
        int satisfied = 0, counted = 0;
        system->SetIntervalCallback([&](const core::IntervalRecord& record) {
          if (record.index < intervals / 2) return;
          const auto& m = record.ForClass(1);
          rt.Add(m.observed_rt_ms);
          dedicated.Add(static_cast<double>(m.dedicated_bytes));
          satisfied += m.satisfied ? 1 : 0;
          ++counted;
        });
        system->Start();
        if (updates) updates->Start();
        system->RunIntervals(intervals);
        reporter.AddEvents(system->simulator().events_processed(),
                           system->simulator().Now());

        UpdateRow row;
        row.committed = updates ? updates->committed() : 0;
        row.txn_latency_ms =
            updates ? updates->commit_latency_ms().mean() : 0.0;
        row.rt = rt.mean();
        row.satisfied_frac =
            counted > 0 ? static_cast<double>(satisfied) / counted : 0.0;
        row.dedicated_kb = dedicated.mean() / 1024.0;
        row.invalidations = manager.stats().pages_invalidated;
        row.deaths = manager.stats().deaths;
        return row;
      });

  std::printf(
      "txn_interarrival_ms,committed_txns,txn_latency_ms,goal_rt_ms,"
      "satisfied_frac,dedicated_KB,invalidations,deaths\n");
  for (size_t i = 0; i < interarrivals.size(); ++i) {
    const UpdateRow& row = rows[i];
    std::printf("%.0f,%llu,%.3f,%.3f,%.2f,%.0f,%llu,%llu\n", interarrivals[i],
                static_cast<unsigned long long>(row.committed),
                row.txn_latency_ms, row.rt, row.satisfied_frac,
                row.dedicated_kb,
                static_cast<unsigned long long>(row.invalidations),
                static_cast<unsigned long long>(row.deaths));
    char metric[48];
    std::snprintf(metric, sizeof(metric), "goal_rt_ms_interarrival_%.0f",
                  interarrivals[i]);
    reporter.AddMetric(metric, row.rt);
  }
  std::fflush(stdout);
  reporter.Finish();
  return 0;
}

}  // namespace
}  // namespace memgoal::bench

int main(int argc, char** argv) { return memgoal::bench::Main(argc, argv); }
