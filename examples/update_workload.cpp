// Read-write workload on the goal-managed NOW: the §3 update story in
// action. A stream of update transactions (strict 2PL with wait-die, WAL
// group commit, 2PC for remotely-homed pages, commit-time invalidation)
// runs against the goal class's pages while the goal-oriented partitioning
// defends the read workload's response-time goal. The cluster is
// tools/scenarios/base.conf with a 6 ms goal, run for 30 intervals.
//
// Usage: update_workload [key=value ...]   (any scenario key, as
//   memgoal_sim, plus the update stream's txn_interarrival_ms=150 reads=3
//   writes=1)

#include <cstdio>
#include <optional>

#include "common/config.h"
#include "core/scenario.h"
#include "core/system.h"
#include "example_scenario.h"
#include "txn/transaction.h"
#include "txn/update_source.h"

int main(int argc, char** argv) {
  memgoal::common::Config config;
  const std::optional<memgoal::core::Scenario> scenario =
      memgoal::examples::LoadExampleScenario(
          config, argc, argv,
          {.file = "base.conf",
           .deviations = "class1_goal_ms = 6\nintervals = 30\n",
           .min_intervals = 1});
  if (!scenario) return 1;
  memgoal::txn::UpdateSource::Params params;
  params.klass = 1;
  params.mean_interarrival_ms = config.GetDouble(
      "txn_interarrival_ms", 150.0, memgoal::common::NumberRange::Above(0.0));
  params.reads_per_txn = static_cast<int>(
      config.GetInt("reads", 3, memgoal::common::kIntCount));
  params.writes_per_txn = static_cast<int>(
      config.GetInt("writes", 1, memgoal::common::kIntCount));
  if (!memgoal::examples::RejectUnknownFlags(config)) return 1;
  if (params.reads_per_txn + params.writes_per_txn == 0) {
    std::fprintf(stderr, "error: reads + writes must be >= 1, got 0\n");
    return 1;
  }

  memgoal::core::ClusterSystem system(scenario->system);
  for (const memgoal::workload::ClassSpec& spec : scenario->classes) {
    system.AddClass(spec);
  }
  memgoal::txn::TransactionManager manager(&system);
  memgoal::txn::UpdateSource updates(&system, &manager, params);

  system.Start();
  updates.Start();
  system.RunIntervals(scenario->intervals);

  const auto& records = system.metrics().records();
  double rt_sum = 0.0;
  int satisfied = 0, counted = 0;
  for (size_t i = records.size() / 2; i < records.size(); ++i) {
    const auto& m = records[i].ForClass(1);
    rt_sum += m.observed_rt_ms;
    satisfied += m.satisfied ? 1 : 0;
    ++counted;
  }

  const auto& txn_stats = manager.stats();
  std::printf("read workload:  goal=%.2f ms, observed=%.3f ms, satisfied "
              "%.0f%% of intervals, dedicated=%llu KB\n",
              system.spec(1).goal_rt_ms.value(), rt_sum / counted,
              100.0 * satisfied / counted,
              static_cast<unsigned long long>(
                  system.TotalDedicatedBytes(1) / 1024));
  std::printf("update stream:  committed=%llu (latency %.3f ms mean), "
              "failed=%llu\n",
              static_cast<unsigned long long>(updates.committed()),
              updates.commit_latency_ms().mean(),
              static_cast<unsigned long long>(updates.failed()));
  std::printf("  wait-die deaths=%llu, 2PC commits=%llu, invalidated "
              "copies=%llu\n",
              static_cast<unsigned long long>(txn_stats.deaths),
              static_cast<unsigned long long>(txn_stats.two_phase_commits),
              static_cast<unsigned long long>(txn_stats.pages_invalidated));
  std::printf("  lock grants=%llu waits=%llu, WAL forces (node0)=%llu\n",
              static_cast<unsigned long long>(
                  manager.lock_manager().stats().grants),
              static_cast<unsigned long long>(
                  manager.lock_manager().stats().waits),
              static_cast<unsigned long long>(manager.wal(0).forces()));
  memgoal::examples::WarnUnusedKeys(config);
  return 0;
}
