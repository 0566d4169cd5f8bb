// Read-write workload on the goal-managed NOW: the §3 update story in
// action. A stream of update transactions (strict 2PL with wait-die, WAL
// group commit, 2PC for remotely-homed pages, commit-time invalidation)
// runs against the goal class's pages while the goal-oriented partitioning
// defends the read workload's response-time goal.
//
// Usage: update_workload [key=value ...]
//   (intervals=30 goal_ms=6 txn_interarrival_ms=150 writes=1 reads=3)

#include <cstdio>

#include "common/config.h"
#include "core/goal_controller.h"
#include "core/system.h"
#include "net/network.h"
#include "txn/transaction.h"
#include "txn/update_source.h"

namespace {

using memgoal::ClassId;
using memgoal::kNoGoalClass;

}  // namespace

int main(int argc, char** argv) {
  memgoal::common::Config args;
  if (!args.ParseArgs(argc, argv)) {
    std::fprintf(stderr, "%s\n", args.error().c_str());
    return 1;
  }

  memgoal::core::SystemConfig config;
  config.num_nodes = 3;
  config.cache_bytes_per_node = 2ull << 20;
  config.db_pages = 2000;
  config.disk.avg_seek_ms = 4.0;
  config.disk.rotation_ms = 6.0;
  config.disk.transfer_mb_per_s = 20.0;
  config.seed = static_cast<uint64_t>(args.GetInt("seed", 1));

  memgoal::core::ClusterSystem system(config);

  memgoal::workload::ClassSpec goal_class;
  goal_class.id = 1;
  goal_class.goal_rt_ms = args.GetDouble("goal_ms", 6.0);
  goal_class.accesses_per_op = 4;
  goal_class.mean_interarrival_ms = 40.0;
  goal_class.pages = {0, 1000};
  system.AddClass(goal_class);

  memgoal::workload::ClassSpec background;
  background.id = kNoGoalClass;
  background.accesses_per_op = 4;
  background.mean_interarrival_ms = 40.0;
  background.pages = {1000, 2000};
  system.AddClass(background);

  memgoal::txn::TransactionManager manager(&system);
  memgoal::txn::UpdateSource::Params params;
  params.klass = 1;
  params.mean_interarrival_ms = args.GetDouble("txn_interarrival_ms", 150.0);
  params.reads_per_txn = static_cast<int>(args.GetInt("reads", 3));
  params.writes_per_txn = static_cast<int>(args.GetInt("writes", 1));
  memgoal::txn::UpdateSource updates(&system, &manager, params);
  const int intervals = static_cast<int>(
      args.GetInt("intervals", 30, memgoal::common::kIntCount));
  if (!args.RejectUnknownFlags()) {
    std::fprintf(stderr, "%s\n", args.error().c_str());
    return 1;
  }

  system.Start();
  updates.Start();
  system.RunIntervals(intervals);

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
              goal_class.goal_rt_ms.value(), rt_sum / counted,
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
  return 0;
}
