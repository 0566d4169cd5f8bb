// Drives one hedged remote fetch step by step on a 3-node cluster whose
// workload never starts. Page 0 (homed at node 0) is cached at nodes 1 and
// 2, whose health scores are re-anchored so the replica ranking is [1, 2];
// degradation episodes slow the holders, and one no-goal access at node 0
// is checked against the timeline the default network implies:
//
//   control message (64 B at 100 Mb/s)   0.00512 ms on the wire
//   page message (4096 B + 64 B header)  0.3328 ms on the wire
//   latency                               0.05 ms x the slower endpoint's
//                                         slowdown factor
//   phase deadline                        crash_detect_timeout_ms = 2 ms
//
// Node 0 is the page's home, so each attempt asks its holder directly.

#include <gtest/gtest.h>

#include <memory>

#include "core/system.h"
#include "net/directory.h"
#include "obs/latency_budget.h"
#include "workload/spec.h"

namespace memgoal::core {
namespace {

constexpr uint32_t kPages = 30;
constexpr PageId kPage = 0;  // homed at node 0
constexpr double kTolMs = 1e-9;

SystemConfig FetchConfig() {
  SystemConfig config;
  config.num_nodes = 3;
  config.db_pages = kPages;
  return config;
}

// A cluster with both classes registered, nothing started, and kPage cached
// at nodes 1 and 2 with their health scores at the healthy baseline.
class FetchCluster {
 public:
  FetchCluster() : system_(FetchConfig()) {
    workload::ClassSpec goal;
    goal.id = 1;
    goal.goal_rt_ms = 5.0;
    goal.pages = {0, kPages};
    system_.AddClass(goal);
    workload::ClassSpec nogoal;
    nogoal.id = kNoGoalClass;
    nogoal.pages = {0, kPages};
    system_.AddClass(nogoal);
    for (NodeId holder : {NodeId{1}, NodeId{2}}) {
      system_.simulator().Spawn(Access(holder, nullptr));
      system_.simulator().Run();
    }
    // Node 2 fetched its copy from node 1, a latency sample of node 1.
    system_.ResetHealth(1);
    system_.ResetHealth(2);
  }

  ClusterSystem& system() { return system_; }
  sim::Simulator& simulator() { return system_.simulator(); }
  double CostOf(NodeId node) { return system_.directory().NodeCost(node); }

  // Starts node 0's probed access of kPage; Run/RunUntil drive it.
  void StartAccess() { simulator().Spawn(Access(0, &probe_)); }

  bool done() const { return done_; }
  StorageLevel level() const { return level_; }
  // Health scores of the holders at the instant the access returned.
  double cost_at_return(NodeId node) const { return cost_at_return_[node]; }
  double phase_ms(obs::BudgetPhase phase) const {
    return budget_.phase_ms[static_cast<int>(phase)];
  }

 private:
  sim::Task<void> Access(NodeId node, obs::RequestProbe* probe) {
    const StorageLevel level =
        co_await system_.node(node).AccessPage(kNoGoalClass, kPage, probe);
    if (probe == nullptr) co_return;
    level_ = level;
    done_ = true;
    for (NodeId i = 0; i < 3; ++i) cost_at_return_[i] = CostOf(i);
  }

  ClusterSystem system_;
  obs::RequestBudget budget_;
  obs::RequestProbe probe_{&budget_, /*tracer=*/nullptr, /*pid=*/0};
  bool done_ = false;
  StorageLevel level_ = StorageLevel::kLocalBuffer;
  double cost_at_return_[3] = {};
};

TEST(FetchPathTest, FixtureRanksBothHoldersAtBaseline) {
  FetchCluster cluster;
  net::PageDirectory::CopyList ranked;
  cluster.system().directory().RankedCopies(kPage, 0, &ranked);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0], 1u);
  EXPECT_EQ(ranked[1], 2u);
  EXPECT_EQ(cluster.CostOf(1), cluster.CostOf(2));
}

TEST(FetchPathTest, HedgeWinsAgainstSlowPrimary) {
  FetchCluster cluster;
  const double baseline = cluster.CostOf(1);
  ASSERT_TRUE(cluster.system().fault_injector().Degrade(1, 50.0));
  cluster.StartAccess();
  cluster.simulator().Run();

  ASSERT_TRUE(cluster.done());
  EXPECT_EQ(cluster.level(), StorageLevel::kRemoteBuffer);
  // Node 1's control message alone takes 0.00512 + 2.5 ms, so the 2 ms
  // deadline hedges to node 2: 2 + (0.00512 + 0.05) + (0.3328 + 0.05).
  EXPECT_NEAR(cluster.phase_ms(obs::BudgetPhase::kFetchWait), 2.43792,
              kTolMs);
  EXPECT_EQ(cluster.phase_ms(obs::BudgetPhase::kBackoff), 0.0);
  EXPECT_EQ(cluster.system().counters(kNoGoalClass).fetch_fallbacks, 0u);

  // The healthy baseline is control + page message + the I/O setup CPU.
  EXPECT_NEAR(baseline, 0.48792, kTolMs);
  // The timeout is censored at the deadline: EWMA step (alpha 0.2) toward
  // 2 x max(2 ms, score).
  EXPECT_NEAR(cluster.cost_at_return(1), 1.190336, kTolMs);
  // Node 2's delivery is a sample of 2.43792 ms.
  EXPECT_NEAR(cluster.cost_at_return(2), 0.87792, kTolMs);
  EXPECT_NEAR(cluster.CostOf(2), 0.87792, kTolMs);
  // Node 1's late page lands at 2.50512 + 0.3328 + 2.5 = 5.33792 ms and is
  // still a latency sample of node 1.
  EXPECT_NEAR(cluster.CostOf(1), 2.0198528, kTolMs);
}

TEST(FetchPathTest, LatePrimaryWinsDuringHedge) {
  FetchCluster cluster;
  ASSERT_TRUE(cluster.system().fault_injector().Degrade(1, 30.0));
  ASSERT_TRUE(cluster.system().fault_injector().Degrade(2, 40.0));
  cluster.StartAccess();
  cluster.simulator().Run();

  ASSERT_TRUE(cluster.done());
  EXPECT_EQ(cluster.level(), StorageLevel::kRemoteBuffer);
  // Node 1's page needs (0.00512 + 1.5) + (0.3328 + 1.5) = 3.33792 ms: past
  // the first deadline, before node 2's control message lands at 4.00512.
  EXPECT_NEAR(cluster.phase_ms(obs::BudgetPhase::kFetchWait), 3.33792,
              kTolMs);
  EXPECT_EQ(cluster.phase_ms(obs::BudgetPhase::kBackoff), 0.0);
  EXPECT_EQ(cluster.system().counters(kNoGoalClass).fetch_fallbacks, 0u);
}

TEST(FetchPathTest, BothHoldersSilentFallBackToDisk) {
  FetchCluster cluster;
  ASSERT_TRUE(cluster.system().fault_injector().Degrade(1, 50.0));
  ASSERT_TRUE(cluster.system().fault_injector().Degrade(2, 50.0));
  cluster.StartAccess();
  cluster.simulator().Run();

  ASSERT_TRUE(cluster.done());
  // Node 0 is the home: after both deadlines and one backoff, its own disk.
  EXPECT_EQ(cluster.level(), StorageLevel::kLocalDisk);
  EXPECT_NEAR(cluster.phase_ms(obs::BudgetPhase::kFetchWait), 4.0, kTolMs);
  EXPECT_NEAR(cluster.phase_ms(obs::BudgetPhase::kBackoff), 1.0, kTolMs);
  EXPECT_EQ(cluster.system().counters(kNoGoalClass).fetch_fallbacks, 1u);
}

TEST(FetchPathTest, TeardownMidPhaseFreesTheWait) {
  // The requester is suspended in phase 0 with its deadline queued (and the
  // control message to node 1 in flight); destroying the cluster must free
  // the fetch state, the attempt and the deadline without running them.
  auto cluster = std::make_unique<FetchCluster>();
  ASSERT_TRUE(cluster->system().fault_injector().Degrade(1, 50.0));
  cluster->StartAccess();
  cluster->simulator().RunUntil(cluster->simulator().Now() + 1.0);
  EXPECT_FALSE(cluster->done());
  EXPECT_GT(cluster->simulator().pending_events(), 0u);
  cluster.reset();
}

}  // namespace
}  // namespace memgoal::core
