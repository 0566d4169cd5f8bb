// Failure injection and operational-change tests for the goal-oriented
// controller: coordinator migration (§5) and best-effort message loss.

#include <gtest/gtest.h>

#include <vector>

#include "core/goal_controller.h"
#include "core/system.h"
#include "net/network.h"
#include "workload/spec.h"

namespace memgoal::core {
namespace {

SystemConfig TestConfig(uint64_t seed = 1) {
  SystemConfig config;
  config.num_nodes = 3;
  config.cache_bytes_per_node = 64 * 4096;
  config.db_pages = 200;
  config.observation_interval_ms = 5000.0;
  config.seed = seed;
  return config;
}

workload::ClassSpec GoalClass(double goal_ms) {
  workload::ClassSpec spec;
  spec.id = 1;
  spec.goal_rt_ms = goal_ms;
  spec.accesses_per_op = 4;
  spec.mean_interarrival_ms = 50.0;
  spec.pages = {0, 100};
  return spec;
}

workload::ClassSpec NoGoalClass() {
  workload::ClassSpec spec;
  spec.id = kNoGoalClass;
  spec.accesses_per_op = 4;
  spec.mean_interarrival_ms = 50.0;
  spec.pages = {100, 200};
  return spec;
}

int SatisfiedInTail(const ClusterSystem& system, int tail) {
  const auto& records = system.metrics().records();
  int satisfied = 0;
  for (size_t i = records.size() - static_cast<size_t>(tail);
       i < records.size(); ++i) {
    satisfied += records[i].ForClass(1).satisfied ? 1 : 0;
  }
  return satisfied;
}

TEST(RobustnessTest, FeedbackSurvivesProtocolMessageLoss) {
  // 20% of reports/commands/acks/hints vanish; the feedback design must
  // still converge to the goal (stale views are repaired by later rounds).
  SystemConfig config = TestConfig(33);
  config.network.loss_probability = 0.2;
  ClusterSystem system(config);
  system.AddClass(GoalClass(3.5));
  system.AddClass(NoGoalClass());
  system.Start();
  system.RunIntervals(30);

  EXPECT_GT(system.network().messages_dropped(
                net::TrafficClass::kPartitionProtocol) +
                system.network().messages_dropped(
                    net::TrafficClass::kHeatHint),
            0u);
  EXPECT_GE(SatisfiedInTail(system, 10), 4);
}

TEST(RobustnessTest, ReliableCategoriesNeverDrop) {
  SystemConfig config = TestConfig(34);
  config.network.loss_probability = 0.5;
  ClusterSystem system(config);
  system.AddClass(GoalClass(1000.0));
  system.AddClass(NoGoalClass());
  system.Start();
  system.RunIntervals(3);
  EXPECT_EQ(system.network().messages_dropped(net::TrafficClass::kControl),
            0u);
  EXPECT_EQ(system.network().messages_dropped(net::TrafficClass::kPage), 0u);
  EXPECT_GT(system.network().messages_sent(net::TrafficClass::kPage), 0u);
}

TEST(RobustnessTest, LossFractionMatchesConfiguredProbability) {
  SystemConfig config = TestConfig(35);
  config.network.loss_probability = 0.3;
  ClusterSystem system(config);
  system.AddClass(GoalClass(2.0));  // active goal: plenty of protocol traffic
  system.AddClass(NoGoalClass());
  system.Start();
  system.RunIntervals(30);
  const auto& network = system.network();
  const uint64_t sent =
      network.messages_sent(net::TrafficClass::kHeatHint) +
      network.messages_sent(net::TrafficClass::kPartitionProtocol);
  const uint64_t dropped =
      network.messages_dropped(net::TrafficClass::kHeatHint) +
      network.messages_dropped(net::TrafficClass::kPartitionProtocol);
  ASSERT_GT(sent, 500u);
  const double fraction =
      static_cast<double>(dropped) / static_cast<double>(sent);
  EXPECT_NEAR(fraction, 0.3, 0.05);
}

TEST(FaultToleranceTest, CrashDuringWarmupStillConverges) {
  // Node 2 dies at 7.5 s — while the coordinator is still collecting its
  // first measure points — and returns at 40 s. Both transitions reset the
  // store; the controller must re-warm-up and still reach the goal.
  SystemConfig config = TestConfig(41);
  config.faults.script = {{7500.0, 2, /*crash=*/true},
                          {40000.0, 2, /*crash=*/false}};
  ClusterSystem system(config);
  system.AddClass(GoalClass(3.5));
  system.AddClass(NoGoalClass());
  system.Start();
  system.RunIntervals(30);

  const auto& controller =
      dynamic_cast<GoalOrientedController&>(system.controller());
  EXPECT_EQ(controller.stats().crashes_observed, 1u);
  EXPECT_EQ(controller.stats().recoveries_observed, 1u);
  // Crash and recovery each force a measurement restart.
  EXPECT_GE(controller.stats().store_resets, 2u);
  EXPECT_EQ(system.fault_injector().stats().crashes, 1u);
  EXPECT_GE(SatisfiedInTail(system, 10), 4);
}

TEST(FaultToleranceTest, CoordinatorCrashFailsOverToLowestLiveNode) {
  ClusterSystem system(TestConfig(42));
  system.AddClass(GoalClass(3.5));
  system.AddClass(NoGoalClass());
  system.Start();
  system.RunIntervals(12);
  auto& controller =
      dynamic_cast<GoalOrientedController&>(system.controller());
  ASSERT_EQ(controller.coordinator_node(1), 0u);

  // The coordinator's own node dies: its views and measure points lived in
  // that memory, so the class re-homes on the lowest live node with a fresh
  // store.
  ASSERT_TRUE(system.fault_injector().Crash(0));
  EXPECT_EQ(controller.coordinator_node(1), 1u);
  EXPECT_EQ(controller.stats().coordinator_failovers, 1u);
  EXPECT_FALSE(controller.measure_store(1).ready());

  // Control keeps running from the new home during the outage: operations
  // on the surviving nodes complete in every interval.
  system.RunIntervals(8);
  const auto& records = system.metrics().records();
  for (size_t i = 12; i < records.size(); ++i) {
    EXPECT_EQ(records[i].nodes_up, 2u);
    EXPECT_GT(records[i].ForClass(1).ops_completed, 0u);
    EXPECT_GT(records[i].ForClass(kNoGoalClass).ops_completed, 0u);
  }

  ASSERT_TRUE(system.fault_injector().Recover(0));
  system.RunIntervals(20);
  // The coordinator stays at its failover home, and the loop re-converges
  // over the full node set.
  EXPECT_EQ(controller.coordinator_node(1), 1u);
  EXPECT_EQ(system.metrics().back().nodes_up, 3u);
  EXPECT_GE(SatisfiedInTail(system, 10), 4);
}

TEST(FaultToleranceTest, RecoveryShrinksThenRestoresActiveNodeSet) {
  ClusterSystem system(TestConfig(43));
  system.AddClass(GoalClass(3.5));
  system.AddClass(NoGoalClass());
  system.Start();
  system.RunIntervals(10);
  auto& controller =
      dynamic_cast<GoalOrientedController&>(system.controller());

  ASSERT_TRUE(system.fault_injector().Crash(2));
  // The fit shrinks to the live subspace {0, 1}...
  EXPECT_EQ(controller.measure_store(1).active_nodes(),
            (std::vector<size_t>{0, 1}));
  const uint64_t resets_after_crash = controller.stats().store_resets;
  EXPECT_GE(resets_after_crash, 1u);

  // ...and with 2 live nodes it needs only 3 points to become ready again.
  system.RunIntervals(10);
  const uint64_t warmups_during_outage = controller.stats().warmup_steps;

  ASSERT_TRUE(system.fault_injector().Recover(2));
  // Full dimensionality restored, store reset once more, warm-up re-entered.
  EXPECT_EQ(controller.measure_store(1).active_nodes(),
            (std::vector<size_t>{0, 1, 2}));
  EXPECT_GT(controller.stats().store_resets, resets_after_crash);
  EXPECT_FALSE(controller.measure_store(1).ready());
  system.RunIntervals(15);
  EXPECT_GT(controller.stats().warmup_steps, warmups_during_outage);
  EXPECT_GE(SatisfiedInTail(system, 8), 3);
}

TEST(FaultToleranceTest, EndToEndCrashRecoveryWithBurstLoss) {
  // The acceptance scenario: 3 nodes, node 2 crashes at 57 s and recovers
  // at 112 s, with bursty best-effort message loss on top. During the
  // outage both classes keep being served; after recovery the goal class
  // re-converges within a bounded number of intervals.
  SystemConfig config = TestConfig(44);
  config.faults.script = {{57000.0, 2, /*crash=*/true},
                          {112000.0, 2, /*crash=*/false}};
  config.network.loss_model = net::LossModel::kBurst;
  config.network.burst_good_to_bad = 0.05;
  config.network.burst_bad_to_good = 0.5;
  config.network.burst_loss_good = 0.0;
  config.network.burst_loss_bad = 0.8;
  ClusterSystem system(config);
  system.AddClass(GoalClass(3.5));
  system.AddClass(NoGoalClass());
  system.Start();
  system.RunIntervals(45);

  // Availability column: the outage exactly covers the interval boundaries
  // at 60..110 s (records 11..21).
  const auto& records = system.metrics().records();
  ASSERT_EQ(records.size(), 45u);
  EXPECT_EQ(records[10].nodes_up, 3u);
  for (size_t i = 11; i <= 21; ++i) {
    EXPECT_EQ(records[i].nodes_up, 2u) << "record " << i;
    // Degraded, not dead: both classes complete operations throughout.
    EXPECT_GT(records[i].ForClass(1).ops_completed, 0u) << "record " << i;
    EXPECT_GT(records[i].ForClass(kNoGoalClass).ops_completed, 0u)
        << "record " << i;
  }
  EXPECT_EQ(records[22].nodes_up, 3u);

  // Remote fetches that targeted the dead node fell back to its disk.
  EXPECT_GT(system.counters(1).fetch_fallbacks +
                system.counters(kNoGoalClass).fetch_fallbacks,
            0u);

  const auto& controller =
      dynamic_cast<GoalOrientedController&>(system.controller());
  EXPECT_EQ(system.fault_injector().stats().crashes, 1u);
  EXPECT_EQ(system.fault_injector().stats().recoveries, 1u);
  EXPECT_EQ(controller.stats().crashes_observed, 1u);
  EXPECT_EQ(controller.stats().recoveries_observed, 1u);
  EXPECT_GT(system.network().messages_dropped(
                net::TrafficClass::kPartitionProtocol) +
                system.network().messages_dropped(net::TrafficClass::kHeatHint),
            0u);

  // Re-convergence after recovery: the goal class is satisfied through most
  // of the tail (recovery at record 22, tail starts at record 35).
  EXPECT_GE(SatisfiedInTail(system, 10), 4);
}

TEST(GrayFailureTest, DegradationWiringAppliesAndRestoresSlowdowns) {
  ClusterSystem system(TestConfig(52));
  system.AddClass(GoalClass(3.5));
  system.AddClass(NoGoalClass());
  system.Start();
  system.RunIntervals(2);

  ASSERT_TRUE(system.fault_injector().Degrade(2, 25.0));
  // The degradation callback pushes the factor into every service center of
  // the node and its network endpoint.
  EXPECT_DOUBLE_EQ(system.node(2).disk().slowdown(), 25.0);
  EXPECT_DOUBLE_EQ(system.node(2).cpu().slowdown(), 25.0);
  EXPECT_DOUBLE_EQ(system.network().NodeSlowdown(2), 25.0);
  EXPECT_DOUBLE_EQ(system.node(0).disk().slowdown(), 1.0);

  ASSERT_TRUE(system.fault_injector().Restore(2));
  EXPECT_DOUBLE_EQ(system.node(2).disk().slowdown(), 1.0);
  EXPECT_DOUBLE_EQ(system.node(2).cpu().slowdown(), 1.0);
  EXPECT_DOUBLE_EQ(system.network().NodeSlowdown(2), 1.0);
}

TEST(GrayFailureTest, HealthScoreTracksTimeoutsAndDecays) {
  ClusterSystem system(TestConfig(53));
  system.AddClass(GoalClass(3.5));
  system.AddClass(NoGoalClass());
  // The score is the node's replica-ranking cost in the directory, seeded
  // at the healthy remote-buffer fetch time.
  const double baseline = system.directory().NodeCost(2);
  ASSERT_GT(baseline, 0.0);
  EXPECT_EQ(baseline, system.cost_model().remote_buffer_ms);

  // A hedged fetch that hit its deadline feeds a censored sample: the
  // score escalates past the deadline it waited (the true latency is only
  // known to exceed it).
  system.RecordFetchTimeout(2, 2.0);
  const double after_timeout = system.directory().NodeCost(2);
  EXPECT_GT(after_timeout, baseline);
  system.RecordFetchTimeout(2, 2.0);
  EXPECT_GT(system.directory().NodeCost(2), after_timeout);

  // Recovery decays the score toward the healthy baseline so a repaired
  // node is probed again instead of being shunned forever.
  double previous = system.directory().NodeCost(2);
  for (int i = 0; i < 40; ++i) {
    system.DecayHealth(2);
    EXPECT_LE(system.directory().NodeCost(2), previous);
    previous = system.directory().NodeCost(2);
  }
  EXPECT_NEAR(system.directory().NodeCost(2), baseline, 0.05 * baseline);
}

TEST(GrayFailureTest, DegradedNodeConvergesBackIntoTolerance) {
  // The acceptance scenario: node 2 serves everything 50x slower between
  // 60 s and 110 s — alive the whole time, so no crash handling fires.
  // Hedged reads route around it while it is slow, and the robust
  // measurement filter keeps the episode from poisoning the fit; after the
  // episode lifts the goal class must converge back inside its tolerance.
  SystemConfig config = TestConfig(51);
  config.faults.degradation_script = {{60000.0, 2, /*begin=*/true, 50.0},
                                      {110000.0, 2, /*begin=*/false}};
  ClusterSystem system(config);
  system.AddClass(GoalClass(3.5));
  system.AddClass(NoGoalClass());
  system.Start();

  system.RunIntervals(20);  // 100 s: mid-episode
  EXPECT_TRUE(system.fault_injector().IsDegraded(2));
  EXPECT_DOUBLE_EQ(system.node(2).disk().slowdown(), 50.0);
  // The health EWMA has learned that node 2 is slow: replica ranking now
  // prefers the healthy nodes.
  EXPECT_GT(system.directory().NodeCost(2), system.directory().NodeCost(0));
  EXPECT_GT(system.directory().NodeCost(2), system.directory().NodeCost(1));

  system.RunIntervals(25);  // through recovery at 110 s, out to 225 s
  EXPECT_FALSE(system.fault_injector().IsDegraded(2));
  EXPECT_DOUBLE_EQ(system.node(2).disk().slowdown(), 1.0);
  EXPECT_EQ(system.fault_injector().stats().degradations, 1u);
  EXPECT_EQ(system.fault_injector().stats().degradation_recoveries, 1u);
  EXPECT_EQ(system.fault_injector().stats().crashes, 0u);

  // Gray, not fail-stop: every node stays up and both classes complete
  // operations in every interval.
  const auto& records = system.metrics().records();
  ASSERT_EQ(records.size(), 45u);
  for (const IntervalRecord& record : records) {
    EXPECT_EQ(record.nodes_up, 3u);
    EXPECT_GT(record.ForClass(1).ops_completed, 0u);
    EXPECT_GT(record.ForClass(kNoGoalClass).ops_completed, 0u);
  }

  // Fetches that waited out their hedge deadlines fell back to disk.
  EXPECT_GT(system.counters(1).fetch_fallbacks +
                system.counters(kNoGoalClass).fetch_fallbacks,
            0u);

  // The control loop kept optimizing throughout, and the interval CSV
  // carries the simplex outcome counters.
  const auto& controller =
      dynamic_cast<const GoalOrientedController&>(system.controller());
  EXPECT_GT(controller.stats().lp.optimal, 0u);
  EXPECT_GT(system.metrics().back().lp.optimal, 0u);

  // Re-convergence: the goal class sits inside its tolerance band through
  // most of the post-recovery tail.
  EXPECT_GE(SatisfiedInTail(system, 10), 4);
}

}  // namespace
}  // namespace memgoal::core
