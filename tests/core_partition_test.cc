// Partition tolerance tests: epoch-fenced allocation grants, quorum-lease
// behavior of the goal controller across group cuts, heal-time directory
// hint reconciliation, and end-to-end re-convergence after the cluster is
// whole again.

#include <gtest/gtest.h>

#include <vector>

#include "core/goal_controller.h"
#include "core/system.h"
#include "net/network.h"
#include "sim/invariant_auditor.h"
#include "workload/spec.h"

namespace memgoal::core {
namespace {

SystemConfig TestConfig(uint64_t seed = 1, uint32_t nodes = 3) {
  SystemConfig config;
  config.num_nodes = nodes;
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

const GoalOrientedController& ControllerOf(ClusterSystem& system) {
  return dynamic_cast<const GoalOrientedController&>(system.controller());
}

TEST(EpochFenceTest, StaleEpochGrantsAreRejected) {
  ClusterSystem system(TestConfig(61));
  system.AddClass(GoalClass(3.5));
  system.AddClass(NoGoalClass());
  system.Start();
  system.RunIntervals(1);

  // A grant at the fence's floor applies and raises the fence.
  const auto first = system.ApplyAllocationFenced(1, 2, 8 * 4096, 1);
  EXPECT_FALSE(first.rejected_stale_epoch);
  EXPECT_EQ(system.DedicatedBytes(1, 2), first.granted);

  // A new lease holder announces epoch 5; a deposed coordinator's in-flight
  // epoch-3 grant must bounce without touching the allocation.
  system.AnnounceEpoch(1, 2, 5);
  const uint64_t before = system.DedicatedBytes(1, 2);
  const auto stale = system.ApplyAllocationFenced(1, 2, 32 * 4096, 3);
  EXPECT_TRUE(stale.rejected_stale_epoch);
  EXPECT_EQ(stale.granted, before);
  EXPECT_EQ(system.DedicatedBytes(1, 2), before);
  EXPECT_EQ(system.grants_rejected_stale_epoch(), 1u);
  EXPECT_EQ(system.stale_grants_applied(), 0u);

  // Grants at or above the announced epoch apply; applying raises the
  // fence, so the epoch the fence knew before is now stale.
  const auto current = system.ApplyAllocationFenced(1, 2, 16 * 4096, 5);
  EXPECT_FALSE(current.rejected_stale_epoch);
  const auto newer = system.ApplyAllocationFenced(1, 2, 16 * 4096, 7);
  EXPECT_FALSE(newer.rejected_stale_epoch);
  EXPECT_TRUE(system.ApplyAllocationFenced(1, 2, 8 * 4096, 6)
                  .rejected_stale_epoch);
  EXPECT_EQ(system.grants_rejected_stale_epoch(), 2u);
}

TEST(EpochFenceTest, AnnounceEpochNeverLowersTheFence) {
  ClusterSystem system(TestConfig(62));
  system.AddClass(GoalClass(3.5));
  system.AddClass(NoGoalClass());
  system.Start();
  system.RunIntervals(1);

  system.AnnounceEpoch(1, 1, 9);
  system.AnnounceEpoch(1, 1, 4);  // late duplicate of an older announcement
  EXPECT_TRUE(
      system.ApplyAllocationFenced(1, 1, 8 * 4096, 8).rejected_stale_epoch);
  EXPECT_FALSE(
      system.ApplyAllocationFenced(1, 1, 8 * 4096, 9).rejected_stale_epoch);
}

TEST(EpochFenceTest, NoEpochFenceBugAppliesStaleGrantsAndIsCounted) {
  // The deliberately planted kNoEpochFence bug disables the rejection: the
  // stale grant lands (and is counted), which is what the auditor's
  // epoch_fence check exists to catch.
  SystemConfig config = TestConfig(63);
  config.injected_bug = InjectedBug::kNoEpochFence;
  ClusterSystem system(config);
  system.AddClass(GoalClass(3.5));
  system.AddClass(NoGoalClass());
  system.Start();
  system.RunIntervals(1);

  system.AnnounceEpoch(1, 2, 5);
  const auto stale = system.ApplyAllocationFenced(1, 2, 32 * 4096, 3);
  EXPECT_FALSE(stale.rejected_stale_epoch);
  EXPECT_EQ(system.stale_grants_applied(), 1u);
  EXPECT_EQ(system.grants_rejected_stale_epoch(), 0u);

  // The system-wide audits flag it.
  sim::InvariantAuditor auditor;
  system.EnableAuditor(&auditor);
  system.RunIntervals(1);
  EXPECT_FALSE(auditor.ok());
  ASSERT_FALSE(auditor.violations().empty());
  EXPECT_EQ(auditor.violations().front().check, "epoch_fence");
}

TEST(PartitionTest, MajoritySideKeepsLeaseAndMinorityIsCutOff) {
  // Node 2 is isolated between 30 s and 60 s; the coordinator home (node 0)
  // stays on the majority side, so the lease never moves.
  SystemConfig config = TestConfig(71);
  config.faults.partition_script = {{30000.0, {0, 0, 1}}, {60000.0, {}}};
  ClusterSystem system(config);
  system.AddClass(GoalClass(3.5));
  system.AddClass(NoGoalClass());
  system.Start();

  system.RunIntervals(9);  // 45 s: mid-partition
  EXPECT_TRUE(system.Partitioned());
  EXPECT_FALSE(system.Reachable(0, 2));
  EXPECT_FALSE(system.Reachable(2, 0));
  EXPECT_TRUE(system.Reachable(0, 1));
  EXPECT_EQ(system.fault_injector().stats().partitions, 1u);
  EXPECT_EQ(system.fault_injector().stats().partition_heals, 0u);
  // Cross-cut traffic is being dropped at the boundary.
  EXPECT_GT(system.network().total_messages_partition_dropped(), 0u);

  const auto& controller = ControllerOf(system);
  EXPECT_GE(controller.stats().partition_changes_observed, 1u);
  EXPECT_EQ(controller.stats().leases_lost, 0u);
  EXPECT_EQ(controller.stats().coordinator_failovers, 0u);
  EXPECT_EQ(controller.coordinator_node(1), 0u);

  system.RunIntervals(27);  // through the heal at 60 s, out to 180 s
  EXPECT_FALSE(system.Partitioned());
  EXPECT_EQ(system.fault_injector().stats().partitions, 1u);
  EXPECT_EQ(system.fault_injector().stats().partition_heals, 1u);
  // The registry's lifecycle counters read the injector's.
  int lifecycle_counters = 0;
  for (const auto& entry : system.registry().history().back().entries) {
    if (entry.name == "cluster.partition_begins" ||
        entry.name == "cluster.partition_heals") {
      EXPECT_EQ(entry.value, 1.0) << entry.name;
      ++lifecycle_counters;
    }
  }
  EXPECT_EQ(lifecycle_counters, 2);

  // Heal-time reconciliation re-sent the hints the cut swallowed, so no
  // node still owes the directory anything.
  EXPECT_GT(system.reconcile_hints_sent(), 0u);
  for (NodeId i = 0; i < 3; ++i) {
    EXPECT_EQ(system.node(i).unsynced_hint_count(), 0u) << "node " << i;
  }

  // Both classes kept completing operations on every interval (the
  // minority node served from its own cache and disk).
  for (const IntervalRecord& record : system.metrics().records()) {
    EXPECT_EQ(record.nodes_up, 3u);
    EXPECT_GT(record.ForClass(1).ops_completed, 0u);
    EXPECT_GT(record.ForClass(kNoGoalClass).ops_completed, 0u);
  }

  // Settled tail: back inside the goal band.
  EXPECT_GE(SatisfiedInTail(system, 10), 4);
}

TEST(PartitionTest, HomeOnMinoritySideFailsOverUnderNewEpoch) {
  // The coordinator's home (node 0) is cut off from {1, 2}: it loses the
  // quorum lease and the class re-homes on the majority side under a fresh
  // epoch, exactly like a crash failover but with node 0 still serving its
  // local workload.
  SystemConfig config = TestConfig(72);
  config.faults.partition_script = {{30000.0, {0, 1, 1}}, {60000.0, {}}};
  ClusterSystem system(config);
  system.AddClass(GoalClass(3.5));
  system.AddClass(NoGoalClass());
  system.Start();
  system.RunIntervals(5);  // 25 s: still whole
  ASSERT_EQ(ControllerOf(system).coordinator_node(1), 0u);

  system.RunIntervals(4);  // 45 s: mid-partition
  const auto& controller = ControllerOf(system);
  EXPECT_GE(controller.stats().leases_lost, 1u);
  EXPECT_EQ(controller.stats().coordinator_failovers, 1u);
  EXPECT_GE(controller.stats().lease_acquisitions, 1u);
  EXPECT_EQ(controller.coordinator_node(1), 1u);

  system.RunIntervals(27);  // heal and settle
  EXPECT_FALSE(system.Partitioned());
  // As after a crash failover, the coordinator stays at its new home.
  EXPECT_EQ(controller.coordinator_node(1), 1u);
  // Node 0 never crashed: the whole run is a 3-up cluster.
  for (const IntervalRecord& record : system.metrics().records()) {
    EXPECT_EQ(record.nodes_up, 3u);
  }
  EXPECT_GE(SatisfiedInTail(system, 10), 4);
}

TEST(PartitionTest, EvenSplitFreezesGrantsUntilHeal) {
  // A 2-2 split has no strict majority: both sides go leaseless and the
  // controller degrades to the static fallback — checks are skipped and no
  // allocation commands ship until the heal lets a lease be reacquired.
  SystemConfig config = TestConfig(73, /*nodes=*/4);
  config.faults.partition_script = {{30000.0, {0, 0, 1, 1}}, {60000.0, {}}};
  ClusterSystem system(config);
  system.AddClass(GoalClass(3.5));
  system.AddClass(NoGoalClass());
  system.Start();

  system.RunIntervals(6);
  const auto& controller = ControllerOf(system);
  const uint64_t commands_before_cut = controller.stats().allocation_commands;

  system.RunIntervals(5);  // 55 s: deep inside the split
  EXPECT_GE(controller.stats().leases_lost, 1u);
  EXPECT_GT(controller.stats().checks_skipped_no_lease, 0u);
  // Frozen: the leaseless coordinator shipped nothing during the split.
  EXPECT_EQ(controller.stats().allocation_commands, commands_before_cut);

  system.RunIntervals(25);  // heal and settle
  EXPECT_GE(controller.stats().lease_acquisitions, 1u);
  EXPECT_GT(controller.stats().allocation_commands, commands_before_cut);
  EXPECT_GE(SatisfiedInTail(system, 10), 4);
}

TEST(PartitionTest, AuditorStaysCleanAcrossPartitionAndHeal) {
  SystemConfig config = TestConfig(74);
  config.faults.partition_script = {{20000.0, {0, 0, 1}}, {45000.0, {}}};
  ClusterSystem system(config);
  system.AddClass(GoalClass(3.5));
  system.AddClass(NoGoalClass());
  sim::InvariantAuditor auditor;
  system.EnableAuditor(&auditor);
  system.Start();
  system.RunIntervals(20);

  EXPECT_GT(auditor.checks_run(), 0u);
  EXPECT_TRUE(auditor.ok()) << auditor.violations().front().check << ": "
                            << auditor.violations().front().detail;
}

TEST(PartitionTest, SkipHealReconcileBugLeavesStaleHints) {
  // With the planted kSkipHealReconcile bug, hints swallowed by the cut are
  // never re-sent: nodes still owe the directory after the heal, which the
  // stale_hints_after_heal audit flags.
  SystemConfig config = TestConfig(75);
  config.injected_bug = InjectedBug::kSkipHealReconcile;
  config.faults.partition_script = {{20000.0, {0, 0, 1}}, {45000.0, {}}};
  ClusterSystem system(config);
  system.AddClass(GoalClass(3.5));
  system.AddClass(NoGoalClass());
  sim::InvariantAuditor auditor;
  system.EnableAuditor(&auditor);
  system.Start();
  system.RunIntervals(12);

  EXPECT_EQ(system.reconcile_hints_sent(), 0u);
  EXPECT_FALSE(auditor.ok());
  ASSERT_FALSE(auditor.violations().empty());
  EXPECT_EQ(auditor.violations().front().check, "stale_hints_after_heal");
}

TEST(PartitionTest, PartitionComposesWithCrash) {
  // A node on the majority side crashes mid-partition. Quorum is evaluated
  // over *live* nodes: with node 1 down the live set is {0, 2} and home 0
  // reaches only itself — 1 of 2 is not a strict majority, so the lease
  // drops until node 1 returns. Both faults lift and the cluster converges.
  SystemConfig config = TestConfig(76);
  config.faults.partition_script = {{25000.0, {0, 0, 1}}, {70000.0, {}}};
  config.faults.script = {{40000.0, 1, /*crash=*/true},
                          {55000.0, 1, /*crash=*/false}};
  ClusterSystem system(config);
  system.AddClass(GoalClass(3.5));
  system.AddClass(NoGoalClass());
  sim::InvariantAuditor auditor;
  system.EnableAuditor(&auditor);
  system.Start();
  system.RunIntervals(30);

  const auto& controller = ControllerOf(system);
  EXPECT_EQ(controller.stats().crashes_observed, 1u);
  EXPECT_EQ(controller.stats().recoveries_observed, 1u);
  EXPECT_GE(controller.stats().partition_changes_observed, 2u);
  EXPECT_TRUE(auditor.ok()) << auditor.violations().front().check << ": "
                            << auditor.violations().front().detail;
  EXPECT_GE(SatisfiedInTail(system, 10), 4);
}

}  // namespace
}  // namespace memgoal::core
