#include "sim/fault_injector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/simulator.h"

namespace memgoal::sim {
namespace {

TEST(FaultInjectorTest, ScriptedCrashAndRecovery) {
  Simulator simulator;
  FaultInjector::Params params;
  params.script = {{100.0, 1, /*crash=*/true}, {250.0, 1, /*crash=*/false}};
  FaultInjector injector(&simulator, 3, params);

  std::vector<std::pair<double, bool>> events;  // (time, is_crash)
  injector.SetCallbacks(
      [&](uint32_t node) {
        EXPECT_EQ(node, 1u);
        // The crash state is already committed when the callback runs.
        EXPECT_FALSE(injector.IsUp(1));
        events.emplace_back(simulator.Now(), true);
      },
      [&](uint32_t node) {
        EXPECT_EQ(node, 1u);
        EXPECT_TRUE(injector.IsUp(1));
        events.emplace_back(simulator.Now(), false);
      });
  injector.Start();

  EXPECT_TRUE(injector.IsUp(1));
  EXPECT_EQ(injector.nodes_up(), 3u);
  EXPECT_EQ(injector.epoch(1), 0u);

  simulator.RunUntil(150.0);
  EXPECT_FALSE(injector.IsUp(1));
  EXPECT_TRUE(injector.IsUp(0));
  EXPECT_EQ(injector.nodes_up(), 2u);
  EXPECT_EQ(injector.epoch(1), 1u);

  simulator.RunUntil(300.0);
  EXPECT_TRUE(injector.IsUp(1));
  EXPECT_EQ(injector.nodes_up(), 3u);
  // Recovery does not bump the epoch; only crashes do.
  EXPECT_EQ(injector.epoch(1), 1u);

  ASSERT_EQ(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events[0].first, 100.0);
  EXPECT_TRUE(events[0].second);
  EXPECT_DOUBLE_EQ(events[1].first, 250.0);
  EXPECT_FALSE(events[1].second);
  EXPECT_EQ(injector.stats().crashes, 1u);
  EXPECT_EQ(injector.stats().recoveries, 1u);
  EXPECT_EQ(injector.stats().suppressed, 0u);
}

TEST(FaultInjectorTest, MinLiveNodesFloorSuppressesCrashes) {
  Simulator simulator;
  FaultInjector::Params params;
  params.min_live_nodes = 2;
  FaultInjector injector(&simulator, 3, params);

  EXPECT_TRUE(injector.Crash(0));
  EXPECT_EQ(injector.nodes_up(), 2u);
  // A second crash would leave only one node up — below the floor.
  EXPECT_FALSE(injector.Crash(1));
  EXPECT_TRUE(injector.IsUp(1));
  EXPECT_EQ(injector.stats().suppressed, 1u);
  EXPECT_EQ(injector.stats().crashes, 1u);

  EXPECT_TRUE(injector.Recover(0));
  EXPECT_TRUE(injector.Crash(1));
  EXPECT_EQ(injector.nodes_up(), 2u);
}

TEST(FaultInjectorTest, DoubleCrashAndDoubleRecoverAreRejected) {
  Simulator simulator;
  FaultInjector::Params params;
  params.min_live_nodes = 0;
  FaultInjector injector(&simulator, 2, params);

  EXPECT_FALSE(injector.Recover(0));  // already up
  EXPECT_TRUE(injector.Crash(0));
  EXPECT_FALSE(injector.Crash(0));  // already down
  EXPECT_EQ(injector.epoch(0), 1u);
  EXPECT_TRUE(injector.Recover(0));
  EXPECT_FALSE(injector.Recover(0));
  EXPECT_EQ(injector.stats().crashes, 1u);
  EXPECT_EQ(injector.stats().recoveries, 1u);
}

TEST(FaultInjectorTest, StochasticProcessIsDeterministicUnderSeed) {
  auto run = [](uint64_t seed) {
    Simulator simulator;
    FaultInjector::Params params;
    params.mttf_ms = 5000.0;
    params.mttr_ms = 1000.0;
    params.seed = seed;
    params.min_live_nodes = 1;
    FaultInjector injector(&simulator, 3, params);
    std::vector<std::pair<double, uint32_t>> crashes;
    injector.SetCallbacks(
        [&](uint32_t node) { crashes.emplace_back(simulator.Now(), node); },
        nullptr);
    injector.Start();
    simulator.RunUntil(100000.0);
    EXPECT_GE(injector.nodes_up(), 1u);
    return crashes;
  };

  const auto a = run(7);
  const auto b = run(7);
  const auto c = run(8);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(FaultInjectorTest, StochasticProcessDisabledByZeroMttf) {
  Simulator simulator;
  FaultInjector::Params params;
  params.mttf_ms = 0.0;
  FaultInjector injector(&simulator, 3, params);
  injector.Start();
  simulator.RunUntil(1e6);
  EXPECT_EQ(injector.nodes_up(), 3u);
  EXPECT_EQ(injector.stats().crashes, 0u);
}

TEST(FaultInjectorTest, ScriptedDegradationBeginsAndLifts) {
  Simulator simulator;
  FaultInjector::Params params;
  params.degradation_script = {{100.0, 1, /*begin=*/true, 50.0},
                               {250.0, 1, /*begin=*/false}};
  FaultInjector injector(&simulator, 3, params);

  std::vector<std::pair<double, bool>> events;  // (time, is_begin)
  injector.SetDegradationCallbacks(
      [&](uint32_t node) {
        EXPECT_EQ(node, 1u);
        // The slowdown is already committed when the callback runs.
        EXPECT_DOUBLE_EQ(injector.SlowdownOf(1), 50.0);
        events.emplace_back(simulator.Now(), true);
      },
      [&](uint32_t node) {
        EXPECT_EQ(node, 1u);
        EXPECT_DOUBLE_EQ(injector.SlowdownOf(1), 1.0);
        events.emplace_back(simulator.Now(), false);
      });
  injector.Start();

  EXPECT_FALSE(injector.IsDegraded(1));
  simulator.RunUntil(150.0);
  EXPECT_TRUE(injector.IsDegraded(1));
  EXPECT_DOUBLE_EQ(injector.SlowdownOf(1), 50.0);
  EXPECT_FALSE(injector.IsDegraded(0));
  // A degraded node is still up: gray, not fail-stop.
  EXPECT_TRUE(injector.IsUp(1));
  EXPECT_EQ(injector.nodes_up(), 3u);

  simulator.RunUntil(300.0);
  EXPECT_FALSE(injector.IsDegraded(1));
  ASSERT_EQ(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events[0].first, 100.0);
  EXPECT_TRUE(events[0].second);
  EXPECT_DOUBLE_EQ(events[1].first, 250.0);
  EXPECT_FALSE(events[1].second);
  EXPECT_EQ(injector.stats().degradations, 1u);
  EXPECT_EQ(injector.stats().degradation_recoveries, 1u);
  EXPECT_EQ(injector.stats().crashes, 0u);
}

TEST(FaultInjectorTest, DegradationComposesWithCrashes) {
  Simulator simulator;
  FaultInjector injector(&simulator, 2, FaultInjector::Params{});

  ASSERT_TRUE(injector.Degrade(0, 10.0));
  EXPECT_FALSE(injector.Degrade(0, 5.0));  // already degraded
  EXPECT_TRUE(injector.Crash(0));
  // The crash does not clear the episode: the hardware is still bad.
  EXPECT_TRUE(injector.IsDegraded(0));
  EXPECT_DOUBLE_EQ(injector.SlowdownOf(0), 10.0);
  EXPECT_TRUE(injector.Recover(0));
  // A rebooted node is still degraded until the episode lifts.
  EXPECT_TRUE(injector.IsDegraded(0));
  EXPECT_TRUE(injector.Restore(0));
  EXPECT_FALSE(injector.Restore(0));  // already healthy
  EXPECT_DOUBLE_EQ(injector.SlowdownOf(0), 1.0);
  EXPECT_EQ(injector.stats().degradations, 1u);
  EXPECT_EQ(injector.stats().degradation_recoveries, 1u);
}

TEST(FaultInjectorTest, StochasticDegradationIsDeterministicUnderSeed) {
  auto run = [](uint64_t seed) {
    Simulator simulator;
    FaultInjector::Params params;
    params.mttd_ms = 5000.0;
    params.degradation_repair_ms = 1000.0;
    params.degradation_factor = 8.0;
    params.seed = seed;
    FaultInjector injector(&simulator, 3, params);
    std::vector<std::pair<double, uint32_t>> episodes;
    injector.SetDegradationCallbacks(
        [&](uint32_t node) { episodes.emplace_back(simulator.Now(), node); },
        nullptr);
    injector.Start();
    simulator.RunUntil(100000.0);
    return episodes;
  };

  const auto a = run(7);
  const auto b = run(7);
  const auto c = run(8);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(FaultInjectorTest, EnablingDegradationKeepsCrashScheduleIdentical) {
  // The crash streams fork from the master seed before the degradation
  // streams: turning gray failures on must not perturb an existing crash
  // schedule (old seeds stay reproducible).
  auto crashes = [](double mttd_ms) {
    Simulator simulator;
    FaultInjector::Params params;
    params.mttf_ms = 5000.0;
    params.mttr_ms = 1000.0;
    params.seed = 7;
    params.min_live_nodes = 1;
    params.mttd_ms = mttd_ms;
    FaultInjector injector(&simulator, 3, params);
    std::vector<std::pair<double, uint32_t>> log;
    injector.SetCallbacks(
        [&](uint32_t node) { log.emplace_back(simulator.Now(), node); },
        nullptr);
    injector.Start();
    simulator.RunUntil(100000.0);
    return log;
  };

  const auto without = crashes(0.0);
  const auto with = crashes(4000.0);
  EXPECT_FALSE(without.empty());
  EXPECT_EQ(without, with);
}

TEST(FaultInjectorTest, ScriptedPartitionCutsAndHeals) {
  Simulator simulator;
  FaultInjector::Params params;
  params.partition_script = {{100.0, {0, 0, 1}}, {250.0, {}}};
  FaultInjector injector(&simulator, 3, params);

  int topology_changes = 0;
  injector.SetPartitionCallback([&] { ++topology_changes; });
  injector.Start();

  EXPECT_FALSE(injector.Partitioned());
  EXPECT_TRUE(injector.Reachable(0, 2));
  EXPECT_EQ(injector.partition_epoch(), 0u);

  simulator.RunUntil(150.0);
  EXPECT_TRUE(injector.Partitioned());
  EXPECT_FALSE(injector.Reachable(0, 2));
  EXPECT_FALSE(injector.Reachable(2, 0));
  EXPECT_TRUE(injector.Reachable(0, 1));
  // Same-node traffic never crosses the cut; liveness is orthogonal.
  EXPECT_TRUE(injector.Reachable(2, 2));
  EXPECT_TRUE(injector.IsUp(2));
  EXPECT_EQ(injector.partition_epoch(), 1u);
  EXPECT_EQ(topology_changes, 1);

  simulator.RunUntil(300.0);
  EXPECT_FALSE(injector.Partitioned());
  EXPECT_TRUE(injector.Reachable(0, 2));
  EXPECT_EQ(injector.partition_epoch(), 2u);
  EXPECT_EQ(topology_changes, 2);
  EXPECT_EQ(injector.stats().partitions, 1u);
  EXPECT_EQ(injector.stats().partition_heals, 1u);
  EXPECT_EQ(injector.stats().crashes, 0u);
}

TEST(FaultInjectorTest, ManualPartitionRejectsNoOps) {
  Simulator simulator;
  FaultInjector injector(&simulator, 3, FaultInjector::Params{});

  EXPECT_FALSE(injector.HealPartition());  // nothing to heal
  EXPECT_TRUE(injector.SetPartition({0, 0, 1}));
  EXPECT_FALSE(injector.SetPartition({0, 0, 1}));  // unchanged topology
  // A reshape changes the topology but extends the same episode.
  EXPECT_TRUE(injector.SetPartition({0, 1, 1}));
  // An all-same-group vector is a heal.
  EXPECT_TRUE(injector.SetPartition({2, 2, 2}));
  EXPECT_FALSE(injector.Partitioned());
  EXPECT_EQ(injector.stats().partitions, 1u);
  EXPECT_EQ(injector.stats().partition_heals, 1u);
}

TEST(FaultInjectorTest, StochasticPartitionsIsolateMinoritiesDeterministically) {
  auto run = [](uint64_t seed) {
    Simulator simulator;
    FaultInjector::Params params;
    params.mttp_ms = 20000.0;
    params.partition_heal_ms = 5000.0;
    params.seed = seed;
    FaultInjector injector(&simulator, 5, params);
    std::vector<std::pair<double, uint64_t>> changes;
    injector.SetPartitionCallback([&] {
      changes.emplace_back(simulator.Now(), injector.partition_epoch());
      if (injector.Partitioned()) {
        // A stochastic episode always leaves a strict majority connected:
        // the group containing node counts must bound the minority side.
        uint32_t cut_off_from_0 = 0;
        for (uint32_t i = 0; i < 5; ++i) {
          if (!injector.Reachable(0, i)) ++cut_off_from_0;
        }
        const uint32_t minority = std::min(cut_off_from_0, 5 - cut_off_from_0);
        EXPECT_GE(minority, 1u);
        EXPECT_LE(minority, 2u);
      }
    });
    injector.Start();
    simulator.RunUntil(200000.0);
    return changes;
  };

  const auto a = run(7);
  const auto b = run(7);
  const auto c = run(8);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(FaultInjectorTest, EnablingPartitionsKeepsCrashScheduleIdentical) {
  // The partition stream forks from the master seed after the crash and
  // degradation streams: turning partitions on must not perturb existing
  // crash schedules (old seeds stay reproducible).
  auto crashes = [](double mttp_ms) {
    Simulator simulator;
    FaultInjector::Params params;
    params.mttf_ms = 5000.0;
    params.mttr_ms = 1000.0;
    params.seed = 7;
    params.min_live_nodes = 1;
    params.mttp_ms = mttp_ms;
    FaultInjector injector(&simulator, 3, params);
    std::vector<std::pair<double, uint32_t>> log;
    injector.SetCallbacks(
        [&](uint32_t node) { log.emplace_back(simulator.Now(), node); },
        nullptr);
    injector.Start();
    simulator.RunUntil(100000.0);
    return log;
  };

  const auto without = crashes(0.0);
  const auto with = crashes(15000.0);
  EXPECT_FALSE(without.empty());
  EXPECT_EQ(without, with);
}

TEST(FaultInjectorTest, ScriptedCorruptionFiresCountStrikes) {
  Simulator simulator;
  FaultInjector::Params params;
  params.corruption_script = {{100.0, 1, /*count=*/3, /*salt=*/42},
                              {250.0, 2, /*count=*/1, /*salt=*/7}};
  FaultInjector injector(&simulator, 3, params);

  std::vector<std::tuple<double, uint32_t, uint64_t>> strikes;
  injector.SetCorruptionCallback([&](uint32_t node, uint64_t draw) {
    strikes.emplace_back(simulator.Now(), node, draw);
  });
  injector.Start();
  simulator.RunUntil(300.0);

  // Each scripted event fires `count` independent strikes with distinct,
  // salt-derived draws, so a replayed script corrupts the same targets.
  ASSERT_EQ(strikes.size(), 4u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(std::get<0>(strikes[i]), 100.0);
    EXPECT_EQ(std::get<1>(strikes[i]), 1u);
  }
  EXPECT_NE(std::get<2>(strikes[0]), std::get<2>(strikes[1]));
  EXPECT_NE(std::get<2>(strikes[1]), std::get<2>(strikes[2]));
  EXPECT_DOUBLE_EQ(std::get<0>(strikes[3]), 250.0);
  EXPECT_EQ(std::get<1>(strikes[3]), 2u);
  EXPECT_EQ(injector.stats().corruptions, 4u);
}

TEST(FaultInjectorTest, CorruptionFiresWhileNodeIsDown) {
  // Bit rot does not need a CPU: a corruption scheduled while the node is
  // crashed still lands (the bad pattern greets the node when it reboots).
  Simulator simulator;
  FaultInjector::Params params;
  params.script = {{50.0, 1, /*crash=*/true}};
  params.corruption_script = {{100.0, 1, /*count=*/1, /*salt=*/9}};
  FaultInjector injector(&simulator, 3, params);

  int fired = 0;
  injector.SetCorruptionCallback([&](uint32_t node, uint64_t) {
    EXPECT_EQ(node, 1u);
    EXPECT_FALSE(injector.IsUp(1));
    ++fired;
  });
  injector.Start();
  simulator.RunUntil(200.0);
  EXPECT_EQ(fired, 1);
}

TEST(FaultInjectorTest, StochasticCorruptionIsDeterministicUnderSeed) {
  auto run = [](uint64_t seed) {
    Simulator simulator;
    FaultInjector::Params params;
    params.mttc_ms = 8000.0;
    params.seed = seed;
    FaultInjector injector(&simulator, 3, params);
    std::vector<std::tuple<double, uint32_t, uint64_t>> strikes;
    injector.SetCorruptionCallback([&](uint32_t node, uint64_t draw) {
      strikes.emplace_back(simulator.Now(), node, draw);
    });
    injector.Start();
    simulator.RunUntil(100000.0);
    return strikes;
  };

  const auto a = run(7);
  const auto b = run(7);
  const auto c = run(8);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(FaultInjectorTest, EnablingCorruptionKeepsOtherSchedulesIdentical) {
  // The corruption streams fork from the master seed after the crash,
  // degradation and partition streams: turning corruption on must not
  // perturb any pre-existing fault schedule (old seeds stay reproducible).
  auto faults = [](double mttc_ms) {
    Simulator simulator;
    FaultInjector::Params params;
    params.mttf_ms = 5000.0;
    params.mttr_ms = 1000.0;
    params.mttd_ms = 9000.0;
    params.degradation_repair_ms = 2000.0;
    params.mttp_ms = 20000.0;
    params.partition_heal_ms = 5000.0;
    params.seed = 7;
    params.min_live_nodes = 1;
    params.mttc_ms = mttc_ms;
    FaultInjector injector(&simulator, 3, params);
    // One interleaved log across all three pre-existing fault kinds: any
    // perturbation of any stream shows up as a diff.
    std::vector<std::tuple<double, char, uint64_t>> log;
    injector.SetCallbacks(
        [&](uint32_t node) { log.emplace_back(simulator.Now(), 'c', node); },
        [&](uint32_t node) { log.emplace_back(simulator.Now(), 'r', node); });
    injector.SetDegradationCallbacks(
        [&](uint32_t node) { log.emplace_back(simulator.Now(), 'd', node); },
        [&](uint32_t node) { log.emplace_back(simulator.Now(), 'u', node); });
    injector.SetPartitionCallback([&] {
      log.emplace_back(simulator.Now(), 'p', injector.partition_epoch());
    });
    injector.Start();
    simulator.RunUntil(100000.0);
    return log;
  };

  const auto without = faults(0.0);
  const auto with = faults(12000.0);
  EXPECT_FALSE(without.empty());
  EXPECT_EQ(without, with);
}

}  // namespace
}  // namespace memgoal::sim
