// Chaos schedule tests: deterministic generation, fault-params expansion,
// lossless text round-trips (what makes repro files replayable), and the
// ddmin shrink used to minimize failing schedules.

#include "sim/chaos_schedule.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "sim/fault_injector.h"

namespace memgoal::sim::chaos {
namespace {

bool SameEvent(const Event& a, const Event& b) {
  return a.at_ms == b.at_ms && a.kind == b.kind && a.node == b.node &&
         a.factor == b.factor && a.minority_mask == b.minority_mask &&
         a.klass == b.klass && a.count == b.count && a.salt == b.salt;
}

bool SameSchedule(const Schedule& a, const Schedule& b) {
  if (a.seed != b.seed || a.num_nodes != b.num_nodes ||
      a.horizon_ms != b.horizon_ms || a.events.size() != b.events.size()) {
    return false;
  }
  for (size_t i = 0; i < a.events.size(); ++i) {
    if (!SameEvent(a.events[i], b.events[i])) return false;
  }
  return true;
}

GenerateLimits TestLimits() {
  GenerateLimits limits;
  limits.num_nodes = 4;
  limits.horizon_ms = 100000.0;
  limits.max_episodes = 4;
  limits.goal_classes = {1};
  return limits;
}

TEST(ChaosScheduleTest, GenerationIsDeterministicInSeed) {
  const Schedule a = Generate(7, TestLimits());
  const Schedule b = Generate(7, TestLimits());
  const Schedule c = Generate(8, TestLimits());
  EXPECT_FALSE(a.events.empty());
  EXPECT_TRUE(SameSchedule(a, b));
  EXPECT_FALSE(SameSchedule(a, c));
}

TEST(ChaosScheduleTest, EventsAreTimeOrderedWithinHorizon) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const Schedule schedule = Generate(seed, TestLimits());
    EXPECT_EQ(schedule.num_nodes, 4u);
    for (size_t i = 0; i < schedule.events.size(); ++i) {
      EXPECT_GE(schedule.events[i].at_ms, 0.0);
      EXPECT_LE(schedule.events[i].at_ms, schedule.horizon_ms);
      if (i > 0) {
        EXPECT_GE(schedule.events[i].at_ms, schedule.events[i - 1].at_ms)
            << "seed " << seed << " event " << i;
      }
    }
  }
}

TEST(ChaosScheduleTest, AlwaysContainsAnEarlyHealedPartition) {
  // The generator guarantees at least one partition whose heal lands before
  // 70% of the horizon, so heal-path bugs are exercised on every seed.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const Schedule schedule = Generate(seed, TestLimits());
    bool found = false;
    for (size_t i = 0; i < schedule.events.size() && !found; ++i) {
      if (schedule.events[i].kind != EventKind::kPartition) continue;
      for (size_t j = i + 1; j < schedule.events.size(); ++j) {
        if (schedule.events[j].kind == EventKind::kHeal &&
            schedule.events[j].at_ms <= 0.7 * schedule.horizon_ms) {
          found = true;
          break;
        }
      }
    }
    EXPECT_TRUE(found) << "seed " << seed;
  }
}

TEST(ChaosScheduleTest, ApplyToFaultParamsRoutesEventsByKind) {
  Schedule schedule;
  schedule.seed = 3;
  schedule.num_nodes = 4;
  schedule.horizon_ms = 50000.0;
  schedule.events = {
      {1000.0, EventKind::kCrash, 2, 0.0, 0, 0},
      {2000.0, EventKind::kPartition, 0, 0.0, /*minority_mask=*/0x1, 0},
      {3000.0, EventKind::kDegrade, 1, 20.0, 0, 0},
      {4000.0, EventKind::kHeal, 0, 0.0, 0, 0},
      {5000.0, EventKind::kRecover, 2, 0.0, 0, 0},
      {6000.0, EventKind::kRestore, 1, 0.0, 0, 0},
      {7000.0, EventKind::kGoalChange, 0, 1.5, 0, 1},
  };

  FaultInjector::Params params;
  ApplyToFaultParams(schedule, &params);
  ASSERT_EQ(params.script.size(), 2u);
  EXPECT_TRUE(params.script[0].crash);
  EXPECT_EQ(params.script[0].node, 2u);
  EXPECT_FALSE(params.script[1].crash);
  ASSERT_EQ(params.degradation_script.size(), 2u);
  EXPECT_TRUE(params.degradation_script[0].begin);
  EXPECT_DOUBLE_EQ(params.degradation_script[0].factor, 20.0);
  ASSERT_EQ(params.partition_script.size(), 2u);
  // Mask 0x1 cuts node 0 off from {1, 2, 3}.
  EXPECT_EQ(params.partition_script[0].groups.size(), 4u);
  EXPECT_NE(params.partition_script[0].groups[0],
            params.partition_script[0].groups[1]);
  EXPECT_EQ(params.partition_script[0].groups[1],
            params.partition_script[0].groups[3]);
  // The heal entry is an all-whole topology.
  const auto& heal_groups = params.partition_script[1].groups;
  EXPECT_TRUE(heal_groups.empty() ||
              std::count(heal_groups.begin(), heal_groups.end(),
                         heal_groups[0]) ==
                  static_cast<long>(heal_groups.size()));

  const std::vector<Event> goals = GoalChanges(schedule);
  ASSERT_EQ(goals.size(), 1u);
  EXPECT_EQ(goals[0].klass, 1u);
  EXPECT_DOUBLE_EQ(goals[0].factor, 1.5);
}

TEST(ChaosScheduleTest, CorruptEventsRouteToCorruptionScript) {
  Schedule schedule;
  schedule.seed = 3;
  schedule.num_nodes = 4;
  schedule.horizon_ms = 50000.0;
  schedule.events = {
      {1000.0, EventKind::kCrash, 2, 0.0, 0, 0},
      {2000.0, EventKind::kCorrupt, 1, 0.0, 0, 0, /*count=*/3,
       /*salt=*/0xabcdefull},
  };

  FaultInjector::Params params;
  ApplyToFaultParams(schedule, &params);
  EXPECT_EQ(params.script.size(), 1u);
  ASSERT_EQ(params.corruption_script.size(), 1u);
  EXPECT_DOUBLE_EQ(params.corruption_script[0].at_ms, 2000.0);
  EXPECT_EQ(params.corruption_script[0].node, 1u);
  EXPECT_EQ(params.corruption_script[0].count, 3u);
  EXPECT_EQ(params.corruption_script[0].salt, 0xabcdefull);
}

TEST(ChaosScheduleTest, CorruptGenerationIsOptInAndLeavesOldSeedsAlone) {
  // max_corrupt_episodes = 0 must consume no RNG: every schedule generated
  // before corruption existed stays bit-identical. Turning it on appends
  // corrupt events without perturbing the rest of the schedule.
  GenerateLimits with_corrupt = TestLimits();
  with_corrupt.max_corrupt_episodes = 3;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const Schedule off = Generate(seed, TestLimits());
    const Schedule on = Generate(seed, with_corrupt);
    for (const Event& event : off.events) {
      EXPECT_NE(event.kind, EventKind::kCorrupt);
    }
    std::vector<Event> on_without_corrupt;
    size_t corrupt_count = 0;
    for (const Event& event : on.events) {
      if (event.kind == EventKind::kCorrupt) {
        ++corrupt_count;
        EXPECT_GE(event.at_ms, 0.0);
        EXPECT_LE(event.at_ms, on.horizon_ms);
        EXPECT_LT(event.node, on.num_nodes);
        EXPECT_GE(event.count, 1u);
      } else {
        on_without_corrupt.push_back(event);
      }
    }
    EXPECT_GE(corrupt_count, 1u) << "seed " << seed;
    ASSERT_EQ(on_without_corrupt.size(), off.events.size()) << "seed " << seed;
    for (size_t i = 0; i < off.events.size(); ++i) {
      EXPECT_TRUE(SameEvent(off.events[i], on_without_corrupt[i]))
          << "seed " << seed << " event " << i;
    }
  }
}

TEST(ChaosScheduleTest, TextRoundTripIsLossless) {
  GenerateLimits limits = TestLimits();
  limits.max_corrupt_episodes = 2;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const Schedule original = Generate(seed, limits);
    Schedule parsed;
    ASSERT_TRUE(FromText(ToText(original), &parsed)) << "seed " << seed;
    EXPECT_TRUE(SameSchedule(original, parsed)) << "seed " << seed;
  }
}

TEST(ChaosScheduleTest, FromTextRejectsGarbage) {
  Schedule schedule;
  EXPECT_FALSE(FromText("", &schedule));
  EXPECT_FALSE(FromText("not a schedule\n", &schedule));
  EXPECT_FALSE(FromText("# chaos schedule v1\nseed banana\n", &schedule));

  // Each of these parsed once and then aborted the fault injector, the
  // system or the replay harness (whose only goal class is 1). Each is one
  // edit of a valid 4-node repro, and the error names the edited line.
  const std::string header =
      "# chaos schedule v1\nseed 1\nnodes 4\nhorizon_ms 60000\n";
  const std::vector<uint32_t> goal_classes = {1};
  std::string error;
  ASSERT_TRUE(FromText(header + "corrupt 32269.082215928396 3 2 "
                                "16062342724189915073\n",
                       &schedule, &error, &goal_classes))
      << error;
  const std::vector<std::pair<std::string, std::string>> cases = {
      {header + "crash 100 7\n", "5: node 7 is not below nodes 4"},
      {header + "corrupt 100 9 1 1\n", "5: node 9 is not below nodes 4"},
      {"seed 1\nnodes 0\nhorizon_ms 60000\n", "2: nodes must be in 3..32"},
      {header + "degrade 100 1 -5\n", "5: degrade factor must be"},
      {"seed 1\nnodes 4\nhorizon_ms 1e300\n", "3: horizon_ms must be in"},
      {header + "goal 100 5 2.0\n", "5: goal class 5 is not"},
      {header + "goal 100 1 -2.0\n", "5: goal factor must be"},
      {header + "heal -1\n", "5: time must be finite and >= 0"},
      {header + "partition 100 0x10\n", "5: partition mask has bits"},
      {header + "partition 100 0x1zz\n", "5: malformed partition mask"},
      {header + "corrupt 100 1 0 1\n", "5: corrupt count must be >= 1"},
      {"seed 1\nnodes 33\nhorizon_ms 60000\n", "2: nodes must be in 3..32"},
      {"seed 1\nnodes 4\nhorizon_ms 0\n", "3: horizon_ms must be in"},
      {"seed 1\nnodes 4\n", "2: missing seed, nodes or horizon_ms"},
  };
  for (const auto& [text, message] : cases) {
    error.clear();
    EXPECT_FALSE(FromText(text, &schedule, &error, &goal_classes)) << text;
    EXPECT_EQ(error.rfind(message, 0), 0u) << text << " -> " << error;
  }
  // Without a goal-class list any class parses.
  EXPECT_TRUE(FromText(header + "goal 100 5 2.0\n", &schedule));
}

TEST(ChaosScheduleTest, ShrinkFindsMinimalFailingSubset) {
  // Synthetic failure: the run "fails" iff the schedule still contains both
  // the crash of node 3 and the heal. ddmin must strip the other 8 events.
  Schedule schedule;
  schedule.seed = 11;
  schedule.num_nodes = 4;
  schedule.horizon_ms = 50000.0;
  for (int i = 0; i < 8; ++i) {
    schedule.events.push_back(
        {1000.0 * (i + 1), EventKind::kDegrade, 1, 5.0, 0, 0});
  }
  schedule.events.push_back({9000.0, EventKind::kCrash, 3, 0.0, 0, 0});
  schedule.events.push_back({9500.0, EventKind::kHeal, 0, 0.0, 0, 0});

  int calls = 0;
  const auto fails = [&calls](const Schedule& candidate) {
    ++calls;
    bool has_crash = false, has_heal = false;
    for (const Event& event : candidate.events) {
      has_crash |= event.kind == EventKind::kCrash && event.node == 3;
      has_heal |= event.kind == EventKind::kHeal;
    }
    return has_crash && has_heal;
  };

  const Schedule shrunk = Shrink(schedule, fails);
  ASSERT_EQ(shrunk.events.size(), 2u);
  EXPECT_EQ(shrunk.events[0].kind, EventKind::kCrash);
  EXPECT_EQ(shrunk.events[1].kind, EventKind::kHeal);
  // Header fields survive the shrink (the repro must build the same system).
  EXPECT_EQ(shrunk.seed, 11u);
  EXPECT_EQ(shrunk.num_nodes, 4u);
  EXPECT_GT(calls, 0);
}

TEST(ChaosScheduleTest, ShrinkKeepsOrderAndIsIdempotentOnMinimal) {
  Schedule minimal;
  minimal.seed = 5;
  minimal.num_nodes = 3;
  minimal.horizon_ms = 10000.0;
  minimal.events = {{1000.0, EventKind::kPartition, 0, 0.0, 0x1, 0},
                    {2000.0, EventKind::kHeal, 0, 0.0, 0, 0}};
  const auto fails = [](const Schedule& candidate) {
    return candidate.events.size() == 2;
  };
  const Schedule shrunk = Shrink(minimal, fails);
  EXPECT_TRUE(SameSchedule(shrunk, minimal));
}

}  // namespace
}  // namespace memgoal::sim::chaos
