#include "core/goal_controller.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "baseline/static_controllers.h"
#include "core/optimizer.h"
#include "core/system.h"
#include "obs/decision_log.h"
#include "obs/registry.h"
#include "oracles/record_parse.h"
#include "workload/spec.h"

namespace memgoal::core {
namespace {

// A stable miniature of the paper's environment: the aggregate cache (192
// frames) covers 96% of the 200-page database, and arrival rates keep the
// disks well below saturation, so response times react to buffer allocation
// rather than to queueing collapse. Over the paper's goal band (between the
// response times at 2/3 and 1/3 of the cache dedicated) the goal class's
// response time is monotone in its dedicated buffer.
SystemConfig TestConfig(uint64_t seed = 1) {
  SystemConfig config;
  config.num_nodes = 3;
  config.cache_bytes_per_node = 64 * 4096;
  config.db_pages = 200;
  config.observation_interval_ms = 5000.0;
  config.seed = seed;
  return config;
}

workload::ClassSpec GoalClass(ClassId id, double goal_ms,
                              double skew = 0.0) {
  workload::ClassSpec spec;
  spec.id = id;
  spec.goal_rt_ms = goal_ms;
  spec.accesses_per_op = 4;
  spec.mean_interarrival_ms = 50.0;
  spec.pages = {0, 100};
  spec.zipf_skew = skew;
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

// Measures the steady-state goal-class RT under a static share of the cache
// (calibration helper, mirroring the goal-selection protocol of §7.1). Uses
// the do-nothing controller so the applied allocation stays frozen.
double CalibrateRt(double dedicated_fraction, uint64_t seed) {
  ClusterSystem system(TestConfig(seed));
  system.AddClass(GoalClass(1, 1000.0));  // goal irrelevant: inert controller
  system.AddClass(NoGoalClass());
  system.SetController(std::make_unique<baseline::NoPartitioningController>());
  system.Start();
  const auto bytes = static_cast<uint64_t>(
      dedicated_fraction * static_cast<double>(TestConfig().cache_bytes_per_node));
  for (NodeId i = 0; i < 3; ++i) system.ApplyAllocation(1, i, bytes);
  system.RunIntervals(12);
  double sum = 0;
  int count = 0;
  const auto& records = system.metrics().records();
  for (size_t i = records.size() - 6; i < records.size(); ++i) {
    sum += records[i].ForClass(1).observed_rt_ms;
    ++count;
  }
  return sum / count;
}

TEST(GoalControllerTest, ConvergesToAchievableGoal) {
  // Pick a goal between the RT at 2/3 dedicated and at 1/2 dedicated: a
  // band where the response time is monotone in the dedicated buffer and —
  // unlike the paper's idealized setting — guaranteed *binding* (the goal
  // cannot be met with zero dedication; see EXPERIMENTS.md on the
  // small-allocation non-monotonicity of the §6 pool confinement).
  const double rt_hi_buffer = CalibrateRt(2.0 / 3.0, 21);
  const double rt_lo_buffer = CalibrateRt(1.0 / 2.0, 22);
  ASSERT_LT(rt_hi_buffer, rt_lo_buffer);
  const double goal = 0.5 * (rt_hi_buffer + rt_lo_buffer);

  ClusterSystem system(TestConfig(5));
  system.AddClass(GoalClass(1, goal));
  system.AddClass(NoGoalClass());
  system.Start();
  system.RunIntervals(25);

  // The paper's convergence criterion (§7.1): the system reaches a state
  // satisfying the goal within a short number of intervals, and holds it
  // for several consecutive intervals. Feedback systems keep breathing
  // around the goal, so we do not require the tail to be satisfied forever.
  const auto& records = system.metrics().records();
  int longest_streak = 0, streak = 0;
  uint64_t max_dedicated = 0;
  int satisfied_total = 0;
  for (const IntervalRecord& record : records) {
    const auto& m = record.ForClass(1);
    streak = m.satisfied ? streak + 1 : 0;
    longest_streak = std::max(longest_streak, streak);
    satisfied_total += m.satisfied ? 1 : 0;
    max_dedicated = std::max(max_dedicated, m.dedicated_bytes);
  }
  EXPECT_GE(longest_streak, 3) << "goal=" << goal;
  EXPECT_GE(satisfied_total, 8) << "goal=" << goal;
  // The goal sits below the zero-dedication response time, so meeting it
  // required building a dedicated buffer.
  EXPECT_GT(max_dedicated, 0u);
}

TEST(GoalControllerTest, WarmupProducesIndependentPoints) {
  ClusterSystem system(TestConfig(9));
  system.AddClass(GoalClass(1, 0.2));  // unreachably tight: always violated
  system.AddClass(NoGoalClass());
  system.Start();
  system.RunIntervals(10);
  const auto& controller =
      dynamic_cast<GoalOrientedController&>(system.controller());
  // After enough violated intervals the store must hold N+1 = 4 points.
  EXPECT_TRUE(controller.measure_store(1).ready());
  EXPECT_GT(controller.stats().warmup_steps, 0u);
  EXPECT_GT(controller.stats().lp_optimizations, 0u);
}

TEST(GoalControllerTest, UnreachableGoalSaturatesBuffer) {
  ClusterSystem system(TestConfig(11));
  system.AddClass(GoalClass(1, 0.2));
  system.AddClass(NoGoalClass());
  uint64_t max_dedicated = 0;
  system.SetIntervalCallback([&](const IntervalRecord& record) {
    max_dedicated =
        std::max(max_dedicated, record.ForClass(1).dedicated_bytes);
  });
  system.Start();
  system.RunIntervals(20);
  // An unreachable goal keeps the loop violated forever; best effort must
  // at some point have pushed the dedicated buffer to most of the cache
  // (the loop keeps probing afterwards, so the final state may differ).
  const uint64_t total_cache = 3ull * TestConfig().cache_bytes_per_node;
  EXPECT_GT(max_dedicated, total_cache / 2);
}

TEST(GoalControllerTest, LooseGoalNeverAllocates) {
  // 5000 ms stays satisfied even through the cold-cache transient of the
  // first interval.
  ClusterSystem system(TestConfig(13));
  system.AddClass(GoalClass(1, 5000.0));
  system.AddClass(NoGoalClass());
  system.Start();
  system.RunIntervals(8);
  EXPECT_EQ(system.TotalDedicatedBytes(1), 0u);
  const auto& controller =
      dynamic_cast<GoalOrientedController&>(system.controller());
  EXPECT_EQ(controller.stats().violations, 0u);
  EXPECT_GT(controller.stats().checks, 0u);
}

TEST(GoalControllerTest, GoalRelaxationShrinksDedicatedBuffer) {
  ClusterSystem system(TestConfig(17));
  system.AddClass(GoalClass(1, 0.8, /*skew=*/0.5));
  system.AddClass(NoGoalClass());
  system.Start();
  system.RunIntervals(15);
  const uint64_t dedicated_tight = system.TotalDedicatedBytes(1);
  EXPECT_GT(dedicated_tight, 0u);
  // Relax the goal massively: the coordinator should release memory for
  // the no-goal class (RT then far below goal -> violation of |rt-goal| >
  // delta from below).
  system.SetGoal(1, 500.0);
  system.RunIntervals(10);
  EXPECT_LT(system.TotalDedicatedBytes(1), dedicated_tight);
}

TEST(GoalControllerTest, ReportFilterLimitsTraffic) {
  // The significant-change filter (§5a) must suppress reports: a run with a
  // wide threshold sends strictly fewer reports than the same run with the
  // filter effectively disabled.
  auto count_reports = [](double threshold) {
    SystemConfig config = TestConfig(19);
    config.report_change_threshold = threshold;
    ClusterSystem system(config);
    system.AddClass(GoalClass(1, 5000.0));  // stable: goal never violated
    system.AddClass(NoGoalClass());
    system.Start();
    system.RunIntervals(20);
    const auto& controller =
        dynamic_cast<GoalOrientedController&>(system.controller());
    return controller.stats().reports_sent;
  };
  const uint64_t with_filter = count_reports(2.0);
  const uint64_t without_filter = count_reports(0.0);
  EXPECT_GT(with_filter, 0u);
  EXPECT_LT(with_filter, without_filter / 2);
  // Filter off: every interval reports from every node for both classes
  // (goal reports to 1 coordinator, no-goal reports to 1 coordinator).
  EXPECT_EQ(without_filter, 20u * 3u * 2u);
}

TEST(GoalControllerTest, DecisionLogTracesEveryCheckAndReplaysTheLp) {
  ClusterSystem system(TestConfig(29));
  system.AddClass(GoalClass(1, 0.2));  // always violated: warm-up then LP
  system.AddClass(NoGoalClass());
  obs::DecisionLog log;
  system.SetDecisionLog(&log);
  system.Start();
  system.RunIntervals(20);

  const auto& controller =
      dynamic_cast<GoalOrientedController&>(system.controller());
  // One record per coordinator check that observed data.
  ASSERT_FALSE(log.records().empty());
  EXPECT_LE(log.size(), controller.stats().checks);

  int last_interval = -1;
  bool replayed = false;
  for (const obs::DecisionRecord& record : log.records()) {
    EXPECT_GT(record.interval, last_interval);  // strictly ordered
    last_interval = record.interval;
    EXPECT_EQ(record.klass, 1);
    EXPECT_FALSE(record.measure_outcome.empty());
    if (!record.lp_run) continue;
    ASSERT_TRUE(record.has_planes);
    ASSERT_FALSE(record.lp_mode.empty());

    // The acceptance gate: a record round-tripped through its JSON form
    // must reproduce the logged LP decision bit-for-bit.
    obs::DecisionRecord parsed;
    ASSERT_TRUE(obs::ParseDecisionRecord(record.ToJson(), &parsed));
    OptimizerInput input;
    input.planes.grad_k = parsed.grad_k;
    input.planes.intercept_k = parsed.intercept_k;
    input.planes.grad_0 = parsed.grad_0;
    input.planes.intercept_0 = parsed.intercept_0;
    input.goal_rt = parsed.goal_rt;
    input.upper_bounds = parsed.upper_bounds;
    const OptimizerOutput output = SolvePartitioning(input);
    ASSERT_EQ(output.allocation.size(), parsed.lp_allocation.size());
    for (size_t i = 0; i < output.allocation.size(); ++i) {
      EXPECT_EQ(output.allocation[i], parsed.lp_allocation[i]);
    }
    EXPECT_EQ(OptimizerModeName(output.mode), parsed.lp_mode);
    EXPECT_EQ(output.relaxed_rung, parsed.relaxed_rung);
    // Actuation is recorded whenever the check shipped an allocation.
    EXPECT_EQ(parsed.shipped_allocation.size(), 3u);
    EXPECT_EQ(parsed.granted_allocation.size(), 3u);
    replayed = true;
  }
  EXPECT_TRUE(replayed);
}

TEST(GoalControllerTest, PublishMetricsMirrorsProtocolStatsIntoRegistry) {
  ClusterSystem system(TestConfig(31));
  system.AddClass(GoalClass(1, 0.2));
  system.AddClass(NoGoalClass());
  system.Start();
  system.RunIntervals(10);

  const auto& controller =
      dynamic_cast<GoalOrientedController&>(system.controller());
  const auto& history = system.registry().history();
  ASSERT_EQ(history.size(), 10u);
  // Snapshots are taken right after each controller interval hook, before
  // the (1 ms delayed) coordinator check coroutine runs, so the last
  // snapshot reflects the counters as of the previous check.
  auto find = [&](const std::string& name) -> const obs::Registry::SnapshotEntry* {
    for (const auto& entry : history.back().entries) {
      if (entry.name == name) return &entry;
    }
    return nullptr;
  };
  const auto* checks = find("ctrl.checks");
  ASSERT_NE(checks, nullptr);
  EXPECT_GT(checks->value, 0.0);
  EXPECT_LE(checks->value,
            static_cast<double>(controller.stats().checks));
  ASSERT_NE(find("ctrl.lp_optimizations"), nullptr);
  ASSERT_NE(find("class1.store.rejected_points"), nullptr);
  const auto* store_size = find("class1.store.size");
  ASSERT_NE(store_size, nullptr);
  EXPECT_EQ(store_size->kind, obs::Registry::Kind::kGauge);
  // System-side instruments share the same namespace and snapshot.
  ASSERT_NE(find("class1.access.local-buffer"), nullptr);
  ASSERT_NE(find("cluster.nodes_up"), nullptr);
  ASSERT_NE(find("net.bytes.partition-protocol"), nullptr);
  ASSERT_NE(find("node0.cpu.wait_ms.p99"), nullptr);
}

TEST(GoalControllerTest, CoordinatorPlacementSpreadsClasses) {
  ClusterSystem system(TestConfig(23));
  system.AddClass(GoalClass(1, 5.0));
  workload::ClassSpec k2 = GoalClass(2, 5.0);
  k2.pages = {100, 160};
  system.AddClass(k2);
  workload::ClassSpec ng = NoGoalClass();
  ng.pages = {160, 200};
  system.AddClass(ng);
  system.Start();
  const auto& controller =
      dynamic_cast<GoalOrientedController&>(system.controller());
  EXPECT_EQ(controller.coordinator_node(1), 0u);
  EXPECT_EQ(controller.coordinator_node(2), 1u);
}

}  // namespace
}  // namespace memgoal::core
