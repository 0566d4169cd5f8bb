#include "obs/attainment.h"

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/system.h"
#include "obs/decision_log.h"
#include "obs/latency_budget.h"
#include "oracles/record_parse.h"
#include "workload/spec.h"

namespace memgoal::obs {
namespace {

TEST(RequestBudgetTest, ResidualClosesTheBudgetExactly) {
  RequestBudget budget;
  budget.Add(BudgetPhase::kCpuWait, 0.125);
  budget.Add(BudgetPhase::kCpuService, 0.25);
  budget.Add(BudgetPhase::kDiskService, 3.0 / 7.0);
  budget.SetResidual(1.0);
  EXPECT_EQ(budget.Sum(), 1.0);
  EXPECT_DOUBLE_EQ(budget.AttributedSum(), 0.125 + 0.25 + 3.0 / 7.0);
}

TEST(AttainmentTrackerTest, RecordRequestTracksWorstSumError) {
  AttainmentTracker tracker;
  tracker.Enable(true);
  RequestBudget closed;
  closed.Add(BudgetPhase::kDiskService, 1.5);
  closed.SetResidual(2.0);
  tracker.RecordRequest(1, 0, 2.0, closed);
  EXPECT_EQ(tracker.max_sum_error(), 0.0);

  RequestBudget open;
  open.Add(BudgetPhase::kDiskService, 1.5);  // no residual: sums to 1.5
  tracker.RecordRequest(1, 0, 2.0, open);
  EXPECT_NEAR(tracker.max_sum_error(), 0.5, 1e-15);
  EXPECT_EQ(tracker.requests_recorded(), 2u);
}

TEST(AttainmentTrackerTest, BurnRateScalesMissFractionByErrorBudget) {
  AttainmentTracker::SloState state;
  EXPECT_EQ(AttainmentTracker::BurnRate(state, 6), 0.0);  // no data yet

  // Oldest -> newest: 4 hits then 2 misses.
  for (int i = 0; i < 4; ++i) state.window.push_back(true);
  for (int i = 0; i < 2; ++i) state.window.push_back(false);
  // Fast window (6): 2/6 missed, over a 10% budget -> burn rate 10/3.
  EXPECT_NEAR(AttainmentTracker::BurnRate(state, 6), (2.0 / 6.0) / 0.1,
              1e-12);
  // A 2-interval window sees only the trailing misses: burn rate 10.
  EXPECT_NEAR(AttainmentTracker::BurnRate(state, 2), 10.0, 1e-12);
  // A window longer than the history clamps to the history.
  EXPECT_NEAR(AttainmentTracker::BurnRate(state, 36), (2.0 / 6.0) / 0.1,
              1e-12);
}

AttainmentTracker::ClassSample GoalSample(bool satisfied, uint64_t ops,
                                          uint64_t bytes) {
  AttainmentTracker::ClassSample sample;
  sample.klass = 1;
  sample.has_goal = true;
  sample.satisfied = satisfied;
  sample.ops_completed = ops;
  sample.dedicated_bytes = bytes;
  return sample;
}

TEST(AttainmentTrackerTest, SloWindowsAdvancePerInterval) {
  AttainmentTracker tracker;
  tracker.Enable(true);
  int interval = 0;
  auto feed = [&](bool satisfied, uint64_t ops, uint64_t bytes) {
    tracker.OnIntervalEnd(interval, interval * 5000.0,
                          {GoalSample(satisfied, ops, bytes)});
    ++interval;
  };

  feed(true, 10, 100);
  const AttainmentTracker::SloState& state = tracker.slo().at(1);
  EXPECT_EQ(state.intervals_counted, 1u);
  EXPECT_EQ(state.intervals_since_miss, -1);  // never missed

  feed(false, 10, 200);
  EXPECT_EQ(state.misses, 1u);
  EXPECT_EQ(state.intervals_since_miss, 0);

  // An idle interval neither meets nor misses the goal (and freezes the
  // since-miss clock), but still feeds the oscillation detector.
  feed(true, 0, 150);
  EXPECT_EQ(state.intervals_counted, 2u);
  EXPECT_EQ(state.intervals_since_miss, 0);

  feed(true, 10, 180);
  EXPECT_EQ(state.intervals_counted, 3u);
  EXPECT_EQ(state.intervals_satisfied, 2u);
  EXPECT_EQ(state.intervals_since_miss, 1);

  // Allocation deltas so far: +100, -50, +30 — two direction reversals.
  EXPECT_EQ(state.oscillations, 2u);
  EXPECT_EQ(state.window.size(), 3u);
}

// The decision record of a class-1 check that measured `observed_rt_ms`
// against a 10 ms goal with a 1 ms tolerance.
DecisionRecord MeasuredCheck(int interval, double observed_rt_ms) {
  DecisionRecord record;
  record.interval = interval;
  record.sim_time_ms = interval * 5000.0 + 1.0;
  record.klass = 1;
  record.observed_rt_k = observed_rt_ms;
  record.goal_rt = 10.0;
  record.tolerance_delta = 1.0;
  return record;
}

TEST(AttainmentTrackerTest, InBandMeasuredChecksFeedTheBaseline) {
  AttainmentTracker tracker;
  tracker.Enable(true);

  tracker.RecordCheck(MeasuredCheck(0, 9.5));
  tracker.RecordCheck(MeasuredCheck(1, 15.0));  // too slow
  // A check that exited before measuring (goal_rt stays 0) never refreshes
  // the baseline.
  DecisionRecord unmeasured;
  unmeasured.klass = 1;
  tracker.RecordCheck(unmeasured);

  // Only the in-band check refreshed the converged baseline.
  const AttainmentTracker::SloState& state = tracker.slo().at(1);
  ASSERT_EQ(state.baseline_rts.size(), 1u);
  EXPECT_EQ(state.baseline_rts.front(), 9.5);
}

TEST(AttainmentTrackerTest, MissCardJoinsBudgetAndBaselineInTheRecord) {
  AttainmentTracker tracker;
  tracker.Enable(true);

  RequestBudget budget;
  budget.Add(BudgetPhase::kDiskWait, 6.0);
  budget.Add(BudgetPhase::kCpuService, 1.0);
  budget.SetResidual(8.0);
  tracker.RecordRequest(1, 2, 8.0, budget);
  tracker.OnIntervalEnd(0, 5000.0, {GoalSample(true, 1, 100)});

  tracker.RecordCheck(MeasuredCheck(0, 8.0));

  DecisionRecord record = MeasuredCheck(1, 14.0);
  tracker.RecordMiss(&record);
  EXPECT_TRUE(record.miss_card);
  EXPECT_EQ(record.miss_dominant_phase, "disk_wait");
  EXPECT_EQ(record.miss_dominant_ms, 6.0);
  ASSERT_EQ(record.miss_phase_ms.size(),
            static_cast<size_t>(kNumBudgetPhases));
  EXPECT_EQ(record.miss_phase_ms[static_cast<int>(BudgetPhase::kDiskWait)],
            6.0);
  EXPECT_EQ(record.miss_phase_ms[static_cast<int>(BudgetPhase::kCpuService)],
            1.0);
  EXPECT_EQ(record.miss_phase_ms[static_cast<int>(BudgetPhase::kResidual)],
            1.0);
  EXPECT_EQ(record.miss_baseline_rt, 8.0);
  EXPECT_EQ(record.miss_deviation_ms, 6.0);
  // The fault snapshot is the controller's to write.
  EXPECT_EQ(record.miss_nodes_down, 0u);
  EXPECT_FALSE(record.miss_partitioned);
  EXPECT_EQ(record.miss_corruptions, 0u);

  // The summary counts read the card once.
  EXPECT_EQ(tracker.misses_recorded(), 1u);
  const AttainmentTracker::SloState& state = tracker.slo().at(1);
  EXPECT_EQ(state.miss_phases[static_cast<int>(BudgetPhase::kDiskWait)], 1u);
}

TEST(AttainmentTrackerTest, MissCardWithoutBudgetNamesTheResidual) {
  AttainmentTracker tracker;
  tracker.Enable(true);
  DecisionRecord record = MeasuredCheck(0, 14.0);
  tracker.RecordMiss(&record);
  EXPECT_TRUE(record.miss_card);
  EXPECT_EQ(record.miss_dominant_phase, "residual");
  EXPECT_EQ(record.miss_dominant_ms, 0.0);
  EXPECT_EQ(record.miss_phase_ms,
            std::vector<double>(static_cast<size_t>(kNumBudgetPhases), 0.0));
  // No satisfied check yet: the baseline is 0 and the deviation the RT.
  EXPECT_EQ(record.miss_baseline_rt, 0.0);
  EXPECT_EQ(record.miss_deviation_ms, 14.0);
  EXPECT_EQ(tracker.slo().at(1).miss_phases[static_cast<int>(
                BudgetPhase::kResidual)],
            1u);
}

TEST(AttainmentTrackerTest, DisabledTrackerIsInert) {
  AttainmentTracker tracker;  // never enabled
  RequestBudget budget;
  budget.SetResidual(1.0);
  tracker.RecordRequest(1, 0, 1.0, budget);
  tracker.OnIntervalEnd(0, 5000.0, {GoalSample(true, 1, 100)});
  tracker.RecordCheck(MeasuredCheck(0, 9.0));
  EXPECT_EQ(tracker.requests_recorded(), 0u);
  EXPECT_TRUE(tracker.rows().empty());
  EXPECT_TRUE(tracker.slo().empty());
}

// -- The closed-budget property over a real cluster run ----------------------

std::unique_ptr<core::ClusterSystem> BuildFaultySystem() {
  core::SystemConfig config;
  config.num_nodes = 3;
  config.cache_bytes_per_node = 2ull << 20;
  config.db_pages = 2000;
  config.seed = 17;
  // Compose every fault family so all attribution paths run: a crash with
  // recovery, a gray episode on another node, and continuous bit-rot.
  const uint32_t victim = config.num_nodes - 1;
  config.faults.script = {{30000.0, victim, /*crash=*/true},
                          {50000.0, victim, /*crash=*/false}};
  config.faults.degradation_script = {
      {60000.0, 0, /*begin=*/true, 20.0},
      {80000.0, 0, /*begin=*/false}};
  config.faults.mttc_ms = 20000.0;
  config.corrupt_latent_fraction = 0.1;
  config.scrub_interval_ms = 500.0;
  auto system = std::make_unique<core::ClusterSystem>(config);
  workload::ClassSpec goal;
  goal.id = 1;
  goal.goal_rt_ms = 8.0;
  goal.pages = {0, 1000};
  goal.mean_interarrival_ms = 40.0;
  workload::ClassSpec nogoal;
  nogoal.id = 0;
  nogoal.pages = {1000, 2000};
  nogoal.mean_interarrival_ms = 40.0;
  system->AddClass(goal);
  system->AddClass(nogoal);
  return system;
}

TEST(AttainmentIntegrationTest, BudgetDecompositionClosesUnderFaults) {
  auto system = BuildFaultySystem();
  AttainmentTracker tracker;
  tracker.Enable(true);
  system->SetAttainment(&tracker);
  system->Start();
  system->RunIntervals(24);

  EXPECT_GT(tracker.requests_recorded(), 0u);
  // The acceptance bound: every completed request's decomposition summed
  // back to its measured response time within 1e-9 sim-ms.
  EXPECT_LE(tracker.max_sum_error(), 1e-9);

  ASSERT_FALSE(tracker.rows().empty());
  uint64_t row_requests = 0;
  for (const AttainmentTracker::BudgetRow& row : tracker.rows()) {
    row_requests += row.requests;
    double phase_sum = 0.0;
    for (double ms : row.phase_ms) phase_sum += ms;
    // Aggregated rows stay closed too (folded per-request error only).
    EXPECT_NEAR(phase_sum, row.rt_sum_ms, 1e-6);
  }
  EXPECT_EQ(row_requests, tracker.requests_recorded());

  // Under a crash, a gray episode and bit-rot the goal class cannot have
  // spent its whole life in pure CPU: some wait/fetch attribution exists.
  double goal_cpu_service = 0.0, goal_non_cpu = 0.0;
  for (const AttainmentTracker::BudgetRow& row : tracker.rows()) {
    if (row.klass != 1) continue;
    goal_cpu_service +=
        row.phase_ms[static_cast<int>(BudgetPhase::kCpuService)];
    for (int i = 0; i < kNumBudgetPhases; ++i) {
      if (i != static_cast<int>(BudgetPhase::kCpuService)) {
        goal_non_cpu += row.phase_ms[i];
      }
    }
  }
  EXPECT_GT(goal_cpu_service, 0.0);
  EXPECT_GT(goal_non_cpu, 0.0);

  // The SLO monitor saw the goal class.
  ASSERT_TRUE(tracker.slo().count(1));
  EXPECT_GT(tracker.slo().at(1).intervals_counted, 0u);
}

TEST(AttainmentIntegrationTest, AttachedDisabledTrackerRecordsNothing) {
  auto system = BuildFaultySystem();
  AttainmentTracker tracker;  // attached but never enabled
  system->SetAttainment(&tracker);
  system->Start();
  system->RunIntervals(8);
  EXPECT_EQ(tracker.requests_recorded(), 0u);
  EXPECT_TRUE(tracker.rows().empty());
  EXPECT_EQ(tracker.misses_recorded(), 0u);
}

// -- Miss-card decision records ----------------------------------------------

TEST(AttainmentMissCardTest, DecisionRecordRoundTripsBitForBit) {
  DecisionRecord record;
  record.interval = 7;
  record.sim_time_ms = 35001.0;
  record.klass = 1;
  record.observed_rt_k = 14.5;
  record.goal_rt = 10.0;
  record.tolerance_delta = 0.5;
  record.miss_card = true;
  record.miss_dominant_phase = "disk_wait";
  record.miss_dominant_ms = 6.25;
  record.miss_phase_ms = {0.1, 0.2, 6.25, 0.5, 0.0, 0.0,
                          3.0 / 7.0, 0.0, 0.0, 0.0, 0.125};
  record.miss_baseline_rt = 8.5;
  record.miss_deviation_ms = 6.0;
  record.miss_nodes_down = 1;
  record.miss_nodes_degraded = 2;
  record.miss_partitioned = true;
  record.miss_corruptions = 3;

  const std::string json = record.ToJson();
  DecisionRecord parsed;
  ASSERT_TRUE(ParseDecisionRecord(json, &parsed));
  EXPECT_TRUE(parsed.miss_card);
  EXPECT_EQ(parsed.miss_dominant_phase, record.miss_dominant_phase);
  EXPECT_EQ(parsed.miss_dominant_ms, record.miss_dominant_ms);
  EXPECT_EQ(parsed.miss_phase_ms, record.miss_phase_ms);
  EXPECT_EQ(parsed.miss_baseline_rt, record.miss_baseline_rt);
  EXPECT_EQ(parsed.miss_deviation_ms, record.miss_deviation_ms);
  EXPECT_EQ(parsed.miss_nodes_down, record.miss_nodes_down);
  EXPECT_EQ(parsed.miss_nodes_degraded, record.miss_nodes_degraded);
  EXPECT_EQ(parsed.miss_partitioned, record.miss_partitioned);
  EXPECT_EQ(parsed.miss_corruptions, record.miss_corruptions);
  // Replay fidelity, PR-4 style: re-serializing the parse reproduces the
  // original line byte for byte.
  EXPECT_EQ(parsed.ToJson(), json);
}

TEST(AttainmentMissCardTest, RecordWithoutMissCardOmitsTheBlock) {
  DecisionRecord record;
  record.interval = 3;
  record.klass = 1;
  const std::string json = record.ToJson();
  EXPECT_EQ(json.find("miss_"), std::string::npos);
  DecisionRecord parsed;
  ASSERT_TRUE(ParseDecisionRecord(json, &parsed));
  EXPECT_FALSE(parsed.miss_card);
}

}  // namespace
}  // namespace memgoal::obs
