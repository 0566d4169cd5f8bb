#include "obs/decision_log.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/optimizer.h"
#include "oracles/record_parse.h"

namespace memgoal::obs {
namespace {

DecisionRecord FullRecord() {
  DecisionRecord record;
  record.interval = 12;
  record.sim_time_ms = 60001.0;
  record.klass = 1;
  record.home = 2;
  record.observed_rt_k = 17.25;
  record.has_observed_rt_0 = true;
  record.observed_rt_0 = 3.0 / 7.0;  // not exactly representable in decimal
  record.goal_rt = 10.0;
  record.tolerance_delta = 0.31;
  record.measure_outcome = "accepted";
  record.measured_allocation = {1048576.0, 0.0, 524288.0};
  record.condition_estimate = 8.25e9;
  record.store_ready = true;
  record.store_size = 4;
  record.has_planes = true;
  record.grad_k = {-1.5e-6, -2.0e-6, -0.1e-6};
  record.intercept_k = 21.0;
  record.grad_0 = {4.0e-7, 1.0e-7, 2.0e-7};
  record.intercept_0 = 2.5;
  record.upper_bounds = {2097152.0, 2097152.0, 2097152.0};
  record.lp_run = true;
  record.lp_mode = "goal_relaxed";
  record.relaxed_rung = 1;
  record.relaxed_goal_rt = 12.5;
  record.lp.optimal = 2;
  record.lp.infeasible = 2;
  record.lp.unbounded = 0;
  record.lp.relaxed_retries = 2;
  record.lp_allocation = {2097152.0, 1234944.0, 0.0};
  record.shipped_allocation = {2097152.0, 1232896.0, 0.0};
  record.granted_allocation = {2097152.0, 1232896.0, 0.0};
  return record;
}

TEST(DecisionRecordTest, JsonRoundTripIsExact) {
  const DecisionRecord record = FullRecord();
  DecisionRecord parsed;
  ASSERT_TRUE(ParseDecisionRecord(record.ToJson(), &parsed));

  EXPECT_EQ(parsed.interval, record.interval);
  EXPECT_EQ(parsed.sim_time_ms, record.sim_time_ms);
  EXPECT_EQ(parsed.klass, record.klass);
  EXPECT_EQ(parsed.home, record.home);
  // %.17g round-trips doubles bit-for-bit, so exact equality is the point.
  EXPECT_EQ(parsed.observed_rt_0, record.observed_rt_0);
  EXPECT_EQ(parsed.measure_outcome, record.measure_outcome);
  EXPECT_EQ(parsed.measured_allocation, record.measured_allocation);
  EXPECT_EQ(parsed.condition_estimate, record.condition_estimate);
  EXPECT_EQ(parsed.store_ready, record.store_ready);
  EXPECT_EQ(parsed.store_size, record.store_size);
  EXPECT_EQ(parsed.has_planes, record.has_planes);
  EXPECT_EQ(parsed.grad_k, record.grad_k);
  EXPECT_EQ(parsed.intercept_k, record.intercept_k);
  EXPECT_EQ(parsed.grad_0, record.grad_0);
  EXPECT_EQ(parsed.upper_bounds, record.upper_bounds);
  EXPECT_EQ(parsed.lp_run, record.lp_run);
  EXPECT_EQ(parsed.lp_mode, record.lp_mode);
  EXPECT_EQ(parsed.relaxed_rung, record.relaxed_rung);
  EXPECT_EQ(parsed.relaxed_goal_rt, record.relaxed_goal_rt);
  EXPECT_EQ(parsed.lp.optimal, record.lp.optimal);
  EXPECT_EQ(parsed.lp.relaxed_retries, record.lp.relaxed_retries);
  EXPECT_EQ(parsed.lp_allocation, record.lp_allocation);
  EXPECT_EQ(parsed.shipped_allocation, record.shipped_allocation);
  EXPECT_EQ(parsed.granted_allocation, record.granted_allocation);
}

TEST(DecisionRecordTest, ParseRejectsTruncatedInput) {
  const std::string json = FullRecord().ToJson();
  DecisionRecord out;
  EXPECT_FALSE(ParseDecisionRecord(json.substr(0, json.size() / 2), &out));
  EXPECT_FALSE(ParseDecisionRecord("", &out));
  EXPECT_FALSE(ParseDecisionRecord("{}", &out));
}

// The acceptance-criteria replay: serialize the LP inputs the controller
// logged, parse them back, re-run SolvePartitioning, and require the
// *identical* allocation. Any lossy serialization (e.g. %g instead of
// %.17g) breaks this for irrational-looking gradients.
TEST(DecisionRecordTest, ReplayReproducesLpAllocationBitForBit) {
  common::Rng rng(991);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = 3 + static_cast<size_t>(trial % 4);
    core::OptimizerInput input;
    input.planes.grad_k.resize(n);
    input.planes.grad_0.resize(n);
    input.upper_bounds.assign(n, 2.0 * 1024 * 1024);
    for (size_t i = 0; i < n; ++i) {
      input.planes.grad_k[i] = -rng.Uniform(1e-7, 5e-6);
      input.planes.grad_0[i] = rng.Uniform(1e-8, 1e-6);
    }
    input.planes.intercept_k = rng.Uniform(5.0, 30.0);
    input.planes.intercept_0 = rng.Uniform(1.0, 5.0);
    // Spread across the mode ladder: some goals reachable, some not.
    input.goal_rt = rng.Uniform(0.5, 25.0);
    const core::OptimizerOutput output = SolvePartitioning(input);

    DecisionRecord record;
    record.grad_k = input.planes.grad_k;
    record.intercept_k = input.planes.intercept_k;
    record.grad_0 = input.planes.grad_0;
    record.intercept_0 = input.planes.intercept_0;
    record.goal_rt = input.goal_rt;
    record.upper_bounds = input.upper_bounds;
    record.has_planes = true;
    record.lp_run = true;
    record.lp_mode = core::OptimizerModeName(output.mode);
    record.relaxed_rung = output.relaxed_rung;
    record.lp_allocation = output.allocation;

    DecisionRecord parsed;
    ASSERT_TRUE(ParseDecisionRecord(record.ToJson(), &parsed));

    core::OptimizerInput replay_input;
    replay_input.planes.grad_k = parsed.grad_k;
    replay_input.planes.intercept_k = parsed.intercept_k;
    replay_input.planes.grad_0 = parsed.grad_0;
    replay_input.planes.intercept_0 = parsed.intercept_0;
    replay_input.goal_rt = parsed.goal_rt;
    replay_input.upper_bounds = parsed.upper_bounds;
    const core::OptimizerOutput replayed = SolvePartitioning(replay_input);

    ASSERT_EQ(replayed.allocation.size(), parsed.lp_allocation.size());
    for (size_t i = 0; i < replayed.allocation.size(); ++i) {
      // Bit-for-bit: the replayed solve saw bit-identical inputs.
      EXPECT_EQ(replayed.allocation[i], parsed.lp_allocation[i])
          << "trial " << trial << " node " << i;
    }
    EXPECT_EQ(core::OptimizerModeName(replayed.mode), parsed.lp_mode)
        << "trial " << trial;
    EXPECT_EQ(replayed.relaxed_rung, parsed.relaxed_rung) << "trial " << trial;
  }
}

TEST(DecisionLogTest, WriteJsonlEmitsOneParseableLinePerRecord) {
  DecisionLog log;
  log.Append(FullRecord());
  DecisionRecord second = FullRecord();
  second.interval = 13;
  log.Append(std::move(second));
  ASSERT_EQ(log.size(), 2u);

  std::FILE* file = std::tmpfile();
  ASSERT_NE(file, nullptr);
  log.WriteJsonl(file);
  std::fseek(file, 0, SEEK_SET);
  char line[8192];
  int lines = 0;
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    std::string text(line);
    while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
      text.pop_back();
    }
    DecisionRecord parsed;
    EXPECT_TRUE(ParseDecisionRecord(text, &parsed)) << text;
    EXPECT_EQ(parsed.interval, 12 + lines);
    ++lines;
  }
  EXPECT_EQ(lines, 2);
  std::fclose(file);
}

}  // namespace
}  // namespace memgoal::obs
