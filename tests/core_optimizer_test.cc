#include "core/optimizer.h"

#include <gtest/gtest.h>

namespace memgoal::core {
namespace {

OptimizerInput MakeInput() {
  OptimizerInput input;
  input.planes.grad_k = {-0.002, -0.001};  // more buffer -> faster
  input.planes.intercept_k = 10.0;
  input.planes.grad_0 = {0.001, 0.003};  // dedicating hurts no-goal
  input.planes.intercept_0 = 2.0;
  input.goal_rt = 6.0;
  input.upper_bounds = {4000.0, 4000.0};
  return input;
}

TEST(OptimizerTest, MeetsGoalWithEquality) {
  OptimizerInput input = MakeInput();
  const OptimizerOutput output = SolvePartitioning(input);
  EXPECT_EQ(output.mode, OptimizerMode::kGoalEquality);
  EXPECT_NEAR(output.predicted_rt_k, 6.0, 1e-6);
  // Node 0 reduces RT at 0.002/byte and costs the no-goal class only
  // 0.001/byte: strictly better, so the LP should load node 0 first.
  // Needed: 0.002*x0 + 0.001*x1 = 4  ->  x0 = 2000 suffices.
  EXPECT_NEAR(output.allocation[0], 2000.0, 1e-6);
  EXPECT_NEAR(output.allocation[1], 0.0, 1e-6);
}

TEST(OptimizerTest, PrefersCheaperNoGoalImpact) {
  OptimizerInput input = MakeInput();
  // Make node 0 expensive for the no-goal class: optimizer should shift to
  // node 1 (impact per RT-unit: node0 = 0.004/0.002=2, node1 = 0.0005/0.001
  // = 0.5).
  input.planes.grad_0 = {0.004, 0.0005};
  const OptimizerOutput output = SolvePartitioning(input);
  EXPECT_EQ(output.mode, OptimizerMode::kGoalEquality);
  EXPECT_NEAR(output.predicted_rt_k, 6.0, 1e-6);
  EXPECT_NEAR(output.allocation[1], 4000.0, 1e-6);  // saturate node 1
  EXPECT_NEAR(output.allocation[0], 0.0, 1e-9);
  // Remaining 4 - 0.001*4000 = 0 exactly: node 0 unused.
}

TEST(OptimizerTest, RespectsUpperBounds) {
  OptimizerInput input = MakeInput();
  input.goal_rt = 2.0;  // needs 0.002 x0 + 0.001 x1 = 8
  input.upper_bounds = {3000.0, 3000.0};
  const OptimizerOutput output = SolvePartitioning(input);
  // Max achievable reduction = 0.002*3000 + 0.001*3000 = 9 >= 8: feasible.
  EXPECT_EQ(output.mode, OptimizerMode::kGoalEquality);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_LE(output.allocation[i], 3000.0 + 1e-9);
    EXPECT_GE(output.allocation[i], -1e-9);
  }
  EXPECT_NEAR(output.predicted_rt_k, 2.0, 1e-6);
}

TEST(OptimizerTest, BestEffortWhenGoalUnreachable) {
  OptimizerInput input = MakeInput();
  input.goal_rt = 1.0;  // would need reduction 9 > max 0.002*4000+0.001*4000=12
  input.upper_bounds = {2000.0, 2000.0};  // now max reduction = 6 < 9
  const OptimizerOutput output = SolvePartitioning(input);
  EXPECT_EQ(output.mode, OptimizerMode::kBestEffort);
  // Best effort allocates everything available (monotonicity assumption).
  EXPECT_NEAR(output.allocation[0], 2000.0, 1e-9);
  EXPECT_NEAR(output.allocation[1], 2000.0, 1e-9);
  EXPECT_NEAR(output.predicted_rt_k, 10.0 - 6.0, 1e-9);
}

TEST(OptimizerTest, GoalAboveInterceptReleasesBuffer) {
  OptimizerInput input = MakeInput();
  // Goal slower than the zero-allocation response time: equality is
  // infeasible (gradients negative, so RT <= intercept always), but the
  // inequality RT <= goal holds at zero allocation — minimal no-goal
  // impact.
  input.goal_rt = 12.0;
  const OptimizerOutput output = SolvePartitioning(input);
  EXPECT_EQ(output.mode, OptimizerMode::kGoalInequality);
  EXPECT_NEAR(output.allocation[0], 0.0, 1e-9);
  EXPECT_NEAR(output.allocation[1], 0.0, 1e-9);
}

TEST(OptimizerTest, BestEffortIgnoresNoisyGradientSigns) {
  // A (noisy) fit can claim more buffer hurts; best effort falls back on
  // the paper's monotonicity assumption and still allocates the maximum.
  OptimizerInput input = MakeInput();
  input.planes.grad_k = {0.002, -0.0001};
  input.goal_rt = 0.5;
  input.upper_bounds = {1000.0, 1000.0};
  const OptimizerOutput output = SolvePartitioning(input);
  EXPECT_EQ(output.mode, OptimizerMode::kBestEffort);
  EXPECT_NEAR(output.allocation[0], 1000.0, 1e-9);
  EXPECT_NEAR(output.allocation[1], 1000.0, 1e-9);
}

TEST(OptimizerTest, RelaxedRetryWhenInequalityInfeasible) {
  OptimizerInput input = MakeInput();
  // Max reduction = 0.002*2000 + 0.001*2000 = 6, so RT bottoms out at 4.
  // Goal 3.8 is infeasible, but 3.8 * 1.10 = 4.18 is reachable: the first
  // rung of the relaxation ladder must succeed.
  input.goal_rt = 3.8;
  input.upper_bounds = {2000.0, 2000.0};
  const OptimizerOutput output = SolvePartitioning(input);
  EXPECT_EQ(output.mode, OptimizerMode::kGoalRelaxed);
  EXPECT_NEAR(output.relaxed_goal_rt, 3.8 * 1.10, 1e-12);
  EXPECT_LE(output.predicted_rt_k, output.relaxed_goal_rt + 1e-9);
  // Solve trail: equality infeasible, inequality infeasible, one relaxed
  // retry that ran to optimality.
  EXPECT_EQ(output.lp_stats.infeasible, 2u);
  EXPECT_EQ(output.lp_stats.relaxed_retries, 1u);
  EXPECT_EQ(output.lp_stats.optimal, 1u);
  EXPECT_EQ(output.lp_stats.unbounded, 0u);
}

TEST(OptimizerTest, BestEffortAfterRelaxationLadderExhausted) {
  OptimizerInput input = MakeInput();
  // Even the loosest rung (1.0 * 1.50 = 1.5) is below the reachable
  // minimum RT of 4: every retry fails and best effort saturates.
  input.goal_rt = 1.0;
  input.upper_bounds = {2000.0, 2000.0};
  const OptimizerOutput output = SolvePartitioning(input);
  EXPECT_EQ(output.mode, OptimizerMode::kBestEffort);
  EXPECT_NEAR(output.allocation[0], 2000.0, 1e-9);
  EXPECT_NEAR(output.allocation[1], 2000.0, 1e-9);
  EXPECT_EQ(output.lp_stats.relaxed_retries, 3u);
  EXPECT_EQ(output.lp_stats.infeasible, 5u);  // equality + inequality + 3
  EXPECT_EQ(output.lp_stats.optimal, 0u);
}

TEST(OptimizerTest, LpStatsCountSuccessfulSolves) {
  OptimizerInput input = MakeInput();
  const OptimizerOutput output = SolvePartitioning(input);
  ASSERT_EQ(output.mode, OptimizerMode::kGoalEquality);
  EXPECT_EQ(output.lp_stats.optimal, 1u);
  EXPECT_EQ(output.lp_stats.infeasible, 0u);
  EXPECT_EQ(output.lp_stats.relaxed_retries, 0u);

  obs::LpOutcomeStats total;
  total += output.lp_stats;
  total += output.lp_stats;
  EXPECT_EQ(total.optimal, 2u);
}

TEST(OptimizerTest, PredictionsEvaluateBothPlanes) {
  OptimizerInput input = MakeInput();
  const OptimizerOutput output = SolvePartitioning(input);
  const double rt0 = la::Dot(input.planes.grad_0, output.allocation) +
                     input.planes.intercept_0;
  EXPECT_NEAR(output.predicted_rt_0, rt0, 1e-9);
}

}  // namespace
}  // namespace memgoal::core
