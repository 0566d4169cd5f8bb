// Revised-simplex vs dense-oracle differential on the controller's own
// LPs. The production solver (la::SimplexSolver, revised simplex) and the
// test-only dense tableau (tests/oracles/dense_simplex.h) share nothing but
// the LinearProgram they read — full tableau vs LU-factorized revised
// method — so agreement here pins the controller's decisions to the LP
// itself rather than to one implementation's floating-point quirks.
//
// The raw LP solution is *not* required to be bit-identical: alternate
// optima and last-ulp differences in interior coordinates are legal. What
// must agree exactly is what the cluster acts on — the mode ladder and the
// page-rounded allocation — and the objectives must agree to 1e-9
// relative. Whole-run determinism of the same scenarios is pinned by the
// golden digests in bench_determinism_test.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/config.h"
#include "core/optimizer.h"
#include "core/scenario.h"
#include "core/system.h"
#include "core/variance_optimizer.h"
#include "la/simplex.h"
#include "obs/decision_log.h"
#include "oracles/dense_simplex.h"
#include "oracles/record_parse.h"

namespace memgoal::core {
namespace {

// One full scenario run; returns every controller decision record.
std::optional<std::vector<obs::DecisionRecord>> RunScenarioRecords(
    const std::string& text) {
  common::Config config;
  if (!config.ParseText(text)) {
    ADD_FAILURE() << "bad scenario text: " << config.error();
    return std::nullopt;
  }
  std::string error;
  std::optional<Scenario> scenario = LoadScenario(config, &error);
  if (!scenario.has_value()) {
    ADD_FAILURE() << "LoadScenario: " << error;
    return std::nullopt;
  }
  ClusterSystem system(scenario->system);
  for (const workload::ClassSpec& spec : scenario->classes) {
    system.AddClass(spec);
  }
  obs::DecisionLog decision_log;
  system.SetDecisionLog(&decision_log);
  system.Start();
  system.RunIntervals(scenario->intervals);
  return decision_log.records();
}

std::string ScenarioFile(const std::string& name) {
  const std::string path = std::string(MEMGOAL_SCENARIO_DIR "/") + name;
  std::ifstream file(path);
  EXPECT_TRUE(file.is_open()) << path;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

// The LP inputs a decision record logged.
OptimizerInput InputOf(const obs::DecisionRecord& record) {
  OptimizerInput input;
  input.planes.grad_k = record.grad_k;
  input.planes.intercept_k = record.intercept_k;
  input.planes.grad_0 = record.grad_0;
  input.planes.intercept_0 = record.intercept_0;
  input.goal_rt = record.goal_rt;
  input.upper_bounds = record.upper_bounds;
  return input;
}

TEST(LpOracleDifferential, LoggedDecisionsResolveIdenticallyOffline) {
  // Take every LP a run actually posed (planes, goal, bounds straight from
  // the decision log) and pose each rung of SolvePartitioning's fallback
  // chain — equality, inequality, each relaxed goal — to both solvers:
  // same status on every rung, objectives within 1e-9 relative. Then the
  // whole chain: same mode, same relaxation rung, and identical
  // allocations after the controller's page rounding. This checks the
  // solvers on the genuine production instances, decoupled from the
  // feedback loop (a near-miss at record 3 cannot hide behind identical
  // downstream behavior).
  constexpr double kPage = 4096.0;
  const std::vector<std::string> scenarios = {
      "base.conf", "gray.conf", "oltp_dss.conf"};
  size_t replayed = 0;
  for (const std::string& name : scenarios) {
    // The measure store needs N+1 warm-up points before any check reaches
    // the LP.
    const std::optional<std::vector<obs::DecisionRecord>> records =
        RunScenarioRecords(ScenarioFile(name) + "\nintervals=16\n");
    ASSERT_TRUE(records.has_value()) << name;
    for (const obs::DecisionRecord& record : *records) {
      if (!record.lp_run || !record.has_planes) continue;
      const OptimizerInput input = InputOf(record);
      std::vector<std::pair<bool, double>> rungs = {
          {true, input.goal_rt}, {false, input.goal_rt}};
      for (const double rho : kGoalRelaxationLadder) {
        rungs.emplace_back(false, input.goal_rt * (1.0 + rho));
      }
      for (const auto& [equality, goal_rt] : rungs) {
        la::SimplexSolver solver =
            PosePartitioningLp(input, equality, goal_rt);
        const la::SimplexResult dense = la::SolveDense(solver.program());
        const la::SimplexResult revised = solver.Solve();
        ASSERT_EQ(dense.status, revised.status)
            << name << " goal " << goal_rt << " equality " << equality;
        if (dense.status != la::SimplexStatus::kOptimal) continue;
        EXPECT_NEAR(dense.objective, revised.objective,
                    1e-9 * std::max(1.0, std::fabs(dense.objective)))
            << name << " goal " << goal_rt << " equality " << equality;
      }

      const OptimizerOutput dense =
          SolvePartitioningWith(input, la::SolveDenseRung);
      const OptimizerOutput revised = SolvePartitioning(input);
      EXPECT_EQ(dense.mode, revised.mode) << name;
      EXPECT_EQ(dense.relaxed_rung, revised.relaxed_rung) << name;
      const double tol =
          1e-9 * std::max(1.0, std::fabs(dense.predicted_rt_0));
      EXPECT_NEAR(dense.predicted_rt_0, revised.predicted_rt_0, tol) << name;
      ASSERT_EQ(dense.allocation.size(), revised.allocation.size());
      for (size_t i = 0; i < dense.allocation.size(); ++i) {
        EXPECT_EQ(std::floor(dense.allocation[i] / kPage),
                  std::floor(revised.allocation[i] / kPage))
            << name << " node " << i;
      }
      ++replayed;
    }
  }
  EXPECT_GT(replayed, 10u);
}

TEST(LpOracleDifferential, WarmStartedSolvesReplayBitForBit) {
  // The lp_warm_basis field's contract: a warm-started production solve is
  // reproducible offline by re-offering the logged basis. Replay every
  // warm record of a run and require the bit-identical allocation the
  // controller logged.
  const std::optional<std::vector<obs::DecisionRecord>> records =
      RunScenarioRecords(ScenarioFile("base.conf") + "\nintervals=8\n");
  ASSERT_TRUE(records.has_value());
  size_t warm_replayed = 0;
  for (const obs::DecisionRecord& record : *records) {
    if (!record.lp_run || !record.has_planes || !record.lp_warm) continue;
    la::SimplexBasis basis;
    ASSERT_TRUE(la::ParseSimplexBasis(record.lp_warm_basis, &basis));
    ASSERT_FALSE(basis.empty());
    OptimizerInput input = InputOf(record);
    input.warm = &basis;
    const OptimizerOutput replayed = SolvePartitioning(input);
    EXPECT_EQ(OptimizerModeName(replayed.mode), record.lp_mode);
    ASSERT_EQ(replayed.allocation.size(), record.lp_allocation.size());
    for (size_t i = 0; i < replayed.allocation.size(); ++i) {
      EXPECT_EQ(replayed.allocation[i], record.lp_allocation[i])
          << "node " << i;
    }
    ++warm_replayed;
  }
  // Steady state warms: most checks past warm-up must have offered a basis.
  EXPECT_GT(warm_replayed, 0u);
}

TEST(LpOracleDifferential, VarianceObjectiveAgreesAcrossBackends) {
  // No committed scenario runs the §8 variance objective, so cover its
  // 2n-variable LP shape directly. The minimum-MAD face of this LP is
  // typically not a single vertex (sliding allocation between nodes whose
  // dispersion terms are interior moves along an optimal edge), so the
  // revised solver and the dense oracle may legally return different
  // points; what must agree is the mode ladder and the objective —
  // predicted mean and dispersion — plus feasibility of both points.
  for (const size_t n : {3u, 6u, 12u}) {
    VarianceOptimizerInput input;
    input.node_planes.resize(n);
    input.mean_grad.assign(n, 0.0);
    input.upper_bounds.assign(n, 2.0 * 1024 * 1024);
    for (size_t i = 0; i < n; ++i) {
      const double slope = -1e-6 * (1.0 + 0.37 * static_cast<double>(i));
      input.node_planes[i].grad.assign(n, 0.0);
      input.node_planes[i].grad[i] = slope;
      // Strictly distinct intercepts: symmetric ties would admit alternate
      // optima, where the solvers may legally pick different vertices.
      input.node_planes[i].intercept = 20.0 + 1.7 * static_cast<double>(i);
      input.mean_grad[i] = slope / static_cast<double>(n);
      input.mean_intercept += input.node_planes[i].intercept /
                              static_cast<double>(n);
    }
    input.goal_rt = 18.0;

    const VarianceOptimizerOutput dense =
        SolveVariancePartitioningWith(input, la::SolveDenseRung);
    const VarianceOptimizerOutput revised = SolveVariancePartitioning(input);

    // This instance's goal is unreachable outright but reachable on the
    // relaxation ladder — at a deeper rung as n (and the zero-allocation
    // mean) grows — so it exercises the full retry chain on both solvers.
    EXPECT_EQ(dense.mode, OptimizerMode::kGoalRelaxed) << "n=" << n;
    EXPECT_EQ(dense.mode, revised.mode) << "n=" << n;
    EXPECT_EQ(dense.relaxed_goal_rt, revised.relaxed_goal_rt) << "n=" << n;
    const double mad_tol =
        1e-9 * std::max(1.0, std::fabs(dense.predicted_mad_rt));
    EXPECT_NEAR(dense.predicted_mad_rt, revised.predicted_mad_rt, mad_tol)
        << "n=" << n;
    // The relaxed rung solves an *inequality* LP, so the mean is only
    // bounded, not pinned: both points must respect the relaxed goal.
    for (const VarianceOptimizerOutput* out : {&dense, &revised}) {
      EXPECT_LE(out->predicted_mean_rt, dense.relaxed_goal_rt + 1e-6)
          << "n=" << n;
    }
    ASSERT_EQ(dense.allocation.size(), revised.allocation.size());
    for (size_t i = 0; i < n; ++i) {
      for (const VarianceOptimizerOutput* out : {&dense, &revised}) {
        EXPECT_GE(out->allocation[i], 0.0) << "n=" << n << " node " << i;
        EXPECT_LE(out->allocation[i], input.upper_bounds[i])
            << "n=" << n << " node " << i;
      }
    }
  }
}

}  // namespace
}  // namespace memgoal::core
