// Cross-checks of the revised simplex against the dense tableau oracle
// (tests/oracles/dense_simplex.h) and a brute-force vertex enumerator, plus
// the warm-start contract (a re-solve seeded with the previous basis must
// reproduce the cold solution). The corpus leans on small integer
// coefficients on purpose: they manufacture primal and dual degeneracy
// (ties in the ratio test, zero reduced costs at the optimum), which is
// exactly where a simplex implementation breaks.

#include "la/revised_simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/optimizer.h"
#include "la/gauss.h"
#include "la/simplex.h"
#include "oracles/dense_simplex.h"
#include "oracles/gauss_reference.h"
#include "oracles/record_parse.h"

namespace memgoal::la {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

enum class Rel { kLe, kGe, kEq };

/// One LP in the solver's native form: min/max c.x, rows, bounds [0, ub].
struct Lp {
  const char* name;
  bool minimize = true;
  Vector c;
  std::vector<Vector> rows;
  std::vector<Rel> rels;
  Vector rhs;
  Vector ub;  // kInf entries mean unbounded above
};

// Poses `lp` through SimplexSolver's public API.
SimplexSolver Pose(const Lp& lp) {
  SimplexSolver solver(lp.c.size());
  solver.SetObjective(lp.c, lp.minimize);
  for (size_t i = 0; i < lp.rows.size(); ++i) {
    switch (lp.rels[i]) {
      case Rel::kLe:
        solver.AddLe(lp.rows[i], lp.rhs[i]);
        break;
      case Rel::kGe:
        solver.AddGe(lp.rows[i], lp.rhs[i]);
        break;
      case Rel::kEq:
        solver.AddEq(lp.rows[i], lp.rhs[i]);
        break;
    }
  }
  for (size_t j = 0; j < lp.ub.size(); ++j) {
    if (lp.ub[j] < kInf) solver.SetUpperBound(j, lp.ub[j]);
  }
  return solver;
}

SimplexResult SolveWith(const Lp& lp, const SimplexBasis* warm = nullptr) {
  return Pose(lp).Solve(warm);
}

SimplexResult SolveOracle(const Lp& lp) {
  return SolveDense(Pose(lp).program());
}

bool Feasible(const Lp& lp, const Vector& x, double tol) {
  for (size_t j = 0; j < x.size(); ++j) {
    if (x[j] < -tol || x[j] > lp.ub[j] + tol) return false;
  }
  for (size_t i = 0; i < lp.rows.size(); ++i) {
    const double lhs = Dot(lp.rows[i], x);
    switch (lp.rels[i]) {
      case Rel::kLe:
        if (lhs > lp.rhs[i] + tol) return false;
        break;
      case Rel::kGe:
        if (lhs < lp.rhs[i] - tol) return false;
        break;
      case Rel::kEq:
        if (std::fabs(lhs - lp.rhs[i]) > tol) return false;
        break;
    }
  }
  return true;
}

/// Brute-force oracle for fully box-bounded instances (compact feasible
/// region, so the LP is feasible iff a feasible vertex exists, and the
/// optimum is attained at one). Enumerates every choice of n active
/// constraints from {rows-as-equalities, x_j = 0, x_j = ub_j}, solves the
/// n x n system, and keeps the best feasible solution. Exponential — only
/// for n <= 4.
std::optional<double> BestVertexObjective(const Lp& lp) {
  const size_t n = lp.c.size();
  const size_t m = lp.rows.size();
  const size_t total = m + 2 * n;
  std::optional<double> best;
  std::vector<size_t> pick(n, 0);
  // Odometer over all C(total, n) subsets.
  for (size_t i = 0; i < n; ++i) pick[i] = i;
  while (true) {
    Matrix a(n, n);
    Vector b(n, 0.0);
    for (size_t k = 0; k < n; ++k) {
      const size_t idx = pick[k];
      Vector row(n, 0.0);
      double rhs = 0.0;
      if (idx < m) {
        row = lp.rows[idx];
        rhs = lp.rhs[idx];
      } else if (idx < m + n) {
        row[idx - m] = 1.0;  // x_j = 0
      } else {
        row[idx - m - n] = 1.0;
        rhs = lp.ub[idx - m - n];  // x_j = ub_j
      }
      a.SetRow(k, row);
      b[k] = rhs;
    }
    std::optional<Vector> x = SolveLinearSystem(a, b);
    if (x.has_value() && Feasible(lp, *x, 1e-7)) {
      const double z = Dot(lp.c, *x);
      if (!best.has_value() ||
          (lp.minimize ? z < *best : z > *best)) {
        best = z;
      }
    }
    // Advance the subset odometer.
    size_t k = n;
    while (k-- > 0) {
      if (pick[k] + (n - k) < total) {
        ++pick[k];
        for (size_t t = k + 1; t < n; ++t) pick[t] = pick[t - 1] + 1;
        break;
      }
      if (k == 0) return best;
    }
  }
}

void ExpectOracleAgrees(const Lp& lp) {
  const SimplexResult dense = SolveOracle(lp);
  const SimplexResult revised = SolveWith(lp);
  ASSERT_EQ(dense.status, revised.status) << lp.name;
  if (dense.status != SimplexStatus::kOptimal) return;
  const double scale = 1.0 + std::fabs(dense.objective);
  EXPECT_NEAR(dense.objective, revised.objective, 1e-9 * scale) << lp.name;
  // Both points must be feasible; they need not coincide (alternate optima
  // under dual degeneracy are legal).
  EXPECT_TRUE(Feasible(lp, dense.x, 1e-7)) << lp.name;
  EXPECT_TRUE(Feasible(lp, revised.x, 1e-7)) << lp.name;
}

TEST(RevisedSimplexCorpus, DegenerateAndPathologicalInstancesAgree) {
  const std::vector<Lp> corpus = {
      // Primal degeneracy: three constraints meet at the optimum vertex.
      {"degenerate-vertex", true, {-1.0, -1.0},
       {{1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}},
       {Rel::kLe, Rel::kLe, Rel::kLe}, {1.0, 1.0, 2.0}, {kInf, kInf}},
      // Dual degeneracy: objective parallel to a binding row, a whole edge
      // of alternate optima.
      {"dual-degenerate", true, {1.0, 1.0},
       {{1.0, 1.0}}, {Rel::kGe}, {4.0}, {kInf, kInf}},
      // Beale-style cycling-prone instance (classic anti-cycling stressor).
      {"beale", true, {-0.75, 150.0, -0.02, 6.0},
       {{0.25, -60.0, -1.0 / 25.0, 9.0},
        {0.5, -90.0, -1.0 / 50.0, 3.0},
        {0.0, 0.0, 1.0, 0.0}},
       {Rel::kLe, Rel::kLe, Rel::kLe}, {0.0, 0.0, 1.0},
       {kInf, kInf, kInf, kInf}},
      // Infeasible by contradictory rows.
      {"infeasible-rows", true, {1.0},
       {{1.0}, {1.0}}, {Rel::kLe, Rel::kGe}, {1.0, 2.0}, {kInf}},
      // Infeasible by bound: the equality needs x0 = 7 but ub is 5.
      {"infeasible-bound", true, {1.0},
       {{1.0}}, {Rel::kEq}, {7.0}, {5.0}},
      // Unbounded ray along x1.
      {"unbounded", false, {0.0, 1.0},
       {{1.0, 0.0}}, {Rel::kLe}, {3.0}, {kInf, kInf}},
      // Redundant equality pair keeps an artificial basic at zero.
      {"redundant-eq", true, {1.0, 1.0},
       {{1.0, 1.0}, {2.0, 2.0}}, {Rel::kEq, Rel::kEq}, {5.0, 10.0},
       {kInf, kInf}},
      // Fixed variable (ub == 0) plus a goal row.
      {"fixed-var", true, {1.0, 2.0},
       {{1.0, 1.0}}, {Rel::kGe}, {3.0}, {0.0, kInf}},
      // Equality whose slack bounds force phase 1, negative rhs.
      {"negative-rhs-eq", true, {0.5, 1.0, 0.8},
       {{-2.0, -1.0, -3.0}}, {Rel::kEq}, {-12.0}, {4.0, 4.0, 4.0}},
      // Zero rows the degraded controller emits for dead nodes.
      {"zero-row-feasible", true, {1.0, 1.0},
       {{0.0, 0.0}}, {Rel::kLe}, {5.0}, {kInf, kInf}},
      {"zero-row-infeasible", true, {1.0, 1.0},
       {{0.0, 0.0}}, {Rel::kGe}, {2.0}, {kInf, kInf}},
  };
  for (const Lp& lp : corpus) ExpectOracleAgrees(lp);
}

TEST(RevisedSimplexOracle, RandomSmallInstancesMatchVertexEnumeration) {
  // Small integer coefficients with full box bounds: compact region, heavy
  // primal/dual degeneracy, frequent infeasibility. Both solvers must agree
  // with exhaustive vertex enumeration on status and optimal value.
  common::Rng rng(20260809);
  int optimal_seen = 0, infeasible_seen = 0;
  for (int trial = 0; trial < 400; ++trial) {
    Lp lp;
    lp.name = "random";
    const size_t n = static_cast<size_t>(rng.UniformInt(2, 4));
    const size_t m = static_cast<size_t>(rng.UniformInt(1, 4));
    lp.minimize = rng.UniformInt(0, 1) == 0;
    lp.c.resize(n);
    for (double& v : lp.c) v = static_cast<double>(rng.UniformInt(-3, 3));
    for (size_t i = 0; i < m; ++i) {
      Vector row(n);
      for (double& v : row) v = static_cast<double>(rng.UniformInt(-2, 2));
      lp.rows.push_back(row);
      lp.rels.push_back(static_cast<Rel>(rng.UniformInt(0, 2)));
      lp.rhs.push_back(static_cast<double>(rng.UniformInt(-4, 8)));
    }
    lp.ub.resize(n);
    for (double& v : lp.ub) v = static_cast<double>(rng.UniformInt(1, 5));

    const std::optional<double> oracle = BestVertexObjective(lp);
    const SimplexResult dense = SolveOracle(lp);
    const SimplexResult revised = SolveWith(lp);
    ASSERT_EQ(dense.status, revised.status) << "trial " << trial;
    if (oracle.has_value()) {
      ++optimal_seen;
      ASSERT_EQ(revised.status, SimplexStatus::kOptimal) << "trial " << trial;
      const double tol = 1e-7 * (1.0 + std::fabs(*oracle));
      EXPECT_NEAR(revised.objective, *oracle, tol) << "trial " << trial;
      EXPECT_NEAR(dense.objective, *oracle, tol) << "trial " << trial;
      EXPECT_TRUE(Feasible(lp, revised.x, 1e-7)) << "trial " << trial;
    } else {
      ++infeasible_seen;
      EXPECT_EQ(revised.status, SimplexStatus::kInfeasible)
          << "trial " << trial;
    }
  }
  // The generator must actually exercise both sides.
  EXPECT_GT(optimal_seen, 50);
  EXPECT_GT(infeasible_seen, 50);
}

/// Random partitioning-shaped LP: one goal coupling row over n bounded
/// variables — the exact block structure the optimizer poses every control
/// interval.
Lp RandomPartitioningLp(common::Rng& rng, size_t n, bool equality) {
  Lp lp;
  lp.name = "partitioning";
  lp.c.resize(n);
  Vector grad(n);
  for (size_t j = 0; j < n; ++j) {
    lp.c[j] = rng.Uniform(1e-8, 1e-6);     // no-goal gradient (cost)
    grad[j] = -rng.Uniform(1e-7, 5e-6);    // goal gradient (negative slope)
  }
  lp.rows.push_back(grad);
  lp.rels.push_back(equality ? Rel::kEq : Rel::kLe);
  lp.rhs.push_back(rng.Uniform(-20.0, 5.0));
  lp.ub.assign(n, 2.0 * 1024 * 1024);
  return lp;
}

TEST(RevisedSimplexOracle, ProductionShapedPartitioningAgreesWithOracle) {
  // The partitioning LP at the scale-out node counts: negative goal-plane
  // gradients, positive no-goal costs, 2 MB per-node bounds, goals spread
  // across the mode ladder (reachable, relaxable, unreachable). The whole
  // fallback chain solved by the dense oracle and by SolvePartitioning
  // must pick the same mode and relaxation rung, the same page-rounded
  // allocation and an objective within 1e-9 relative. At n=256 this is
  // the instance family that exposed the pricing tolerance documented at
  // kPriceEps in revised_simplex.cc.
  constexpr double kPage = 4096.0;
  for (const size_t n : {16u, 64u, 256u}) {
    // The stream seeds bench_scaling's former LP comparison used, so these
    // are the instances EXPERIMENTS.md E8 reports.
    common::Rng rng(common::DeriveStreamSeed(1, (3ull << 32) + 7 + n));
    for (int trial = 0; trial < 10; ++trial) {
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
      input.goal_rt = rng.Uniform(0.5, 25.0);

      const core::OptimizerOutput dense =
          core::SolvePartitioningWith(input, SolveDenseRung);
      const core::OptimizerOutput revised = core::SolvePartitioning(input);
      EXPECT_EQ(dense.mode, revised.mode) << "n=" << n << " trial " << trial;
      EXPECT_EQ(dense.relaxed_rung, revised.relaxed_rung)
          << "n=" << n << " trial " << trial;
      const double scale = std::max(1.0, std::fabs(dense.predicted_rt_0));
      EXPECT_LE(std::fabs(dense.predicted_rt_0 - revised.predicted_rt_0),
                1e-9 * scale)
          << "n=" << n << " trial " << trial;
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(std::floor(dense.allocation[i] / kPage),
                  std::floor(revised.allocation[i] / kPage))
            << "n=" << n << " trial " << trial << " node " << i;
      }
    }
  }
}

TEST(RevisedSimplexWarmStart, WarmEqualsColdOnIdenticalProgram) {
  common::Rng rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t n = static_cast<size_t>(rng.UniformInt(2, 16));
    const Lp lp = RandomPartitioningLp(rng, n, trial % 2 == 0);
    const SimplexResult cold = SolveWith(lp);
    if (cold.status != SimplexStatus::kOptimal) continue;
    ASSERT_FALSE(cold.basis.empty()) << "trial " << trial;
    const SimplexResult warm =
        SolveWith(lp, &cold.basis);
    ASSERT_EQ(warm.status, SimplexStatus::kOptimal) << "trial " << trial;
    // Same basis in, same program: the canonical cleanup makes the point a
    // pure function of the final basis, so the warm re-solve is exact.
    EXPECT_EQ(warm.objective, cold.objective) << "trial " << trial;
    ASSERT_EQ(warm.x.size(), cold.x.size());
    for (size_t j = 0; j < n; ++j) {
      EXPECT_EQ(warm.x[j], cold.x[j]) << "trial " << trial << " var " << j;
    }
    // A warm start prices from the old optimum: re-solving must not need
    // more iterations than the cold solve.
    EXPECT_LE(warm.iterations, cold.iterations) << "trial " << trial;
  }
}

TEST(RevisedSimplexWarmStart, WarmEqualsColdAfterRhsPerturbation) {
  // The steady-state controller pattern: the goal moves a little between
  // intervals, the basis is re-offered. Warm and cold must land on the
  // same optimum (objective within 1e-9 relative).
  common::Rng rng(78);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t n = static_cast<size_t>(rng.UniformInt(2, 16));
    Lp lp = RandomPartitioningLp(rng, n, trial % 2 == 0);
    const SimplexResult prev = SolveWith(lp);
    if (prev.status != SimplexStatus::kOptimal) continue;
    lp.rhs[0] *= rng.Uniform(0.95, 1.05);
    const SimplexResult cold = SolveWith(lp);
    const SimplexResult warm =
        SolveWith(lp, &prev.basis);
    ASSERT_EQ(warm.status, cold.status) << "trial " << trial;
    if (cold.status != SimplexStatus::kOptimal) continue;
    const double tol = 1e-9 * (1.0 + std::fabs(cold.objective));
    EXPECT_NEAR(warm.objective, cold.objective, tol) << "trial " << trial;
    EXPECT_TRUE(Feasible(lp, warm.x, 1e-7)) << "trial " << trial;
  }
}

TEST(RevisedSimplexWarmStart, MismatchedBasisFallsBackToColdStart) {
  common::Rng rng(79);
  const Lp lp = RandomPartitioningLp(rng, 6, /*equality=*/true);
  const SimplexResult cold = SolveWith(lp);
  ASSERT_EQ(cold.status, SimplexStatus::kOptimal);
  // Wrong dimension: silently ignored.
  SimplexBasis wrong;
  wrong.status.assign(3, SimplexBasis::VarStatus::kAtLower);
  const SimplexResult r1 = SolveWith(lp, &wrong);
  EXPECT_EQ(r1.status, SimplexStatus::kOptimal);
  EXPECT_EQ(r1.objective, cold.objective);
  // Structurally absurd basis (everything basic): rejected, cold result.
  SimplexBasis absurd;
  absurd.status.assign(cold.basis.status.size(),
                       SimplexBasis::VarStatus::kBasic);
  const SimplexResult r2 = SolveWith(lp, &absurd);
  EXPECT_EQ(r2.status, SimplexStatus::kOptimal);
  EXPECT_EQ(r2.objective, cold.objective);
}

TEST(RevisedSimplexIterationLimit, CapSurfacesAsDistinctStatus) {
  // A direct SolveRevised call with a tiny budget: the solve cannot finish,
  // and the outcome must be kIterationLimit — not infeasible, not
  // unbounded, and certainly not a crash.
  LinearProgram lp;
  lp.num_vars = 3;
  lp.objective = {0.5, 1.0, 0.8};
  lp.rows = {{-2.0, -1.0, -3.0}};
  lp.relations = {LinearProgram::Relation::kEq};
  lp.rhs = {-12.0};
  lp.upper = {4.0, 4.0, 4.0};
  const SimplexResult limited = SolveRevised(lp, nullptr, /*max_iterations=*/1);
  EXPECT_EQ(limited.status, SimplexStatus::kIterationLimit);
  const SimplexResult full = SolveRevised(lp, nullptr, 1000);
  EXPECT_EQ(full.status, SimplexStatus::kOptimal);
}

TEST(SimplexBasisText, RoundTripsAndRejectsGarbage) {
  SimplexBasis basis;
  basis.status = {SimplexBasis::VarStatus::kAtLower,
                  SimplexBasis::VarStatus::kBasic,
                  SimplexBasis::VarStatus::kAtUpper,
                  SimplexBasis::VarStatus::kAtLower};
  EXPECT_EQ(basis.ToText(), "LBUL");
  SimplexBasis parsed;
  ASSERT_TRUE(ParseSimplexBasis("LBUL", &parsed));
  EXPECT_EQ(parsed.status, basis.status);
  EXPECT_TRUE(ParseSimplexBasis("", &parsed));
  EXPECT_TRUE(parsed.empty());
  EXPECT_FALSE(ParseSimplexBasis("LBX", &parsed));
}

}  // namespace
}  // namespace memgoal::la
