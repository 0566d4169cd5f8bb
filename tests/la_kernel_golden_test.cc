// Bit pins for the controller's numeric kernels at the sizes the scenario
// goldens never reach: row replacements at n = 1..70 (every remainder of a
// four-row pass, runs that cross RowReplaceInverse::kRefreshInterval, rows
// whose update scale is exactly 0), la::Invert, Matrix::Multiply, the
// measure store's observe/fit loop at 3..256 nodes, and revised-simplex
// solves of partitioning- and variance-shaped LPs, cold and as warm chains.
//
// Each battery folds every output double's bit pattern, every basis string,
// status and iteration count into one FNV-1a digest. The kernels promise
// that each output comes from the same floating-point operations in the
// same order however they are scheduled, so a reordered, reassociated or
// contracted sum moves a digest here. Like ScenarioGolden the pins are
// specific to the tier-1 toolchain (x86-64, GCC 12.2, glibc 2.36): the
// random inputs come from libstdc++'s distributions. Re-pin only for an
// intended numeric change, from the observed value printed on failure.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/measure.h"
#include "core/optimizer.h"
#include "core/variance_optimizer.h"
#include "la/gauss.h"
#include "la/matrix.h"
#include "la/row_replace_inverse.h"
#include "la/simplex.h"

namespace memgoal {
namespace {

class Digest {
 public:
  void Add(uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      Mix(static_cast<unsigned char>(value >> (8 * byte)));
    }
  }
  void Add(double value) { Add(std::bit_cast<uint64_t>(value)); }
  void Add(bool value) { Add(static_cast<uint64_t>(value)); }
  void Add(int value) { Add(static_cast<uint64_t>(value)); }
  void Add(const std::string& text) {
    Add(static_cast<uint64_t>(text.size()));
    for (const char c : text) Mix(static_cast<unsigned char>(c));
  }
  void Add(const la::Vector& values) {
    Add(static_cast<uint64_t>(values.size()));
    for (const double v : values) Add(v);
  }
  void Add(const la::Matrix& m) {
    Add(static_cast<uint64_t>(m.rows()));
    Add(static_cast<uint64_t>(m.cols()));
    for (size_t i = 0; i < m.rows(); ++i) {
      for (size_t j = 0; j < m.cols(); ++j) Add(m(i, j));
    }
  }
  void Add(const la::SimplexResult& result) {
    Add(static_cast<int>(result.status));
    Add(result.iterations);
    Add(result.objective);
    Add(result.x);
    Add(result.basis.ToText());
  }

  uint64_t value() const { return hash_; }

 private:
  void Mix(unsigned char byte) {
    hash_ ^= byte;
    hash_ *= 0x100000001B3ull;
  }

  uint64_t hash_ = 0xCBF29CE484222325ull;
};

la::Vector RandomVector(common::Rng* rng, size_t n, double lo, double hi) {
  la::Vector v(n);
  for (double& x : v) x = rng->Uniform(lo, hi);
  return v;
}

// Dense random matrix with a dominant diagonal: well conditioned, so every
// battery below exercises the arithmetic rather than the singular exits.
la::Matrix DenseMatrix(common::Rng* rng, size_t n) {
  la::Matrix a(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) a(i, j) = rng->Uniform(-1.0, 1.0);
    a(i, i) += static_cast<double>(n);
  }
  return a;
}

// Block-diagonal matrix of 3x3 blocks: its inverse is block diagonal too,
// so a replacement that stays inside the row's block has an exactly zero
// update scale on every row outside it.
constexpr size_t kBlock = 3;

la::Vector BlockRow(common::Rng* rng, size_t n, size_t row) {
  la::Vector v(n, 0.0);
  const size_t begin = row / kBlock * kBlock;
  for (size_t j = begin; j < std::min(n, begin + kBlock); ++j) {
    v[j] = rng->Uniform(-1.0, 1.0);
  }
  v[row] += 4.0;
  return v;
}

la::Matrix BlockMatrix(common::Rng* rng, size_t n) {
  la::Matrix a(n, n);
  for (size_t i = 0; i < n; ++i) a.SetRow(i, BlockRow(rng, n, i));
  return a;
}

// Replacements past kRefreshInterval, so every run also takes the
// periodic re-inversion path at least once.
constexpr int kReplacements = la::RowReplaceInverse::kRefreshInterval + 6;

void RunReplacements(common::Rng* rng, bool block, Digest* digest) {
  for (size_t n = 1; n <= 70; ++n) {
    la::RowReplaceInverse inverse;
    const la::Matrix a = block ? BlockMatrix(rng, n) : DenseMatrix(rng, n);
    ASSERT_TRUE(inverse.Reset(a)) << n;
    digest->Add(inverse.inverse());
    digest->Add(inverse.ConditionEstimate());
    for (int k = 0; k < kReplacements; ++k) {
      const size_t row = static_cast<size_t>(rng->UniformInt(0, n - 1));
      la::Vector new_row = block ? BlockRow(rng, n, row)
                                 : RandomVector(rng, n, -1.0, 1.0);
      if (!block) new_row[row] += static_cast<double>(n);
      digest->Add(inverse.WouldRemainNonsingular(row, new_row));
      digest->Add(inverse.ReplaceRow(row, new_row));
      digest->Add(inverse.inverse());
      digest->Add(inverse.ConditionEstimate());
    }
    digest->Add(inverse.Solve(RandomVector(rng, n, -5.0, 5.0)));
  }
}

TEST(LaKernelGolden, RowReplaceInverseBatteries) {
  common::Rng rng(17);
  Digest digest;
  RunReplacements(&rng, /*block=*/false, &digest);
  RunReplacements(&rng, /*block=*/true, &digest);
  // A replacement that makes the matrix singular is refused and leaves the
  // inverse as it was.
  la::RowReplaceInverse inverse;
  ASSERT_TRUE(inverse.Reset(DenseMatrix(&rng, 5)));
  EXPECT_FALSE(inverse.ReplaceRow(2, inverse.matrix().Row(4)));
  digest.Add(inverse.inverse());
  EXPECT_EQ(digest.value(), 0xd45a416b54c0bbfcull)
      << "observed digest 0x" << std::hex << digest.value();
}

TEST(LaKernelGolden, InvertAndMultiply) {
  common::Rng rng(23);
  Digest digest;
  for (size_t n = 1; n <= 70; ++n) {
    const la::Matrix a = DenseMatrix(&rng, n);
    const std::optional<la::Matrix> inv = la::Invert(a);
    ASSERT_TRUE(inv.has_value()) << n;
    digest.Add(*inv);
    // Unscaled random entries: pivoting takes rows out of order.
    la::Matrix b(n, n);
    for (size_t i = 0; i < n; ++i) {
      b.SetRow(i, RandomVector(&rng, n, -1.0, 1.0));
    }
    const std::optional<la::Matrix> inv_b = la::Invert(b);
    digest.Add(inv_b.has_value());
    if (inv_b.has_value()) digest.Add(*inv_b);
    for (const size_t cols : {size_t{1}, size_t{7}, n}) {
      la::Matrix m(n, cols);
      for (size_t i = 0; i < n; ++i) {
        m.SetRow(i, RandomVector(&rng, cols, -3.0, 3.0));
      }
      digest.Add(m.Multiply(RandomVector(&rng, cols, -2.0, 2.0)));
    }
    digest.Add(a.Multiply(*inv));
  }
  // A singular matrix has no inverse.
  la::Matrix singular = DenseMatrix(&rng, 6);
  singular.SetRow(3, singular.Row(1));
  digest.Add(la::Invert(singular).has_value());
  EXPECT_EQ(digest.value(), 0xe528e3d991d2397dull)
      << "observed digest 0x" << std::hex << digest.value();
}

// A measure store fed the way the coordinator feeds it: allocations in
// whole 4 KB pages up to 2 MB per node, response times linear in them with
// noise, a repeated allocation now and then, and the occasional spike the
// outlier filter has to catch.
void RunStore(size_t nodes, int observations, common::Rng* rng,
              Digest* digest) {
  constexpr double kPage = 4096.0;
  constexpr double kCapacity = 2.0 * 1024 * 1024;
  core::MeasureStore store(nodes);
  const la::Vector weight_k = RandomVector(rng, nodes, -4e-6, -1e-6);
  const la::Vector weight_0 = RandomVector(rng, nodes, 1e-6, 4e-6);
  la::Vector per_node(nodes);
  la::Vector allocation(nodes);
  for (int t = 0; t < observations; ++t) {
    // Every eleventh interval keeps the last allocation: a refresh.
    if (t % 11 != 10) {
      for (double& bytes : allocation) {
        bytes = std::floor(rng->Uniform(0.0, kCapacity) / kPage) * kPage;
      }
    }
    double rt_k = 20.0 + la::Dot(weight_k, allocation);
    double rt_0 = 5.0 + la::Dot(weight_0, allocation);
    rt_k *= rng->Uniform(0.97, 1.03);
    rt_0 *= rng->Uniform(0.97, 1.03);
    if (t % 37 == 36) rt_k *= 50.0;
    for (size_t i = 0; i < nodes; ++i) {
      per_node[i] = rt_k + weight_k[i] * allocation[i];
    }
    const core::MeasureStore::ObserveOutcome outcome =
        store.ObserveDetailed(allocation, rt_k, rt_0, per_node);
    digest->Add(static_cast<int>(outcome));
    digest->Add(store.ConditionEstimate());
    const std::optional<core::MeasureStore::Planes> planes = store.FitPlanes();
    digest->Add(planes.has_value());
    if (planes.has_value()) {
      digest->Add(planes->grad_k);
      digest->Add(planes->intercept_k);
      digest->Add(planes->grad_0);
      digest->Add(planes->intercept_0);
    }
    if (nodes <= 16 && t % 5 == 0) {
      const auto node_planes = store.FitNodePlanes();
      digest->Add(node_planes.has_value());
      if (node_planes.has_value()) {
        for (const core::MeasureStore::NodePlane& plane : *node_planes) {
          digest->Add(plane.grad);
          digest->Add(plane.intercept);
        }
      }
    }
    // Halfway through, shrink the fit to every other node (an outage).
    if (t == observations / 2 && nodes > 1) {
      std::vector<size_t> active;
      for (size_t i = 0; i < nodes; i += 2) active.push_back(i);
      store.SetActiveNodes(active);
    }
  }
  digest->Add(store.rejected_points());
  digest->Add(store.outlier_rejections());
  digest->Add(store.condition_resets());
}

TEST(LaKernelGolden, MeasureStoreObserveAndFit) {
  common::Rng rng(29);
  Digest digest;
  RunStore(3, 300, &rng, &digest);
  RunStore(16, 300, &rng, &digest);
  RunStore(64, 400, &rng, &digest);
  RunStore(256, 700, &rng, &digest);
  EXPECT_EQ(digest.value(), 0x14faeef75dd9798bull)
      << "observed digest 0x" << std::hex << digest.value();
}

// The partitioning LP at n nodes (one goal row, n bounded variables), cold
// and then as a warm chain over drifting planes and goals, the way the
// controller re-solves it every check.
void RunPartitioningChain(size_t nodes, int solves, common::Rng* rng,
                          Digest* digest) {
  core::OptimizerInput input;
  input.upper_bounds.assign(nodes, 2.0 * 1024 * 1024);
  input.planes.grad_k = RandomVector(rng, nodes, -4e-6, -1e-6);
  input.planes.grad_0 = RandomVector(rng, nodes, 1e-6, 4e-6);
  input.planes.intercept_k = 20.0;
  input.planes.intercept_0 = 5.0;
  la::SimplexBasis basis;
  for (int s = 0; s < solves; ++s) {
    for (size_t i = 0; i < nodes; ++i) {
      input.planes.grad_k[i] *= rng->Uniform(0.9, 1.1);
      input.planes.grad_0[i] *= rng->Uniform(0.9, 1.1);
    }
    // Mostly reachable goals, some out of reach at either end.
    const double reach = la::Dot(input.planes.grad_k, input.upper_bounds);
    const double goal = 20.0 + rng->Uniform(-0.1, 1.1) * reach;
    for (const bool equality : {true, false}) {
      const la::SimplexSolver solver =
          core::PosePartitioningLp(input, equality, goal);
      const la::SimplexResult cold = solver.Solve();
      digest->Add(cold);
      const la::SimplexResult warm = solver.Solve(&basis);
      digest->Add(warm);
      if (equality && !warm.basis.empty()) basis = warm.basis;
    }
  }
}

// The §8 variance LP: 2n variables, 2n dispersion rows and the goal row.
void RunVarianceChain(size_t nodes, int solves, common::Rng* rng,
                      Digest* digest) {
  core::VarianceOptimizerInput input;
  input.upper_bounds.assign(nodes, 2.0 * 1024 * 1024);
  input.node_planes.resize(nodes);
  la::SimplexBasis basis;
  for (int s = 0; s < solves; ++s) {
    input.mean_grad.assign(nodes, 0.0);
    input.mean_intercept = 0.0;
    for (core::MeasureStore::NodePlane& plane : input.node_planes) {
      plane.grad = RandomVector(rng, nodes, -4e-6, 1e-7);
      plane.intercept = rng->Uniform(15.0, 25.0);
      la::Axpy(1.0 / static_cast<double>(nodes), plane.grad,
               &input.mean_grad);
      input.mean_intercept += plane.intercept / static_cast<double>(nodes);
    }
    const double reach = la::Dot(input.mean_grad, input.upper_bounds);
    const double goal = input.mean_intercept + rng->Uniform(0.2, 0.8) * reach;
    const la::SimplexSolver solver =
        core::PoseVarianceLp(input, /*equality=*/true, goal);
    const la::SimplexResult cold = solver.Solve();
    digest->Add(cold);
    const la::SimplexResult warm = solver.Solve(&basis);
    digest->Add(warm);
    if (!warm.basis.empty()) basis = warm.basis;
  }
}

TEST(LaKernelGolden, RevisedSimplexSolves) {
  common::Rng rng(31);
  Digest digest;
  RunPartitioningChain(3, 60, &rng, &digest);
  RunPartitioningChain(16, 60, &rng, &digest);
  RunPartitioningChain(64, 60, &rng, &digest);
  RunPartitioningChain(256, 30, &rng, &digest);
  RunVarianceChain(3, 30, &rng, &digest);
  RunVarianceChain(8, 30, &rng, &digest);
  RunVarianceChain(16, 20, &rng, &digest);
  EXPECT_EQ(digest.value(), 0x66f283fe8d6831deull)
      << "observed digest 0x" << std::hex << digest.value();
}

}  // namespace
}  // namespace memgoal
