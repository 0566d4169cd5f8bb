#include "la/row_replace_inverse.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "la/gauss.h"
#include "la/matrix.h"
#include "oracles/gauss_reference.h"

namespace memgoal::la {
namespace {

Matrix RandomMatrix(common::Rng* rng, size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) m(i, j) = rng->Uniform(-5.0, 5.0);
  }
  return m;
}

Vector RandomVector(common::Rng* rng, size_t n) {
  Vector v(n);
  for (size_t i = 0; i < n; ++i) v[i] = rng->Uniform(-5.0, 5.0);
  return v;
}

void ExpectIsInverse(const Matrix& a, const Matrix& inv, double tol) {
  const Matrix prod = a.Multiply(inv);
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, tol);
    }
  }
}

TEST(RowReplaceInverseTest, ResetRejectsSingular) {
  Matrix a(2, 2);
  a.SetRow(0, Vector{1.0, 2.0});
  a.SetRow(1, Vector{2.0, 4.0});
  RowReplaceInverse rri;
  EXPECT_FALSE(rri.Reset(a));
  EXPECT_FALSE(rri.initialized());
}

TEST(RowReplaceInverseTest, SingleRowUpdateMatchesFullInverse) {
  common::Rng rng(17);
  const Matrix a = RandomMatrix(&rng, 4);
  RowReplaceInverse rri;
  ASSERT_TRUE(rri.Reset(a));

  const Vector new_row = RandomVector(&rng, 4);
  ASSERT_TRUE(rri.ReplaceRow(2, new_row));
  Matrix expected = a;
  expected.SetRow(2, new_row);
  ExpectIsInverse(expected, rri.inverse(), 1e-8);
}

TEST(RowReplaceInverseTest, RejectsSingularReplacement) {
  Matrix a = Matrix::Identity(3);
  RowReplaceInverse rri;
  ASSERT_TRUE(rri.Reset(a));
  // Replacing row 2 with a copy of row 0 makes the matrix singular.
  EXPECT_FALSE(rri.WouldRemainNonsingular(2, Vector{1.0, 0.0, 0.0}));
  EXPECT_FALSE(rri.ReplaceRow(2, Vector{1.0, 0.0, 0.0}));
  // State unchanged: the original inverse still valid.
  ExpectIsInverse(a, rri.inverse(), 1e-12);
  // A harmless replacement still works afterwards.
  EXPECT_TRUE(rri.ReplaceRow(2, Vector{0.0, 1.0, 1.0}));
}

TEST(RowReplaceInverseTest, WouldRemainNonsingularAgreesWithCommit) {
  common::Rng rng(23);
  RowReplaceInverse rri;
  ASSERT_TRUE(rri.Reset(RandomMatrix(&rng, 5)));
  for (int trial = 0; trial < 50; ++trial) {
    const size_t row = static_cast<size_t>(rng.UniformInt(0, 4));
    const Vector v = RandomVector(&rng, 5);
    const bool predicted = rri.WouldRemainNonsingular(row, v);
    RowReplaceInverse copy = rri;
    EXPECT_EQ(copy.ReplaceRow(row, v), predicted);
  }
}

TEST(RowReplaceInverseTest, SolveMatchesGauss) {
  common::Rng rng(29);
  const Matrix a = RandomMatrix(&rng, 6);
  RowReplaceInverse rri;
  ASSERT_TRUE(rri.Reset(a));
  const Vector b = RandomVector(&rng, 6);
  const Vector x = rri.Solve(b);
  auto expected = SolveLinearSystem(a, b);
  ASSERT_TRUE(expected.has_value());
  for (size_t i = 0; i < 6; ++i) EXPECT_NEAR(x[i], (*expected)[i], 1e-8);
}

TEST(RowReplaceInverseTest, DenominatorToleranceBoundary) {
  // Replacing row 1 of the identity with {1, eps} gives determinant eps, so
  // the Sherman–Morrison denominator is exactly eps: the replacement must be
  // rejected just inside the tolerance and accepted just outside it.
  constexpr double kTol = RowReplaceInverse::kDenominatorTolerance;
  {
    RowReplaceInverse rri;
    ASSERT_TRUE(rri.Reset(Matrix::Identity(2)));
    EXPECT_FALSE(rri.WouldRemainNonsingular(1, Vector{1.0, kTol * 0.5}));
    EXPECT_FALSE(rri.ReplaceRow(1, Vector{1.0, kTol * 0.5}));
    // Rejection left the inverse untouched.
    ExpectIsInverse(Matrix::Identity(2), rri.inverse(), 1e-12);
  }
  {
    RowReplaceInverse rri;
    ASSERT_TRUE(rri.Reset(Matrix::Identity(2)));
    const Vector row{1.0, kTol * 4.0};
    EXPECT_TRUE(rri.WouldRemainNonsingular(1, row));
    ASSERT_TRUE(rri.ReplaceRow(1, row));
    Matrix expected = Matrix::Identity(2);
    expected.SetRow(1, row);
    ExpectIsInverse(expected, rri.inverse(), 1e-6);
  }
}

TEST(RowReplaceInverseTest, ConditionEstimateTracksIllConditioning) {
  RowReplaceInverse rri;
  ASSERT_TRUE(rri.Reset(Matrix::Identity(3)));
  EXPECT_DOUBLE_EQ(rri.ConditionEstimate(), 1.0);

  // diag(1, 1, 1e-6): ||A||_inf = 1, ||A^-1||_inf = 1e6.
  ASSERT_TRUE(rri.ReplaceRow(2, Vector{0.0, 0.0, 1e-6}));
  EXPECT_NEAR(rri.ConditionEstimate(), 1e6, 1.0);

  // Restoring the row brings the estimate back down.
  ASSERT_TRUE(rri.ReplaceRow(2, Vector{0.0, 0.0, 1.0}));
  EXPECT_NEAR(rri.ConditionEstimate(), 1.0, 1e-6);
}

TEST(RowReplaceInverseTest, RefreshOnMarginalMatrixDefersInsteadOfFailing) {
  // The periodic refresh re-inverts from scratch, but Gauss pivoting gives
  // up around condition 1/kSingularTolerance — long before the rank-one
  // update loses meaning. When the refresh lands on such a marginal matrix
  // the update must go through incrementally (and stay initialized), with
  // the exact refresh retried on the next commit.
  Matrix a(2, 2);
  a.SetRow(0, Vector{0.0, 1.0});
  a.SetRow(1, Vector{100.0, 1.0});
  RowReplaceInverse rri;
  ASSERT_TRUE(rri.Reset(a));

  // Benign updates up to one shy of the refresh boundary...
  for (int i = 1; i <= RowReplaceInverse::kRefreshInterval - 2; ++i) {
    ASSERT_TRUE(rri.ReplaceRow(0, Vector{i % 2 == 0 ? 0.0 : 50.0, 1.0}));
  }
  ASSERT_TRUE(rri.ReplaceRow(0, Vector{99.9, 1.0}));

  // ...then the boundary update creates a matrix whose determinant (-1e-7)
  // passes the O(n) denominator probe (ratio 1e-6) but fails the exact
  // inversion's pivot threshold (1e-9 against 1e-8).
  const Vector marginal{100.0 - 1e-7, 1.0};
  EXPECT_TRUE(rri.ReplaceRow(0, marginal));
  EXPECT_TRUE(rri.initialized());
  EXPECT_DOUBLE_EQ(rri.matrix()(0, 0), 100.0 - 1e-7);
  EXPECT_GT(rri.ConditionEstimate(), 1e8);

  // Backing off to a well-conditioned matrix triggers the deferred refresh,
  // which now succeeds and restores an exact inverse.
  ASSERT_TRUE(rri.ReplaceRow(0, Vector{0.0, 1.0}));
  Matrix recovered(2, 2);
  recovered.SetRow(0, Vector{0.0, 1.0});
  recovered.SetRow(1, Vector{100.0, 1.0});
  ExpectIsInverse(recovered, rri.inverse(), 1e-9);
}

// Property sweep: long sequences of row replacements stay consistent with
// the exact inverse (exercises the periodic refresh path too).
class RowReplacePropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RowReplacePropertyTest, ManySequentialUpdatesStayAccurate) {
  const size_t n = GetParam();
  common::Rng rng(1000 + n);
  Matrix a = RandomMatrix(&rng, n);
  RowReplaceInverse rri;
  ASSERT_TRUE(rri.Reset(a));

  const int updates = 150;  // > kRefreshInterval, forcing a refresh
  for (int u = 0; u < updates; ++u) {
    const size_t row = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(n) - 1));
    const Vector v = RandomVector(&rng, n);
    if (rri.ReplaceRow(row, v)) a.SetRow(row, v);
  }
  ExpectIsInverse(a, rri.inverse(), 1e-6);

  // Solve still agrees with a fresh factorization.
  const Vector b = RandomVector(&rng, n);
  const Vector x = rri.Solve(b);
  auto expected = SolveLinearSystem(a, b);
  ASSERT_TRUE(expected.has_value());
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], (*expected)[i], 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RowReplacePropertyTest,
                         ::testing::Values(2, 3, 4, 6, 11, 21, 31, 51));

}  // namespace
}  // namespace memgoal::la
