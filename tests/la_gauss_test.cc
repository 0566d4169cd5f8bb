#include "la/gauss.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "la/matrix.h"
#include "oracles/gauss_reference.h"

namespace memgoal::la {
namespace {

Matrix RandomMatrix(common::Rng* rng, size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) m(i, j) = rng->Uniform(-10.0, 10.0);
  }
  return m;
}

TEST(GaussTest, SolvesKnownSystem) {
  Matrix a(2, 2);
  a.SetRow(0, Vector{2.0, 1.0});
  a.SetRow(1, Vector{1.0, 3.0});
  auto x = SolveLinearSystem(a, Vector{5.0, 10.0});
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0], 1.0, 1e-12);
  EXPECT_NEAR((*x)[1], 3.0, 1e-12);
}

TEST(GaussTest, SingularReturnsNullopt) {
  Matrix a(2, 2);
  a.SetRow(0, Vector{1.0, 2.0});
  a.SetRow(1, Vector{2.0, 4.0});
  EXPECT_FALSE(SolveLinearSystem(a, Vector{1.0, 2.0}).has_value());
  EXPECT_FALSE(Invert(a).has_value());
}

TEST(GaussTest, PivotingHandlesZeroDiagonal) {
  Matrix a(2, 2);
  a.SetRow(0, Vector{0.0, 1.0});
  a.SetRow(1, Vector{1.0, 0.0});
  auto x = SolveLinearSystem(a, Vector{3.0, 4.0});
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0], 4.0, 1e-12);
  EXPECT_NEAR((*x)[1], 3.0, 1e-12);
}

TEST(GaussTest, InvertTimesOriginalIsIdentity) {
  common::Rng rng(3);
  const Matrix a = RandomMatrix(&rng, 5);
  auto inv = Invert(a);
  ASSERT_TRUE(inv.has_value());
  const Matrix prod = a.Multiply(*inv);
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 5; ++j) {
      EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(GaussTest, RankFullAndDeficient) {
  common::Rng rng(4);
  const Matrix a = RandomMatrix(&rng, 4);
  EXPECT_EQ(Rank(a), 4u);

  // Make row 3 a linear combination of rows 0 and 1.
  Matrix b = a;
  for (size_t j = 0; j < 4; ++j) b(3, j) = 2.0 * b(0, j) - b(1, j);
  EXPECT_EQ(Rank(b), 3u);
}

TEST(GaussTest, RankOfRectangular) {
  Matrix m(2, 4);
  m.SetRow(0, Vector{1.0, 0.0, 2.0, 0.0});
  m.SetRow(1, Vector{0.0, 1.0, 0.0, 2.0});
  EXPECT_EQ(Rank(m), 2u);
  Matrix z(3, 3, 0.0);
  EXPECT_EQ(Rank(z), 0u);
}

// Property sweep: solving a random nonsingular system reproduces the RHS.
class GaussPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(GaussPropertyTest, SolveThenMultiplyRoundTrips) {
  const size_t n = GetParam();
  common::Rng rng(100 + n);
  for (int trial = 0; trial < 20; ++trial) {
    const Matrix a = RandomMatrix(&rng, n);
    Vector b(n);
    for (size_t i = 0; i < n; ++i) b[i] = rng.Uniform(-100.0, 100.0);
    auto x = SolveLinearSystem(a, b);
    if (!x.has_value()) continue;  // exceedingly unlikely
    const Vector back = a.Multiply(*x);
    for (size_t i = 0; i < n; ++i) EXPECT_NEAR(back[i], b[i], 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GaussPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 51));

}  // namespace
}  // namespace memgoal::la
