#include "la/matrix.h"

#include <gtest/gtest.h>

namespace memgoal::la {
namespace {

TEST(VectorOpsTest, Dot) {
  Vector a{1.0, 2.0, 3.0};
  Vector b{4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(Dot(a, b), 4.0 - 10.0 + 18.0);
}

TEST(VectorOpsTest, Axpy) {
  Vector x{1.0, 2.0};
  Vector y{10.0, 20.0};
  Axpy(2.0, x, &y);
  EXPECT_DOUBLE_EQ(y[0], 12.0);
  EXPECT_DOUBLE_EQ(y[1], 24.0);
}

TEST(MatrixTest, IdentityAndAccess) {
  Matrix id = Matrix::Identity(3);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(id(i, j), i == j ? 1.0 : 0.0);
    }
  }
}

TEST(MatrixTest, RowSetRow) {
  Matrix m(2, 3);
  m.SetRow(0, Vector{1.0, 2.0, 3.0});
  m.SetRow(1, Vector{4.0, 5.0, 6.0});
  EXPECT_EQ(m.Row(1), (Vector{4.0, 5.0, 6.0}));
}

TEST(MatrixTest, MatrixVectorProduct) {
  Matrix m(2, 3);
  m.SetRow(0, Vector{1.0, 0.0, 2.0});
  m.SetRow(1, Vector{0.0, 3.0, 0.0});
  Vector y = m.Multiply(Vector{1.0, 2.0, 3.0});
  EXPECT_EQ(y, (Vector{7.0, 6.0}));
}

TEST(MatrixTest, MatrixMatrixProduct) {
  Matrix a(2, 2);
  a.SetRow(0, Vector{1.0, 2.0});
  a.SetRow(1, Vector{3.0, 4.0});
  Matrix b(2, 2);
  b.SetRow(0, Vector{0.0, 1.0});
  b.SetRow(1, Vector{1.0, 0.0});
  Matrix c = a.Multiply(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 3.0);
}

TEST(MatrixTest, IdentityIsMultiplicativeNeutral) {
  Matrix a(3, 3);
  a.SetRow(0, Vector{1.0, 2.0, 3.0});
  a.SetRow(1, Vector{4.0, 5.0, 6.0});
  a.SetRow(2, Vector{7.0, 8.0, 10.0});
  Matrix prod = a.Multiply(Matrix::Identity(3));
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(prod(i, j), a(i, j));
    }
  }
}

TEST(MatrixTest, MaxAbs) {
  Matrix m(2, 2);
  m.SetRow(0, Vector{1.0, -9.0});
  m.SetRow(1, Vector{3.0, 2.0});
  EXPECT_DOUBLE_EQ(m.MaxAbs(), 9.0);
  EXPECT_DOUBLE_EQ(Matrix().MaxAbs(), 0.0);
}

}  // namespace
}  // namespace memgoal::la
