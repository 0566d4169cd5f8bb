#ifndef MEMGOAL_LA_GAUSS_H_
#define MEMGOAL_LA_GAUSS_H_

#include <optional>

#include "la/matrix.h"

namespace memgoal::la {

/// Relative pivot threshold below which a matrix is treated as singular.
inline constexpr double kSingularTolerance = 1e-10;

/// Computes A^{-1} by Gauss-Jordan elimination with partial pivoting.
/// Returns std::nullopt if A is (numerically) singular.
std::optional<Matrix> Invert(const Matrix& a);

}  // namespace memgoal::la

#endif  // MEMGOAL_LA_GAUSS_H_
