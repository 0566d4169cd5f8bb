#ifndef MEMGOAL_TESTS_ORACLES_GAUSS_REFERENCE_H_
#define MEMGOAL_TESTS_ORACLES_GAUSS_REFERENCE_H_

#include <cstddef>
#include <optional>

#include "la/gauss.h"
#include "la/matrix.h"

namespace memgoal::la {

/// Solves A x = b by Gaussian elimination with partial pivoting: the
/// reference the measure store's row-replace inverse and the revised
/// simplex are checked against. Returns std::nullopt if A is (numerically)
/// singular.
std::optional<Vector> SolveLinearSystem(Matrix a, Vector b);

/// Numerical rank via row echelon reduction with the given relative
/// tolerance (defaults to kSingularTolerance).
size_t Rank(Matrix a, double tolerance = kSingularTolerance);

}  // namespace memgoal::la

#endif  // MEMGOAL_TESTS_ORACLES_GAUSS_REFERENCE_H_
