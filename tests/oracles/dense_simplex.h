#ifndef MEMGOAL_TESTS_ORACLES_DENSE_SIMPLEX_H_
#define MEMGOAL_TESTS_ORACLES_DENSE_SIMPLEX_H_

#include "la/simplex.h"

namespace memgoal::la {

/// Two-phase dense full-tableau simplex: the differential-testing oracle for
/// SimplexSolver's revised simplex. It shares nothing with the production
/// solver past the LinearProgram it reads. Upper bounds are lowered to
/// explicit `x_j <= ub_j` rows appended after the program's own rows, so a
/// solve costs O(pivots · m · cols) with m growing by one per bounded
/// variable. Bland's rule throughout guarantees termination up to the
/// iteration safety bound. Never exports a basis (SimplexResult::basis
/// stays empty).
SimplexResult SolveDense(const LinearProgram& lp);

/// SolveDense on a posed solver's program, shaped as a core::RungSolver so
/// the optimizers' fallback chain can run on the oracle. `warm` is ignored.
SimplexResult SolveDenseRung(const SimplexSolver& rung,
                             const SimplexBasis* warm);

}  // namespace memgoal::la

#endif  // MEMGOAL_TESTS_ORACLES_DENSE_SIMPLEX_H_
