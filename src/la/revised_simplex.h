#ifndef MEMGOAL_LA_REVISED_SIMPLEX_H_
#define MEMGOAL_LA_REVISED_SIMPLEX_H_

#include "la/simplex.h"

namespace memgoal::la {

/// Solves `lp` with the revised simplex (sparse columns, implicit bounds,
/// LU basis + product-form eta updates, Dantzig pricing with Bland
/// fallback). `warm`, when non-null and non-empty, seeds the basis; an
/// inapplicable warm basis falls back to a cold start. `max_iterations`
/// bounds pivots + bound flips across both phases; exceeding it returns
/// SimplexStatus::kIterationLimit.
SimplexResult SolveRevised(const LinearProgram& lp, const SimplexBasis* warm,
                           int max_iterations);

}  // namespace memgoal::la

#endif  // MEMGOAL_LA_REVISED_SIMPLEX_H_
