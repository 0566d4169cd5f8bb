#include "la/revised_simplex.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/check.h"

namespace memgoal::la {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr size_t kNpos = std::numeric_limits<size_t>::max();
/// Base tolerance; every test scales it by the magnitudes involved.
constexpr double kEps = 1e-9;
/// Pricing-only tolerance, three orders tighter than kEps. A reduced cost
/// is "worth it" when |d| times the entering variable's range moves the
/// objective, and the partitioning LP pairs 1e-7-scale cost gradients with
/// megabyte-scale variable ranges: a 5e-10 reduced cost the kEps test
/// dismissed as converged is a real ~1e-3 objective improvement (caught by
/// the dense-oracle differential at n=256). Pivot admission and ratio tests
/// keep the looser kEps/kPivotTol — accepting a noise-scale pivot element
/// is dangerous, skipping a noise-scale reduced cost is not.
constexpr double kPriceEps = 1e-12;
/// Minimum pivot magnitude relative to the FTRANned column's norm.
constexpr double kPivotTol = 1e-10;
/// Eta updates between refactorizations of the basis LU.
constexpr size_t kRefactorInterval = 64;
/// Consecutive degenerate (zero-step) Dantzig iterations before falling
/// back to Bland's rule, which provably cannot cycle.
constexpr int kStallLimit = 100;

/// Dense LU with partial pivoting of the m x m basis matrix, LAPACK-style
/// ipiv row swaps: applying the recorded swaps to B's rows gives LU.
class DenseLu {
 public:
  /// Zeroed row-major m x m storage for the basis matrix: fill it, then
  /// call Factor().
  std::vector<double>& Load(size_t m) {
    m_ = m;
    lu_.assign(m * m, 0.0);
    return lu_;
  }

  /// Factors the loaded matrix in place. False if singular.
  bool Factor() {
    const size_t m = m_;
    ipiv_.resize(m);
    for (size_t k = 0; k < m; ++k) {
      size_t p = k;
      double best = std::fabs(lu_[k * m + k]);
      for (size_t i = k + 1; i < m; ++i) {
        const double mag = std::fabs(lu_[i * m + k]);
        if (mag > best) {
          best = mag;
          p = i;
        }
      }
      if (best < 1e-12) return false;
      ipiv_[k] = p;
      if (p != k) {
        for (size_t j = 0; j < m; ++j) {
          std::swap(lu_[k * m + j], lu_[p * m + j]);
        }
      }
      const double inv = 1.0 / lu_[k * m + k];
      for (size_t i = k + 1; i < m; ++i) {
        const double factor = lu_[i * m + k] * inv;
        lu_[i * m + k] = factor;
        if (factor == 0.0) continue;
        for (size_t j = k + 1; j < m; ++j) {
          lu_[i * m + j] -= factor * lu_[k * m + j];
        }
      }
    }
    return true;
  }

  /// v := B^{-1} v.
  void Ftran(Vector* v) const {
    Vector& x = *v;
    for (size_t k = 0; k < m_; ++k) {
      if (ipiv_[k] != k) std::swap(x[k], x[ipiv_[k]]);
    }
    // Forward: L (unit diagonal).
    for (size_t i = 1; i < m_; ++i) {
      double sum = x[i];
      for (size_t j = 0; j < i; ++j) sum -= lu_[i * m_ + j] * x[j];
      x[i] = sum;
    }
    // Backward: U.
    for (size_t ii = m_; ii-- > 0;) {
      double sum = x[ii];
      for (size_t j = ii + 1; j < m_; ++j) sum -= lu_[ii * m_ + j] * x[j];
      x[ii] = sum / lu_[ii * m_ + ii];
    }
  }

  /// v := B^{-T} v.  (B = P^T L U, so B^T y = c solves U^T z = c,
  /// L^T w = z, y = swaps reversed on w.)
  void Btran(Vector* v) const {
    Vector& x = *v;
    // Forward: U^T (lower triangular).
    for (size_t i = 0; i < m_; ++i) {
      double sum = x[i];
      for (size_t j = 0; j < i; ++j) sum -= lu_[j * m_ + i] * x[j];
      x[i] = sum / lu_[i * m_ + i];
    }
    // Backward: L^T (unit diagonal).
    for (size_t ii = m_; ii-- > 0;) {
      double sum = x[ii];
      for (size_t j = ii + 1; j < m_; ++j) sum -= lu_[j * m_ + ii] * x[j];
      x[ii] = sum;
    }
    for (size_t k = m_; k-- > 0;) {
      if (ipiv_[k] != k) std::swap(x[k], x[ipiv_[k]]);
    }
  }

 private:
  size_t m_ = 0;
  std::vector<double> lu_;
  std::vector<size_t> ipiv_;
};

using VarStatus = SimplexBasis::VarStatus;

class RevisedSimplex {
 public:
  RevisedSimplex(const LinearProgram& lp, int max_iterations)
      : lp_(lp), max_iterations_(max_iterations) {
    n_ = lp.num_vars;
    m_ = lp.rows.size();
    sign_ = lp.minimize ? 1.0 : -1.0;

    // Sparsify the structural columns, folding kGe rows into kLe form
    // (negated row and rhs) so every slack has bounds [0, inf) or [0, 0].
    std::vector<double> row_flip(m_, 1.0);
    rhs_.resize(m_);
    slack_upper_.resize(m_);
    for (size_t i = 0; i < m_; ++i) {
      const bool ge = lp.relations[i] == LinearProgram::Relation::kGe;
      row_flip[i] = ge ? -1.0 : 1.0;
      rhs_[i] = row_flip[i] * lp.rhs[i];
      slack_upper_[i] =
          lp.relations[i] == LinearProgram::Relation::kEq ? 0.0 : kInf;
    }
    col_start_.resize(n_ + 1);
    col_start_[0] = 0;
    for (size_t j = 0; j < n_; ++j) {
      for (size_t i = 0; i < m_; ++i) {
        const double v = row_flip[i] * lp.rows[i][j];
        if (v != 0.0) {
          col_row_.push_back(static_cast<uint32_t>(i));
          col_val_.push_back(v);
        }
      }
      col_start_[j + 1] = col_row_.size();
    }
    bscale_ = 1.0;
    for (double b : rhs_) bscale_ = std::max(bscale_, std::fabs(b));
    y_.resize(m_);
    abar_.resize(m_);
  }

  SimplexResult Solve(const SimplexBasis* warm) {
    SimplexResult result;
    if (m_ == 0) {
      // No constraint rows: each variable independently sits at whichever
      // bound its cost prefers; an attractive variable without an upper
      // bound makes the program unbounded.
      result.x.assign(n_, 0.0);
      for (size_t j = 0; j < n_; ++j) {
        const double c = sign_ * lp_.objective[j];
        if (c < -kPriceEps * (1.0 + std::fabs(c))) {
          if (lp_.upper[j] == kInf) {
            result.status = SimplexStatus::kUnbounded;
            return result;
          }
          result.x[j] = lp_.upper[j];
        }
      }
      result.status = SimplexStatus::kOptimal;
      result.objective = Objective(result.x);
      result.basis.status.assign(n_, VarStatus::kAtLower);
      for (size_t j = 0; j < n_; ++j) {
        if (result.x[j] != 0.0) result.basis.status[j] = VarStatus::kAtUpper;
      }
      return result;
    }

    bool warm_started = warm != nullptr && TryWarmStart(*warm);
    if (!warm_started) {
      if (!ColdStart()) {
        // Phase 1 is needed; run it on the artificial cost vector.
        const PhaseOutcome outcome = Iterate(/*phase1=*/true);
        if (outcome == PhaseOutcome::kIterationLimit) {
          result.status = SimplexStatus::kIterationLimit;
          result.iterations = iterations_;
          return result;
        }
        MEMGOAL_CHECK_MSG(outcome != PhaseOutcome::kUnbounded,
                          "phase-1 objective cannot be unbounded");
        double infeasibility = 0.0;
        for (size_t j = art_begin_; j < ncols_; ++j) infeasibility += x_[j];
        if (infeasibility > 1e-7 * bscale_) {
          result.status = SimplexStatus::kInfeasible;
          result.iterations = iterations_;
          return result;
        }
        // Fix the artificials at zero; a residual basic artificial stays
        // pinned there (its fixed bounds block any move through it).
        for (size_t j = art_begin_; j < ncols_; ++j) {
          upper_[j] = 0.0;
          x_[j] = 0.0;
        }
      }
    }

    // Phase 2 on the real costs.
    cost_.assign(ncols_, 0.0);
    for (size_t j = 0; j < n_; ++j) cost_[j] = sign_ * lp_.objective[j];
    const PhaseOutcome outcome = Iterate(/*phase1=*/false);
    result.iterations = iterations_;
    if (outcome == PhaseOutcome::kIterationLimit) {
      result.status = SimplexStatus::kIterationLimit;
      return result;
    }
    if (outcome == PhaseOutcome::kUnbounded) {
      result.status = SimplexStatus::kUnbounded;
      return result;
    }

    // Canonical cleanup: refactorize from the final basis and recompute the
    // basic values once, so the reported point is a pure function of the
    // final basis rather than of the pivot path that reached it (this is
    // what makes a warm-started re-solve reproduce the cold solution).
    if (!Refactor()) {
      result.status = SimplexStatus::kIterationLimit;
      return result;
    }
    ComputeBasicValues();
    for (size_t j = 0; j < ncols_; ++j) {
      if (vstat_[j] != VarStatus::kBasic) continue;
      const double lo_tol = kEps * (1.0 + std::fabs(x_[j]));
      if (std::fabs(x_[j]) <= lo_tol) x_[j] = 0.0;
      if (upper_[j] != kInf &&
          std::fabs(x_[j] - upper_[j]) <= kEps * (1.0 + upper_[j])) {
        x_[j] = upper_[j];
      }
    }

    result.status = SimplexStatus::kOptimal;
    result.x.assign(x_.begin(), x_.begin() + static_cast<ptrdiff_t>(n_));
    result.objective = Objective(result.x);
    // Export the basis unless a (zero-valued) artificial still occupies it.
    bool exportable = true;
    for (size_t p = 0; p < m_; ++p) {
      if (basic_[p] >= art_begin_) exportable = false;
    }
    if (exportable) {
      result.basis.status.assign(vstat_.begin(),
                                 vstat_.begin() +
                                     static_cast<ptrdiff_t>(n_ + m_));
    }
    return result;
  }

 private:
  enum class PhaseOutcome { kOptimal, kUnbounded, kIterationLimit };

  double Objective(const Vector& x) const {
    double total = 0.0;
    for (size_t j = 0; j < n_; ++j) total += lp_.objective[j] * x[j];
    return total;
  }

  /// Iterates (row, value) pairs of structural/slack/artificial column j.
  template <typename Fn>
  void ForColumn(size_t j, Fn&& fn) const {
    if (j < n_) {
      for (size_t k = col_start_[j]; k < col_start_[j + 1]; ++k) {
        fn(col_row_[k], col_val_[k]);
      }
    } else if (j < n_ + m_) {
      fn(j - n_, 1.0);
    } else {
      fn(art_row_[j - art_begin_], art_sign_[j - art_begin_]);
    }
  }

  /// Column e of the eta file: the FTRANned entering column of the e-th
  /// pivot since the last refactorization (B_new^{-1} = E · B_old^{-1}).
  const double* EtaColumn(size_t e) const { return &eta_cols_[e * m_]; }

  /// v := B^{-1} v (LU solve plus the eta file, oldest first).
  void Ftran(Vector* v) const {
    Vector& x = *v;
    lu_.Ftran(&x);
    for (size_t e = 0; e < eta_rows_.size(); ++e) {
      const double* abar = EtaColumn(e);
      const size_t r = eta_rows_[e];
      const double t = x[r] / abar[r];
      if (t != 0.0) {
        for (size_t i = 0; i < m_; ++i) x[i] -= abar[i] * t;
      }
      x[r] = t;
    }
  }

  /// abar_ := B^{-1} a_j.
  void FtranColumn(size_t j) {
    std::fill(abar_.begin(), abar_.end(), 0.0);
    ForColumn(j, [&](size_t i, double val) { abar_[i] = val; });
    Ftran(&abar_);
  }

  /// y_ := B^{-T} c_B (eta file transposed, newest first, then LU).
  void BtranCosts() {
    for (size_t p = 0; p < m_; ++p) y_[p] = cost_[basic_[p]];
    for (size_t e = eta_rows_.size(); e-- > 0;) {
      const double* abar = EtaColumn(e);
      const size_t r = eta_rows_[e];
      double sum = 0.0;
      for (size_t i = 0; i < m_; ++i) sum += abar[i] * y_[i];
      y_[r] = (y_[r] - (sum - abar[r] * y_[r])) / abar[r];
    }
    lu_.Btran(&y_);
  }

  /// Prices every column against the current basis. violation_[j] is how
  /// far column j's reduced cost points into its feasible direction, or 0
  /// when it cannot enter (basic, fixed, or priced out within kPriceEps).
  /// The verdict is built from bit masks, not branches: which columns are
  /// eligible changes from pass to pass, and a branch on it mispredicts
  /// about once per column.
  void Price() {
    BtranCosts();
    for (size_t j = 0; j < ncols_; ++j) {
      double dot = 0.0;
      ForColumn(j, [&](size_t i, double v) { dot += y_[i] * v; });
      const double d = cost_[j] - dot;
      const double tol =
          kPriceEps * (1.0 + std::fabs(cost_[j]) + std::fabs(dot));
      const VarStatus s = vstat_[j];
      // All ones when the condition holds, else zero.
      const uint64_t lower =
          0 - static_cast<uint64_t>((s == VarStatus::kAtLower) & (d < -tol));
      const uint64_t upper =
          0 - static_cast<uint64_t>((s == VarStatus::kAtUpper) & (d > tol));
      const uint64_t movable = 0 - static_cast<uint64_t>(upper_[j] != 0.0);
      violation_[j] = std::bit_cast<double>(
          ((std::bit_cast<uint64_t>(-d) & lower) |
           (std::bit_cast<uint64_t>(d) & upper)) &
          movable);
    }
  }

  /// Entering column from violation_: Dantzig's largest violation (the
  /// first of equal ones), or under `bland` the smallest eligible index.
  /// kNpos when no column can enter (optimal).
  size_t SelectEntering(bool bland) const {
    if (bland) {
      for (size_t j = 0; j < ncols_; ++j) {
        if (violation_[j] > 0.0) return j;
      }
      return kNpos;
    }
    size_t entering = kNpos;
    double best = 0.0;
    for (size_t j = 0; j < ncols_; ++j) {
      const double v = violation_[j];
      const bool better = v > best;
      best = better ? v : best;
      entering = better ? j : entering;
    }
    return entering;
  }

  /// Rebuilds the LU from the current basis; clears the eta file.
  bool Refactor() {
    std::vector<double>& b = lu_.Load(m_);
    for (size_t p = 0; p < m_; ++p) {
      ForColumn(basic_[p], [&](size_t i, double v) { b[i * m_ + p] = v; });
    }
    eta_rows_.clear();
    eta_cols_.clear();
    return lu_.Factor();
  }

  /// x_B := B^{-1} (b - sum of nonbasic columns at their bound values).
  void ComputeBasicValues() {
    r_ = rhs_;
    for (size_t j = 0; j < ncols_; ++j) {
      if (vstat_[j] == VarStatus::kBasic || x_[j] == 0.0) continue;
      const double xj = x_[j];
      ForColumn(j, [&](size_t i, double v) { r_[i] -= v * xj; });
    }
    Ftran(&r_);
    for (size_t p = 0; p < m_; ++p) x_[basic_[p]] = r_[p];
  }

  /// Installs the slack basis plus artificials for initially-violated rows.
  /// Returns true when no artificials were needed (phase 1 skippable).
  bool ColdStart() {
    ncols_ = n_ + m_;
    art_begin_ = ncols_;
    art_row_.clear();
    art_sign_.clear();
    upper_.assign(n_ + m_, 0.0);
    for (size_t j = 0; j < n_; ++j) upper_[j] = lp_.upper[j];
    for (size_t i = 0; i < m_; ++i) upper_[n_ + i] = slack_upper_[i];
    vstat_.assign(n_ + m_, VarStatus::kAtLower);
    x_.assign(n_ + m_, 0.0);
    basic_.resize(m_);

    for (size_t i = 0; i < m_; ++i) {
      const bool violated =
          rhs_[i] < 0.0 || (slack_upper_[i] == 0.0 && rhs_[i] != 0.0);
      if (!violated) {
        basic_[i] = n_ + i;
        vstat_[n_ + i] = VarStatus::kBasic;
        x_[n_ + i] = rhs_[i];
      } else {
        art_row_.push_back(i);
        art_sign_.push_back(rhs_[i] >= 0.0 ? 1.0 : -1.0);
        const size_t art = ncols_++;
        basic_[i] = art;
        upper_.push_back(kInf);
        vstat_.push_back(VarStatus::kBasic);
        x_.push_back(std::fabs(rhs_[i]));
      }
    }
    MEMGOAL_CHECK(Refactor());

    if (art_begin_ == ncols_) return true;
    cost_.assign(ncols_, 0.0);
    for (size_t j = art_begin_; j < ncols_; ++j) cost_[j] = 1.0;
    return false;
  }

  /// Installs a prior basis when it still describes a feasible point of
  /// this program; false (try cold) otherwise.
  bool TryWarmStart(const SimplexBasis& warm) {
    if (warm.status.size() != n_ + m_) return false;
    ncols_ = n_ + m_;
    art_begin_ = ncols_;
    art_row_.clear();
    art_sign_.clear();
    upper_.assign(n_ + m_, 0.0);
    for (size_t j = 0; j < n_; ++j) upper_[j] = lp_.upper[j];
    for (size_t i = 0; i < m_; ++i) upper_[n_ + i] = slack_upper_[i];

    basic_.clear();
    vstat_ = warm.status;
    x_.assign(n_ + m_, 0.0);
    for (size_t j = 0; j < n_ + m_; ++j) {
      switch (vstat_[j]) {
        case VarStatus::kBasic:
          basic_.push_back(j);
          break;
        case VarStatus::kAtUpper:
          if (upper_[j] == kInf) return false;
          x_[j] = upper_[j];
          break;
        case VarStatus::kAtLower:
          break;
      }
    }
    if (basic_.size() != m_) return false;
    if (!Refactor()) return false;
    ComputeBasicValues();
    for (size_t p = 0; p < m_; ++p) {
      const size_t j = basic_[p];
      const double hi = upper_[j];
      const double tol =
          1e-7 * (1.0 + std::fabs(x_[j]) + (hi == kInf ? 0.0 : hi));
      if (x_[j] < -tol || (hi != kInf && x_[j] > hi + tol)) return false;
    }
    return true;
  }

  PhaseOutcome Iterate(bool phase1) {
    bool bland = false;
    int stalled = 0;
    // Reduced costs depend only on the basis and the cost vector, so they
    // are priced once per basis: after a pivot or a refactorization, not
    // after a bound flip.
    bool priced = false;
    violation_.resize(ncols_);
    while (true) {
      if (iterations_ >= max_iterations_) {
        return PhaseOutcome::kIterationLimit;
      }
      if (!priced) {
        Price();
        priced = true;
      }

      // Pricing: Dantzig (largest reduced-cost violation), or Bland's
      // smallest eligible index after a degeneracy stall.
      const size_t entering = SelectEntering(bland);
      if (entering == kNpos) return PhaseOutcome::kOptimal;
      const double entering_dir =
          vstat_[entering] == VarStatus::kAtLower ? 1.0 : -1.0;

      FtranColumn(entering);
      const Vector& abar = abar_;
      double colmax = 0.0;
      for (double v : abar) colmax = std::max(colmax, std::fabs(v));
      const double pivot_tol = kPivotTol * std::max(1.0, colmax);

      // Ratio test: the entering variable moves by t in direction
      // entering_dir; basic variables move by -t * dir * abar. The bound
      // flip of the entering variable itself competes as a limit.
      double best_t = upper_[entering] == kInf
                          ? kInf
                          : upper_[entering];  // lower bounds are all 0
      size_t leave_row = kNpos;
      bool leave_to_upper = false;
      for (size_t p = 0; p < m_; ++p) {
        const double delta = entering_dir * abar[p];
        if (std::fabs(delta) <= pivot_tol) continue;
        const size_t bj = basic_[p];
        double t;
        bool to_upper;
        if (delta > 0.0) {
          t = x_[bj] / delta;
          to_upper = false;
        } else {
          if (upper_[bj] == kInf) continue;
          t = (x_[bj] - upper_[bj]) / delta;
          to_upper = true;
        }
        if (t < 0.0) t = 0.0;  // already (numerically) at its bound
        const double tie = kEps * (1.0 + std::fabs(best_t));
        if (t < best_t - tie ||
            (t < best_t + tie &&
             (leave_row == kNpos || bj < basic_[leave_row]))) {
          best_t = t;
          leave_row = p;
          leave_to_upper = to_upper;
        }
      }
      if (best_t == kInf) {
        return phase1 ? PhaseOutcome::kIterationLimit
                      : PhaseOutcome::kUnbounded;
      }

      ++iterations_;
      if (best_t <= kEps * bscale_) {
        if (++stalled >= kStallLimit) bland = true;
      } else {
        stalled = 0;
        bland = false;
      }

      const double step = entering_dir * best_t;
      for (size_t p = 0; p < m_; ++p) {
        if (abar[p] != 0.0) x_[basic_[p]] -= abar[p] * step;
      }
      if (leave_row == kNpos) {
        // Bound flip: the entering variable crosses to its other bound
        // without any basis change, so y and every reduced cost stand. The
        // flipped column itself cannot re-enter: it entered with d beyond
        // the tolerance on one side, and its new bound prices only the
        // other side.
        x_[entering] = entering_dir > 0.0 ? upper_[entering] : 0.0;
        vstat_[entering] = entering_dir > 0.0 ? VarStatus::kAtUpper
                                              : VarStatus::kAtLower;
        violation_[entering] = 0.0;
        continue;
      }
      const size_t leaving = basic_[leave_row];
      x_[entering] += step;
      x_[leaving] = leave_to_upper ? upper_[leaving] : 0.0;
      vstat_[leaving] =
          leave_to_upper ? VarStatus::kAtUpper : VarStatus::kAtLower;
      vstat_[entering] = VarStatus::kBasic;
      basic_[leave_row] = entering;
      eta_rows_.push_back(leave_row);
      eta_cols_.insert(eta_cols_.end(), abar.begin(), abar.end());
      priced = false;
      if (eta_rows_.size() >= kRefactorInterval) {
        if (!Refactor()) return PhaseOutcome::kIterationLimit;
        ComputeBasicValues();
      }
    }
  }

  const LinearProgram& lp_;
  int max_iterations_;
  size_t n_ = 0;
  size_t m_ = 0;
  double sign_ = 1.0;
  double bscale_ = 1.0;
  // Structural columns in compressed sparse column form: column j's
  // (row, value) pairs sit at [col_start_[j], col_start_[j + 1]).
  std::vector<size_t> col_start_;
  std::vector<uint32_t> col_row_;
  Vector col_val_;
  Vector rhs_;
  Vector slack_upper_;

  size_t ncols_ = 0;
  size_t art_begin_ = 0;
  std::vector<size_t> art_row_;
  Vector art_sign_;
  Vector upper_;
  Vector cost_;
  Vector x_;
  std::vector<VarStatus> vstat_;
  std::vector<size_t> basic_;
  DenseLu lu_;
  // The eta file: pivot row and FTRANned column (m_ values each, in
  // eta_cols_) of every pivot since the last refactorization.
  std::vector<size_t> eta_rows_;
  Vector eta_cols_;
  // Scratch reused across iterations: y = B^{-T} c_B, the entering column,
  // the basic-value solve and each column's pricing verdict.
  Vector y_;
  Vector abar_;
  Vector r_;
  Vector violation_;
  int iterations_ = 0;
};

}  // namespace

SimplexResult SolveRevised(const LinearProgram& lp, const SimplexBasis* warm,
                           int max_iterations) {
  RevisedSimplex solver(lp, max_iterations);
  return solver.Solve(warm != nullptr && !warm->empty() ? warm : nullptr);
}

}  // namespace memgoal::la
