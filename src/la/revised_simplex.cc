#include "la/revised_simplex.h"

#include <algorithm>
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
  /// Factors `b` (row-major, m x m, consumed). False if singular.
  bool Factor(std::vector<double> b, size_t m) {
    m_ = m;
    lu_ = std::move(b);
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

/// One product-form update: basis column at row `r` replaced by the
/// FTRANned entering column `abar` (B_new^{-1} = E · B_old^{-1}).
struct Eta {
  size_t r;
  Vector abar;
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
    cols_idx_.resize(n_);
    cols_val_.resize(n_);
    for (size_t j = 0; j < n_; ++j) {
      for (size_t i = 0; i < m_; ++i) {
        const double v = row_flip[i] * lp.rows[i][j];
        if (v != 0.0) {
          cols_idx_[j].push_back(static_cast<uint32_t>(i));
          cols_val_[j].push_back(v);
        }
      }
    }
    bscale_ = 1.0;
    for (double b : rhs_) bscale_ = std::max(bscale_, std::fabs(b));
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
      for (size_t k = 0; k < cols_idx_[j].size(); ++k) {
        fn(cols_idx_[j][k], cols_val_[j][k]);
      }
    } else if (j < n_ + m_) {
      fn(j - n_, 1.0);
    } else {
      fn(art_row_[j - art_begin_], art_sign_[j - art_begin_]);
    }
  }

  double PriceColumn(const Vector& y, size_t j) const {
    double dot = 0.0;
    ForColumn(j, [&](size_t i, double v) { dot += y[i] * v; });
    return dot;
  }

  /// abar := B^{-1} a_j (LU solve plus the eta file, oldest first).
  Vector FtranColumn(size_t j) const {
    Vector v(m_, 0.0);
    ForColumn(j, [&](size_t i, double val) { v[i] = val; });
    lu_.Ftran(&v);
    for (const Eta& eta : etas_) {
      const double t = v[eta.r] / eta.abar[eta.r];
      if (t != 0.0) {
        for (size_t i = 0; i < m_; ++i) v[i] -= eta.abar[i] * t;
      }
      v[eta.r] = t;
    }
    return v;
  }

  /// y := B^{-T} c_B (eta file transposed, newest first, then LU).
  Vector BtranCosts() const {
    Vector y(m_);
    for (size_t p = 0; p < m_; ++p) y[p] = cost_[basic_[p]];
    for (size_t e = etas_.size(); e-- > 0;) {
      const Eta& eta = etas_[e];
      double sum = 0.0;
      for (size_t i = 0; i < m_; ++i) sum += eta.abar[i] * y[i];
      y[eta.r] = (y[eta.r] - (sum - eta.abar[eta.r] * y[eta.r])) /
                 eta.abar[eta.r];
    }
    lu_.Btran(&y);
    return y;
  }

  /// Rebuilds the LU from the current basis; clears the eta file.
  bool Refactor() {
    std::vector<double> b(m_ * m_, 0.0);
    for (size_t p = 0; p < m_; ++p) {
      ForColumn(basic_[p], [&](size_t i, double v) { b[i * m_ + p] = v; });
    }
    etas_.clear();
    return lu_.Factor(std::move(b), m_);
  }

  /// x_B := B^{-1} (b - sum of nonbasic columns at their bound values).
  void ComputeBasicValues() {
    Vector r = rhs_;
    for (size_t j = 0; j < ncols_; ++j) {
      if (vstat_[j] == VarStatus::kBasic || x_[j] == 0.0) continue;
      const double xj = x_[j];
      ForColumn(j, [&](size_t i, double v) { r[i] -= v * xj; });
    }
    lu_.Ftran(&r);
    for (const Eta& eta : etas_) {
      const double t = r[eta.r] / eta.abar[eta.r];
      if (t != 0.0) {
        for (size_t i = 0; i < m_; ++i) r[i] -= eta.abar[i] * t;
      }
      r[eta.r] = t;
    }
    for (size_t p = 0; p < m_; ++p) x_[basic_[p]] = r[p];
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
    while (true) {
      if (iterations_ >= max_iterations_) {
        return PhaseOutcome::kIterationLimit;
      }
      const Vector y = BtranCosts();

      // Pricing: Dantzig (largest reduced-cost violation), or Bland's
      // smallest eligible index after a degeneracy stall.
      size_t entering = kNpos;
      double entering_dir = 0.0;
      double best_violation = 0.0;
      for (size_t j = 0; j < ncols_; ++j) {
        if (vstat_[j] == VarStatus::kBasic) continue;
        if (upper_[j] == 0.0) continue;  // fixed (eq slack, spent artificial)
        const double dot = PriceColumn(y, j);
        const double d = cost_[j] - dot;
        const double tol =
            kPriceEps * (1.0 + std::fabs(cost_[j]) + std::fabs(dot));
        double violation = 0.0;
        if (vstat_[j] == VarStatus::kAtLower && d < -tol) {
          violation = -d;
        } else if (vstat_[j] == VarStatus::kAtUpper && d > tol) {
          violation = d;
        } else {
          continue;
        }
        if (bland) {
          entering = j;
          entering_dir = vstat_[j] == VarStatus::kAtLower ? 1.0 : -1.0;
          break;
        }
        if (violation > best_violation) {
          best_violation = violation;
          entering = j;
          entering_dir = vstat_[j] == VarStatus::kAtLower ? 1.0 : -1.0;
        }
      }
      if (entering == kNpos) return PhaseOutcome::kOptimal;

      Vector abar = FtranColumn(entering);
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
        // without any basis change.
        x_[entering] = entering_dir > 0.0 ? upper_[entering] : 0.0;
        vstat_[entering] = entering_dir > 0.0 ? VarStatus::kAtUpper
                                              : VarStatus::kAtLower;
        continue;
      }
      const size_t leaving = basic_[leave_row];
      x_[entering] += step;
      x_[leaving] = leave_to_upper ? upper_[leaving] : 0.0;
      vstat_[leaving] =
          leave_to_upper ? VarStatus::kAtUpper : VarStatus::kAtLower;
      vstat_[entering] = VarStatus::kBasic;
      basic_[leave_row] = entering;
      etas_.push_back(Eta{leave_row, std::move(abar)});
      if (etas_.size() >= kRefactorInterval) {
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
  std::vector<std::vector<uint32_t>> cols_idx_;
  std::vector<std::vector<double>> cols_val_;
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
  std::vector<Eta> etas_;
  int iterations_ = 0;
};

}  // namespace

SimplexResult SolveRevised(const LinearProgram& lp, const SimplexBasis* warm,
                           int max_iterations) {
  RevisedSimplex solver(lp, max_iterations);
  return solver.Solve(warm != nullptr && !warm->empty() ? warm : nullptr);
}

}  // namespace memgoal::la
