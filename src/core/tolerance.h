#ifndef MEMGOAL_CORE_TOLERANCE_H_
#define MEMGOAL_CORE_TOLERANCE_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/stats.h"

namespace memgoal::core {

/// Critical value z of the tolerance band: 2.576, the 99% two-sided normal
/// quantile.
inline constexpr double kToleranceZ = 2.576;

/// Workload-dependent tolerance band around a response-time goal (§5c).
///
/// Following the approach of fragment fencing (Brown et al., VLDB'93,
/// reference [5]), the tolerance is derived from the observed statistical
/// variance of the per-interval response times while the goal is constant:
///     delta = max(rel_floor * goal, z * stderr(recent observed RTs)).
/// The variance is computed over a sliding window of the most recent
/// same-goal intervals so that start-up transients age out, and the band is
/// capped at `rel_cap * goal` so a noisy phase can never declare every
/// response time "close enough".
///
/// With fewer than two same-goal intervals only the relative floor applies;
/// this is exactly the regime the paper points to when explaining the
/// oscillation in its Figure 2 (goals changing too quickly for the
/// tolerance to be "effectively calculated").
class ToleranceEstimator {
 public:
  static constexpr size_t kWindow = 8;
  static constexpr double kRelCap = 0.10;

  ToleranceEstimator(double rel_floor, double z)
      : rel_floor_(rel_floor), z_(z) {}

  /// Resets the variance history (call when the goal changes).
  void OnGoalChanged() { window_.clear(); }

  /// Records one interval's observed mean response time.
  void Observe(double rt) {
    window_.push_back(rt);
    if (window_.size() > kWindow) window_.erase(window_.begin());
  }

  /// Current tolerance for the given goal.
  double Tolerance(double goal) const {
    const double floor = rel_floor_ * goal;
    if (window_.size() < 2) return floor;
    common::RunningStats stats;
    for (double rt : window_) stats.Add(rt);
    const double band = z_ * stats.std_error();
    return std::clamp(band, floor, std::max(floor, kRelCap * goal));
  }

  int64_t observations() const {
    return static_cast<int64_t>(window_.size());
  }

 private:
  double rel_floor_;
  double z_;
  std::vector<double> window_;
};

}  // namespace memgoal::core

#endif  // MEMGOAL_CORE_TOLERANCE_H_
