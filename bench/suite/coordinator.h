// The coordinator workload: the library calls of the goal controller's
// per-check work (measure point store, hyperplane fit, partitioning LP) run
// in a closed loop against a synthetic plant instead of the simulator.

#ifndef MEMGOAL_BENCH_SUITE_COORDINATOR_H_
#define MEMGOAL_BENCH_SUITE_COORDINATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "core/measure.h"
#include "la/matrix.h"
#include "la/simplex.h"

namespace memgoal::bench::suite {

/// Summary of the measured checks of a CheckLoop.
struct CheckLoopResult {
  int checks = 0;
  /// Host microseconds of each check, in check order.
  std::vector<double> check_us;
  /// Mean host microseconds per check spent in each phase.
  double observe_us = 0.0;
  double fit_us = 0.0;
  double solve_us = 0.0;

  double goal_met_frac = 0.0;
  /// Median of the observed no-goal response times (plant ms).
  double nogoal_rt_ms = 0.0;
  double converge_intervals = 0.0;
  uint64_t lp_solves = 0;
  uint64_t lp_warm = 0;
  uint64_t store_resets = 0;
  uint64_t digest = 0;
  std::vector<std::string> errors;
};

/// Closed loop of coordinator checks at `nodes` nodes. A check is what the
/// goal controller runs on a violation: core::MeasureStore::Observe of the
/// measurement, FitPlanes, and core::SolvePartitioning warm-started from the
/// last basis; only these three library calls are timed. The plant around
/// them is untimed: its response times are linear in the per-node dedicated
/// bytes with 3% multiplicative measurement noise (RT_k falls from 20 ms
/// with nothing dedicated to 4 ms with every node's 2 MB dedicated, RT_0
/// rises from 5 to 12 ms, with random per-node weights), and after every
/// check the allocation moves towards the LP's, each node by at most the
/// controller's step bounds, in whole pages, so every check brings the store
/// a new point. While the store is not ready, and when a check misses the
/// goal but the move leaves every node in place, the plant probes a random
/// allocation. A check meets the goal when RT_k is within the controller's
/// tolerance floor above it. Goals follow the §7.1 protocol over the band
/// [RT_k(2/3 dedicated), RT_k(1/3 dedicated)]. One check stands for one
/// observation interval of the plant.
class CheckLoop {
 public:
  static constexpr double kObservationIntervalS = 5.0;

  CheckLoop(size_t nodes, uint64_t seed);

  /// Warm-up: fills the store, then runs a fixed number of checks. Returns
  /// the host seconds it took.
  double Setup();

  /// Hash of the allocation trajectory so far (determinism check).
  uint64_t digest() const { return digest_; }

  /// Runs `checks` more measured checks; returns their host seconds.
  double Run(int checks);

  /// Runs `checks` checks without recording them, to re-warm the caches
  /// after other work ran on the core.
  void Warm(int checks);

  /// Summary of every measured check so far.
  CheckLoopResult Result() const;

  /// Host microseconds of each measured check so far, in check order.
  const std::vector<double>& check_us() const { return check_us_; }

 private:
  struct Timing {
    double observe_s = 0.0;
    double fit_s = 0.0;
    double solve_s = 0.0;
  };
  /// One check and the plant's response to it; returns whether the
  /// observed goal-class RT met the goal.
  bool Check(Timing* timing);
  /// One check plus the goal protocol; `record` adds it to the totals.
  void Step(bool record);
  double RtGoal(const la::Vector& x) const;
  double RtNoGoal(const la::Vector& x) const;
  double Noisy(double rt);
  void Probe();
  void PickGoal();

  size_t nodes_;
  double capacity_;
  common::Rng rng_;
  la::Vector weight_k_;
  la::Vector weight_0_;
  double band_lo_ = 0.0;
  double band_hi_ = 0.0;
  double goal_ = 0.0;
  la::Vector allocation_;
  core::MeasureStore store_;
  la::SimplexBasis basis_;
  double last_rt_0_ = 0.0;
  uint64_t digest_ = kFnvOffset;
  // §7.1 protocol state.
  bool converging_ = true;
  bool first_goal_ = true;
  int since_change_ = 0;
  int streak_ = 0;
  // Totals of the measured checks.
  Timing timing_;
  std::vector<double> check_us_;
  std::vector<double> nogoal_rt_;
  std::vector<int> converge_samples_;
  int met_ = 0;
  uint64_t lp_solves_ = 0;
  uint64_t lp_warm_ = 0;
  uint64_t resets_at_setup_ = 0;
};

}  // namespace memgoal::bench::suite

#endif  // MEMGOAL_BENCH_SUITE_COORDINATOR_H_
