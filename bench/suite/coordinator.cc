#include "coordinator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <random>

#include "core/optimizer.h"
#include "core/system.h"

namespace memgoal::bench::suite {
namespace {

constexpr double kPageBytes = 4096.0;
constexpr double kCapacityBytes = 2.0 * 1024 * 1024;
// Plant response-time range over the dedicated fraction of the cache.
constexpr double kRtGoalEmpty = 20.0;
constexpr double kRtGoalFull = 4.0;
constexpr double kRtNoGoalEmpty = 5.0;
constexpr double kRtNoGoalFull = 12.0;
constexpr double kNoise = 0.03;
// §7.1 protocol.
constexpr int kSatisfiedStreakForChange = 4;
constexpr int kCensorLimit = 10;
// Checks run once the store is full and before measuring, so the LP basis
// and the goal protocol are in their steady state, as the simulated
// workloads' warm-up intervals fill the caches.
constexpr int kWarmupChecks = 1000;

using Clock = std::chrono::steady_clock;

// Per-node weights summing to 1 over a full cache on every node.
la::Vector Weights(common::Rng* rng, size_t n) {
  la::Vector w(n);
  double sum = 0.0;
  for (double& v : w) {
    v = rng->Uniform(0.5, 1.5);
    sum += v;
  }
  for (double& v : w) v /= sum * kCapacityBytes;
  return w;
}

double Dot(const la::Vector& a, const la::Vector& b) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

}  // namespace

CheckLoop::CheckLoop(size_t nodes, uint64_t seed)
    : nodes_(nodes), capacity_(kCapacityBytes), rng_(seed),
      allocation_(nodes, 0.0), store_(nodes) {
  weight_k_ = Weights(&rng_, nodes);
  weight_0_ = Weights(&rng_, nodes);
  band_lo_ = RtGoal(la::Vector(nodes, 2.0 / 3.0 * capacity_));
  band_hi_ = RtGoal(la::Vector(nodes, 1.0 / 3.0 * capacity_));
  goal_ = rng_.Uniform(band_lo_, band_hi_);
}

double CheckLoop::RtGoal(const la::Vector& x) const {
  return kRtGoalEmpty - (kRtGoalEmpty - kRtGoalFull) * Dot(weight_k_, x);
}

double CheckLoop::RtNoGoal(const la::Vector& x) const {
  return kRtNoGoalEmpty + (kRtNoGoalFull - kRtNoGoalEmpty) * Dot(weight_0_, x);
}

double CheckLoop::Noisy(double rt) {
  const double z = std::normal_distribution<double>(0.0, 1.0)(rng_.engine());
  return rt * (1.0 + kNoise * std::clamp(z, -3.0, 3.0));
}

void CheckLoop::Probe() {
  for (double& bytes : allocation_) {
    bytes = std::floor(rng_.Uniform(0.0, capacity_) / kPageBytes) * kPageBytes;
  }
}

void CheckLoop::PickGoal() {
  const double quarter_band = 0.25 * (band_hi_ - band_lo_);
  double next = goal_;
  while (std::fabs(next - goal_) < quarter_band) {
    next = rng_.Uniform(band_lo_, band_hi_);
  }
  goal_ = next;
}

bool CheckLoop::Check(Timing* timing) {
  const double rt_k = Noisy(RtGoal(allocation_));
  const double rt_0 = Noisy(RtNoGoal(allocation_));
  last_rt_0_ = rt_0;

  const Clock::time_point t0 = Clock::now();
  store_.Observe(allocation_, rt_k, rt_0);
  const Clock::time_point t1 = Clock::now();
  std::optional<core::MeasureStore::Planes> planes;
  if (store_.ready()) planes = store_.FitPlanes();
  const Clock::time_point t2 = Clock::now();
  std::optional<core::OptimizerOutput> lp;
  if (planes.has_value()) {
    core::OptimizerInput input;
    input.planes = std::move(*planes);
    input.goal_rt = goal_;
    input.upper_bounds.assign(nodes_, capacity_);
    if (!basis_.empty()) {
      input.warm = &basis_;
      ++lp_warm_;
    }
    lp = core::SolvePartitioning(input);
    ++lp_solves_;
    basis_ = lp->basis;
  }
  const Clock::time_point t3 = Clock::now();
  timing->observe_s += Seconds(t1 - t0);
  timing->fit_s += Seconds(t2 - t1);
  timing->solve_s += Seconds(t3 - t2);

  // The plant's side, untimed.
  static const core::SystemConfig kController;
  const double tolerance = kController.tolerance_rel_floor * goal_;
  const bool met = rt_k <= goal_ + tolerance;
  if (!lp.has_value()) {
    Probe();
  } else {
    const double grow = kController.max_step_fraction * capacity_;
    const double release = kController.release_step_fraction * capacity_;
    bool moved = false;
    for (size_t i = 0; i < nodes_; ++i) {
      const double target = std::clamp(lp->allocation[i],
                                       allocation_[i] - release,
                                       allocation_[i] + grow);
      const double bytes =
          std::floor(std::clamp(target, 0.0, capacity_) / kPageBytes) *
          kPageBytes;
      moved = moved || bytes != allocation_[i];
      allocation_[i] = bytes;
    }
    // A fit from points that no longer span the space can hold a missed
    // goal's allocation in place (its move rounds to no whole page), and the
    // store would never see another point.
    if (!moved && !met) Probe();
  }
  return met;
}

double CheckLoop::Setup() {
  const Clock::time_point start = Clock::now();
  // Random probes are affinely independent with probability one; the bound
  // only guards against a store that never fills.
  Timing timing;
  for (size_t i = 0; i < 4 * (nodes_ + 1) && !store_.ready(); ++i) {
    Check(&timing);
    digest_ = Fnv1a(Fnv1a(digest_, Dot(allocation_, weight_k_)), goal_);
  }
  Warm(kWarmupChecks);
  lp_solves_ = lp_warm_ = 0;
  resets_at_setup_ = store_.condition_resets();
  return Seconds(Clock::now() - start);
}

void CheckLoop::Step(bool record) {
  Timing unrecorded;
  Timing* timing = record ? &timing_ : &unrecorded;
  const double before = timing->observe_s + timing->fit_s + timing->solve_s;
  const bool satisfied = Check(timing);
  digest_ = Fnv1a(Fnv1a(digest_, Dot(allocation_, weight_k_)), goal_);
  if (record) {
    check_us_.push_back(
        (timing->observe_s + timing->fit_s + timing->solve_s - before) * 1e6);
    nogoal_rt_.push_back(last_rt_0_);
    met_ += satisfied ? 1 : 0;
  }
  // §7.1: count checks from a goal change to the first met check; change
  // goals after four met checks in a row.
  if (converging_) {
    ++since_change_;
    if (satisfied || since_change_ >= kCensorLimit) {
      // The goal left over from the warm-up is not a measured change.
      if (!first_goal_ && record) converge_samples_.push_back(since_change_);
      first_goal_ = false;
      converging_ = false;
      streak_ = satisfied ? 1 : 0;
    }
    return;
  }
  streak_ = satisfied ? streak_ + 1 : 0;
  if (streak_ >= kSatisfiedStreakForChange) {
    PickGoal();
    converging_ = true;
    since_change_ = 0;
    streak_ = 0;
  }
}

double CheckLoop::Run(int checks) {
  const Clock::time_point start = Clock::now();
  for (int c = 0; c < checks; ++c) Step(/*record=*/true);
  return Seconds(Clock::now() - start);
}

void CheckLoop::Warm(int checks) {
  for (int c = 0; c < checks; ++c) Step(/*record=*/false);
}

CheckLoopResult CheckLoop::Result() const {
  CheckLoopResult result;
  const auto checks = static_cast<double>(check_us_.size());
  result.checks = static_cast<int>(check_us_.size());
  result.check_us = check_us_;
  if (!store_.ready() && lp_solves_ == 0) {
    result.errors.push_back("the measure store never filled");
  }
  if (check_us_.empty()) {
    result.errors.push_back("no check ran");
    return result;
  }
  result.observe_us = timing_.observe_s * 1e6 / checks;
  result.fit_us = timing_.fit_s * 1e6 / checks;
  result.solve_us = timing_.solve_s * 1e6 / checks;
  result.goal_met_frac = met_ / checks;
  result.nogoal_rt_ms = Median(nogoal_rt_);
  if (converge_samples_.empty()) {
    result.errors.push_back("no goal change completed");
  } else {
    double sum = 0.0;
    for (int sample : converge_samples_) sum += sample;
    result.converge_intervals =
        sum / static_cast<double>(converge_samples_.size());
  }
  if (lp_solves_ == 0) result.errors.push_back("the LP never ran");
  result.lp_solves = lp_solves_;
  result.lp_warm = lp_warm_;
  result.store_resets = store_.condition_resets() - resets_at_setup_;
  result.digest = digest_;
  return result;
}

}  // namespace memgoal::bench::suite
