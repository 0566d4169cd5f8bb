#include "baseline/fencing.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace memgoal::baseline {

void FencingControllerBase::Attach(core::ClusterSystem* system) {
  system_ = system;
  const auto& config = system->config();
  for (ClassId klass : system->goal_class_ids()) {
    states_.try_emplace(klass, ClassState(config.tolerance_rel_floor,
                                          core::kToleranceZ));
  }
}

void FencingControllerBase::OnGoalChanged(ClassId klass) {
  auto it = states_.find(klass);
  if (it != states_.end()) it->second.tolerance.OnGoalChanged();
}

double FencingControllerBase::ToleranceFor(ClassId klass) const {
  auto it = states_.find(klass);
  if (it == states_.end()) return 0.0;
  return it->second.tolerance.Tolerance(
      system_->spec(klass).goal_rt_ms.value_or(0.0));
}

void FencingControllerBase::DistributeAcrossNodes(ClassId klass,
                                                  double aggregate_bytes) {
  // Single-server algorithms have no notion of node placement: split the
  // aggregate in proportion to each node's arrival rate for the class.
  const auto& config = system_->config();
  double rate_sum = 0.0;
  std::vector<double> rates(config.num_nodes, 0.0);
  for (NodeId i = 0; i < config.num_nodes; ++i) {
    rates[i] = system_->observation(klass, i).arrival_rate_per_ms;
    rate_sum += rates[i];
  }
  const uint64_t page = config.page_bytes;
  for (NodeId i = 0; i < config.num_nodes; ++i) {
    const double share =
        rate_sum > 0.0 ? rates[i] / rate_sum
                       : 1.0 / static_cast<double>(config.num_nodes);
    auto bytes = static_cast<uint64_t>(std::max(0.0, aggregate_bytes * share));
    bytes = bytes / page * page;
    system_->ApplyAllocation(klass, i, bytes);
  }
  ++adjustments_;
}

void FencingControllerBase::OnIntervalEnd(int) {
  for (auto& [klass, state] : states_) {
    const std::optional<double> rt = system_->WeightedRt(klass);

    // Per-interval miss rate from the cumulative counters.
    const core::AccessCounters& counters = system_->counters(klass);
    const uint64_t total = counters.total();
    const uint64_t local_hits =
        counters.by_level[static_cast<int>(StorageLevel::kLocalBuffer)];
    const uint64_t interval_total = total - state.last_total_accesses;
    const uint64_t interval_hits = local_hits - state.last_local_hits;
    state.last_total_accesses = total;
    state.last_local_hits = local_hits;
    const double miss_rate =
        interval_total > 0
            ? 1.0 - static_cast<double>(interval_hits) /
                        static_cast<double>(interval_total)
            : 0.0;

    if (!rt.has_value()) continue;
    const double goal = system_->spec(klass).goal_rt_ms.value();
    state.tolerance.Observe(*rt);

    const double current =
        static_cast<double>(system_->TotalDedicatedBytes(klass));
    double max_aggregate = 0.0;
    for (NodeId i = 0; i < system_->config().num_nodes; ++i) {
      max_aggregate += static_cast<double>(system_->AvailableFor(klass, i));
    }

    const double delta = state.tolerance.Tolerance(goal);
    if (std::fabs(*rt - goal) <= delta) continue;
    // Faster than goal with nothing dedicated: nothing to release.
    if (*rt < goal && current <= 0.0) continue;

    std::optional<double> target = TargetAggregateBytes(
        klass, state, *rt, goal, current, max_aggregate, miss_rate);
    if (!target.has_value()) continue;
    DistributeAcrossNodes(klass,
                          std::clamp(*target, 0.0, max_aggregate));
  }
}

std::optional<double> FragmentFencingController::TargetAggregateBytes(
    ClassId, ClassState&, double observed_rt, double goal_rt,
    double current_aggregate, double max_aggregate, double /*miss_rate*/) {
  if (current_aggregate <= 0.0) {
    // Nothing dedicated yet: seed, then scale on later intervals.
    return observed_rt > goal_rt ? kSeedFraction * max_aggregate : 0.0;
  }
  // Direct-proportionality assumption of [5]: response time scales with the
  // (insufficient) buffer, so scale the buffer by the violation ratio.
  return current_aggregate * (observed_rt / goal_rt);
}

std::optional<double> ClassFencingController::TargetAggregateBytes(
    ClassId, ClassState& state, double observed_rt, double goal_rt,
    double current_aggregate, double max_aggregate, double miss_rate) {
  // Record (buffer, miss-rate) and (miss-rate, response-time) observations.
  auto push = [](std::optional<std::pair<double, double>>& older,
                 std::optional<std::pair<double, double>>& newer,
                 double x, double y) {
    if (newer.has_value() && std::fabs(newer->first - x) < 1e-9) {
      newer->second = y;  // refresh same-x observation
      return;
    }
    older = newer;
    newer = {x, y};
  };
  push(state.older, state.newer, current_aggregate, miss_rate);
  push(state.rt_older, state.rt_newer, miss_rate, observed_rt);

  if (!state.older.has_value() || !state.rt_older.has_value()) {
    // Not enough history for the two linear models: seed allocation.
    if (current_aggregate <= 0.0 && observed_rt > goal_rt) {
      return kSeedFraction * max_aggregate;
    }
    // Perturb to obtain a second observation point.
    return observed_rt > goal_rt ? current_aggregate * 1.25 + 1.0
                                 : current_aggregate * 0.8;
  }

  // RT = a * missrate + b  (class fencing's proportionality assumption).
  const double dmr = state.rt_newer->first - state.rt_older->first;
  const double drt = state.rt_newer->second - state.rt_older->second;
  double needed_mr;
  if (std::fabs(dmr) < 1e-9 || drt / dmr <= 0.0) {
    // Degenerate: fall back to scaling the miss rate by the violation.
    needed_mr = miss_rate * (goal_rt / std::max(observed_rt, 1e-9));
  } else {
    const double a = drt / dmr;
    const double b = state.rt_newer->second - a * state.rt_newer->first;
    needed_mr = (goal_rt - b) / a;
  }
  needed_mr = std::clamp(needed_mr, 0.0, 1.0);

  // missrate = g * buffer + d (linear extrapolation of the concave
  // hit-rate curve between the last two observations).
  const double db = state.newer->first - state.older->first;
  const double dm = state.newer->second - state.older->second;
  if (std::fabs(db) < 1.0 || dm / db >= 0.0) {
    // Flat or non-informative curve: perturb in the violation direction.
    return observed_rt > goal_rt ? current_aggregate * 1.25 + 1.0
                                 : current_aggregate * 0.8;
  }
  const double g = dm / db;
  const double d = state.newer->second - g * state.newer->first;
  return (needed_mr - d) / g;
}

}  // namespace memgoal::baseline
