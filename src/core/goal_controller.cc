#include "core/goal_controller.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/check.h"
#include "common/logging.h"
#include "core/variance_optimizer.h"
#include "net/network.h"
#include "obs/profiler.h"

namespace memgoal::core {

namespace {

// Message sizes (bytes) of the partitioning protocol: an agent's interval
// report, an allocation command and its acknowledgement.
constexpr uint32_t kReportMsgBytes = 48;
constexpr uint32_t kAllocMsgBytes = 32;
constexpr uint32_t kAckMsgBytes = 32;
// Delay between the agents' interval rollup and the coordinator check,
// covering report message flight time (ms).
constexpr double kCoordinatorCheckDelayMs = 1.0;

bool AllFinite(const la::Vector& v) {
  for (double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

}  // namespace

void GoalOrientedController::Attach(ClusterSystem* system) {
  system_ = system;
  const SystemConfig& config = system->config();
  for (ClassId klass : system->goal_class_ids()) {
    // Coordinators are spread over the nodes for load balancing (§5).
    const NodeId home = (klass - 1) % config.num_nodes;
    coordinators_.try_emplace(
        klass, Coordinator(klass, home, config.num_nodes,
                           config.tolerance_rel_floor, kToleranceZ));
  }
}

const MeasureStore& GoalOrientedController::measure_store(
    ClassId klass) const {
  return coordinators_.at(klass).store;
}

NodeId GoalOrientedController::coordinator_node(ClassId klass) const {
  return coordinators_.at(klass).home;
}

void GoalOrientedController::MigrateCoordinator(ClassId klass,
                                                NodeId new_home) {
  MEMGOAL_CHECK(system_ != nullptr);
  const SystemConfig& config = system_->config();
  MEMGOAL_CHECK(new_home < config.num_nodes);
  Coordinator& coordinator = coordinators_.at(klass);
  if (coordinator.home == new_home) return;
  // State transfer to the new node plus one notification per agent (class-k
  // agents and no-goal agents on every node learn the new address).
  system_->simulator().Spawn(system_->network().Transfer(
      coordinator.home, new_home, kReportMsgBytes,
      net::TrafficClass::kPartitionProtocol));
  for (NodeId i = 0; i < config.num_nodes; ++i) {
    system_->simulator().Spawn(system_->network().Transfer(
        new_home, i, kControlMsgBytes,
        net::TrafficClass::kPartitionProtocol));
  }
  coordinator.home = new_home;
}

void GoalOrientedController::RestartMeasurement(Coordinator* coordinator,
                                                NodeId node) {
  // The node's last-reported view is stale (its agent state is gone on
  // crash, cold on recovery); every retained measure point described a
  // cluster that no longer exists.
  coordinator->views[node] = NodeView{};
  coordinator->nogoal_rt[node].reset();
  coordinator->nogoal_rate[node] = 0.0;
  RestartMeasurementOver(coordinator);
}

void GoalOrientedController::RestartMeasurementOver(Coordinator* coordinator) {
  std::vector<size_t> live;
  for (NodeId i = 0; i < system_->num_nodes(); ++i) {
    if (system_->NodeUp(i) &&
        system_->Reachable(coordinator->home, i)) {
      live.push_back(i);
    } else {
      // Dead or across the cut: the view cannot be refreshed, and a grant
      // recorded there would anchor the fit to unobservable memory.
      coordinator->views[i] = NodeView{};
      coordinator->nogoal_rt[i].reset();
      coordinator->nogoal_rate[i] = 0.0;
    }
  }
  coordinator->store.SetActiveNodes(std::move(live));
  coordinator->warmup_step = 0;
  coordinator->consecutive_slow = 0;
  // Topology changed: the LP's variable set (and its optimum) moved, so
  // the retained simplex basis is stale — next solve starts cold.
  coordinator->lp_warm_basis.status.clear();
  ++stats_.store_resets;
}

bool GoalOrientedController::QuorumFrom(NodeId home) const {
  if (!system_->NodeUp(home)) return false;
  uint32_t nodes_up = 0;
  uint32_t reachable_up = 0;
  for (NodeId i = 0; i < system_->num_nodes(); ++i) {
    if (!system_->NodeUp(i)) continue;
    ++nodes_up;
    if (system_->Reachable(home, i)) ++reachable_up;
  }
  // Strict majority of the *live* nodes: two disjoint sides of a cut can
  // never both satisfy this, so at most one lease per class is live. An
  // even split leaves both sides leaseless (frozen grants beat split
  // brain).
  return 2 * reachable_up > nodes_up;
}

void GoalOrientedController::AnnounceLease(Coordinator* coordinator) {
  const SystemConfig& config = system_->config();
  for (NodeId i = 0; i < config.num_nodes; ++i) {
    if (!system_->NodeUp(i) ||
        !system_->Reachable(coordinator->home, i)) {
      // Unreachable agents miss the announcement; their fence rises when
      // the first grant of the new epoch reaches them after the heal.
      continue;
    }
    // Fence raised synchronously, traffic accounted alongside (the
    // substitution-table idiom used throughout the protocol layer).
    system_->AnnounceEpoch(coordinator->klass, i, coordinator->epoch);
    if (i != coordinator->home) {
      system_->simulator().Spawn(system_->network().Transfer(
          coordinator->home, i, kControlMsgBytes,
          net::TrafficClass::kPartitionProtocol));
    }
  }
}

void GoalOrientedController::ReevaluateLease(Coordinator* coordinator) {
  if (HasQuorum(*coordinator)) {
    if (!coordinator->has_lease) {
      // Reacquire in place: the heal (or a crash on the other side)
      // restored this home's majority.
      ++coordinator->epoch;
      coordinator->lp_warm_basis.status.clear();
      coordinator->has_lease = true;
      ++stats_.lease_acquisitions;
      AnnounceLease(coordinator);
    }
    return;
  }
  if (coordinator->has_lease) {
    coordinator->has_lease = false;
    ++stats_.leases_lost;
  }
  // Depose-and-fail-over: the lowest-numbered node that can assemble a
  // quorum (the majority side) takes the class over under a fresh epoch.
  // The old home cannot be told — it is dead or across the cut — which is
  // exactly why the grants are fenced.
  for (NodeId i = 0; i < system_->num_nodes(); ++i) {
    if (!QuorumFrom(i)) continue;
    coordinator->home = i;
    ++stats_.coordinator_failovers;
    ++coordinator->epoch;
    coordinator->lp_warm_basis.status.clear();
    coordinator->has_lease = true;
    ++stats_.lease_acquisitions;
    // Every view lived in the deposed coordinator's memory.
    for (NodeView& view : coordinator->views) view = NodeView{};
    for (auto& rt : coordinator->nogoal_rt) rt.reset();
    for (double& rate : coordinator->nogoal_rate) rate = 0.0;
    AnnounceLease(coordinator);
    return;
  }
  // No node reaches a majority (even split or mass outage): the class's
  // control plane freezes until the topology changes again.
}

void GoalOrientedController::OnNodeCrash(NodeId node) {
  ++stats_.crashes_observed;
  for (auto& [klass, coordinator] : coordinators_) {
    if (coordinator.home == node && coordinator.has_lease) {
      // The coordinator's memory — and its lease — died with its node.
      coordinator.has_lease = false;
      ++stats_.leases_lost;
    }
    // A crash shrinks the live set, which can also flip quorum for
    // coordinators elsewhere while partitioned.
    ReevaluateLease(&coordinator);
    RestartMeasurement(&coordinator, node);
  }
  // The dead node's agents forget what they last reported; on recovery
  // they report immediately instead of sitting out the change filter.
  for (auto& [key, last] : last_sent_) {
    if (key.second == node) last = LastSent{};
  }
}

void GoalOrientedController::OnNodeRecover(NodeId node) {
  ++stats_.recoveries_observed;
  for (auto& [klass, coordinator] : coordinators_) {
    // A recovery grows the live set; while partitioned, a node rejoining
    // the *other* side can cost this coordinator its majority.
    ReevaluateLease(&coordinator);
    RestartMeasurement(&coordinator, node);
  }
  for (auto& [key, last] : last_sent_) {
    if (key.second == node) last = LastSent{};
  }
}

void GoalOrientedController::OnPartitionChange() {
  ++stats_.partition_changes_observed;
  for (auto& [klass, coordinator] : coordinators_) {
    ReevaluateLease(&coordinator);
    // Whether the reachable set shrank (cut) or widened (heal), the views
    // across the old boundary are stale and every retained measure point
    // described the previous topology.
    RestartMeasurementOver(&coordinator);
  }
  // Agents cannot know which of their reports crossed the boundary before
  // it moved: drop the change filter so everything is re-reported at the
  // next interval.
  for (auto& [key, last] : last_sent_) last = LastSent{};
}

std::optional<std::string> GoalOrientedController::AuditInvariants() const {
  char detail[128];
  for (const auto& [klass, coordinator] : coordinators_) {
    const size_t max_points = system_->num_nodes() + 1;
    if (coordinator.store.size() > max_points) {
      std::snprintf(detail, sizeof(detail),
                    "class %u: measure store holds %zu > N+1 = %zu points",
                    klass, coordinator.store.size(), max_points);
      return std::string(detail);
    }
    const double condition = coordinator.store.ConditionEstimate();
    if (!std::isfinite(condition) || condition < 0.0) {
      std::snprintf(detail, sizeof(detail),
                    "class %u: store condition estimate %g", klass,
                    condition);
      return std::string(detail);
    }
    if (coordinator.has_lease && !HasQuorum(coordinator)) {
      std::snprintf(detail, sizeof(detail),
                    "class %u: lease held at node %u without quorum", klass,
                    coordinator.home);
      return std::string(detail);
    }
  }
  return std::nullopt;
}

double GoalOrientedController::ToleranceFor(ClassId klass) const {
  auto it = coordinators_.find(klass);
  if (it == coordinators_.end()) return 0.0;
  const double goal = system_->spec(klass).goal_rt_ms.value_or(0.0);
  return it->second.tolerance.Tolerance(goal);
}

LpOutcomeCounters GoalOrientedController::LpOutcomes() const {
  LpOutcomeCounters counters;
  counters.optimal = stats_.lp_status_optimal;
  counters.infeasible = stats_.lp_status_infeasible;
  counters.unbounded = stats_.lp_status_unbounded;
  counters.iteration_limit = stats_.lp_status_iteration_limit;
  counters.relaxed_retries = stats_.lp_relaxed_retries;
  return counters;
}

void GoalOrientedController::AccumulateLpStats(const LpOutcomeStats& lp) {
  stats_.lp_status_optimal += lp.optimal;
  stats_.lp_status_infeasible += lp.infeasible;
  stats_.lp_status_unbounded += lp.unbounded;
  stats_.lp_status_iteration_limit += lp.iteration_limit;
  stats_.lp_relaxed_retries += lp.relaxed_retries;
}

void GoalOrientedController::PublishMetrics(obs::Registry* registry) {
  registry->GetCounter("ctrl.reports_sent")->Set(stats_.reports_sent);
  registry->GetCounter("ctrl.checks")->Set(stats_.checks);
  registry->GetCounter("ctrl.violations")->Set(stats_.violations);
  registry->GetCounter("ctrl.lp_optimizations")->Set(stats_.lp_optimizations);
  registry->GetCounter("ctrl.warmup_steps")->Set(stats_.warmup_steps);
  registry->GetCounter("ctrl.allocation_commands")
      ->Set(stats_.allocation_commands);
  registry->GetCounter("ctrl.best_effort_allocations")
      ->Set(stats_.best_effort_allocations);
  registry->GetCounter("ctrl.saturations")->Set(stats_.saturations);
  registry->GetCounter("ctrl.crashes_observed")->Set(stats_.crashes_observed);
  registry->GetCounter("ctrl.recoveries_observed")
      ->Set(stats_.recoveries_observed);
  registry->GetCounter("ctrl.coordinator_failovers")
      ->Set(stats_.coordinator_failovers);
  registry->GetCounter("ctrl.store_resets")->Set(stats_.store_resets);
  registry->GetCounter("ctrl.nonfinite_observations_rejected")
      ->Set(stats_.nonfinite_observations_rejected);
  registry->GetCounter("ctrl.degenerate_fit_skips")
      ->Set(stats_.degenerate_fit_skips);
  registry->GetCounter("ctrl.lp_status.optimal")->Set(stats_.lp_status_optimal);
  registry->GetCounter("ctrl.lp_status.infeasible")
      ->Set(stats_.lp_status_infeasible);
  registry->GetCounter("ctrl.lp_status.unbounded")
      ->Set(stats_.lp_status_unbounded);
  registry->GetCounter("ctrl.lp_status.iteration_limit")
      ->Set(stats_.lp_status_iteration_limit);
  registry->GetCounter("ctrl.lp_relaxed_retries")
      ->Set(stats_.lp_relaxed_retries);
  registry->GetCounter("ctrl.lp_warm_starts")->Set(stats_.lp_warm_starts);
  registry->GetCounter("ctrl.lp_cold_starts")->Set(stats_.lp_cold_starts);
  registry->GetCounter("ctrl.partition_changes_observed")
      ->Set(stats_.partition_changes_observed);
  registry->GetCounter("ctrl.leases_lost")->Set(stats_.leases_lost);
  registry->GetCounter("ctrl.lease_acquisitions")
      ->Set(stats_.lease_acquisitions);
  registry->GetCounter("ctrl.checks_skipped_no_lease")
      ->Set(stats_.checks_skipped_no_lease);
  char name[64];
  for (const auto& [klass, coordinator] : coordinators_) {
    std::snprintf(name, sizeof(name), "class%u.lease.epoch", klass);
    registry->GetGauge(name)->Set(static_cast<double>(coordinator.epoch));
    std::snprintf(name, sizeof(name), "class%u.lease.held", klass);
    registry->GetGauge(name)->Set(coordinator.has_lease ? 1.0 : 0.0);
  }
  for (const auto& [klass, coordinator] : coordinators_) {
    const MeasureStore& store = coordinator.store;
    std::snprintf(name, sizeof(name), "class%u.store.rejected_points", klass);
    registry->GetCounter(name)->Set(store.rejected_points());
    std::snprintf(name, sizeof(name), "class%u.store.outlier_rejections",
                  klass);
    registry->GetCounter(name)->Set(store.outlier_rejections());
    std::snprintf(name, sizeof(name), "class%u.store.condition_resets", klass);
    registry->GetCounter(name)->Set(store.condition_resets());
    std::snprintf(name, sizeof(name), "class%u.store.size", klass);
    registry->GetGauge(name)->Set(static_cast<double>(store.size()));
    std::snprintf(name, sizeof(name), "class%u.store.condition_estimate",
                  klass);
    registry->GetGauge(name)->Set(store.ConditionEstimate());
  }
}

void GoalOrientedController::OnGoalChanged(ClassId klass) {
  auto it = coordinators_.find(klass);
  if (it != coordinators_.end()) it->second.tolerance.OnGoalChanged();
}

bool GoalOrientedController::SignificantChange(const LastSent& last,
                                               double rt, double rate,
                                               uint64_t granted,
                                               uint64_t bound) const {
  if (!last.valid) return true;
  const double threshold = system_->config().report_change_threshold;
  auto moved = [threshold](double now, double before) {
    if (before == 0.0) return now != 0.0;
    return std::fabs(now - before) > threshold * std::fabs(before);
  };
  return moved(rt, last.rt_ms) || moved(rate, last.arrival_rate) ||
         granted != last.granted_bytes || bound != last.bound_bytes;
}

sim::Task<void> GoalOrientedController::DeliverGoalReport(
    Coordinator* coordinator, NodeId from, std::optional<double> rt,
    double rate, uint64_t granted, uint64_t bound) {
  const bool delivered = co_await system_->network().Transfer(
      from, coordinator->home, kReportMsgBytes,
      net::TrafficClass::kPartitionProtocol);
  if (!delivered) co_return;  // the coordinator keeps its stale view
  if ((rt.has_value() && !std::isfinite(*rt)) || !std::isfinite(rate)) {
    // A corrupt report must not reach the measure store.
    ++stats_.nonfinite_observations_rejected;
    co_return;
  }
  NodeView& view = coordinator->views[from];
  if (rt.has_value()) view.rt_ms = rt;
  view.arrival_rate = rate;
  view.granted_bytes = granted;
  view.bound_bytes = bound;
}

sim::Task<void> GoalOrientedController::DeliverNoGoalReport(
    Coordinator* coordinator, NodeId from, std::optional<double> rt,
    double rate) {
  const bool delivered = co_await system_->network().Transfer(
      from, coordinator->home, kReportMsgBytes,
      net::TrafficClass::kPartitionProtocol);
  if (!delivered) co_return;
  if ((rt.has_value() && !std::isfinite(*rt)) || !std::isfinite(rate)) {
    ++stats_.nonfinite_observations_rejected;
    co_return;
  }
  if (rt.has_value()) coordinator->nogoal_rt[from] = rt;
  coordinator->nogoal_rate[from] = rate;
}

void GoalOrientedController::OnIntervalEnd(int) {
  // Synchronous (no coroutine suspension): the whole interval rollup and
  // report fan-out is one profile frame.
  obs::ProfileScope profile(obs::Phase::kControllerCheck);
  const SystemConfig& config = system_->config();

  // Phase (a): agents roll up and report on significant change. A dead
  // node has no agents: nothing is sent from it.
  for (const workload::ClassSpec& spec : system_->classes()) {
    for (NodeId i = 0; i < config.num_nodes; ++i) {
      if (!system_->NodeUp(i)) continue;
      const ClusterSystem::Observation& obs =
          system_->observation(spec.id, i);
      const std::optional<double> rt =
          obs.has_rt ? std::optional<double>(obs.mean_rt_ms) : std::nullopt;

      if (spec.id == kNoGoalClass) {
        // No-goal agents feed every goal coordinator (§5a).
        LastSent& last = last_sent_[{spec.id, i}];
        if (!SignificantChange(last, obs.mean_rt_ms, obs.arrival_rate_per_ms,
                               0, 0)) {
          continue;
        }
        last = LastSent{true, obs.mean_rt_ms, obs.arrival_rate_per_ms, 0, 0};
        for (auto& [klass, coordinator] : coordinators_) {
          ++stats_.reports_sent;
          system_->simulator().Spawn(DeliverNoGoalReport(
              &coordinator, i, rt, obs.arrival_rate_per_ms));
        }
        continue;
      }

      auto coordinator_it = coordinators_.find(spec.id);
      if (coordinator_it == coordinators_.end()) continue;
      const uint64_t granted = system_->DedicatedBytes(spec.id, i);
      const uint64_t bound = system_->AvailableFor(spec.id, i);
      LastSent& last = last_sent_[{spec.id, i}];
      if (!SignificantChange(last, obs.mean_rt_ms, obs.arrival_rate_per_ms,
                             granted, bound)) {
        continue;
      }
      last = LastSent{true, obs.mean_rt_ms, obs.arrival_rate_per_ms, granted,
                      bound};
      ++stats_.reports_sent;
      system_->simulator().Spawn(
          DeliverGoalReport(&coordinator_it->second, i, rt,
                            obs.arrival_rate_per_ms, granted, bound));
    }
  }

  // Phases (b)-(e) run on the coordinators shortly afterwards, once the
  // reports have arrived. A coordinator whose home is down (possible only
  // when a full outage left no failover target) cannot run.
  for (auto& [klass, coordinator] : coordinators_) {
    if (!system_->NodeUp(coordinator.home)) continue;
    system_->simulator().Spawn(CoordinatorCheck(&coordinator));
  }
}

std::optional<double> GoalOrientedController::WeightedGoalRt(
    const Coordinator& coordinator) const {
  double weights = 0.0, weighted = 0.0;
  for (const NodeView& view : coordinator.views) {
    if (!view.rt_ms.has_value() || view.arrival_rate <= 0.0) continue;
    weighted += view.arrival_rate * *view.rt_ms;
    weights += view.arrival_rate;
  }
  if (weights <= 0.0) return std::nullopt;
  return weighted / weights;
}

std::optional<double> GoalOrientedController::WeightedNoGoalRt(
    const Coordinator& coordinator) const {
  double weights = 0.0, weighted = 0.0;
  for (size_t i = 0; i < coordinator.nogoal_rt.size(); ++i) {
    if (!coordinator.nogoal_rt[i].has_value() ||
        coordinator.nogoal_rate[i] <= 0.0) {
      continue;
    }
    weighted += coordinator.nogoal_rate[i] * *coordinator.nogoal_rt[i];
    weights += coordinator.nogoal_rate[i];
  }
  if (weights <= 0.0) return std::nullopt;
  return weighted / weights;
}

la::Vector GoalOrientedController::WarmupAllocation(
    Coordinator* coordinator) const {
  // Heuristic of §5b: dedicate a fixed fraction of the available memory,
  // then perturb one rotating node per step so each step yields a new
  // affinely independent measure point (base, base + d*e_0, base + d*e_1,
  // ...).
  const SystemConfig& config = system_->config();
  const uint32_t n = config.num_nodes;
  la::Vector target(n, 0.0);
  const int step = coordinator->warmup_step;
  for (uint32_t i = 0; i < n; ++i) {
    const double bound =
        static_cast<double>(coordinator->views[i].bound_bytes);
    double bytes = config.warmup_fraction * bound;
    if (step > 0 && (static_cast<uint32_t>(step - 1) % n) == i) {
      bytes += config.warmup_perturbation *
               static_cast<double>(config.cache_bytes_per_node);
    }
    target[i] = std::min(bytes, bound);
  }
  return target;
}

sim::Task<void> GoalOrientedController::CoordinatorCheck(
    Coordinator* coordinator) {
  const SystemConfig& config = system_->config();
  co_await system_->simulator().Delay(kCoordinatorCheckDelayMs);

  // The home may have died between the interval boundary and this check;
  // its successor starts from fresh state at the next interval.
  if (!system_->NodeUp(coordinator->home)) co_return;

  // Decision log: one record per check, lease-skipped ones included. The
  // RAII appender fires on every co_return path (coroutine locals are
  // destroyed at final suspend), so early exits — no lease, no data,
  // within tolerance, degenerate fit — are logged too; a null sink makes
  // the whole capture a no-op.
  obs::DecisionLog* decision_log = system_->decision_log();
  obs::DecisionRecord record;
  struct RecordAppender {
    obs::DecisionLog* log;
    obs::DecisionRecord* record;
    ~RecordAppender() {
      if (log != nullptr) log->Append(std::move(*record));
    }
  } appender{decision_log, &record};
  if (decision_log != nullptr) {
    record.interval = system_->intervals_completed() - 1;
    record.sim_time_ms = system_->simulator().Now();
    record.klass = static_cast<int>(coordinator->klass);
    record.home = static_cast<int>(coordinator->home);
    record.epoch = coordinator->epoch;
    record.lease_held = coordinator->has_lease;
  }

  // Attainment tracker: one CheckOutcome per check, reported on every
  // co_return path by the same RAII pattern as the decision record. A null
  // (or disabled) tracker makes the whole capture a no-op.
  obs::AttainmentTracker* attainment = system_->attainment();
  if (attainment != nullptr && !attainment->enabled()) attainment = nullptr;
  obs::AttainmentTracker::CheckOutcome check;
  check.klass = coordinator->klass;
  check.lease_held = coordinator->has_lease;
  struct CheckReporter {
    obs::AttainmentTracker* tracker;
    obs::AttainmentTracker::CheckOutcome* outcome;
    ~CheckReporter() {
      if (tracker != nullptr) tracker->RecordCheckOutcome(*outcome);
    }
  } check_reporter{attainment, &check};

  if (!coordinator->has_lease) {
    // Minority-side (or leaseless) static fallback: the last applied grants
    // stay frozen; no check, no LP, no commands until a lease returns.
    ++stats_.checks_skipped_no_lease;
    co_return;
  }

  ++stats_.checks;

  const std::optional<double> rt_k = WeightedGoalRt(*coordinator);
  if (!rt_k.has_value()) co_return;  // no data yet
  if (!std::isfinite(*rt_k)) {
    ++stats_.nonfinite_observations_rejected;
    co_return;
  }
  const double goal = system_->spec(coordinator->klass).goal_rt_ms.value();
  check.observed_rt_ms = *rt_k;
  check.has_observed_rt = true;

  // Phase (b): fold the current measurement into the measure-point store.
  coordinator->tolerance.Observe(*rt_k);
  const std::optional<double> rt_0 = WeightedNoGoalRt(*coordinator);
  la::Vector allocation(config.num_nodes);
  for (uint32_t i = 0; i < config.num_nodes; ++i) {
    allocation[i] = static_cast<double>(coordinator->views[i].granted_bytes);
  }
  if (rt_0.has_value()) {
    // Per-node response times ride along (nodes without fresh data carry
    // their last-reported value), enabling the per-node plane fits of the
    // variance objective.
    la::Vector rt_per_node(config.num_nodes);
    for (uint32_t i = 0; i < config.num_nodes; ++i) {
      rt_per_node[i] = coordinator->views[i].rt_ms.value_or(*rt_k);
    }
    if (std::isfinite(*rt_0) && AllFinite(allocation) &&
        AllFinite(rt_per_node)) {
      const MeasureStore::ObserveOutcome outcome =
          coordinator->store.ObserveDetailed(allocation, *rt_k, *rt_0,
                                             rt_per_node);
      if (decision_log != nullptr) {
        record.measure_outcome = MeasureStore::OutcomeName(outcome);
      }
    } else {
      ++stats_.nonfinite_observations_rejected;
    }
  }
  if (decision_log != nullptr) {
    record.observed_rt_k = *rt_k;
    record.has_observed_rt_0 = rt_0.has_value();
    record.observed_rt_0 = rt_0.value_or(0.0);
    record.goal_rt = goal;
    record.measured_allocation = allocation;
    record.condition_estimate = coordinator->store.ConditionEstimate();
    record.store_ready = coordinator->store.ready();
    record.store_size = static_cast<int>(coordinator->store.size());
  }

  // Phase (c): check against the goal with the tolerance band. Being too
  // slow always triggers re-partitioning; being faster than the goal only
  // matters when the class actually holds dedicated buffer that the no-goal
  // class could reclaim.
  const double delta = coordinator->tolerance.Tolerance(goal);
  if (decision_log != nullptr) record.tolerance_delta = delta;
  const bool too_slow = *rt_k > goal + delta;
  const bool too_fast = *rt_k < goal - delta;
  check.too_slow = too_slow;
  check.too_fast = too_fast;
  if (!too_slow && !too_fast) co_return;
  uint64_t current_total = 0;
  for (const NodeView& view : coordinator->views) {
    current_total += view.granted_bytes;
  }
  if (too_fast && current_total == 0) co_return;
  ++stats_.violations;
  if (too_slow && attainment != nullptr) {
    // Goal miss: join the last interval's budget attribution with the
    // cluster's active fault state into a root-cause card, mirrored into
    // the decision record so it replays from the log.
    const sim::FaultInjector& injector = system_->fault_injector();
    obs::AttainmentTracker::FaultState faults;
    faults.nodes_down = config.num_nodes - injector.nodes_up();
    for (uint32_t i = 0; i < config.num_nodes; ++i) {
      if (injector.IsDegraded(i)) ++faults.nodes_degraded;
    }
    faults.partitioned = injector.Partitioned();
    faults.partition_epoch = injector.partition_epoch();
    faults.corruptions_since_last_check = attainment->NoteCorruptions(
        coordinator->klass, injector.stats().corruptions);
    const obs::AttainmentTracker::MissCard& card = attainment->RecordMiss(
        coordinator->klass, system_->intervals_completed() - 1,
        system_->simulator().Now(), *rt_k, goal, delta, faults);
    if (decision_log != nullptr) {
      record.miss_card = true;
      record.miss_dominant_phase = obs::BudgetPhaseName(card.dominant_phase);
      record.miss_dominant_ms = card.dominant_ms;
      record.miss_phase_ms.assign(card.phase_mean_ms,
                                  card.phase_mean_ms + obs::kNumBudgetPhases);
      record.miss_baseline_rt = card.baseline_rt_ms;
      record.miss_deviation_ms = card.deviation_ms;
      record.miss_nodes_down = card.nodes_down;
      record.miss_nodes_degraded = card.nodes_degraded;
      record.miss_partitioned = card.partitioned;
      record.miss_corruptions = card.corruptions;
    }
  }
  coordinator->consecutive_slow = too_slow ? coordinator->consecutive_slow + 1
                                           : 0;

  // Escalation: the fitted hyperplane is a *global* linear model, but the
  // real response curve need not be globally linear (our simulator exposes
  // a non-monotone region at small dedications; see EXPERIMENTS.md). If
  // several LP steps in a row failed to get the class below goal, fall
  // back on the §3 monotonicity assumption and saturate the allocation
  // outright — the subsequent too-fast checks then walk back down the
  // monotone branch under the shrink clamp. The jump skips damping: it can
  // only speed the goal class up.
  if (coordinator->consecutive_slow >= kSaturateAfterSlowChecks) {
    coordinator->consecutive_slow = 0;
    ++stats_.saturations;
    la::Vector full(config.num_nodes);
    for (uint32_t i = 0; i < config.num_nodes; ++i) {
      full[i] = static_cast<double>(coordinator->views[i].bound_bytes);
    }
    co_await SendAllocations(coordinator, std::move(full),
                             decision_log != nullptr ? &record : nullptr);
    co_return;
  }

  // Phase (d): compute a new partitioning.
  la::Vector target;
  bool from_warmup = false;
  if (!coordinator->store.ready()) {
    from_warmup = true;
    if (too_slow) {
      target = WarmupAllocation(coordinator);
    } else {
      // Too fast during warm-up: release half of the dedicated buffer; the
      // halving both frees memory for the no-goal class and yields a fresh
      // measure point.
      target = allocation;
      for (double& bytes : target) bytes *= 0.5;
    }
    ++coordinator->warmup_step;
    ++stats_.warmup_steps;
  } else {
    OptimizerInput input;
    std::optional<MeasureStore::Planes> planes =
        coordinator->store.FitPlanes();
    if (!planes.has_value() || !AllFinite(planes->grad_k) ||
        !std::isfinite(planes->intercept_k) || !AllFinite(planes->grad_0) ||
        !std::isfinite(planes->intercept_0)) {
      // A degenerate or numerically broken fit must not steer the
      // partitioning: keep the previous allocation and let fresh measure
      // points repair the model.
      ++stats_.degenerate_fit_skips;
      co_return;
    }
    input.goal_rt = goal;
    // The optimization runs over the live nodes only: a dead node's upper
    // bound is 0, so the LP cannot place buffer there.
    input.upper_bounds.resize(config.num_nodes);
    for (uint32_t i = 0; i < config.num_nodes; ++i) {
      input.upper_bounds[i] =
          system_->NodeUp(i)
              ? static_cast<double>(coordinator->views[i].bound_bytes)
              : 0.0;
    }
    if (decision_log != nullptr) {
      record.has_planes = true;
      record.grad_k = planes->grad_k;
      record.intercept_k = planes->intercept_k;
      record.grad_0 = planes->grad_0;
      record.intercept_0 = planes->intercept_0;
      record.upper_bounds = input.upper_bounds;
    }

    OptimizerMode mode;
    int lp_relaxed_rung = -1;
    std::optional<std::vector<MeasureStore::NodePlane>> node_planes;
    if (config.objective == PartitioningObjective::kMinimizeNodeVariance) {
      node_planes = coordinator->store.FitNodePlanes();
    }
    if (node_planes.has_value()) {
      // §8 objective: minimize the per-node response-time dispersion.
      VarianceOptimizerInput variance_input;
      variance_input.node_planes = std::move(*node_planes);
      variance_input.mean_grad = planes->grad_k;
      variance_input.mean_intercept = planes->intercept_k;
      variance_input.goal_rt = goal;
      variance_input.upper_bounds = input.upper_bounds;
      VarianceOptimizerOutput output =
          SolveVariancePartitioning(variance_input);
      target = std::move(output.allocation);
      mode = output.mode;
      AccumulateLpStats(output.lp_stats);
      ++stats_.lp_cold_starts;
      if (decision_log != nullptr) {
        record.lp_run = true;
        record.lp_mode = OptimizerModeName(mode);
        record.relaxed_goal_rt = output.relaxed_goal_rt;
        record.lp_optimal = output.lp_stats.optimal;
        record.lp_infeasible = output.lp_stats.infeasible;
        record.lp_unbounded = output.lp_stats.unbounded;
        record.lp_iteration_limit = output.lp_stats.iteration_limit;
        record.lp_relaxed_retries = output.lp_stats.relaxed_retries;
        record.lp_allocation = target;
      }
    } else {
      input.planes = std::move(*planes);
      // Warm-start from the previous interval's basis when one survived
      // (same topology, same epoch). The solver validates it against the
      // re-posed program and silently cold-starts on a mismatch.
      const bool warm = !coordinator->lp_warm_basis.empty();
      if (warm) {
        input.warm = &coordinator->lp_warm_basis;
        ++stats_.lp_warm_starts;
      } else {
        ++stats_.lp_cold_starts;
      }
      OptimizerOutput output = SolvePartitioning(input);
      target = std::move(output.allocation);
      mode = output.mode;
      lp_relaxed_rung = output.relaxed_rung;
      AccumulateLpStats(output.lp_stats);
      if (decision_log != nullptr) {
        record.lp_run = true;
        record.lp_mode = OptimizerModeName(mode);
        record.relaxed_rung = output.relaxed_rung;
        record.relaxed_goal_rt = output.relaxed_goal_rt;
        record.lp_optimal = output.lp_stats.optimal;
        record.lp_infeasible = output.lp_stats.infeasible;
        record.lp_unbounded = output.lp_stats.unbounded;
        record.lp_iteration_limit = output.lp_stats.iteration_limit;
        record.lp_relaxed_retries = output.lp_stats.relaxed_retries;
        record.lp_warm = warm;
        record.lp_warm_basis = coordinator->lp_warm_basis.ToText();
        record.lp_allocation = target;
      }
      coordinator->lp_warm_basis = std::move(output.basis);
    }
    ++stats_.lp_optimizations;
    check.lp_run = true;
    check.relaxed_rung = lp_relaxed_rung;
    if (attainment != nullptr && too_slow) {
      attainment->AnnotateLastMiss(coordinator->klass, /*lp_run=*/true,
                                   OptimizerModeName(mode), lp_relaxed_rung);
    }
    if (mode == OptimizerMode::kBestEffort) {
      ++stats_.best_effort_allocations;
    }
    if (too_fast) {
      // The goal is met with slack: the only admissible move is to release
      // memory to the no-goal class. A noisy fit (near-collinear measure
      // points after convergence) can otherwise point the LP towards
      // *growing* the allocation. Clamp to a shrink, and force progress if
      // the LP proposes none.
      double target_total = 0.0, current_total_d = 0.0;
      for (uint32_t i = 0; i < config.num_nodes; ++i) {
        target[i] = std::min(target[i], allocation[i]);
        target_total += target[i];
        current_total_d += allocation[i];
      }
      if (target_total >= current_total_d - 0.5) {
        for (double& bytes : target) bytes *= 0.5;
      }
    } else {
      // Too slow: by the §3 monotonicity assumption, releasing buffer
      // cannot help, so the LP may rebalance and grow but never shrink a
      // node's budget (a transient-polluted fit would otherwise release
      // memory exactly when the class needs it most).
      for (uint32_t i = 0; i < config.num_nodes; ++i) {
        target[i] = std::max(target[i], allocation[i]);
      }
    }
    MEMGOAL_LOG_DEBUG("class %u: rt=%.3f goal=%.3f delta=%.3f -> LP mode=%d",
                      coordinator->klass, *rt_k, goal, delta,
                      static_cast<int>(mode));
  }

  // Damp the step: an optimization may only move each node's budget by a
  // bounded amount per interval, so one transient-polluted fit cannot swing
  // the partitioning wall to wall.
  // Warm-up steps are exempt: they are deliberate exploration whose
  // perturbation structure guarantees affinely independent measure points —
  // clamping them would collapse every probe onto the same line.
  if (!from_warmup) {
    const double grow_step = config.max_step_fraction *
                             static_cast<double>(config.cache_bytes_per_node);
    const double release_step =
        config.release_step_fraction *
        static_cast<double>(config.cache_bytes_per_node);
    for (uint32_t i = 0; i < config.num_nodes; ++i) {
      const double granted =
          static_cast<double>(coordinator->views[i].granted_bytes);
      target[i] =
          std::clamp(target[i], granted - release_step, granted + grow_step);
    }
  }

  // Round to whole frames (what the pools can actually hold) and detect
  // stagnation: near-collinear measure points can make the fitted plane so
  // steep that the LP proposes sub-page moves which round back to the
  // current partitioning — while the goal stays violated. Break the
  // deadlock with an exploratory step in the violation's direction, which
  // also contributes a fresh affinely independent measure point (the same
  // requirement §5b imposes on warm-up steps).
  const uint64_t page = config.page_bytes;
  bool stagnant = true;
  for (uint32_t i = 0; i < config.num_nodes; ++i) {
    target[i] = std::floor(std::max(0.0, target[i]) /
                           static_cast<double>(page)) *
                static_cast<double>(page);
    target[i] = std::min(
        target[i], static_cast<double>(coordinator->views[i].bound_bytes));
    if (static_cast<uint64_t>(target[i]) !=
        coordinator->views[i].granted_bytes) {
      stagnant = false;
    }
  }
  if (stagnant) {
    const double step_bytes = config.warmup_perturbation *
                              static_cast<double>(config.cache_bytes_per_node);
    if (too_slow) {
      // Grow on a rotating node with headroom.
      for (uint32_t attempt = 0; attempt < config.num_nodes; ++attempt) {
        const uint32_t i =
            static_cast<uint32_t>(coordinator->warmup_step++) %
            config.num_nodes;
        const double bound =
            static_cast<double>(coordinator->views[i].bound_bytes);
        if (target[i] + static_cast<double>(page) > bound) continue;
        target[i] = std::min(bound, target[i] + step_bytes);
        break;
      }
    } else {
      // Shrink the largest allocation.
      uint32_t largest = 0;
      for (uint32_t i = 1; i < config.num_nodes; ++i) {
        if (target[i] > target[largest]) largest = i;
      }
      target[largest] = std::max(0.0, target[largest] - step_bytes);
    }
  }

  // Phase (e): ship the allocation to the agents.
  co_await SendAllocations(coordinator, std::move(target),
                           decision_log != nullptr ? &record : nullptr);
}

sim::Task<void> GoalOrientedController::SendAllocations(
    Coordinator* coordinator, la::Vector target,
    obs::DecisionRecord* record) {
  const SystemConfig& config = system_->config();
  const uint64_t page = config.page_bytes;
  // Captured at entry: messages already in flight keep coming from the
  // node that sent them even if the coordinator is deposed mid-fan-out,
  // and every grant carries the epoch of the lease that computed it.
  const NodeId origin = coordinator->home;
  const uint64_t epoch = coordinator->epoch;
  if (record != nullptr) {
    record->shipped_allocation.assign(config.num_nodes, 0.0);
    record->granted_allocation.assign(config.num_nodes, 0.0);
  }
  for (uint32_t i = 0; i < config.num_nodes; ++i) {
    // No command is sent to a dead node; its budget restarts from zero
    // after recovery anyway. Unreachable nodes are NOT skipped: the
    // coordinator cannot know about a fresh cut, so the command is sent
    // and the network drops it at the boundary.
    if (!system_->NodeUp(i)) continue;
    // Round down to whole frames so coordinator bookkeeping matches the
    // pool's frame-granular capacity.
    uint64_t bytes = static_cast<uint64_t>(std::max(0.0, target[i]));
    bytes = bytes / page * page;
    if (record != nullptr) {
      record->shipped_allocation[i] = static_cast<double>(bytes);
    }
    if (bytes == coordinator->views[i].granted_bytes) continue;
    ++stats_.allocation_commands;
    const bool command_delivered = co_await system_->network().Transfer(
        origin, i, kAllocMsgBytes,
        net::TrafficClass::kPartitionProtocol);
    // A lost command never reaches the agent; a lost ack leaves the
    // coordinator's view stale. Both are repaired by the next agent report
    // (the feedback design of §5e).
    if (!command_delivered) continue;
    const ClusterSystem::GrantOutcome outcome =
        system_->ApplyAllocationFenced(coordinator->klass, i, bytes, epoch);
    if (outcome.rejected_stale_epoch) continue;  // the agent fenced us out
    const uint64_t granted = outcome.granted;
    const bool ack_delivered = co_await system_->network().Transfer(
        i, origin, kAckMsgBytes,
        net::TrafficClass::kPartitionProtocol);
    if (!ack_delivered) continue;
    // A deposed coordinator must not touch the views: they now belong to
    // the new lease holder.
    if (coordinator->epoch != epoch) continue;
    coordinator->views[i].granted_bytes = granted;
    coordinator->views[i].bound_bytes =
        system_->AvailableFor(coordinator->klass, i);
    last_sent_[{coordinator->klass, i}].granted_bytes = granted;
  }
  if (record != nullptr) {
    for (uint32_t i = 0; i < config.num_nodes; ++i) {
      record->granted_allocation[i] =
          static_cast<double>(coordinator->views[i].granted_bytes);
    }
  }
}

}  // namespace memgoal::core
