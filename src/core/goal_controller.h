#ifndef MEMGOAL_CORE_GOAL_CONTROLLER_H_
#define MEMGOAL_CORE_GOAL_CONTROLLER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/measure.h"
#include "core/optimizer.h"
#include "core/system.h"
#include "core/tolerance.h"
#include "la/matrix.h"

namespace memgoal::core {

/// The paper's distributed goal-oriented buffer partitioning (§5): one
/// agent per class per node, one coordinator per goal class, wired through
/// the simulated network with all protocol traffic accounted.
///
/// Each observation interval runs the five-phase feedback loop:
///  (a) local agents roll up inter-arrival rate and mean response time and
///      report to their coordinator on significant change; no-goal agents
///      report to every goal coordinator;
///  (b) coordinators fold reports into their measure-point store (N+1 most
///      recent affinely independent points, incremental Gauss);
///  (c) the coordinator checks the weighted mean response time against the
///      goal with a variance-derived tolerance;
///  (d) on violation it fits the two approximation hyperplanes and solves
///      the partitioning LP (or runs the warm-up heuristic while fewer than
///      N+1 points exist);
///  (e) allocation commands go to the agents, which apply them clamped to
///      local availability and acknowledge the granted sizes.
///
/// Partition tolerance is epoch-fenced (CP): a coordinator may check and
/// re-partition only while it holds a quorum lease — its home reaches a
/// strict majority of the currently-live nodes. Losing quorum (a cut, or
/// the home's death) drops the lease; a node on the majority side takes
/// over under an incremented epoch and announces it to every reachable
/// agent. Agents fence allocation grants by epoch
/// (ClusterSystem::ApplyAllocationFenced), so a deposed coordinator's
/// in-flight commands bounce instead of overwriting the new lease's
/// decisions. A minority-side coordinator degrades to the static local
/// fallback: grants stay frozen at their last applied values and checks
/// are skipped until the topology lets it reacquire a lease.
class GoalOrientedController final : public Controller {
 public:
  GoalOrientedController() = default;

  void Attach(ClusterSystem* system) override;
  void OnIntervalEnd(int interval_index) override;
  void OnGoalChanged(ClassId klass) override;
  void OnNodeCrash(NodeId node) override;
  void OnNodeRecover(NodeId node) override;
  void OnPartitionChange() override;
  std::optional<std::string> AuditInvariants() const override;
  double ToleranceFor(ClassId klass) const override;
  obs::LpOutcomeStats LpOutcomes() const override { return stats_.lp; }
  void PublishMetrics(obs::Registry* registry) override;
  const char* name() const override { return "goal-oriented"; }

  /// Protocol/algorithm activity counters for the overhead experiment and
  /// tests.
  struct ProtocolStats {
    uint64_t reports_sent = 0;
    uint64_t checks = 0;
    uint64_t violations = 0;
    uint64_t lp_optimizations = 0;
    uint64_t warmup_steps = 0;
    uint64_t allocation_commands = 0;
    uint64_t best_effort_allocations = 0;
    uint64_t saturations = 0;
    // Degradation counters (fault tolerance).
    uint64_t crashes_observed = 0;
    uint64_t recoveries_observed = 0;
    /// Coordinators re-homed because their node died.
    uint64_t coordinator_failovers = 0;
    /// Measure-store resets forced by crash/recovery (re-warm-ups).
    uint64_t store_resets = 0;
    /// Reports/observations rejected for non-finite rt or rate.
    uint64_t nonfinite_observations_rejected = 0;
    /// LP runs skipped because the fitted hyperplane was degenerate or had
    /// non-finite coefficients (previous allocation kept).
    uint64_t degenerate_fit_skips = 0;
    /// Per-SimplexStatus outcomes across every simplex solve of the
    /// fallback chain (one optimization may count several solves), plus
    /// relaxed-goal retries taken after an infeasible inequality LP.
    obs::LpOutcomeStats lp;
    /// LP runs that offered the previous interval's basis as a warm start
    /// vs. runs posed cold (no basis retained, or it was invalidated by a
    /// topology/epoch change). The solver itself may still silently reject
    /// an offered basis that no longer fits the program.
    uint64_t lp_warm_starts = 0;
    uint64_t lp_cold_starts = 0;
    // Partition-tolerance counters (epoch-fenced leases).
    uint64_t partition_changes_observed = 0;
    /// Quorum leases dropped (cut or home death deposed the coordinator).
    uint64_t leases_lost = 0;
    /// Leases (re)acquired under a fresh epoch, failovers included.
    uint64_t lease_acquisitions = 0;
    /// Coordinator checks skipped in the leaseless static-fallback mode.
    uint64_t checks_skipped_no_lease = 0;
  };
  const ProtocolStats& stats() const { return stats_; }

  /// Coordinator-side measure store of a goal class (for tests).
  const MeasureStore& measure_store(ClassId klass) const;

  /// Node hosting the coordinator of `klass`.
  NodeId coordinator_node(ClassId klass) const;

  /// After this many consecutive too-slow checks the coordinator abandons
  /// the fitted planes and saturates the class's allocation (see
  /// CoordinatorCheck).
  static constexpr int kSaturateAfterSlowChecks = 3;

 private:
  /// Coordinator-side view of one node's class-k agent.
  struct NodeView {
    std::optional<double> rt_ms;
    double arrival_rate = 0.0;
    uint64_t granted_bytes = 0;
    uint64_t bound_bytes = 0;
  };

  struct Coordinator {
    Coordinator(ClassId klass, NodeId home, size_t num_nodes,
                double tolerance_floor, double tolerance_z)
        : klass(klass), home(home), views(num_nodes), nogoal_rt(num_nodes),
          nogoal_rate(num_nodes, 0.0), store(num_nodes),
          tolerance(tolerance_floor, tolerance_z) {}

    ClassId klass;
    NodeId home;
    std::vector<NodeView> views;
    std::vector<std::optional<double>> nogoal_rt;
    std::vector<double> nogoal_rate;
    MeasureStore store;
    ToleranceEstimator tolerance;
    int warmup_step = 0;
    int consecutive_slow = 0;
    /// Fencing epoch of the current lease; incremented at every
    /// (re)acquisition so agents can reject a deposed holder's grants.
    uint64_t epoch = 1;
    /// True while `home` holds the quorum lease; without it the
    /// coordinator neither checks nor re-partitions (static fallback).
    bool has_lease = true;
    /// Final simplex basis of the last successful LP solve, offered as a
    /// warm start to the next one. Cleared whenever measurement restarts
    /// (crash/recovery/partition/epoch change): the LP shape or operating
    /// point moved, so the old basis is stale.
    la::SimplexBasis lp_warm_basis;
    /// The fault injector's cumulative corruption-strike count at this
    /// class's last measured check.
    uint64_t strikes_at_check = 0;
  };

  /// Last values each agent sent, for the significant-change filter.
  struct LastSent {
    bool valid = false;
    double rt_ms = 0.0;
    double arrival_rate = 0.0;
    uint64_t granted_bytes = 0;
    uint64_t bound_bytes = 0;
  };

  bool SignificantChange(const LastSent& last, double rt, double rate,
                         uint64_t granted, uint64_t bound) const;

  // Message-modelled deliveries (spawned).
  sim::Task<void> DeliverGoalReport(Coordinator* coordinator, NodeId from,
                                    std::optional<double> rt, double rate,
                                    uint64_t granted, uint64_t bound);
  sim::Task<void> DeliverNoGoalReport(Coordinator* coordinator, NodeId from,
                                      std::optional<double> rt, double rate);
  /// Phases (b)-(e) for one goal class. Fills one obs::DecisionRecord as
  /// it goes and hands it, on every exit path, to the attainment tracker
  /// and then to the decision log, whichever of them is attached.
  sim::Task<void> CoordinatorCheck(Coordinator* coordinator);
  /// Ships `target` to the live agents and captures the shipped
  /// (post-rounding) and granted (post-clamp, acked) per-node allocations
  /// into `record`.
  sim::Task<void> SendAllocations(Coordinator* coordinator, la::Vector target,
                                  obs::DecisionRecord& record);

  std::optional<double> WeightedGoalRt(const Coordinator& coordinator) const;
  std::optional<double> WeightedNoGoalRt(const Coordinator& coordinator) const;

  la::Vector WarmupAllocation(Coordinator* coordinator) const;

  /// Drops `node`'s stale state from `coordinator` and restarts measurement
  /// accumulation over the current live-node set (shared crash/recovery
  /// path; both invalidate every retained measure point).
  void RestartMeasurement(Coordinator* coordinator, NodeId node);

  /// Restarts measurement over the nodes currently live *and reachable*
  /// from the coordinator's home, wiping views of everything outside that
  /// set; every retained measure point described a topology that no longer
  /// exists.
  void RestartMeasurementOver(Coordinator* coordinator);

  /// Whether a coordinator homed at `home` can assemble a quorum right now:
  /// `home` is up and reaches a strict majority of the currently-live
  /// nodes. In an unpartitioned cluster this holds for every live node, so
  /// crash-only scenarios never lose the lease.
  bool QuorumFrom(NodeId home) const;
  bool HasQuorum(const Coordinator& coordinator) const {
    return QuorumFrom(coordinator.home);
  }

  /// Re-evaluates `coordinator`'s lease against the current topology:
  /// reacquires in place when its home regained quorum, deposes it and
  /// fails over to the lowest-numbered node that can assemble one, or
  /// leaves the class leaseless (even split / mass outage). Acquisition
  /// bumps the epoch and announces it; measurement restarts are the
  /// caller's job.
  void ReevaluateLease(Coordinator* coordinator);

  /// Synchronously raises the fence of every reachable live agent to the
  /// coordinator's epoch and accounts the announcement traffic.
  void AnnounceLease(Coordinator* coordinator);

  ClusterSystem* system_ = nullptr;
  std::map<ClassId, Coordinator> coordinators_;
  std::map<std::pair<ClassId, NodeId>, LastSent> last_sent_;
  ProtocolStats stats_;
};

}  // namespace memgoal::core

#endif  // MEMGOAL_CORE_GOAL_CONTROLLER_H_
