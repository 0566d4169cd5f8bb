#ifndef MEMGOAL_SIM_FAULT_INJECTOR_H_
#define MEMGOAL_SIM_FAULT_INJECTOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace memgoal::sim {

/// Schedules node crash/recovery and degradation events on the simulator
/// clock.
///
/// Four failure *kinds* are modeled, each with two composable event
/// sources (a deterministic script and a seeded stochastic process):
///
///  - **Fail-stop crashes**: the node is down, its volatile state is gone.
///    The stochastic process alternates exponentially distributed
///    time-to-failure (MTTF) and time-to-repair (MTTR) phases.
///  - **Gray degradation**: the node stays up but serves everything slower
///    by a multiplicative factor (disk and CPU service times, its share of
///    network latency). The stochastic process alternates exponentially
///    distributed time-to-degradation (MTTD) and repair phases. Crashes and
///    degradation compose freely: a degraded node can crash, and a node
///    that recovers from a crash is still degraded until its episode lifts.
///  - **Network partitions**: every node stays up, but the interconnect is
///    cut into groups; messages cross group boundaries in neither
///    direction. The stochastic process alternates
///    exponentially distributed whole-cluster phases and partition episodes
///    (MTTP / heal time) that isolate a uniformly drawn minority, so a
///    majority component always exists. Partitions compose freely with
///    crashes and degradation.
///  - **Silent data corruption**: a stored bit pattern on one node goes bad
///    (bit rot on a disk-resident page, a flipped cached frame, a torn WAL
///    tail). The injector only decides *when* and *where* (node plus one
///    opaque 64-bit draw); the owner's callback maps the draw onto an
///    actual page/frame/record, so the injector stays storage-agnostic.
///    The stochastic process is a per-node Poisson process with mean
///    inter-corruption time MTTC. Corruption composes freely with the
///    other three kinds.
///
/// The injector is the single source of truth for node availability and
/// health: it tracks an up/down flag, a crash epoch and a slowdown factor
/// per node (the epoch increments on every crash, letting in-flight work
/// detect that its node died and came back while it was suspended), plus
/// the current reachability relation. Owners register callbacks that run
/// synchronously at the transition instant; everything a crash must
/// atomically destroy (cache contents, directory registrations, controller
/// views), everything a degradation must slow down (resource slowdown
/// factors), and everything a topology change must re-evaluate (quorum
/// leases, heal-time reconciliation) happens inside those callbacks, at one
/// point in simulated time.
///
/// A safety floor keeps at least `min_live_nodes` nodes up: a crash that
/// would violate the floor is suppressed (and counted), so stochastic fault
/// processes cannot take the whole cluster down unless explicitly allowed.
class FaultInjector {
 public:
  struct ScriptEvent {
    SimTime at_ms = 0.0;
    uint32_t node = 0;
    /// true = crash at `at_ms`, false = recover.
    bool crash = true;
  };

  struct DegradationEvent {
    SimTime at_ms = 0.0;
    uint32_t node = 0;
    /// true = the degradation episode begins at `at_ms`, false = it lifts.
    bool begin = true;
    /// Service-time multiplier while degraded (used when begin).
    double factor = 10.0;
  };

  struct PartitionEvent {
    SimTime at_ms = 0.0;
    /// Group id per node (size must equal num_nodes): nodes in different
    /// groups are mutually unreachable. An empty vector — or one where all
    /// nodes share a group — heals the cluster.
    std::vector<uint32_t> groups;
  };

  struct CorruptionEvent {
    SimTime at_ms = 0.0;
    uint32_t node = 0;
    /// Number of independent corruptions fired at `at_ms` (draws are
    /// Mix64(salt + 0..count-1), so a scripted event is reproducible).
    uint32_t count = 1;
    /// Seeds the per-event draws; two events with different salts corrupt
    /// different targets.
    uint64_t salt = 0;
  };

  struct Params {
    /// Deterministic crash/recovery schedule (may be empty).
    std::vector<ScriptEvent> script;
    /// Mean time to failure of the per-node stochastic process, ms;
    /// 0 disables the process entirely.
    double mttf_ms = 0.0;
    /// Mean time to repair once crashed, ms.
    double mttr_ms = 10000.0;
    /// Seed of the stochastic failure/repair draws.
    uint64_t seed = 0xFA171;
    /// Crashes that would leave fewer than this many nodes up are
    /// suppressed. 0 allows a full-cluster outage.
    uint32_t min_live_nodes = 1;

    /// Deterministic degradation schedule (may be empty).
    std::vector<DegradationEvent> degradation_script;
    /// Mean time to degradation of the per-node stochastic gray-failure
    /// process, ms; 0 disables it.
    double mttd_ms = 0.0;
    /// Mean duration of a stochastic degradation episode, ms.
    double degradation_repair_ms = 10000.0;
    /// Slowdown factor of stochastic degradation episodes.
    double degradation_factor = 10.0;

    /// Deterministic partition schedule (may be empty).
    std::vector<PartitionEvent> partition_script;
    /// Mean time to partition of the stochastic whole-cluster process, ms;
    /// 0 disables it. Each episode cuts a uniformly drawn minority of
    /// 1..(num_nodes-1)/2 nodes off the rest, so a strict majority side
    /// always survives. At most one stochastic episode runs at a time.
    double mttp_ms = 0.0;
    /// Mean duration of a stochastic partition episode, ms.
    double partition_heal_ms = 10000.0;

    /// Deterministic corruption schedule (may be empty).
    std::vector<CorruptionEvent> corruption_script;
    /// Mean time between stochastic per-node corruption events, ms;
    /// 0 disables the process. Corruption streams fork *after* the
    /// partition stream, so enabling corruption leaves every pre-existing
    /// crash/degradation/partition schedule bit-identical.
    double mttc_ms = 0.0;
  };

  struct Stats {
    uint64_t crashes = 0;
    uint64_t recoveries = 0;
    /// Crashes suppressed by the min_live_nodes floor.
    uint64_t suppressed = 0;
    /// Degradation episodes begun / lifted.
    uint64_t degradations = 0;
    uint64_t degradation_recoveries = 0;
    /// Group partitions begun (whole -> split transitions) / healed.
    uint64_t partitions = 0;
    uint64_t partition_heals = 0;
    /// Corruption events fired (scripted events count once per `count`).
    uint64_t corruptions = 0;
  };

  using Callback = std::function<void(uint32_t node)>;
  /// Runs synchronously per corruption event. `draw` is an opaque 64-bit
  /// value the owner maps onto a concrete target (disk page, cached frame,
  /// WAL tail) and a detectability outcome — deciding everything at
  /// injection time keeps the access path free of RNG draws.
  using CorruptionCallback = std::function<void(uint32_t node, uint64_t draw)>;
  /// Runs synchronously after every reachability change (group cut,
  /// reshape or heal). Query Reachable()/Partitioned() from inside for the
  /// new topology.
  using TopologyCallback = std::function<void()>;

  FaultInjector(Simulator* simulator, uint32_t num_nodes,
                const Params& params);

  /// Registers the owner's crash/recovery handlers. Both run synchronously
  /// inside Crash()/Recover(); either may be null.
  void SetCallbacks(Callback on_crash, Callback on_recover);

  /// Registers the owner's degradation handlers. `on_degrade` runs
  /// synchronously when an episode begins (query SlowdownOf for the
  /// factor), `on_restore` when it lifts. Either may be null.
  void SetDegradationCallbacks(Callback on_degrade, Callback on_restore);

  /// Registers the owner's reachability-change handler (may be null).
  void SetPartitionCallback(TopologyCallback on_change);

  /// Registers the owner's corruption handler (may be null).
  void SetCorruptionCallback(CorruptionCallback on_corrupt);

  /// Schedules the scripts and spawns the stochastic per-node processes.
  /// Call at most once, before running the simulation.
  void Start();

  bool IsUp(uint32_t node) const { return up_[node]; }
  uint32_t nodes_up() const { return nodes_up_; }
  uint32_t num_nodes() const { return static_cast<uint32_t>(up_.size()); }

  /// Number of crashes `node` has suffered so far. A process that captured
  /// the epoch before suspending can compare it afterwards to detect that
  /// its node crashed in between (even if it also recovered).
  uint64_t epoch(uint32_t node) const { return epochs_[node]; }

  /// Manually crashes `node` now. Returns false if the node is already down
  /// or the min_live_nodes floor would be violated.
  bool Crash(uint32_t node);

  /// Manually recovers `node` now. Returns false if the node is up.
  bool Recover(uint32_t node);

  /// Current service-time multiplier of `node`; 1.0 when healthy. Survives
  /// crashes: a degraded node that reboots is still degraded.
  double SlowdownOf(uint32_t node) const { return slowdown_[node]; }
  bool IsDegraded(uint32_t node) const { return slowdown_[node] != 1.0; }

  /// Manually begins a degradation episode on `node` with the given
  /// slowdown factor. Returns false if the node is already degraded.
  bool Degrade(uint32_t node, double factor);

  /// Manually lifts `node`'s degradation episode. Returns false if the node
  /// is not degraded.
  bool Restore(uint32_t node);

  /// True when a message sent by `from` would currently be delivered to
  /// `to`. Same-node traffic is always reachable; liveness is separate
  /// (Reachable says nothing about whether either endpoint is up).
  bool Reachable(uint32_t from, uint32_t to) const;

  /// True while a group partition is in effect. Cheap flag for fast paths
  /// that want to skip Reachable() entirely in the common whole-cluster
  /// case.
  bool Partitioned() const { return grouped_; }

  /// Increments on every reachability change. A coordinator that captured
  /// the value before suspending can detect that the topology moved
  /// underneath it.
  uint64_t partition_epoch() const { return partition_epoch_; }

  /// Manually imposes a group partition now (semantics of
  /// PartitionEvent::groups). Returns false if the topology is unchanged;
  /// an all-same-group vector behaves like HealPartition().
  bool SetPartition(const std::vector<uint32_t>& groups);

  /// Manually heals the group partition now. Returns false if no group
  /// partition is in effect.
  bool HealPartition();

  /// Manually fires one corruption event on `node` with the given draw.
  /// Fires even while the node is down (bit rot does not need a CPU);
  /// always returns true.
  bool Corrupt(uint32_t node, uint64_t draw);

  const Stats& stats() const { return stats_; }
  const Params& params() const { return params_; }

 private:
  Task<void> LifeCycle(uint32_t node, common::Rng rng);
  Task<void> DegradationCycle(uint32_t node, common::Rng rng);
  Task<void> PartitionCycle(common::Rng rng);
  Task<void> CorruptionCycle(uint32_t node, common::Rng rng);
  void NotifyTopologyChange();

  Simulator* simulator_;
  Params params_;
  common::Rng rng_;
  std::vector<bool> up_;
  std::vector<uint64_t> epochs_;
  std::vector<double> slowdown_;
  uint32_t nodes_up_;
  Stats stats_;
  Callback on_crash_;
  Callback on_recover_;
  Callback on_degrade_;
  Callback on_restore_;
  TopologyCallback on_topology_change_;
  CorruptionCallback on_corrupt_;
  // Group partition state: group_[node] is meaningful only while grouped_.
  bool grouped_ = false;
  std::vector<uint32_t> group_;
  uint64_t partition_epoch_ = 0;
  bool started_ = false;
};

}  // namespace memgoal::sim

#endif  // MEMGOAL_SIM_FAULT_INJECTOR_H_
