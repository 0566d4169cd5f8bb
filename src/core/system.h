#ifndef MEMGOAL_CORE_SYSTEM_H_
#define MEMGOAL_CORE_SYSTEM_H_

#include <coroutine>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/cost_model.h"
#include "common/flat_hash_map.h"
#include "common/inline_vector.h"
#include "cache/heat.h"
#include "cache/node_cache.h"
#include "cache/replacement.h"
#include "common/rng.h"
#include "core/integrity_service.h"
#include "core/metrics.h"
#include "net/directory.h"
#include "net/network.h"
#include "obs/attainment.h"
#include "obs/decision_log.h"
#include "obs/latency_budget.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "sim/fault_injector.h"
#include "sim/invariant_auditor.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "storage/database.h"
#include "storage/disk.h"
#include "storage/types.h"
#include "workload/page_selector.h"
#include "workload/spec.h"

namespace memgoal::core {

class ClusterSystem;

/// Objective of the partitioning optimization (phase d).
enum class PartitioningObjective {
  /// The paper's §4 formulation: minimize the predicted no-goal response
  /// time subject to the goal constraint.
  kMinimizeNoGoalRt,
  /// The paper's §8 future-work objective: minimize the dispersion of the
  /// goal class's per-node response times subject to the goal constraint.
  kMinimizeNodeVariance,
};

/// Deliberately planted correctness bugs, used to validate that the
/// invariant auditor and the chaos fuzzer actually catch regressions (a
/// detector nobody has ever seen fire is not evidence of anything). Only
/// tests and tools/chaos_fuzz set anything but kNone.
enum class InjectedBug {
  kNone,
  /// Skip heal-time hint reconciliation: heat reports lost across a
  /// partition are never re-sent, leaving the directory's global heat stale
  /// after the cluster is whole again.
  kSkipHealReconcile,
  /// Apply allocation grants carrying a stale epoch instead of rejecting
  /// them: a deposed coordinator's in-flight grants overwrite the new
  /// lease's decisions.
  kNoEpochFence,
  /// Leak directory entries on pool shrink: dropped pages stay registered
  /// as cached copies, so remote fetches chase ghosts.
  kLeakDirectoryEntry,
  /// Skip verify-on-read everywhere: detectably corrupt frames and disk
  /// copies are served as if intact. The no-corrupt-page-served audit
  /// counts every such serve.
  kSkipVerify,
  /// Count the quarantine decision but leave the condemned frame resident:
  /// the buffer pool keeps offering (and re-detecting) a frame it was told
  /// to evict, so quarantine accounting stops balancing.
  kServeQuarantined,
  /// Drop the terminal rung of the repair ladder: a page with no intact
  /// source is neither counted lost nor re-initialized, so detections
  /// never reconcile against repairs + losses.
  kLostPageLeak,
};

// -- Message sizes (bytes) -------------------------------------------------
/// Control request, page-message header and heat hint of the home-based
/// access protocol (the transactional overlay reuses the first two).
inline constexpr uint32_t kControlMsgBytes = 64;
inline constexpr uint32_t kPageHeaderBytes = 64;
inline constexpr uint32_t kHintMsgBytes = 32;

/// Largest cluster: the page directory counts each page's cached copies in
/// 16 bits.
inline constexpr uint32_t kMaxNodes = 65535;

/// All tunables of the simulated NOW and of the partitioning algorithm.
/// Defaults reproduce the paper's base environment (§7.1): 3 nodes at
/// 100 MIPS, 100 Mbit/s network, 2 MB cache and one SCSI disk per node,
/// 2000 pages of 4 KB, 5000 ms observation intervals.
struct SystemConfig {
  // -- Topology and hardware ----------------------------------------------
  uint32_t num_nodes = 3;
  uint64_t cache_bytes_per_node = 2ull << 20;  // 2 MB
  uint32_t page_bytes = 4096;
  uint32_t db_pages = 2000;
  storage::Disk::Params disk;
  net::Network::Params network;

  // -- Fault model ----------------------------------------------------------
  /// Node crash/recovery schedule, stochastic fault process and gray
  /// degradation episodes. The default (empty scripts, mttf/mttd 0) injects
  /// no faults.
  sim::FaultInjector::Params faults;
  /// Per-request deadline (ms) of a remote page fetch: if the page has not
  /// arrived within this budget, the requester hedges to the next-best
  /// replica, and after the hedge's deadline falls back to the disk path.
  /// Doubles as the failure-detection delay — a dead peer simply never
  /// answers, so the deadline expiring *is* the detection.
  double crash_detect_timeout_ms = 2.0;

  // -- Integrity model ------------------------------------------------------
  /// Fraction of injected corruptions that are *latent* — past the
  /// checksum, so verify-on-read serves them unknowingly. The outcome is
  /// decided per corruption at injection time from the injected draw,
  /// which keeps the access path free of RNG draws (a zero-rate run is
  /// bit-identical to one with the integrity machinery absent).
  double corrupt_latent_fraction = 0.0;
  /// Per-node background scrubber period (ms); 0 disables scrubbing. Each
  /// tick verifies one disk-resident page — but only when the node's disk
  /// is idle, making the scrubber a strictly lower-priority consumer of
  /// disk bandwidth than the workload's own I/O.
  double scrub_interval_ms = 0.0;

  // -- Feedback loop (§5) ---------------------------------------------------
  double observation_interval_ms = 5000.0;
  /// Agents report only when a value moved by more than this relative
  /// change ("significant change", §5a).
  double report_change_threshold = 0.05;
  /// Tolerance delta = max(rel_floor * goal, z * stderr) (§5c, method of
  /// [5]); z is kToleranceZ (core/tolerance.h).
  double tolerance_rel_floor = 0.05;
  /// Warm-up heuristic (§5b): first allocation takes this fraction of the
  /// per-node free memory; subsequent warm-up steps add a perturbation of
  /// `warmup_perturbation` * SIZE_i on one rotating node to force affine
  /// independence of the measure points.
  double warmup_fraction = 0.25;
  double warmup_perturbation = 0.125;
  /// Damping of the feedback loop: one optimization step grows a node's
  /// dedicated budget by at most `max_step_fraction` of the node's cache
  /// and releases at most `release_step_fraction`. Without damping, a fit
  /// polluted by post-reallocation cache-refill transients can swing the
  /// partitioning wall to wall and never settle. The asymmetry is
  /// deliberate: growing protects an endangered service-level goal, while
  /// releasing merely helps the no-goal class, and the true response curve
  /// is convex so linear-fit release steps systematically overshoot.
  double max_step_fraction = 0.35;
  double release_step_fraction = 0.10;
  /// Optimization objective used by the goal-oriented controller.
  PartitioningObjective objective = PartitioningObjective::kMinimizeNoGoalRt;

  // -- Replacement (§6) -----------------------------------------------------
  cache::PolicyKind policy = cache::PolicyKind::kCostBased;
  /// A node re-reports a page's heat to its home when the accumulated local
  /// heat changed by more than this relative factor (threshold-based
  /// dissemination).
  double hint_heat_threshold = 0.2;
  /// Heat-history retention horizon in observation intervals: once per
  /// interval each node drops LRU-K records of non-resident pages whose
  /// backward-K time is older than `heat_horizon_intervals` intervals, so
  /// the trackers stay bounded under scan workloads instead of keeping a
  /// K-slot record for every page ever touched. 0 disables the sweep. The
  /// default is deliberately long: pages that old carry near-zero heat, so
  /// pruning them bounds memory without perturbing victim selection (short
  /// horizons measurably flatten the memory/response-time curve at low
  /// access skew).
  double heat_horizon_intervals = 64.0;

  uint64_t seed = 1;

  /// See InjectedBug; kNone outside auditor/fuzzer validation.
  InjectedBug injected_bug = InjectedBug::kNone;
};

/// Partitioning policy plugged into the system. The default is the paper's
/// distributed goal-oriented controller (GoalOrientedController); the
/// baselines in src/baseline implement the same interface.
class Controller {
 public:
  virtual ~Controller() = default;

  /// Called once before the simulation starts.
  virtual void Attach(ClusterSystem* system) = 0;

  /// Called at each observation-interval boundary, after the system rolled
  /// up per-(class, node) statistics (accessible via
  /// ClusterSystem::observation).
  virtual void OnIntervalEnd(int interval_index) = 0;

  /// Called when a class's response-time goal changes.
  virtual void OnGoalChanged(ClassId /*klass*/) {}

  /// Called synchronously at the instant `node` crashes (after the system
  /// wiped the node's cache and directory state). Controllers drop the dead
  /// node's measurements and shrink their optimization to the live nodes;
  /// the default ignores faults.
  virtual void OnNodeCrash(NodeId /*node*/) {}

  /// Called synchronously at the instant `node` recovers (cold cache, zero
  /// dedications). Controllers re-enter warm-up for the rejoined node.
  virtual void OnNodeRecover(NodeId /*node*/) {}

  /// Called synchronously after every reachability change of the
  /// interconnect (partition begins, reshapes or heals). Partition-tolerant
  /// controllers re-evaluate quorum leases here; the default ignores
  /// partitions entirely — which is safe only because the network already
  /// drops its cross-partition messages.
  virtual void OnPartitionChange() {}

  /// Controller self-audit for the invariant auditor: returns a description
  /// of the first violated internal invariant (measure-store condition
  /// sanity, lease-implies-quorum, ...), or nullopt when all hold.
  virtual std::optional<std::string> AuditInvariants() const {
    return std::nullopt;
  }

  /// Tolerance band currently applied to `klass` (used for the `satisfied`
  /// flag in metrics). Default: no band.
  virtual double ToleranceFor(ClassId /*klass*/) const { return 0.0; }

  /// Cumulative per-SimplexStatus outcome counters of the controller's
  /// partitioning LPs (interval CSV columns). Default: all zero for
  /// controllers that never solve an LP.
  virtual obs::LpOutcomeStats LpOutcomes() const { return {}; }

  /// Mirrors the controller's internal counters into the unified metrics
  /// registry; called once per observation interval just before the
  /// registry snapshot. Default: publishes nothing.
  virtual void PublishMetrics(obs::Registry* /*registry*/) {}

  virtual const char* name() const = 0;
};

/// One workstation: CPU, disk, buffer memory (multi-pool cache) and the
/// heat bookkeeping of the cost-based replacement policy.
class Node {
 public:
  Node(ClusterSystem* system, NodeId id);
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Executes one page access by class `klass` end to end: local lookup,
  /// remote-cache / disk fetch via the home-based protocol, and §6
  /// placement. Returns the storage level that served the access. A
  /// non-null `probe` receives the access's phases (CPU/disk queue wait and
  /// service, fetch wait, backoff, network queueing/transfer on the
  /// requester's own stack).
  sim::Task<StorageLevel> AccessPage(ClassId klass, PageId page,
                                     obs::RequestProbe* probe = nullptr);

  cache::NodeCache& node_cache() { return *cache_; }
  const cache::NodeCache& node_cache() const { return *cache_; }
  storage::Disk& disk() { return disk_; }
  sim::Resource& cpu() { return cpu_; }
  NodeId id() const { return id_; }

  /// Heat of `page` in the scope of the given pool (class heat for
  /// dedicated pools, accumulated heat for the no-goal pool).
  double PoolHeat(ClassId pool_class, PageId page) const;
  double AccumulatedHeat(PageId page) const;

  /// Drops pages from the directory and emits hint traffic; used by the
  /// system when allocations shrink pools.
  void HandleDrops(std::span<const PageId> dropped);

  /// Total LRU-K history records held across the accumulated and per-class
  /// heat trackers (bounded-memory regression tests).
  size_t HeatHistorySize() const;

  /// Pages whose heat report was lost across a partition cut and not yet
  /// re-delivered. Nonzero only while partitioned (or under the
  /// kSkipHealReconcile injected bug — which is what the auditor's
  /// stale-hints check detects).
  size_t unsynced_hint_count() const { return unsynced_hints_.size(); }

  /// Re-reports every unsynced page's heat to its home (state applied
  /// directly, message traffic accounted): the anti-entropy half of the
  /// partition-heal reconciliation. Returns the number of hints flushed.
  size_t FlushUnsyncedHints();

 private:
  friend class ClusterSystem;

  /// Shared state of one hedged remote fetch. The requester, its spawned
  /// attempts and each phase's queued deadline all hold the shared_ptr, so
  /// a late deadline or straggling attempt can never dangle. The requester
  /// waits on the state itself: the first delivery or the phase deadline,
  /// whichever comes first, resumes it.
  struct FetchState {
    sim::SimTime started_ms = 0.0;
    /// Some attempt delivered the page.
    bool delivered = false;
    /// Integrity of the delivered copy (valid when delivered): kLatent
    /// when the serving frame carried a flaw past the checksum (it
    /// propagates into the requester's frame), kDetectable only under the
    /// kSkipVerify injected bug.
    storage::Flaw flaw = storage::Flaw::kNone;
    /// The requester while it waits; empty otherwise.
    std::coroutine_handle<> waiter;

    /// Resumes the waiting requester, if any, through the event queue; a
    /// no-op when nobody waits (a deadline that lost to a delivery).
    void Wake(sim::Simulator* simulator) {
      if (waiter) simulator->ScheduleResume(0.0, std::exchange(waiter, {}));
    }
    /// Awaitable: suspends until the next Wake (ready once delivered). It
    /// holds a pointer because GCC 12 copies the operand of `co_await
    /// *state` into the frame, and a handle stored in that copy is lost.
    auto Wait() {
      struct Awaiter {
        FetchState* state;
        bool await_ready() const noexcept { return state->delivered; }
        void await_suspend(std::coroutine_handle<> h) { state->waiter = h; }
        void await_resume() const noexcept {}
      };
      return Awaiter{this};
    }
  };

  /// One fetch attempt against `target`'s cached copy: control message(s),
  /// liveness/epoch/eviction checks, page transfer, health-score report.
  /// Returns silently when the target (or the forwarding home) is dead —
  /// the requester's phase deadline turns that silence into a timeout.
  sim::Task<void> FetchAttempt(std::shared_ptr<FetchState> state,
                               NodeId target, PageId page, bool via_home);

  /// Resets the node's volatile heat bookkeeping after a crash (the cache
  /// itself is wiped via NodeCache::Clear). Tracker objects are reassigned
  /// in place so pointers held by replacement policies stay valid.
  void ResetVolatileState();

  /// True if this node crashed (epoch moved) or is down since `epoch` was
  /// captured; in-flight accesses abort instead of touching the wiped cache.
  bool CrashedSince(uint64_t epoch) const;

  /// Drops heat history older than `horizon` for pages no longer resident
  /// in this node's cache, and the matching stale hint bookkeeping.
  void SweepHeatHistory(sim::SimTime horizon);

  sim::Task<void> UseCpu(double instructions, obs::RequestProbe* probe);
  sim::Task<void> DeliverHeatReport(NodeId home, PageId page, double heat);
  void RecordAccessHeat(ClassId klass, PageId page);
  /// Threshold-based heat dissemination to the page's home (§6). Runs on
  /// every access: deferring the check to interval boundaries measurably
  /// changes replacement dynamics (the home's global heat lags a full
  /// interval), so only the heat *arithmetic* is batched (see HeatTracker),
  /// never the propagation decision.
  void MaybePropagateHeat(PageId page, double heat);
  void AfterInsert(PageId page);
  double BenefitOf(ClassId pool_class, PageId page) const;
  std::unique_ptr<cache::ReplacementPolicy> MakePolicy(ClassId pool_class);

  ClusterSystem* system_;
  NodeId id_;
  sim::Resource cpu_;
  storage::Disk disk_;
  cache::HeatTracker accumulated_heat_;
  std::map<ClassId, cache::HeatTracker> class_heat_;
  /// One-entry memo over class_heat_ for the per-access RecordAccessHeat
  /// lookup (consecutive page accesses come from the same op, hence the
  /// same class). std::map node addresses are stable under insertion and
  /// nothing erases class_heat_ entries (ResetVolatileState reassigns
  /// trackers in place — the same stability the LRU-K policy's captured
  /// tracker pointer depends on), so the memo can never dangle.
  ClassId class_heat_memo_class_ = kNoGoalClass;
  cache::HeatTracker* class_heat_memo_ = nullptr;
  common::FlatHashMap<PageId, double> reported_heat_;
  // Heat reports lost to a partition cut, owed to their homes at heal time.
  std::set<PageId> unsynced_hints_;
  std::unique_ptr<cache::NodeCache> cache_;
};

/// The simulated network of workstations: nodes, database, network,
/// directory, workload sources, the observation-interval loop, and the
/// pluggable partitioning controller.
///
/// Typical use:
///
///   core::SystemConfig config;
///   core::ClusterSystem system(config);
///   system.AddClass({.id = 1, .goal_rt_ms = 3.0, ...});
///   system.AddClass({.id = core::kNoGoalClass, ...});
///   system.Start();
///   system.RunIntervals(80);
///   system.metrics().WriteCsv(stdout);
class ClusterSystem {
 public:
  explicit ClusterSystem(const SystemConfig& config);
  ~ClusterSystem();
  ClusterSystem(const ClusterSystem&) = delete;
  ClusterSystem& operator=(const ClusterSystem&) = delete;

  // -- Setup (before Start) -------------------------------------------------

  /// Registers a workload class. Exactly one class may be the no-goal class
  /// (id 0 / no goal); goal classes get a dedicated pool on every node.
  void AddClass(const workload::ClassSpec& spec);

  /// Replaces the default GoalOrientedController.
  void SetController(std::unique_ptr<Controller> controller);

  /// Spawns workload sources and the interval loop. Call exactly once.
  void Start();

  // -- Running --------------------------------------------------------------

  using IntervalCallback = std::function<void(const IntervalRecord&)>;
  /// Invoked after every observation interval (after the controller ran).
  void SetIntervalCallback(IntervalCallback callback);

  /// Runs `count` observation intervals of simulated time.
  void RunIntervals(int count);

  /// Changes a goal class's response-time goal at the current simulated
  /// time.
  void SetGoal(ClassId klass, double goal_rt_ms);

  /// Changes a class's mean operation inter-arrival time at run time (the
  /// "evolving workload" scenario of §1/§7.2); takes effect from each
  /// node's next operation onwards.
  void SetInterarrival(ClassId klass, double mean_interarrival_ms);

  // -- Introspection ---------------------------------------------------------

  const SystemConfig& config() const { return config_; }
  sim::Simulator& simulator() { return simulator_; }
  net::Network& network() { return network_; }
  net::PageDirectory& directory() { return directory_; }
  const storage::Database& database() const { return database_; }
  const cache::CostModel& cost_model() const { return cost_model_; }
  uint32_t num_nodes() const { return config_.num_nodes; }
  Node& node(NodeId id) { return *nodes_[id]; }
  Controller& controller() { return *controller_; }
  sim::FaultInjector& fault_injector() { return fault_injector_; }

  /// Availability of `node` right now (delegates to the fault injector).
  bool NodeUp(NodeId node) const { return fault_injector_.IsUp(node); }
  /// Crash count of `node`; in-flight work captures it before suspending to
  /// detect that its node died in between.
  uint64_t NodeEpoch(NodeId node) const { return fault_injector_.epoch(node); }
  /// Reachability of `to` from `from` under the current partition topology
  /// (delegates to the fault injector; true in the whole-cluster state).
  bool Reachable(NodeId from, NodeId to) const {
    return fault_injector_.Reachable(from, to);
  }
  /// True while any interconnect cut is in effect.
  bool Partitioned() const { return fault_injector_.Partitioned(); }

  const std::vector<workload::ClassSpec>& classes() const { return classes_; }
  const workload::ClassSpec& spec(ClassId klass) const;
  std::vector<ClassId> goal_class_ids() const;

  const MetricsLog& metrics() const { return metrics_; }
  const AccessCounters& counters(ClassId klass) const;
  int intervals_completed() const { return intervals_completed_; }

  // -- Observability ---------------------------------------------------------

  /// Attaches a request tracer (spans on the page-access and network paths).
  /// Null detaches. Must outlive the system's runs; the caller owns it and
  /// controls Enable().
  void SetTracer(obs::Tracer* tracer);

  /// The instrumentation hook of one request issued at `node`: its page
  /// accesses add their phases to `budget` (may be null) and, while the
  /// attached tracer is enabled, trace them. Empty when neither sink is on.
  std::optional<obs::RequestProbe> MakeRequestProbe(
      NodeId node, obs::RequestBudget* budget) const;

  /// Attaches a controller decision-log sink (one record per goal-class
  /// check). Null detaches; the caller owns the log.
  void SetDecisionLog(obs::DecisionLog* log) { decision_log_ = log; }
  obs::DecisionLog* decision_log() { return decision_log_; }

  /// Attaches the goal-attainment tracker (per-request budget attribution,
  /// SLO burn rates, miss cards). Null detaches; the caller owns the
  /// tracker and controls Enable(). When attached but disabled the request
  /// path pays one pointer+bool test.
  void SetAttainment(obs::AttainmentTracker* attainment) {
    attainment_ = attainment;
  }
  obs::AttainmentTracker* attainment() { return attainment_; }

  /// Unified metrics registry, snapshotted once per observation interval.
  obs::Registry& registry() { return registry_; }
  const obs::Registry& registry() const { return registry_; }

  /// Last completed interval's raw observation for (klass, node).
  struct Observation {
    double mean_rt_ms = 0.0;           // 0 when nothing completed
    double arrival_rate_per_ms = 0.0;  // arrivals / interval length
    uint64_t completed = 0;
    uint64_t arrived = 0;
    uint64_t failed = 0;  // aborted by a crash of the node
    bool has_rt = false;
  };
  const Observation& observation(ClassId klass, NodeId node) const;

  // -- Allocation plumbing (used by controllers) -----------------------------

  /// Applies a dedicated-buffer budget for (klass, node); returns granted
  /// bytes (clamped per §5e) and handles directory drops.
  uint64_t ApplyAllocation(ClassId klass, NodeId node, uint64_t bytes);

  struct GrantOutcome {
    /// Granted bytes; the unchanged previous grant when rejected.
    uint64_t granted = 0;
    bool rejected_stale_epoch = false;
  };
  /// Epoch-fenced ApplyAllocation, used by lease-holding controllers: the
  /// (klass, node) agent tracks the highest epoch it has seen, applies
  /// grants at or above it (raising the fence), and rejects grants below it
  /// — those are in-flight commands of a deposed coordinator. Under the
  /// kNoEpochFence injected bug stale grants are applied anyway (and
  /// counted), which is exactly what the auditor's epoch-fence check flags.
  GrantOutcome ApplyAllocationFenced(ClassId klass, NodeId node,
                                     uint64_t bytes, uint64_t epoch);
  /// Raises the (klass, node) agent's fence floor to `epoch` without
  /// changing its grant: a new lease holder announces its epoch to every
  /// reachable agent at acquisition, so slower stale grants already in
  /// flight get rejected on arrival.
  void AnnounceEpoch(ClassId klass, NodeId node, uint64_t epoch);
  uint64_t grants_rejected_stale_epoch() const {
    return grants_rejected_stale_epoch_;
  }
  /// Stale grants applied despite the fence; nonzero only under the
  /// kNoEpochFence injected bug.
  uint64_t stale_grants_applied() const { return stale_grants_applied_; }

  uint64_t DedicatedBytes(ClassId klass, NodeId node) const;
  uint64_t TotalDedicatedBytes(ClassId klass) const;
  /// Equation 6 upper bound for (klass, node).
  uint64_t AvailableFor(ClassId klass, NodeId node) const;

  /// Weighted mean response time over nodes (equation 4) from the last
  /// interval's observations; nullopt if no node completed an operation.
  std::optional<double> WeightedRt(ClassId klass) const;

  /// Drops every cached copy of `page` except at `except_node` (cache
  /// invalidation after a committed update; the transactional overlay calls
  /// this). Invalidation messages to the affected nodes are accounted as
  /// control traffic. Returns the number of copies dropped.
  int InvalidateCopies(PageId page, NodeId except_node);

  // -- Hooks used by Node / workload internals -------------------------------

  common::Rng ForkRng() { return master_rng_.Fork(); }
  void CountAccess(ClassId klass, StorageLevel level);
  /// Counts a remote fetch that exhausted its deadline/hedge budget and
  /// fell back to the disk path.
  void CountFetchFallback(ClassId klass);

  // -- Node health (gray-failure awareness) ---------------------------------
  //
  // A node's health score is the EWMA of observed fetch latency against it
  // (ms), kept as its cost in the directory's replica ranking
  // (PageDirectory::NodeCost) and seeded at the cost model's healthy
  // remote-buffer time.

  /// Feeds a completed fetch's observed latency into the score.
  void RecordFetchLatency(NodeId node, double latency_ms);
  /// Feeds a timed-out fetch: the true latency is censored at `waited_ms`,
  /// so the sample is pessimistically inflated instead of discarded.
  void RecordFetchTimeout(NodeId node, double waited_ms);
  /// Moves the score a step back toward the healthy baseline (forgiveness
  /// once a degradation episode lifts).
  void DecayHealth(NodeId node);
  /// Re-anchors the score at the healthy baseline outright. Used when the
  /// past samples describe a machine that no longer exists: a rebooted node
  /// (its timeouts measured a corpse) or a healed partition (they measured
  /// the cut, not the peer).
  void ResetHealth(NodeId node);

  // -- Invariant auditing ----------------------------------------------------

  /// Registers the standard system-wide audits (see core/system_audits.h)
  /// on `auditor` and runs them at every observation-interval boundary.
  /// The auditor must outlive the system's runs; null detaches. When
  /// detached (the default) the interval loop pays one pointer test.
  void EnableAuditor(sim::InvariantAuditor* auditor);
  sim::InvariantAuditor* auditor() { return auditor_; }

  /// Heal-time reconciliation volume, for the registry and tests. (The
  /// partition lifecycle counts are the fault injector's stats().)
  uint64_t reconcile_hints_sent() const { return reconcile_hints_sent_; }

  // -- Integrity (silent-data-corruption tolerance) --------------------------

  /// The corruption model: integrity marks, verify, quarantine, repair,
  /// scrub and the ledger the audits balance.
  IntegrityService& integrity() { return integrity_; }
  const IntegrityService& integrity() const { return integrity_; }
  /// Ledger shorthands read by the benchmark suite.
  uint64_t corrupt_served() const { return integrity_.ledger().served; }
  uint64_t corrupt_detected() const { return integrity_.ledger().detected; }
  uint64_t repairs_replica() const {
    return integrity_.ledger().repairs_replica;
  }
  uint64_t pages_lost() const { return integrity_.ledger().pages_lost; }
  uint64_t pages_scrubbed() const {
    return integrity_.ledger().pages_scrubbed;
  }

 private:
  sim::Task<void> WorkloadSource(NodeId node, ClassId klass);
  sim::Task<void> RunOperation(NodeId node, ClassId klass,
                               common::InlineVector<PageId, 8> pages);
  sim::Task<void> IntervalLoop();

  /// Mirrors system-level counters/gauges into the registry and takes the
  /// per-interval snapshot (after the controller published its own).
  void PublishRegistrySnapshot(int interval_index);

  /// Crash instant: atomically wipe the node's cache, directory
  /// registrations and heat bookkeeping, then notify the controller.
  void HandleNodeCrash(NodeId node);
  /// Recovery instant: the node rejoins cold; notify the controller.
  void HandleNodeRecover(NodeId node);
  /// Degradation instant: stretch the node's CPU, disk and network-latency
  /// service times by the injector's slowdown factor.
  void HandleNodeDegrade(NodeId node);
  /// Episode lifted: service times back to nominal; health starts healing.
  void HandleNodeRestore(NodeId node);
  /// Reachability-change instant: flip the network/directory partition
  /// flags, run heal-time reconciliation when the cluster is whole again
  /// (every change to a whole cluster is a heal), then notify the
  /// controller (lease re-evaluation).
  void HandlePartitionChange();
  /// Anti-entropy after a heal: flush every node's unsynced hints and
  /// re-anchor all health EWMAs (pre-partition timeout penalties measured
  /// the cut, not the peers). Skipped under kSkipHealReconcile.
  void ReconcileAfterHeal();

  struct IntervalAccumulator {
    uint64_t arrived = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;
    double rt_sum = 0.0;
  };
  IntervalAccumulator& Accumulator(ClassId klass, NodeId node);

  SystemConfig config_;
  sim::Simulator simulator_;
  storage::Database database_;
  net::Network network_;
  net::PageDirectory directory_;
  cache::CostModel cost_model_;
  common::Rng master_rng_;
  sim::FaultInjector fault_injector_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<workload::ClassSpec> classes_;
  /// One PageSelector per class, shared by every node's WorkloadSource.
  /// Sampling is stateless (the RNG is passed in), so sharing draws the
  /// same pages as per-source copies did — but a selector carries O(pages)
  /// cdf/guide tables, and one copy per (node, class) source put hundreds
  /// of megabytes of identical tables between the workload and the cache
  /// at 256 nodes x 256 classes. Built lazily at first source start so the
  /// spec is frozen at the same instant it was with per-source copies.
  std::map<ClassId, workload::PageSelector> class_selectors_;
  std::unique_ptr<Controller> controller_;
  IntervalCallback interval_callback_;
  bool started_ = false;

  // (klass << 32 | node) -> accumulator / last observation. Flat tables,
  // not std::map: Accumulator() sits on the per-access path and the
  // controller rollup touches every (class, node) pair each interval, so
  // tree lookups over K * N entries dominated large-grid profiles.
  static uint64_t ClassNodeKey(ClassId klass, NodeId node) {
    return (static_cast<uint64_t>(klass) << 32) | node;
  }
  common::FlatHashMap<uint64_t, IntervalAccumulator> accumulators_;
  common::FlatHashMap<uint64_t, Observation> observations_;
  std::map<ClassId, AccessCounters> counters_;
  MetricsLog metrics_;
  int intervals_completed_ = 0;

  // (klass, node) -> highest grant epoch the agent has seen (fence floor).
  std::map<std::pair<ClassId, NodeId>, uint64_t> grant_epochs_;
  uint64_t grants_rejected_stale_epoch_ = 0;
  uint64_t stale_grants_applied_ = 0;
  uint64_t reconcile_hints_sent_ = 0;
  sim::InvariantAuditor* auditor_ = nullptr;

  IntegrityService integrity_;

  obs::Tracer* tracer_ = nullptr;
  obs::DecisionLog* decision_log_ = nullptr;
  obs::AttainmentTracker* attainment_ = nullptr;
  obs::Registry registry_;
};

}  // namespace memgoal::core

#endif  // MEMGOAL_CORE_SYSTEM_H_
