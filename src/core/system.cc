#include "core/system.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>

#include "cache/cost_based.h"
#include "cache/lru_k.h"
#include "common/check.h"
#include "common/logging.h"
#include "core/goal_controller.h"
#include "core/system_audits.h"

namespace memgoal::core {

namespace {

// CPU model: 100 MIPS nodes, costs in instructions.
constexpr double kCpuMips = 100.0;
constexpr double kInstrBufferAccess = 3000.0;
constexpr double kInstrIoSetup = 5000.0;
// K of the LRU-K heat histories behind the cost-based and LRU-K policies.
constexpr int kLruK = 2;

/// CPU time (ms) for the given instruction count at kCpuMips.
double CpuMs(double instructions) {
  return instructions / (kCpuMips * 1e3);
}

cache::CostModel DeriveCostModel(const SystemConfig& config) {
  // What the on-line cost learning of §6 converges to under stable load:
  // the service-time components of each storage level, excluding queueing.
  cache::CostModel costs;
  storage::Disk::Params d = config.disk;
  const double disk_ms = d.avg_seek_ms + d.rotation_ms / 2.0 +
                         static_cast<double>(config.page_bytes) /
                             (d.transfer_mb_per_s * 1e6) * 1e3;
  const double control_ms =
      static_cast<double>(kControlMsgBytes) * 8.0 /
          (config.network.bandwidth_mbit_per_s * 1e6) * 1e3 +
      config.network.latency_ms;
  const double page_ms =
      static_cast<double>(config.page_bytes + kPageHeaderBytes) * 8.0 /
          (config.network.bandwidth_mbit_per_s * 1e6) * 1e3 +
      config.network.latency_ms;

  costs.local_buffer_ms = CpuMs(kInstrBufferAccess);
  costs.remote_buffer_ms = CpuMs(kInstrIoSetup) + control_ms + page_ms;
  costs.local_disk_ms = CpuMs(kInstrIoSetup) + disk_ms;
  costs.remote_disk_ms = CpuMs(kInstrIoSetup) + control_ms + disk_ms + page_ms;
  return costs;
}

}  // namespace

// --------------------------------------------------------------------------
// Node
// --------------------------------------------------------------------------

Node::Node(ClusterSystem* system, NodeId id)
    : system_(system), id_(id),
      cpu_(&system->simulator(), /*capacity=*/1,
           "node" + std::to_string(id) + "/cpu"),
      disk_(&system->simulator(), system->config().disk,
            system->config().page_bytes,
            "node" + std::to_string(id) + "/disk"),
      accumulated_heat_(kLruK) {
  cache_ = std::make_unique<cache::NodeCache>(
      id, system->config().cache_bytes_per_node, system->config().page_bytes,
      [this](ClassId pool_class) { return MakePolicy(pool_class); });
}

std::unique_ptr<cache::ReplacementPolicy> Node::MakePolicy(
    ClassId pool_class) {
  const SystemConfig& config = system_->config();
  switch (config.policy) {
    case cache::PolicyKind::kFifo:
      return cache::MakeFifoPolicy();
    case cache::PolicyKind::kLru:
      return cache::MakeLruPolicy();
    case cache::PolicyKind::kLruK: {
      const cache::HeatTracker* tracker = &accumulated_heat_;
      if (pool_class != kNoGoalClass) {
        tracker = &class_heat_.try_emplace(pool_class, kLruK).first->second;
      }
      return cache::MakeLruKPolicy(tracker, &system_->simulator());
    }
    case cache::PolicyKind::kCostBased:
      if (pool_class != kNoGoalClass) {
        class_heat_.try_emplace(pool_class, kLruK);
      }
      return cache::MakeCostBasedPolicy([this, pool_class](PageId page) {
        return BenefitOf(pool_class, page);
      });
  }
  MEMGOAL_CHECK_MSG(false, "unknown policy kind");
  return nullptr;
}

double Node::AccumulatedHeat(PageId page) const {
  return accumulated_heat_.HeatOf(page, system_->simulator().Now());
}

double Node::PoolHeat(ClassId pool_class, PageId page) const {
  if (pool_class == kNoGoalClass) return AccumulatedHeat(page);
  auto it = class_heat_.find(pool_class);
  if (it == class_heat_.end()) return 0.0;
  return it->second.HeatOf(page, system_->simulator().Now());
}

double Node::BenefitOf(ClassId pool_class, PageId page) const {
  const net::PageDirectory& directory = system_->directory();
  const double pool_heat = PoolHeat(pool_class, page);
  const bool cached_here = directory.IsCachedAt(id_, page);
  const bool other_copy =
      directory.CopyCount(page) - (cached_here ? 1 : 0) >= 1;
  const double* reported = reported_heat_.Find(page);
  const double own_reported = reported == nullptr ? 0.0 : *reported;
  const double foreign = directory.GlobalHeat(page) - own_reported;
  const bool home_local = system_->database().HomeOf(page) == id_;
  return cache::KeepBenefit(system_->cost_model(), pool_heat, foreign,
                            other_copy, home_local);
}

void Node::RecordAccessHeat(ClassId klass, PageId page) {
  const sim::SimTime now = system_->simulator().Now();
  // Propagation must be checked per access (see the declaration comment)
  // and needs the heat of exactly this page, so record and read are fused
  // into one history operation instead of a pending append plus a
  // flush-of-one on the read.
  const double heat = accumulated_heat_.RecordAndHeat(page, now);
  if (klass != kNoGoalClass) {
    if (klass != class_heat_memo_class_) {
      class_heat_memo_ = &class_heat_.try_emplace(klass, kLruK).first->second;
      class_heat_memo_class_ = klass;
    }
    class_heat_memo_->RecordAccess(page, now);
  }
  MaybePropagateHeat(page, heat);
}

sim::Task<void> Node::DeliverHeatReport(NodeId home, PageId page,
                                        double heat) {
  const bool delivered = co_await system_->network().Transfer(
      id_, home, kHintMsgBytes, net::TrafficClass::kHeatHint);
  // The home's directory entry only changes when the (best-effort) hint
  // actually arrives.
  if (delivered) {
    system_->directory().ReportLocalHeat(id_, page, heat);
    unsynced_hints_.erase(page);
  } else if (!system_->Reachable(id_, home)) {
    // Lost to a partition cut (not the ambient loss process, whose drops
    // threshold dissemination repairs by itself): owed to the home at heal
    // time. Reachability is checked at the delivery instant, the same
    // instant the drop decision was made, so this classification is exact.
    unsynced_hints_.insert(page);
  }
}

void Node::MaybePropagateHeat(PageId page, double heat) {
  const double* reported = reported_heat_.Find(page);
  const double last = reported == nullptr ? 0.0 : *reported;
  const bool significant =
      last == 0.0 ? heat > 0.0
                  : std::fabs(heat - last) >
                        system_->config().hint_heat_threshold * last;
  if (!significant) return;
  const NodeId home = system_->database().HomeOf(page);
  if (home == id_) {
    reported_heat_[page] = heat;
    system_->directory().ReportLocalHeat(id_, page, heat);
    return;
  }
  reported_heat_[page] = heat;
  system_->simulator().Spawn(DeliverHeatReport(home, page, heat));
}

void Node::ResetVolatileState() {
  accumulated_heat_ = cache::HeatTracker(kLruK);
  for (auto& [klass, tracker] : class_heat_) {
    tracker = cache::HeatTracker(kLruK);
  }
  reported_heat_.clear();
  // A crashed node owes nothing: its heat contributions were wiped from the
  // directory by DropNode, which is exactly a sync.
  unsynced_hints_.clear();
}

size_t Node::FlushUnsyncedHints() {
  size_t flushed = 0;
  for (const PageId page : unsynced_hints_) {
    const double heat = AccumulatedHeat(page);
    reported_heat_[page] = heat;
    system_->directory().ReportLocalHeat(id_, page, heat);
    const NodeId home = system_->database().HomeOf(page);
    if (home != id_) {
      system_->simulator().Spawn(system_->network().Transfer(
          id_, home, kHintMsgBytes, net::TrafficClass::kHeatHint));
    }
    ++flushed;
  }
  unsynced_hints_.clear();
  return flushed;
}

size_t Node::HeatHistorySize() const {
  size_t total = accumulated_heat_.tracked_pages();
  for (const auto& [klass, tracker] : class_heat_) {
    total += tracker.tracked_pages();
  }
  return total;
}

void Node::SweepHeatHistory(sim::SimTime horizon) {
  const auto resident = [this](PageId page) { return cache_->IsCached(page); };
  accumulated_heat_.EvictColderThan(horizon, resident);
  for (auto& [klass, tracker] : class_heat_) {
    tracker.EvictColderThan(horizon, resident);
  }
  // Hint bookkeeping for pages whose history just aged out would otherwise
  // grow the same way; a page without history and without residency will be
  // re-reported from scratch if it ever comes back.
  for (auto it = reported_heat_.begin(); it != reported_heat_.end();) {
    if (accumulated_heat_.AccessCount(it.key()) == 0 &&
        !cache_->IsCached(it.key())) {
      it = reported_heat_.Erase(it);
    } else {
      ++it;
    }
  }
}

void Node::HandleDrops(std::span<const PageId> dropped) {
  system_->integrity().OnFramesDropped(id_, dropped);
  for (PageId page : dropped) {
    if (system_->config().injected_bug != InjectedBug::kLeakDirectoryEntry) {
      system_->directory().OnPageDropped(id_, page);
    }
    const NodeId home = system_->database().HomeOf(page);
    if (home != id_) {
      system_->simulator().Spawn(system_->network().Transfer(
          id_, home, kHintMsgBytes, net::TrafficClass::kHeatHint));
    }
  }
}

void Node::AfterInsert(PageId page) {
  system_->directory().OnPageCached(id_, page);
  const NodeId home = system_->database().HomeOf(page);
  if (home != id_) {
    system_->simulator().Spawn(system_->network().Transfer(
        id_, home, kHintMsgBytes, net::TrafficClass::kHeatHint));
  }
}

sim::Task<void> Node::UseCpu(double instructions, obs::RequestProbe* probe) {
  // Use() applies the node's current slowdown factor, so a degraded node's
  // CPU work stretches along with its disk and network latency.
  const sim::SimTime queued = system_->simulator().Now();
  const sim::SimTime acquired = co_await cpu_.Use(CpuMs(instructions));
  if (probe != nullptr) {
    probe->Span(obs::BudgetPhase::kCpuWait, queued, acquired - queued);
    probe->Span(obs::BudgetPhase::kCpuService, acquired,
                system_->simulator().Now() - acquired);
  }
}

bool Node::CrashedSince(uint64_t epoch) const {
  return system_->NodeEpoch(id_) != epoch || !system_->NodeUp(id_);
}

sim::Task<void> Node::FetchAttempt(std::shared_ptr<FetchState> state,
                                   NodeId target, PageId page,
                                   bool via_home) {
  const SystemConfig& config = system_->config();
  net::Network& network = system_->network();
  const uint64_t target_epoch = system_->NodeEpoch(target);
  // Every Transfer result below is honored: a control or page message lost
  // to a partition cut means silence, and the requester's phase timer turns
  // silence into a timeout — exactly how it detects a dead peer.
  if (via_home) {
    // The directory lives at the page's home: request there, home forwards
    // to the copy holder.
    const NodeId home = system_->database().HomeOf(page);
    const bool home_alive = system_->NodeUp(home);
    const bool asked = co_await network.Transfer(
        id_, home, kControlMsgBytes, net::TrafficClass::kControl);
    if (!asked || !home_alive || !system_->NodeUp(home)) {
      co_return;  // request died with (or never reached) the home
    }
    const bool forwarded = co_await network.Transfer(
        home, target, kControlMsgBytes, net::TrafficClass::kControl);
    if (!forwarded) co_return;
  } else {
    const bool asked = co_await network.Transfer(
        id_, target, kControlMsgBytes, net::TrafficClass::kControl);
    if (!asked) co_return;
  }
  if (!system_->NodeUp(target) ||
      system_->NodeEpoch(target) != target_epoch ||
      !system_->directory().IsCachedAt(target, page)) {
    // Dead, rebooted, or meanwhile evicted: silence; the timer fires.
    co_return;
  }
  // The server verifies the frame before shipping it. A detected flaw is
  // quarantined and answered with silence, so the requester's phase timer
  // hedges to the next-ranked replica — RankedCopies *is* the repair
  // steering for cached corruption.
  const std::optional<storage::Flaw> flaw =
      system_->integrity().VerifyFrame(target, page);
  if (!flaw) co_return;
  const bool page_arrived = co_await network.Transfer(
      target, id_, config.page_bytes + kPageHeaderBytes,
      net::TrafficClass::kPage);
  if (!page_arrived) co_return;  // cut mid-flight: no page, no observation
  // Every completed attempt — even one that lost the hedge race or arrived
  // after the requester gave up — is a latency observation of the target.
  system_->RecordFetchLatency(
      target, system_->simulator().Now() - state->started_ms);
  if (!state->delivered) {
    state->delivered = true;
    state->server = target;
    state->flaw = *flaw;
    if (state->wake != nullptr) state->wake->Set();
  }
}

sim::Task<void> Node::FetchPhaseTimer(std::shared_ptr<FetchState> state,
                                      sim::Event* phase, sim::SimTime delay) {
  co_await system_->simulator().Delay(delay);
  phase->Set();  // idempotent: a no-op if a delivery already fired it
  (void)state;   // held so the event outlives the requester
}

sim::Task<StorageLevel> Node::AccessPage(ClassId klass, PageId page,
                                         obs::RequestProbe* probe) {
  const SystemConfig& config = system_->config();
  net::Network& network = system_->network();
  net::PageDirectory& directory = system_->directory();
  const uint64_t start_epoch = system_->NodeEpoch(id_);

  // Only waits on the requester's own stack reach the probe; spawned fetch
  // attempts fall under kFetchWait (the window the requester spent waiting
  // on deliveries).
  if (probe != nullptr) probe->BeginAccess(system_->simulator().Now());
  RecordAccessHeat(klass, page);
  co_await UseCpu(kInstrBufferAccess, probe);
  if (CrashedSince(start_epoch)) co_return StorageLevel::kLocalBuffer;

  cache::NodeCache::AccessResult access = cache_->OnAccess(klass, page);
  HandleDrops(access.dropped);
  if (access.hit) {
    // Verify-on-read: a detectably corrupt frame is quarantined and the
    // access falls through to the fetch path below — the repair ladder for
    // cached corruption is simply a re-fetch from a replica or the disk.
    if (const std::optional<storage::Flaw> flaw =
            system_->integrity().VerifyFrame(id_, page)) {
      system_->integrity().Consume(*flaw);
      system_->CountAccess(klass, StorageLevel::kLocalBuffer);
      if (probe != nullptr) {
        probe->EndAccess(system_->simulator().Now(), klass, page,
                         StorageLevelName(StorageLevel::kLocalBuffer),
                         /*hit=*/true);
      }
      co_return StorageLevel::kLocalBuffer;
    }
  }

  co_await UseCpu(kInstrIoSetup, probe);
  const NodeId home = system_->database().HomeOf(page);
  const uint32_t page_msg = config.page_bytes + kPageHeaderBytes;
  StorageLevel level;
  // Integrity of the content this fetch ends up consuming: set from the
  // serving frame's flaw on a remote-buffer delivery, or from the disk
  // verify on the fallback paths.
  storage::Flaw fetched_flaw = storage::Flaw::kNone;

  // Remote-buffer fetch with per-request deadlines and one hedged retry:
  // the requester tries the best-ranked copy holder, and if the page has
  // not arrived within `crash_detect_timeout_ms` it hedges to the
  // next-best replica. Silence *is* the failure detector — a dead or
  // rebooted peer never answers, a merely degraded one answers late (the
  // late page still completes and feeds the health score, it just loses
  // the race). After the hedge budget an exponential backoff precedes the
  // disk fallback. Disks survive crashes (the NOW's disks are dual-ported),
  // so a dead home's pages stay readable from its disk at remote-disk cost.
  net::PageDirectory::CopyList candidates;
  directory.RankedCopies(page, id_, &candidates);
  if (probe != nullptr) {
    probe->Instant("dir_lookup", system_->simulator().Now(), "copies",
                   candidates.size());
  }
  auto state = std::allocate_shared<FetchState>(
      sim::FramePoolAllocator<FetchState>());
  state->started_ms = system_->simulator().Now();
  int failed_attempts = 0;
  const size_t max_attempts = std::min<size_t>(candidates.size(), 2);
  for (size_t phase = 0; phase < max_attempts && !state->delivered;
       ++phase) {
    const NodeId target = candidates[phase];
    if (probe != nullptr && phase > 0) {
      probe->Instant("hedge", system_->simulator().Now(), "target", target);
    }
    state->phase_events.push_back(
        std::make_unique<sim::Event>(&system_->simulator()));
    sim::Event* event = state->phase_events.back().get();
    state->wake = event;
    const bool via_home = home != id_ && target != home;
    system_->simulator().Spawn(FetchAttempt(state, target, page, via_home));
    system_->simulator().Spawn(
        FetchPhaseTimer(state, event, config.crash_detect_timeout_ms));
    co_await event->Wait();
    if (!state->delivered) {
      ++failed_attempts;
      system_->RecordFetchTimeout(target, config.crash_detect_timeout_ms);
      if (probe != nullptr) {
        probe->Instant("fetch_timeout", system_->simulator().Now(), "target",
                       target);
      }
    }
  }
  state->wake = nullptr;
  state->abandoned = !state->delivered;
  if (probe != nullptr && max_attempts > 0) {
    probe->Span(obs::BudgetPhase::kFetchWait, state->started_ms,
                system_->simulator().Now() - state->started_ms);
  }

  if (state->delivered) {
    level = StorageLevel::kRemoteBuffer;
    fetched_flaw = state->flaw;
  } else {
    if (failed_attempts > 0) {
      // Deadline(s) expired: brief exponential backoff, then the disk. It
      // gives a slow peer that answered just after the deadline a moment to
      // stop thrashing the requester, without stalling the crash case.
      static constexpr double kFetchBackoffBaseMs = 0.5;
      static constexpr double kFetchBackoffMaxMs = 8.0;
      const double backoff =
          std::min(kFetchBackoffBaseMs * std::pow(2.0, failed_attempts - 1),
                   kFetchBackoffMaxMs);
      const sim::SimTime backoff_start = system_->simulator().Now();
      co_await system_->simulator().Delay(backoff);
      if (probe != nullptr) {
        probe->Span(obs::BudgetPhase::kBackoff, backoff_start,
                    system_->simulator().Now() - backoff_start);
      }
      system_->CountFetchFallback(klass);
    }
    if (home == id_) {
      co_await disk_.ReadPage(probe);
      fetched_flaw = co_await system_->integrity().VerifyDiskRead(page);
      level = StorageLevel::kLocalDisk;
    } else {
      if (candidates.empty()) {
        // No cached copy anywhere: the classic ask-the-home disk read. A
        // dead home — or one unreachable across a partition cut — is
        // detected by one deadline wait (shared by the whole request; it is
        // the only wait this path pays).
        const bool home_alive = system_->NodeUp(home);
        const bool asked = co_await network.Transfer(
            id_, home, kControlMsgBytes, net::TrafficClass::kControl,
            /*via_storage_bus=*/false, probe);
        if (!asked || !home_alive || !system_->NodeUp(home)) {
          if (probe != nullptr) {
            probe->Span(obs::BudgetPhase::kFetchWait,
                        system_->simulator().Now(),
                        config.crash_detect_timeout_ms);
          }
          co_await system_->simulator().Delay(config.crash_detect_timeout_ms);
          system_->CountFetchFallback(klass);
        }
      }
      co_await system_->node(home).disk().ReadPage(probe);
      fetched_flaw = co_await system_->integrity().VerifyDiskRead(page);
      // The NOW's disks are dual-ported: the page travels over the storage
      // bus, which a LAN partition does not sever. Bandwidth/queueing of the
      // shared medium still applies.
      co_await network.Transfer(home, id_, page_msg,
                                net::TrafficClass::kPage,
                                /*via_storage_bus=*/true, probe);
      level = StorageLevel::kRemoteDisk;
    }
  }

  // Our own node may have crashed while we fetched: the wiped (or freshly
  // recovered) cache must not receive the stale page, and the access is not
  // counted (the operation fails).
  if (CrashedSince(start_epoch)) co_return level;

  // A concurrent operation may have cached the page while we fetched.
  if (!cache_->IsCached(page)) {
    cache::NodeCache::AccessResult insert = cache_->InsertFetched(klass, page);
    HandleDrops(insert.dropped);
    if (insert.inserted) {
      AfterInsert(page);
      system_->integrity().OnFrameFilled(id_, page, fetched_flaw);
    }
  } else {
    cache::NodeCache::AccessResult touch = cache_->OnAccess(klass, page);
    HandleDrops(touch.dropped);
  }
  system_->integrity().Consume(fetched_flaw);
  system_->CountAccess(klass, level);
  if (probe != nullptr) {
    probe->EndAccess(system_->simulator().Now(), klass, page,
                     StorageLevelName(level), access.hit);
  }
  co_return level;
}

// --------------------------------------------------------------------------
// ClusterSystem
// --------------------------------------------------------------------------

ClusterSystem::ClusterSystem(const SystemConfig& config)
    : config_(config),
      database_(config.db_pages, config.page_bytes, config.num_nodes),
      network_(&simulator_, config.network),
      directory_(&database_),
      cost_model_(DeriveCostModel(config)),
      master_rng_(config.seed),
      fault_injector_(&simulator_, config.num_nodes, config.faults),
      integrity_(this) {
  MEMGOAL_CHECK(config.num_nodes > 0);
  MEMGOAL_CHECK(config.crash_detect_timeout_ms >= 0.0);
  MEMGOAL_CHECK(config.corrupt_latent_fraction >= 0.0 &&
                config.corrupt_latent_fraction <= 1.0);
  MEMGOAL_CHECK(config.scrub_interval_ms >= 0.0);
  nodes_.reserve(config.num_nodes);
  for (NodeId i = 0; i < config.num_nodes; ++i) {
    nodes_.push_back(std::make_unique<Node>(this, i));
  }
  // Health scores start at the cost model's healthy remote-buffer fetch
  // time and are mirrored into the directory's replica ranking, so the
  // all-healthy ranking is exactly the historic home-first scan order.
  health_ewma_.assign(config.num_nodes, cost_model_.remote_buffer_ms);
  for (NodeId i = 0; i < config.num_nodes; ++i) {
    directory_.SetNodeCost(i, health_ewma_[i]);
  }
  fault_injector_.SetCallbacks(
      [this](uint32_t node) { HandleNodeCrash(node); },
      [this](uint32_t node) { HandleNodeRecover(node); });
  fault_injector_.SetDegradationCallbacks(
      [this](uint32_t node) { HandleNodeDegrade(node); },
      [this](uint32_t node) { HandleNodeRestore(node); });
  fault_injector_.SetPartitionCallback([this] { HandlePartitionChange(); });
  fault_injector_.SetCorruptionCallback([this](uint32_t node, uint64_t draw) {
    integrity_.HandleCorruption(node, draw);
  });
  // The injector's reachability relation is the single source of truth; the
  // network enforces it on delivery and the directory's replica ranking
  // excludes unreachable holders. Both consult it only while partitioned.
  const auto reachable = [this](NodeId from, NodeId to) {
    return fault_injector_.Reachable(from, to);
  };
  network_.SetReachability(reachable);
  directory_.SetReachability(reachable);
  controller_ = std::make_unique<GoalOrientedController>();
}

ClusterSystem::~ClusterSystem() = default;

void ClusterSystem::AddClass(const workload::ClassSpec& spec) {
  MEMGOAL_CHECK(!started_);
  for (const workload::ClassSpec& existing : classes_) {
    MEMGOAL_CHECK_MSG(existing.id != spec.id, "duplicate class id");
  }
  if (spec.id == kNoGoalClass) {
    MEMGOAL_CHECK_MSG(!spec.goal_rt_ms.has_value(),
                      "class 0 is the no-goal class");
  } else {
    MEMGOAL_CHECK_MSG(spec.goal_rt_ms.has_value(),
                      "goal classes need a goal");
    MEMGOAL_CHECK(*spec.goal_rt_ms > 0.0);
    for (auto& node : nodes_) {
      node->node_cache().EnsureDedicatedPool(spec.id);
    }
  }
  MEMGOAL_CHECK(spec.pages.end <= database_.num_pages());
  MEMGOAL_CHECK(spec.mean_interarrival_ms > 0.0);
  MEMGOAL_CHECK(spec.per_node_interarrival_ms.empty() ||
                spec.per_node_interarrival_ms.size() == config_.num_nodes);
  for (double t : spec.per_node_interarrival_ms) MEMGOAL_CHECK(t > 0.0);
  MEMGOAL_CHECK(spec.accesses_per_op > 0);
  classes_.push_back(spec);
  counters_[spec.id];  // create the counter row
}

void ClusterSystem::SetController(std::unique_ptr<Controller> controller) {
  MEMGOAL_CHECK(!started_);
  MEMGOAL_CHECK(controller != nullptr);
  controller_ = std::move(controller);
}

void ClusterSystem::SetTracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  network_.SetTracer(tracer);
  if (tracer != nullptr && tracer->enabled()) {
    for (NodeId i = 0; i < config_.num_nodes; ++i) {
      tracer->SetProcessName(i, "node" + std::to_string(i));
    }
  }
}

std::optional<obs::RequestProbe> ClusterSystem::MakeRequestProbe(
    NodeId node, obs::RequestBudget* budget) const {
  obs::Tracer* const tracer =
      tracer_ != nullptr && tracer_->enabled() ? tracer_ : nullptr;
  if (budget == nullptr && tracer == nullptr) return std::nullopt;
  return obs::RequestProbe(budget, tracer, node);
}

void ClusterSystem::SetIntervalCallback(IntervalCallback callback) {
  interval_callback_ = std::move(callback);
}

void ClusterSystem::Start() {
  MEMGOAL_CHECK(!started_);
  MEMGOAL_CHECK_MSG(!classes_.empty(), "no workload classes configured");
  started_ = true;
  // Resource histograms live as long as the system; register the views once
  // so every interval snapshot carries their quantiles with saturation
  // state.
  char name[64];
  for (NodeId i = 0; i < config_.num_nodes; ++i) {
    std::snprintf(name, sizeof(name), "node%u.cpu.wait_ms", i);
    registry_.RegisterHistogram(name, &nodes_[i]->cpu().wait_histogram(),
                                {0.5, 0.99});
    std::snprintf(name, sizeof(name), "node%u.disk.wait_ms", i);
    registry_.RegisterHistogram(name, &nodes_[i]->disk().resource().wait_histogram(),
                                {0.5, 0.99});
  }
  registry_.RegisterHistogram("net.medium.wait_ms",
                              &network_.medium().wait_histogram(),
                              {0.5, 0.99});
  controller_->Attach(this);
  for (const workload::ClassSpec& spec : classes_) {
    for (NodeId i = 0; i < config_.num_nodes; ++i) {
      simulator_.Spawn(WorkloadSource(i, spec.id));
    }
  }
  simulator_.Spawn(IntervalLoop());
  integrity_.Start();
  fault_injector_.Start();
}

void ClusterSystem::HandleNodeCrash(NodeId node) {
  // Everything volatile on the node disappears at one instant in simulated
  // time: buffer contents, dedicated budgets, directory registrations and
  // heat bookkeeping. In-flight operations notice via the epoch counter and
  // fail; no hint traffic is emitted (a dead node cannot send).
  Node& n = *nodes_[node];
  integrity_.OnNodeCrash(node);
  n.node_cache().Clear();
  directory_.DropNode(node);
  n.ResetVolatileState();
  controller_->OnNodeCrash(node);
}

void ClusterSystem::HandleNodeRecover(NodeId node) {
  // The node rejoins with a cold cache and zero dedications (enforced at
  // crash time). Its health score re-anchors at the healthy baseline: every
  // penalty in the EWMA was a timeout against the *dead* machine, which says
  // nothing about the rebooted one — decaying gradually (the pre-fix
  // behavior) left the fresh node shunned by replica ranking for several
  // intervals after every reboot.
  ResetHealth(node);
  controller_->OnNodeRecover(node);
}

void ClusterSystem::HandlePartitionChange() {
  const bool partitioned = fault_injector_.Partitioned();
  network_.SetPartitionActive(partitioned);
  directory_.SetPartitionActive(partitioned);
  if (partitioned && !partitioned_now_) {
    ++partition_begins_;
  } else if (!partitioned && partitioned_now_) {
    ++partition_heals_;
    if (config_.injected_bug != InjectedBug::kSkipHealReconcile) {
      ReconcileAfterHeal();
    }
  }
  partitioned_now_ = partitioned;
  controller_->OnPartitionChange();
}

void ClusterSystem::ReconcileAfterHeal() {
  // Anti-entropy: every heat report that was lost across the cut is
  // re-delivered (state applied directly, traffic accounted — the
  // substitution-table idiom), so the directory's global heat converges to
  // what threshold dissemination would have maintained without the cut.
  for (auto& node : nodes_) {
    reconcile_hints_sent_ += node->FlushUnsyncedHints();
  }
  // Health penalties accumulated during the cut measured the partition, not
  // the peers: a healed replica must be re-rankable immediately.
  for (NodeId i = 0; i < config_.num_nodes; ++i) ResetHealth(i);
}

void ClusterSystem::HandleNodeDegrade(NodeId node) {
  const double factor = fault_injector_.SlowdownOf(node);
  nodes_[node]->cpu().SetSlowdown(factor);
  nodes_[node]->disk().SetSlowdown(factor);
  network_.SetNodeSlowdown(node, factor);
}

void ClusterSystem::HandleNodeRestore(NodeId node) {
  nodes_[node]->cpu().SetSlowdown(1.0);
  nodes_[node]->disk().SetSlowdown(1.0);
  network_.SetNodeSlowdown(node, 1.0);
  DecayHealth(node);
}

void ClusterSystem::RecordFetchLatency(NodeId node, double latency_ms) {
  // EWMA smoothing of the health score used for replica ranking and
  // hedging (higher alpha = faster reaction).
  constexpr double kHealthEwmaAlpha = 0.2;
  health_ewma_[node] = (1.0 - kHealthEwmaAlpha) * health_ewma_[node] +
                       kHealthEwmaAlpha * latency_ms;
  directory_.SetNodeCost(node, health_ewma_[node]);
}

void ClusterSystem::RecordFetchTimeout(NodeId node, double waited_ms) {
  // The observation is censored — the fetch would have taken *at least*
  // `waited_ms` — so feed a pessimistic multiple of the larger of the wait
  // and the current score. Repeated timeouts therefore escalate the score
  // geometrically instead of plateauing at the deadline.
  RecordFetchLatency(node, 2.0 * std::max(waited_ms, health_ewma_[node]));
}

void ClusterSystem::DecayHealth(NodeId node) {
  // Fraction of the gap back to the cost-model baseline the score recovers
  // per restore/recover event (forgiveness after an episode).
  constexpr double kHealthRecoveryDecay = 0.25;
  const double baseline = cost_model_.remote_buffer_ms;
  health_ewma_[node] +=
      kHealthRecoveryDecay * (baseline - health_ewma_[node]);
  directory_.SetNodeCost(node, health_ewma_[node]);
}

void ClusterSystem::ResetHealth(NodeId node) {
  health_ewma_[node] = cost_model_.remote_buffer_ms;
  directory_.SetNodeCost(node, health_ewma_[node]);
}

const workload::ClassSpec& ClusterSystem::spec(ClassId klass) const {
  for (const workload::ClassSpec& s : classes_) {
    if (s.id == klass) return s;
  }
  MEMGOAL_CHECK_MSG(false, "unknown class id");
  return classes_.front();
}

std::vector<ClassId> ClusterSystem::goal_class_ids() const {
  std::vector<ClassId> ids;
  for (const workload::ClassSpec& s : classes_) {
    if (s.goal_rt_ms.has_value()) ids.push_back(s.id);
  }
  return ids;
}

void ClusterSystem::SetGoal(ClassId klass, double goal_rt_ms) {
  MEMGOAL_CHECK(goal_rt_ms > 0.0);
  for (workload::ClassSpec& s : classes_) {
    if (s.id == klass) {
      MEMGOAL_CHECK_MSG(s.goal_rt_ms.has_value(),
                        "cannot set a goal on the no-goal class");
      s.goal_rt_ms = goal_rt_ms;
      controller_->OnGoalChanged(klass);
      return;
    }
  }
  MEMGOAL_CHECK_MSG(false, "unknown class id");
}

void ClusterSystem::SetInterarrival(ClassId klass,
                                    double mean_interarrival_ms) {
  MEMGOAL_CHECK(mean_interarrival_ms > 0.0);
  for (workload::ClassSpec& s : classes_) {
    if (s.id == klass) {
      // Workload sources re-read the spec before every arrival, so the new
      // rate takes effect immediately.
      s.mean_interarrival_ms = mean_interarrival_ms;
      return;
    }
  }
  MEMGOAL_CHECK_MSG(false, "unknown class id");
}

const AccessCounters& ClusterSystem::counters(ClassId klass) const {
  auto it = counters_.find(klass);
  MEMGOAL_CHECK(it != counters_.end());
  return it->second;
}

void ClusterSystem::CountAccess(ClassId klass, StorageLevel level) {
  counters_[klass].by_level[static_cast<int>(level)]++;
}

void ClusterSystem::CountFetchFallback(ClassId klass) {
  counters_[klass].fetch_fallbacks++;
}

ClusterSystem::IntervalAccumulator& ClusterSystem::Accumulator(ClassId klass,
                                                               NodeId node) {
  return accumulators_[ClassNodeKey(klass, node)];
}

const ClusterSystem::Observation& ClusterSystem::observation(
    ClassId klass, NodeId node) const {
  static const Observation kEmpty;
  const Observation* obs = observations_.Find(ClassNodeKey(klass, node));
  return obs == nullptr ? kEmpty : *obs;
}

uint64_t ClusterSystem::ApplyAllocation(ClassId klass, NodeId node,
                                        uint64_t bytes) {
  // A dead node grants nothing; its budgets are re-established after
  // recovery by the controller's re-warm-up.
  if (!fault_injector_.IsUp(node)) return 0;
  std::vector<PageId> dropped;
  const uint64_t granted =
      nodes_[node]->node_cache().SetDedicatedBytes(klass, bytes, &dropped);
  nodes_[node]->HandleDrops(dropped);
  return granted;
}

ClusterSystem::GrantOutcome ClusterSystem::ApplyAllocationFenced(
    ClassId klass, NodeId node, uint64_t bytes, uint64_t epoch) {
  // The fence persists across crashes: the agent's highest-seen epoch is
  // modeled as stable storage, so a rebooted node cannot be tricked into
  // accepting a deposed coordinator's grant it had already fenced out.
  uint64_t& fence = grant_epochs_[{klass, node}];
  if (epoch < fence) {
    if (config_.injected_bug == InjectedBug::kNoEpochFence) {
      ++stale_grants_applied_;
      return {ApplyAllocation(klass, node, bytes), false};
    }
    ++grants_rejected_stale_epoch_;
    return {DedicatedBytes(klass, node), true};
  }
  fence = epoch;
  return {ApplyAllocation(klass, node, bytes), false};
}

void ClusterSystem::AnnounceEpoch(ClassId klass, NodeId node, uint64_t epoch) {
  uint64_t& fence = grant_epochs_[{klass, node}];
  fence = std::max(fence, epoch);
}

uint64_t ClusterSystem::DedicatedBytes(ClassId klass, NodeId node) const {
  return nodes_[node]->node_cache().dedicated_bytes(klass);
}

uint64_t ClusterSystem::TotalDedicatedBytes(ClassId klass) const {
  uint64_t total = 0;
  for (const auto& node : nodes_) {
    total += node->node_cache().dedicated_bytes(klass);
  }
  return total;
}

uint64_t ClusterSystem::AvailableFor(ClassId klass, NodeId node) const {
  return nodes_[node]->node_cache().AvailableForClass(klass);
}

int ClusterSystem::InvalidateCopies(PageId page, NodeId except_node) {
  int dropped = 0;
  for (NodeId i = 0; i < config_.num_nodes; ++i) {
    if (i == except_node) continue;
    if (!directory_.IsCachedAt(i, page)) continue;
    nodes_[i]->node_cache().Drop(page);
    integrity_.OnFramesDropped(i, {&page, 1});
    directory_.OnPageDropped(i, page);
    simulator_.Spawn(network_.Transfer(database_.HomeOf(page), i,
                                       kControlMsgBytes,
                                       net::TrafficClass::kControl));
    ++dropped;
  }
  return dropped;
}

std::optional<double> ClusterSystem::WeightedRt(ClassId klass) const {
  double weight_sum = 0.0;
  double weighted = 0.0;
  for (NodeId i = 0; i < config_.num_nodes; ++i) {
    const Observation& obs = observation(klass, i);
    if (!obs.has_rt || obs.arrival_rate_per_ms <= 0.0) continue;
    weighted += obs.arrival_rate_per_ms * obs.mean_rt_ms;
    weight_sum += obs.arrival_rate_per_ms;
  }
  if (weight_sum <= 0.0) return std::nullopt;
  return weighted / weight_sum;
}

sim::Task<void> ClusterSystem::WorkloadSource(NodeId node, ClassId klass) {
  common::Rng rng = ForkRng();
  const workload::ClassSpec& class_spec = spec(klass);
  const workload::PageSelector& selector =
      class_selectors_.try_emplace(klass, class_spec).first->second;
  while (true) {
    // The spec is re-read every iteration so run-time changes
    // (SetInterarrival) take effect immediately.
    const double interarrival =
        class_spec.per_node_interarrival_ms.empty()
            ? class_spec.mean_interarrival_ms
            : class_spec.per_node_interarrival_ms[node];
    co_await simulator_.Delay(rng.Exponential(interarrival));
    // A dead node issues no work: the source keeps drawing interarrival
    // times (so the stream stays deterministic) but stays silent until the
    // node recovers.
    if (!fault_injector_.IsUp(node)) continue;
    Accumulator(klass, node).arrived++;
    common::InlineVector<PageId, 8> pages(
        static_cast<size_t>(class_spec.accesses_per_op));
    for (PageId& page : pages) page = selector.Sample(&rng);
    simulator_.Spawn(RunOperation(node, klass, std::move(pages)));
  }
}

sim::Task<void> ClusterSystem::RunOperation(
    NodeId node, ClassId klass, common::InlineVector<PageId, 8> pages) {
  const sim::SimTime start = simulator_.Now();
  const uint64_t epoch = fault_injector_.epoch(node);
  obs::AttainmentTracker* const attainment = attainment_;
  const bool budgeting = attainment != nullptr && attainment->enabled();
  obs::RequestBudget budget;
  auto probe = MakeRequestProbe(node, budgeting ? &budget : nullptr);
  for (PageId page : pages) {
    co_await nodes_[node]->AccessPage(klass, page, probe ? &*probe : nullptr);
    if (fault_injector_.epoch(node) != epoch ||
        !fault_injector_.IsUp(node)) {
      // The node crashed under this operation: it fails (neither retried
      // nor counted completed).
      Accumulator(klass, node).failed++;
      co_return;
    }
  }
  IntervalAccumulator& acc = Accumulator(klass, node);
  acc.completed++;
  const double rt = simulator_.Now() - start;
  acc.rt_sum += rt;
  if (budgeting) {
    // Whatever no phase claimed (event-wait scheduling slack, repair-ladder
    // work under a verify) lands in the residual, so the decomposition sums
    // to the measured response time exactly.
    budget.SetResidual(rt);
    attainment->RecordRequest(klass, node, rt, budget);
  }
}

sim::Task<void> ClusterSystem::IntervalLoop() {
  while (true) {
    co_await simulator_.Delay(config_.observation_interval_ms);
    const int index = intervals_completed_++;

    // Roll the accumulators into per-(class, node) observations.
    for (const workload::ClassSpec& class_spec : classes_) {
      for (NodeId i = 0; i < config_.num_nodes; ++i) {
        IntervalAccumulator& acc = Accumulator(class_spec.id, i);
        Observation& obs = observations_[ClassNodeKey(class_spec.id, i)];
        obs.arrived = acc.arrived;
        obs.completed = acc.completed;
        obs.failed = acc.failed;
        obs.arrival_rate_per_ms =
            static_cast<double>(acc.arrived) / config_.observation_interval_ms;
        obs.has_rt = acc.completed > 0;
        obs.mean_rt_ms =
            acc.completed > 0 ? acc.rt_sum / static_cast<double>(acc.completed)
                              : 0.0;
        acc = IntervalAccumulator{};
      }
    }

    IntervalRecord record;
    record.index = index;
    record.end_time_ms = simulator_.Now();
    record.nodes_up = fault_injector_.nodes_up();
    record.lp = controller_->LpOutcomes();
    for (const workload::ClassSpec& class_spec : classes_) {
      ClassIntervalMetrics m;
      m.klass = class_spec.id;
      m.observed_rt_ms = WeightedRt(class_spec.id).value_or(0.0);
      m.goal_rt_ms = class_spec.goal_rt_ms.value_or(0.0);
      m.tolerance_ms = controller_->ToleranceFor(class_spec.id);
      m.dedicated_bytes = TotalDedicatedBytes(class_spec.id);
      for (NodeId i = 0; i < config_.num_nodes; ++i) {
        const Observation& obs = observation(class_spec.id, i);
        m.ops_completed += obs.completed;
        m.ops_arrived += obs.arrived;
        m.ops_failed += obs.failed;
      }
      m.satisfied = class_spec.goal_rt_ms.has_value() &&
                    m.ops_completed > 0 &&
                    m.observed_rt_ms <= m.goal_rt_ms + m.tolerance_ms;
      record.classes.push_back(m);
    }
    metrics_.Append(record);

    // Roll the attainment tracker's interval before the controller's
    // coordinator check fires (it runs kCoordinatorCheckDelayMs later and
    // joins miss cards against this interval's finalized budget rows).
    if (attainment_ != nullptr && attainment_->enabled()) {
      std::vector<obs::AttainmentTracker::ClassSample> samples;
      samples.reserve(record.classes.size());
      for (const ClassIntervalMetrics& m : record.classes) {
        obs::AttainmentTracker::ClassSample sample;
        sample.klass = m.klass;
        sample.has_goal = spec(m.klass).goal_rt_ms.has_value();
        sample.goal_rt_ms = m.goal_rt_ms;
        sample.tolerance_ms = m.tolerance_ms;
        sample.observed_rt_ms = m.observed_rt_ms;
        sample.has_observed_rt = WeightedRt(m.klass).has_value();
        sample.satisfied = m.satisfied;
        sample.ops_completed = m.ops_completed;
        sample.dedicated_bytes = m.dedicated_bytes;
        samples.push_back(sample);
      }
      attainment_->OnIntervalEnd(index, simulator_.Now(), samples);
    }

    // Bounded-memory sweep of the LRU-K heat histories: records of
    // non-resident pages whose backward-K time fell behind the horizon are
    // dropped (their heat is indistinguishable from never-seen by now).
    if (config_.heat_horizon_intervals > 0.0) {
      const sim::SimTime horizon =
          simulator_.Now() -
          config_.heat_horizon_intervals * config_.observation_interval_ms;
      if (horizon > 0.0) {
        for (auto& node : nodes_) node->SweepHeatHistory(horizon);
      }
    }

    // The user callback runs before the controller so that goal changes
    // made in reaction to this interval (e.g. the experiment protocol of
    // §7.1) are visible to the controller's check of the same interval.
    if (interval_callback_) interval_callback_(metrics_.back());
    controller_->OnIntervalEnd(index);
    // Audit after the controller acted, before the snapshot, so the
    // snapshot carries this interval's audit counters.
    if (auditor_ != nullptr) auditor_->RunChecks(simulator_.Now());
    PublishRegistrySnapshot(index);
  }
}

void ClusterSystem::PublishRegistrySnapshot(int interval_index) {
  char name[64];
  for (const auto& [klass, counters] : counters_) {
    for (int level = 0; level < 4; ++level) {
      std::snprintf(name, sizeof(name), "class%u.access.%s",
                    static_cast<unsigned>(klass),
                    StorageLevelName(static_cast<StorageLevel>(level)));
      registry_.GetCounter(name)->Set(counters.by_level[level]);
    }
    std::snprintf(name, sizeof(name), "class%u.fetch_fallbacks",
                  static_cast<unsigned>(klass));
    registry_.GetCounter(name)->Set(counters.fetch_fallbacks);
  }
  for (const workload::ClassSpec& class_spec : classes_) {
    std::snprintf(name, sizeof(name), "class%u.rt.observed_ms",
                  static_cast<unsigned>(class_spec.id));
    registry_.GetGauge(name)->Set(WeightedRt(class_spec.id).value_or(0.0));
    if (class_spec.goal_rt_ms.has_value()) {
      std::snprintf(name, sizeof(name), "class%u.rt.goal_ms",
                    static_cast<unsigned>(class_spec.id));
      registry_.GetGauge(name)->Set(*class_spec.goal_rt_ms);
      std::snprintf(name, sizeof(name), "class%u.dedicated_bytes",
                    static_cast<unsigned>(class_spec.id));
      registry_.GetGauge(name)->Set(
          static_cast<double>(TotalDedicatedBytes(class_spec.id)));
    }
  }
  for (int tc = 0; tc < net::kNumTrafficClasses; ++tc) {
    const auto traffic_class = static_cast<net::TrafficClass>(tc);
    const char* tc_name = net::TrafficClassName(traffic_class);
    std::snprintf(name, sizeof(name), "net.bytes.%s", tc_name);
    registry_.GetCounter(name)->Set(network_.bytes_sent(traffic_class));
    std::snprintf(name, sizeof(name), "net.msgs.%s", tc_name);
    registry_.GetCounter(name)->Set(network_.messages_sent(traffic_class));
    std::snprintf(name, sizeof(name), "net.dropped.%s", tc_name);
    registry_.GetCounter(name)->Set(network_.messages_dropped(traffic_class));
    std::snprintf(name, sizeof(name), "net.partition_dropped.%s", tc_name);
    registry_.GetCounter(name)->Set(
        network_.messages_partition_dropped(traffic_class));
  }
  registry_.GetGauge("cluster.nodes_up")
      ->Set(static_cast<double>(fault_injector_.nodes_up()));
  registry_.GetGauge("cluster.partitioned")
      ->Set(fault_injector_.Partitioned() ? 1.0 : 0.0);
  registry_.GetCounter("cluster.partition_begins")->Set(partition_begins_);
  registry_.GetCounter("cluster.partition_heals")->Set(partition_heals_);
  registry_.GetCounter("cluster.stale_grants_rejected")
      ->Set(grants_rejected_stale_epoch_);
  registry_.GetCounter("cluster.reconcile_hints_sent")
      ->Set(reconcile_hints_sent_);
  registry_.GetCounter("cluster.crashes_suppressed")
      ->Set(fault_injector_.stats().suppressed);
  registry_.GetCounter("cluster.corrupt_injected")
      ->Set(fault_injector_.stats().corruptions);
  const IntegrityService::Ledger& ledger = integrity_.ledger();
  registry_.GetCounter("cluster.corrupt_detected")->Set(ledger.detected);
  registry_.GetCounter("cluster.corrupt_served")->Set(ledger.served);
  registry_.GetCounter("cluster.latent_served")->Set(ledger.latent_served);
  registry_.GetCounter("cluster.quarantine_decisions")
      ->Set(ledger.quarantine_decisions);
  registry_.GetCounter("cluster.frames_quarantined")
      ->Set(integrity_.frames_quarantined());
  registry_.GetCounter("cluster.repairs_replica")->Set(ledger.repairs_replica);
  registry_.GetCounter("cluster.pages_lost")->Set(ledger.pages_lost);
  registry_.GetCounter("cluster.pages_scrubbed")->Set(ledger.pages_scrubbed);
  registry_.GetCounter("cluster.scrub_skipped_busy")
      ->Set(ledger.scrub_skipped_busy);
  if (auditor_ != nullptr) {
    registry_.GetCounter("audit.checks_run")->Set(auditor_->checks_run());
    registry_.GetCounter("audit.violations")
        ->Set(auditor_->violations_found());
  }
  for (NodeId i = 0; i < config_.num_nodes; ++i) {
    std::snprintf(name, sizeof(name), "node%u.heat.tracked_pages", i);
    registry_.GetGauge(name)->Set(
        static_cast<double>(nodes_[i]->HeatHistorySize()));
  }
  if (attainment_ != nullptr) attainment_->PublishTo(&registry_);
  controller_->PublishMetrics(&registry_);
  registry_.TakeSnapshot(interval_index, simulator_.Now());
}

void ClusterSystem::EnableAuditor(sim::InvariantAuditor* auditor) {
  auditor_ = auditor;
  if (auditor_ != nullptr) RegisterSystemAudits(auditor_, this);
}

void ClusterSystem::RunIntervals(int count) {
  MEMGOAL_CHECK(started_);
  MEMGOAL_CHECK(count >= 0);
  const int target = intervals_completed_ + count;
  const sim::SimTime target_time =
      static_cast<double>(target) * config_.observation_interval_ms;
  simulator_.RunUntil(target_time);
  MEMGOAL_CHECK(intervals_completed_ == target);
}

}  // namespace memgoal::core
