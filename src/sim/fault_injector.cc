#include "sim/fault_injector.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace memgoal::sim {

FaultInjector::FaultInjector(Simulator* simulator, uint32_t num_nodes,
                             const Params& params)
    : simulator_(simulator), params_(params), rng_(params.seed),
      up_(num_nodes, true), epochs_(num_nodes, 0),
      slowdown_(num_nodes, 1.0), nodes_up_(num_nodes) {
  MEMGOAL_CHECK(simulator != nullptr);
  MEMGOAL_CHECK(num_nodes > 0);
  MEMGOAL_CHECK(params.mttf_ms >= 0.0);
  MEMGOAL_CHECK(params.mttr_ms > 0.0 || params.mttf_ms == 0.0);
  MEMGOAL_CHECK(params.mttd_ms >= 0.0);
  MEMGOAL_CHECK(params.degradation_repair_ms > 0.0 || params.mttd_ms == 0.0);
  MEMGOAL_CHECK(params.degradation_factor > 1.0 || params.mttd_ms == 0.0);
  for (const ScriptEvent& event : params.script) {
    MEMGOAL_CHECK(event.at_ms >= 0.0);
    MEMGOAL_CHECK(event.node < num_nodes);
  }
  for (const DegradationEvent& event : params.degradation_script) {
    MEMGOAL_CHECK(event.at_ms >= 0.0);
    MEMGOAL_CHECK(event.node < num_nodes);
    MEMGOAL_CHECK(!event.begin || event.factor > 1.0);
  }
  MEMGOAL_CHECK(params.mttp_ms >= 0.0);
  MEMGOAL_CHECK(params.partition_heal_ms > 0.0 || params.mttp_ms == 0.0);
  MEMGOAL_CHECK(params.mttp_ms == 0.0 || num_nodes >= 3);
  for (const PartitionEvent& event : params.partition_script) {
    MEMGOAL_CHECK(event.at_ms >= 0.0);
    MEMGOAL_CHECK(event.groups.empty() || event.groups.size() == num_nodes);
  }
  MEMGOAL_CHECK(params.mttc_ms >= 0.0);
  for (const CorruptionEvent& event : params.corruption_script) {
    MEMGOAL_CHECK(event.at_ms >= 0.0);
    MEMGOAL_CHECK(event.node < num_nodes);
    MEMGOAL_CHECK(event.count > 0);
  }
}

void FaultInjector::SetCallbacks(Callback on_crash, Callback on_recover) {
  on_crash_ = std::move(on_crash);
  on_recover_ = std::move(on_recover);
}

void FaultInjector::SetDegradationCallbacks(Callback on_degrade,
                                            Callback on_restore) {
  on_degrade_ = std::move(on_degrade);
  on_restore_ = std::move(on_restore);
}

void FaultInjector::SetPartitionCallback(TopologyCallback on_change) {
  on_topology_change_ = std::move(on_change);
}

void FaultInjector::SetCorruptionCallback(CorruptionCallback on_corrupt) {
  on_corrupt_ = std::move(on_corrupt);
}

void FaultInjector::Start() {
  MEMGOAL_CHECK(!started_);
  started_ = true;
  for (const ScriptEvent& event : params_.script) {
    simulator_->At(event.at_ms, [this, event] {
      if (event.crash) {
        Crash(event.node);
      } else {
        Recover(event.node);
      }
    });
  }
  for (const DegradationEvent& event : params_.degradation_script) {
    simulator_->At(event.at_ms, [this, event] {
      if (event.begin) {
        Degrade(event.node, event.factor);
      } else {
        Restore(event.node);
      }
    });
  }
  for (const PartitionEvent& event : params_.partition_script) {
    simulator_->At(event.at_ms, [this, event] {
      if (event.groups.empty()) {
        HealPartition();
      } else {
        SetPartition(event.groups);
      }
    });
  }
  for (const CorruptionEvent& event : params_.corruption_script) {
    simulator_->At(event.at_ms, [this, event] {
      for (uint32_t i = 0; i < event.count; ++i) {
        Corrupt(event.node, common::Mix64(event.salt + i));
      }
    });
  }
  // One independent stochastic stream per node per failure kind, forked
  // from the master seed so adding a node never perturbs another node's
  // draws. Streams fork in the order the kinds were introduced — crash,
  // degradation, partition, corruption — so enabling a later kind leaves
  // every earlier kind's schedule bit-identical.
  if (params_.mttf_ms > 0.0) {
    for (uint32_t node = 0; node < num_nodes(); ++node) {
      simulator_->Spawn(LifeCycle(node, rng_.Fork()));
    }
  }
  if (params_.mttd_ms > 0.0) {
    for (uint32_t node = 0; node < num_nodes(); ++node) {
      simulator_->Spawn(DegradationCycle(node, rng_.Fork()));
    }
  }
  if (params_.mttp_ms > 0.0) {
    simulator_->Spawn(PartitionCycle(rng_.Fork()));
  }
  if (params_.mttc_ms > 0.0) {
    for (uint32_t node = 0; node < num_nodes(); ++node) {
      simulator_->Spawn(CorruptionCycle(node, rng_.Fork()));
    }
  }
}

bool FaultInjector::Crash(uint32_t node) {
  MEMGOAL_CHECK(node < num_nodes());
  if (!up_[node]) return false;
  if (nodes_up_ <= params_.min_live_nodes) {
    ++stats_.suppressed;
    return false;
  }
  up_[node] = false;
  --nodes_up_;
  ++epochs_[node];
  ++stats_.crashes;
  if (on_crash_) on_crash_(node);
  return true;
}

bool FaultInjector::Recover(uint32_t node) {
  MEMGOAL_CHECK(node < num_nodes());
  if (up_[node]) return false;
  up_[node] = true;
  ++nodes_up_;
  ++stats_.recoveries;
  if (on_recover_) on_recover_(node);
  return true;
}

bool FaultInjector::Degrade(uint32_t node, double factor) {
  MEMGOAL_CHECK(node < num_nodes());
  MEMGOAL_CHECK(factor > 1.0);
  if (slowdown_[node] != 1.0) return false;
  slowdown_[node] = factor;
  ++stats_.degradations;
  if (on_degrade_) on_degrade_(node);
  return true;
}

bool FaultInjector::Restore(uint32_t node) {
  MEMGOAL_CHECK(node < num_nodes());
  if (slowdown_[node] == 1.0) return false;
  slowdown_[node] = 1.0;
  ++stats_.degradation_recoveries;
  if (on_restore_) on_restore_(node);
  return true;
}

bool FaultInjector::Reachable(uint32_t from, uint32_t to) const {
  MEMGOAL_CHECK(from < num_nodes());
  MEMGOAL_CHECK(to < num_nodes());
  return !grouped_ || group_[from] == group_[to];
}

bool FaultInjector::SetPartition(const std::vector<uint32_t>& groups) {
  MEMGOAL_CHECK(groups.size() == num_nodes());
  const bool uniform =
      std::all_of(groups.begin(), groups.end(),
                  [&groups](uint32_t g) { return g == groups.front(); });
  if (uniform) return HealPartition();
  if (grouped_ && group_ == groups) return false;
  if (!grouped_) ++stats_.partitions;  // a reshape extends the same episode
  grouped_ = true;
  group_ = groups;
  NotifyTopologyChange();
  return true;
}

bool FaultInjector::HealPartition() {
  if (!grouped_) return false;
  grouped_ = false;
  ++stats_.partition_heals;
  NotifyTopologyChange();
  return true;
}

bool FaultInjector::Corrupt(uint32_t node, uint64_t draw) {
  MEMGOAL_CHECK(node < num_nodes());
  ++stats_.corruptions;
  if (on_corrupt_) on_corrupt_(node, draw);
  return true;
}

void FaultInjector::NotifyTopologyChange() {
  ++partition_epoch_;
  if (on_topology_change_) on_topology_change_();
}

Task<void> FaultInjector::LifeCycle(uint32_t node, common::Rng rng) {
  while (true) {
    co_await simulator_->Delay(rng.Exponential(params_.mttf_ms));
    if (!Crash(node)) continue;  // suppressed or scripted-down: retry later
    co_await simulator_->Delay(rng.Exponential(params_.mttr_ms));
    Recover(node);
  }
}

Task<void> FaultInjector::DegradationCycle(uint32_t node, common::Rng rng) {
  while (true) {
    co_await simulator_->Delay(rng.Exponential(params_.mttd_ms));
    if (!Degrade(node, params_.degradation_factor)) continue;  // scripted
    co_await simulator_->Delay(
        rng.Exponential(params_.degradation_repair_ms));
    Restore(node);
  }
}

Task<void> FaultInjector::PartitionCycle(common::Rng rng) {
  const uint32_t n = num_nodes();
  const uint32_t max_minority = (n - 1) / 2;
  std::vector<uint32_t> order(n);
  while (true) {
    co_await simulator_->Delay(rng.Exponential(params_.mttp_ms));
    if (grouped_) continue;  // a scripted episode is already in effect
    // Isolate a uniformly drawn minority: partial Fisher-Yates over the
    // node ids, take the first k.
    const uint32_t k =
        static_cast<uint32_t>(rng.UniformInt(1, max_minority));
    for (uint32_t i = 0; i < n; ++i) order[i] = i;
    for (uint32_t i = 0; i < k; ++i) {
      const uint32_t j =
          i + static_cast<uint32_t>(rng.UniformInt(0, n - 1 - i));
      std::swap(order[i], order[j]);
    }
    std::vector<uint32_t> groups(n, 0);
    for (uint32_t i = 0; i < k; ++i) groups[order[i]] = 1;
    SetPartition(groups);
    co_await simulator_->Delay(rng.Exponential(params_.partition_heal_ms));
    HealPartition();
  }
}

Task<void> FaultInjector::CorruptionCycle(uint32_t node, common::Rng rng) {
  while (true) {
    co_await simulator_->Delay(rng.Exponential(params_.mttc_ms));
    Corrupt(node, rng.NextUint64());
  }
}

}  // namespace memgoal::sim
