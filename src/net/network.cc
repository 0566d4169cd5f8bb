#include "net/network.h"

#include <algorithm>
#include <cstdio>

#include "common/check.h"
#include "obs/profiler.h"

namespace memgoal::net {

const char* TrafficClassName(TrafficClass traffic_class) {
  switch (traffic_class) {
    case TrafficClass::kControl:
      return "control";
    case TrafficClass::kPage:
      return "page";
    case TrafficClass::kPartitionProtocol:
      return "partition-protocol";
    case TrafficClass::kHeatHint:
      return "heat-hint";
  }
  return "?";
}

namespace {

bool IsBestEffort(TrafficClass traffic_class) {
  return traffic_class == TrafficClass::kPartitionProtocol ||
         traffic_class == TrafficClass::kHeatHint;
}

}  // namespace

Network::Network(sim::Simulator* simulator, const Params& params)
    : simulator_(simulator), params_(params),
      medium_(simulator, /*capacity=*/1, "network"),
      loss_rng_(params.loss_seed) {
  MEMGOAL_CHECK(params.bandwidth_mbit_per_s > 0.0);
  MEMGOAL_CHECK(params.latency_ms >= 0.0);
  MEMGOAL_CHECK(params.loss_probability >= 0.0 &&
                params.loss_probability < 1.0);
  MEMGOAL_CHECK(params.burst_good_to_bad >= 0.0 &&
                params.burst_good_to_bad <= 1.0);
  MEMGOAL_CHECK(params.burst_bad_to_good >= 0.0 &&
                params.burst_bad_to_good <= 1.0);
  MEMGOAL_CHECK(params.burst_loss_good >= 0.0 &&
                params.burst_loss_good <= 1.0);
  MEMGOAL_CHECK(params.burst_loss_bad >= 0.0 &&
                params.burst_loss_bad <= 1.0);
}

bool Network::DrawLoss() {
  if (params_.loss_model == LossModel::kBurst) {
    // State transition first, then the per-state drop draw, so a freshly
    // entered bad state already afflicts the triggering message.
    if (burst_bad_) {
      if (loss_rng_.NextDouble() < params_.burst_bad_to_good) {
        burst_bad_ = false;
      }
    } else if (loss_rng_.NextDouble() < params_.burst_good_to_bad) {
      burst_bad_ = true;
    }
    const double p =
        burst_bad_ ? params_.burst_loss_bad : params_.burst_loss_good;
    return p > 0.0 && loss_rng_.NextDouble() < p;
  }
  return params_.loss_probability > 0.0 &&
         loss_rng_.NextDouble() < params_.loss_probability;
}

void Network::SetNodeSlowdown(NodeId node, double factor) {
  MEMGOAL_CHECK(factor > 0.0);
  if (node >= node_slowdown_.size()) {
    node_slowdown_.resize(node + 1, 1.0);
  }
  node_slowdown_[node] = factor;
}

double Network::NodeSlowdown(NodeId node) const {
  return node < node_slowdown_.size() ? node_slowdown_[node] : 1.0;
}

sim::SimTime Network::TransmissionTime(uint32_t bytes) const {
  const double bits = static_cast<double>(bytes) * 8.0;
  return bits / (params_.bandwidth_mbit_per_s * 1e6) * 1e3;
}

sim::Task<bool> Network::Transfer(NodeId from, NodeId to, uint32_t bytes,
                                  TrafficClass traffic_class,
                                  bool via_storage_bus,
                                  obs::RequestProbe* probe) {
  if (from == to) co_return true;
  sim::SimTime start;
  {
    // Scoped so the profile frame closes before the first co_await below:
    // a ProfileScope must never span a suspension point, or the suspended
    // wall time would be billed to this phase.
    obs::ProfileScope profile(obs::Phase::kNetSend);
    bytes_sent_[static_cast<int>(traffic_class)] += bytes;
    ++messages_sent_[static_cast<int>(traffic_class)];
    start = simulator_->Now();
  }
  co_await medium_.Acquire();
  const sim::SimTime on_wire = simulator_->Now();
  co_await simulator_->Delay(TransmissionTime(bytes));
  medium_.Release();
  co_await simulator_->Delay(params_.latency_ms *
                             std::max(NodeSlowdown(from), NodeSlowdown(to)));
  if (probe != nullptr) {
    probe->Span(obs::BudgetPhase::kNetWait, start, on_wire - start);
    probe->Span(obs::BudgetPhase::kNetTransfer, on_wire,
                simulator_->Now() - on_wire);
  }
  bool delivered = true;
  {
    // No co_await between here and co_return, so the scope is safe; it
    // covers the delivery-side bookkeeping (loss draw + trace emission).
    obs::ProfileScope profile(obs::Phase::kNetReceive);
    // A cross-partition message is lost regardless of category; the loss
    // process is not advanced for it, so the draw sequence of surviving
    // best-effort traffic is unperturbed by partitions.
    if (partition_active_ && !via_storage_bus && reachable_ &&
        !reachable_(from, to)) {
      ++messages_dropped_[static_cast<int>(traffic_class)];
      ++messages_partition_dropped_[static_cast<int>(traffic_class)];
      delivered = false;
    } else if (IsBestEffort(traffic_class) && DrawLoss()) {
      ++messages_dropped_[static_cast<int>(traffic_class)];
      delivered = false;
    }
    if (tracer_ && tracer_->enabled()) {
      char args[128];
      std::snprintf(args, sizeof(args),
                    "{\"to\":%u,\"bytes\":%u,\"class\":\"%s\",\"delivered\":%s}",
                    static_cast<unsigned>(to), bytes,
                    TrafficClassName(traffic_class),
                    delivered ? "true" : "false");
      tracer_->Complete("net_transfer", "net", static_cast<uint32_t>(from),
                        tracer_->NextTrack(), start, simulator_->Now(), args);
    }
  }
  co_return delivered;
}

uint64_t Network::total_bytes_sent() const {
  uint64_t total = 0;
  for (uint64_t b : bytes_sent_) total += b;
  return total;
}

uint64_t Network::total_messages_sent() const {
  uint64_t total = 0;
  for (uint64_t m : messages_sent_) total += m;
  return total;
}

uint64_t Network::total_messages_partition_dropped() const {
  uint64_t total = 0;
  for (uint64_t m : messages_partition_dropped_) total += m;
  return total;
}

}  // namespace memgoal::net
