#ifndef MEMGOAL_NET_NETWORK_H_
#define MEMGOAL_NET_NETWORK_H_

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "obs/latency_budget.h"
#include "obs/trace.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "storage/types.h"

namespace memgoal::net {

/// Categories of network traffic, accounted separately so the overhead
/// experiment (§7.5) can report the partitioning-protocol share of total
/// traffic.
enum class TrafficClass {
  /// Page-fetch requests, directory queries, forwards.
  kControl = 0,
  /// Page payload transfers (remote cache or remote disk reads).
  kPage = 1,
  /// Goal-partitioning protocol: agent measurement reports, coordinator
  /// allocation commands, clamp feedback.
  kPartitionProtocol = 2,
  /// Threshold-triggered heat/copy hints of the cost-based replacement
  /// policy.
  kHeatHint = 3,
};

inline constexpr int kNumTrafficClasses = 4;

const char* TrafficClassName(TrafficClass traffic_class);

/// How best-effort message loss is generated.
enum class LossModel {
  /// Each best-effort message is dropped independently with
  /// Params::loss_probability.
  kIid,
  /// Two-state Gilbert–Elliott chain: the channel alternates between a
  /// good and a bad state (transitioning per best-effort message), with a
  /// per-state drop probability. Losses then arrive in bursts, which is
  /// what congested or fading links actually produce.
  kBurst,
};

/// Shared-medium local network (the paper's 100 Mbit/s interconnect, §7.1).
///
/// Messages hold the single shared medium for their transmission time
/// (bytes / bandwidth) FCFS, then incur a fixed propagation/processing
/// latency off the medium. Per-category byte and message counters feed the
/// overhead experiment.
class Network {
 public:
  struct Params {
    double bandwidth_mbit_per_s = 100.0;
    /// Fixed per-message latency (propagation + protocol stack), in ms.
    double latency_ms = 0.05;
    /// Probability that a *best-effort* message (partition-protocol report
    /// or heat hint) is lost after transmission. Page fetches and their
    /// control messages are modeled reliable (the data path retransmits
    /// below our level of abstraction); the partitioning feedback loop and
    /// the hint dissemination are explicitly designed to tolerate loss, and
    /// this knob is the failure-injection switch that proves it.
    double loss_probability = 0.0;
    /// Seed of the loss process.
    uint64_t loss_seed = 0x1055;
    /// Loss process shape. kIid uses loss_probability; kBurst uses the
    /// Gilbert–Elliott parameters below (loss_probability is then ignored).
    LossModel loss_model = LossModel::kIid;
    /// P(good -> bad) per best-effort message.
    double burst_good_to_bad = 0.0;
    /// P(bad -> good) per best-effort message.
    double burst_bad_to_good = 0.5;
    /// Drop probability while the channel is in the good / bad state.
    double burst_loss_good = 0.0;
    double burst_loss_bad = 1.0;
  };

  Network(sim::Simulator* simulator, const Params& params);

  /// Transmits `bytes` from `from` to `to`. Same-node transfers are free
  /// and always delivered. Returns false if the message was lost — for
  /// best-effort categories under a nonzero loss_probability, or for *any*
  /// category when the endpoints are in different sides of an active
  /// network partition. Reachability is evaluated at delivery time (after
  /// transmission + latency), so a message in flight when the cut lands is
  /// lost: that is exactly the in-flight-stale-grant case the epoch fence
  /// exists for. A lost message still occupied the medium for its
  /// transmission time. `via_storage_bus` models the dual-ported SCSI path
  /// of §2 — disk reads bypass the interconnect and are immune to
  /// partitions (but not to loss of their best-effort category, of which
  /// there are none today). A non-null `probe` receives the medium
  /// queueing and the on-the-wire time (transmission + endpoint latency) of
  /// a cross-node transfer.
  sim::Task<bool> Transfer(NodeId from, NodeId to, uint32_t bytes,
                           TrafficClass traffic_class,
                           bool via_storage_bus = false,
                           obs::RequestProbe* probe = nullptr);

  /// Transmission time the medium is held for a message of `bytes`.
  sim::SimTime TransmissionTime(uint32_t bytes) const;

  double latency_ms() const { return params_.latency_ms; }

  /// Per-node latency multiplier modeling a degraded (slow-but-alive) NIC
  /// or stack: a transfer's fixed latency is stretched by the worse of its
  /// endpoints' factors. The shared-medium transmission time is *not*
  /// scaled — a slow endpoint delays its own messages, it does not shrink
  /// the wire. Owned by the fault injection layer; 1.0 = healthy.
  void SetNodeSlowdown(NodeId node, double factor);
  double NodeSlowdown(NodeId node) const;

  uint64_t bytes_sent(TrafficClass traffic_class) const {
    return bytes_sent_[static_cast<int>(traffic_class)];
  }
  uint64_t messages_sent(TrafficClass traffic_class) const {
    return messages_sent_[static_cast<int>(traffic_class)];
  }
  uint64_t total_bytes_sent() const;
  uint64_t total_messages_sent() const;
  uint64_t messages_dropped(TrafficClass traffic_class) const {
    return messages_dropped_[static_cast<int>(traffic_class)];
  }
  /// Subset of messages_dropped lost to an active partition (as opposed to
  /// the best-effort loss process).
  uint64_t messages_partition_dropped(TrafficClass traffic_class) const {
    return messages_partition_dropped_[static_cast<int>(traffic_class)];
  }
  uint64_t total_messages_partition_dropped() const;

  /// Installs the reachability oracle (owned by the fault-injection layer).
  /// Consulted only while partition_active is set, so the healthy fast path
  /// costs a single flag test.
  void SetReachability(std::function<bool(NodeId, NodeId)> reachable) {
    reachable_ = std::move(reachable);
  }
  void SetPartitionActive(bool active) { partition_active_ = active; }
  bool partition_active() const { return partition_active_; }

  const sim::Resource& medium() const { return medium_; }

  /// Attaches a tracer; each cross-node transfer then emits a "net_transfer"
  /// complete span (cat "net") covering queueing + transmission + latency.
  /// Null (the default) disables emission entirely.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Current Gilbert–Elliott channel state (burst mode; tests).
  bool in_burst() const { return burst_bad_; }

 private:
  /// Advances the loss process for one best-effort message and reports
  /// whether it is dropped.
  bool DrawLoss();

  sim::Simulator* simulator_;
  Params params_;
  obs::Tracer* tracer_ = nullptr;
  sim::Resource medium_;
  common::Rng loss_rng_;
  bool burst_bad_ = false;
  std::function<bool(NodeId, NodeId)> reachable_;
  bool partition_active_ = false;
  std::vector<double> node_slowdown_;  // lazily sized; 1.0 = healthy
  std::array<uint64_t, kNumTrafficClasses> bytes_sent_{};
  std::array<uint64_t, kNumTrafficClasses> messages_sent_{};
  std::array<uint64_t, kNumTrafficClasses> messages_dropped_{};
  std::array<uint64_t, kNumTrafficClasses> messages_partition_dropped_{};
};

}  // namespace memgoal::net

#endif  // MEMGOAL_NET_NETWORK_H_
