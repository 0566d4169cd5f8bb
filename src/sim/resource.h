#ifndef MEMGOAL_SIM_RESOURCE_H_
#define MEMGOAL_SIM_RESOURCE_H_

#include <coroutine>
#include <cstdint>
#include <string>

#include "common/ring_buffer.h"
#include "common/stats.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace memgoal::sim {

/// FCFS resource with a fixed number of service units.
///
/// Models queueing at CPUs, disks and the shared network medium. A process
/// acquires one unit, holds it for its service time, and releases it:
///
///   co_await disk.Acquire();
///   co_await simulator.Delay(service_time);
///   disk.Release();
///
/// or equivalently `co_await disk.Use(service_time)`. Waiters are resumed in
/// strict FIFO order through the event queue, preserving determinism.
///
/// The resource records utilization (time-weighted fraction of busy units)
/// and queueing statistics, which the experiment harness reports. Beyond the
/// means, fixed-width histograms expose tail percentiles of the queue-wait
/// and busy-hold times — a gray-failure episode (service times inflated by a
/// slowdown factor) is visible in the p99 long before it moves the mean.
///
/// A slowdown factor models *degraded* (slow-but-alive) hardware: Use()
/// stretches its service time by the factor. The factor is owned by the
/// fault injection layer; 1.0 means healthy.
class Resource {
 public:
  /// Histogram range for wait/busy tail percentiles (ms). Samples beyond
  /// the range land in the overflow bucket and quantiles saturate at the
  /// upper bound.
  static constexpr double kHistogramMaxMs = 1000.0;
  static constexpr int kHistogramBuckets = 2000;

  Resource(Simulator* simulator, int capacity, std::string name);
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  /// Awaitable acquiring one unit (completes immediately if one is free).
  auto Acquire() {
    struct Awaiter {
      Resource* resource;
      SimTime enqueue_time;
      bool await_ready() {
        if (resource->in_use_ < resource->capacity_) {
          resource->Seize(/*waited_ms=*/0.0);
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> handle) {
        enqueue_time = resource->simulator_->Now();
        resource->waiters_.push_back(Waiter{handle, enqueue_time});
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, 0.0};
  }

  /// Releases one unit, waking the oldest waiter (if any) at the current
  /// simulated time.
  void Release();

  /// Convenience process: acquire, hold for `service_time` stretched by the
  /// current slowdown factor, release. Returns the instant the unit was
  /// acquired, so a caller that noted when it queued can split its time
  /// into queue wait and service.
  Task<SimTime> Use(SimTime service_time);

  /// Service-time multiplier applied by Use(); 1.0 = healthy. Set by the
  /// fault injection layer while the owning node is degraded.
  void SetSlowdown(double factor);
  double slowdown() const { return slowdown_; }

  int capacity() const { return capacity_; }
  int in_use() const { return in_use_; }
  size_t queue_length() const { return waiters_.size(); }
  const std::string& name() const { return name_; }

  uint64_t total_acquisitions() const { return total_acquisitions_; }
  /// Mean time acquirers spent queued before being served.
  const common::RunningStats& wait_stats() const { return wait_stats_; }
  /// Time-weighted mean fraction of busy units since construction.
  double UtilizationAt(SimTime now) const {
    return busy_units_.MeanAt(now) / static_cast<double>(capacity_);
  }

  /// Approximate quantile of the queue-wait distribution (q in [0,1]).
  double WaitQuantile(double q) const { return wait_hist_.Quantile(q); }
  /// Approximate quantile of the per-acquisition busy-hold time. Holds are
  /// attributed FIFO (exact for capacity 1, which covers every resource in
  /// the simulated NOW).
  double BusyQuantile(double q) const { return busy_hist_.Quantile(q); }

  /// Direct histogram view, so an external metrics registry can export
  /// quantiles together with their saturation/overflow state.
  const common::Histogram& wait_histogram() const { return wait_hist_; }

 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    SimTime enqueue_time;
  };

  // Accounts for one unit transitioning to busy (either immediately or when
  // handed over from a releaser).
  void Seize(double waited_ms);

  Simulator* simulator_;
  int capacity_;
  std::string name_;
  int in_use_ = 0;
  double slowdown_ = 1.0;
  common::RingBuffer<Waiter> waiters_;

  uint64_t total_acquisitions_ = 0;
  common::RunningStats wait_stats_;
  common::TimeWeightedMean busy_units_;
  common::Histogram wait_hist_;
  common::Histogram busy_hist_;
  common::RingBuffer<SimTime> hold_starts_;  // FIFO acquisition timestamps
};

}  // namespace memgoal::sim

#endif  // MEMGOAL_SIM_RESOURCE_H_
