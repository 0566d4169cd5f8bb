#include "sim/resource.h"

#include <utility>

#include "common/check.h"

namespace memgoal::sim {

Resource::Resource(Simulator* simulator, int capacity, std::string name)
    : simulator_(simulator), capacity_(capacity), name_(std::move(name)),
      wait_hist_(0.0, kHistogramMaxMs, kHistogramBuckets),
      busy_hist_(0.0, kHistogramMaxMs, kHistogramBuckets) {
  MEMGOAL_CHECK(capacity_ > 0);
  busy_units_.Start(simulator_->Now(), 0.0);
}

void Resource::SetSlowdown(double factor) {
  MEMGOAL_CHECK(factor > 0.0);
  slowdown_ = factor;
}

void Resource::Seize(double waited_ms) {
  ++in_use_;
  MEMGOAL_CHECK(in_use_ <= capacity_);
  ++total_acquisitions_;
  wait_stats_.Add(waited_ms);
  wait_hist_.Add(waited_ms);
  hold_starts_.push_back(simulator_->Now());
  busy_units_.Update(simulator_->Now(), static_cast<double>(in_use_));
}

void Resource::Release() {
  MEMGOAL_CHECK(in_use_ > 0);
  // The oldest in-flight hold ends now (FIFO attribution; exact for
  // capacity 1).
  MEMGOAL_CHECK(!hold_starts_.empty());
  busy_hist_.Add(simulator_->Now() - hold_starts_.front());
  hold_starts_.pop_front();
  if (!waiters_.empty()) {
    // Hand the unit directly to the oldest waiter: in_use_ is unchanged.
    Waiter waiter = waiters_.front();
    waiters_.pop_front();
    ++total_acquisitions_;
    const double waited = simulator_->Now() - waiter.enqueue_time;
    wait_stats_.Add(waited);
    wait_hist_.Add(waited);
    hold_starts_.push_back(simulator_->Now());
    simulator_->ScheduleResume(0.0, waiter.handle);
  } else {
    --in_use_;
    busy_units_.Update(simulator_->Now(), static_cast<double>(in_use_));
  }
}

Task<SimTime> Resource::Use(SimTime service_time) {
  co_await Acquire();
  const SimTime acquired = simulator_->Now();
  co_await simulator_->Delay(service_time * slowdown_);
  Release();
  co_return acquired;
}

}  // namespace memgoal::sim
