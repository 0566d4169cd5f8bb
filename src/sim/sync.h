#ifndef MEMGOAL_SIM_SYNC_H_
#define MEMGOAL_SIM_SYNC_H_

#include <coroutine>
#include <cstddef>

#include "common/inline_vector.h"
#include "sim/frame_pool.h"
#include "sim/simulator.h"

namespace memgoal::sim {

/// One-shot broadcast event: processes suspend on Wait() until some other
/// process calls Set(), which wakes all of them (through the event queue,
/// preserving FIFO determinism). Waiting on an already-set event completes
/// immediately. Events are not resettable.
///
/// Waiters live inline (the fetch path's hedged events have at most one)
/// and heap-allocated Events draw from the frame pool, since the fetch path
/// creates one short-lived Event per remote-fetch phase.
class Event {
 public:
  explicit Event(Simulator* simulator) : simulator_(simulator) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  static void* operator new(std::size_t size) {
    return FramePool::Allocate(size);
  }
  static void operator delete(void* ptr) noexcept { FramePool::Free(ptr); }
  static void operator delete(void* ptr, std::size_t) noexcept {
    FramePool::Free(ptr);
  }

  bool is_set() const { return set_; }

  /// Sets the event and schedules every waiter for resumption. Idempotent.
  void Set() {
    if (set_) return;
    set_ = true;
    for (std::coroutine_handle<> handle : waiters_) {
      simulator_->ScheduleResume(0.0, handle);
    }
    waiters_.clear();
  }

  /// Awaitable: suspends until Set() (no-op if already set).
  auto Wait() {
    struct Awaiter {
      Event* event;
      bool await_ready() const noexcept { return event->set_; }
      void await_suspend(std::coroutine_handle<> handle) {
        event->waiters_.push_back(handle);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  size_t waiter_count() const { return waiters_.size(); }

 private:
  Simulator* simulator_;
  bool set_ = false;
  common::InlineVector<std::coroutine_handle<>, 2> waiters_;
};

}  // namespace memgoal::sim

#endif  // MEMGOAL_SIM_SYNC_H_
