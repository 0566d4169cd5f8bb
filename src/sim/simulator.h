#ifndef MEMGOAL_SIM_SIMULATOR_H_
#define MEMGOAL_SIM_SIMULATOR_H_

#include <coroutine>
#include <cstdint>
#include <utility>

#include "common/check.h"
#include "sim/event_queue.h"
#include "sim/task.h"

namespace memgoal::sim {

/// Single-threaded discrete-event simulator over a calendar-queue event
/// core (see sim/event_queue.h).
///
/// Two styles of client coexist:
///  - callback events via Schedule()/At(), and
///  - coroutine processes (Task<void>) started with Spawn() that co_await
///    Delay(...) and Resource acquisitions.
///
/// Events scheduled for the same timestamp fire in scheduling order (FIFO):
/// every event carries a monotonically assigned sequence number and the
/// queue pops in strict (time, seq) order, which together with
/// single-threaded execution and explicit seeding makes every simulation
/// bit-for-bit reproducible.
///
/// Event records and their callables live in a slab arena (EventArena);
/// scheduling a callable that fits EventNode::kInlineBytes — including
/// every coroutine resume, which stores just the frame address — performs
/// no heap allocation.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Destroys any spawned process still suspended (e.g. infinite workload
  /// loops waiting on a Delay); their coroutine frames — and, transitively,
  /// the frames of tasks they are awaiting — are freed without resuming.
  /// Pending events are then disposed without running: their callables are
  /// destroyed and their arena nodes reclaimed.
  ~Simulator();

  /// Current simulated time.
  SimTime Now() const { return now_; }

  /// Schedules `fn` to run `delay` milliseconds from now (delay >= 0).
  /// Accepts any void() callable; it is moved/copied straight into the
  /// event node, bypassing std::function.
  template <typename Fn>
  void Schedule(SimTime delay, Fn&& fn) {
    MEMGOAL_CHECK(delay >= 0.0);
    ScheduleAt(now_ + delay, std::forward<Fn>(fn));
  }

  /// Schedules `fn` at absolute time `when` (>= Now()).
  template <typename Fn>
  void At(SimTime when, Fn&& fn) {
    MEMGOAL_CHECK(when >= now_);
    ScheduleAt(when, std::forward<Fn>(fn));
  }

  /// Starts a fire-and-forget coroutine process. The process runs
  /// immediately until its first suspension point; its frame frees itself on
  /// completion. A value-returning task may be spawned; its result is
  /// discarded.
  template <typename T>
  void Spawn(Task<T> task) {
    auto handle = task.Release();
    MEMGOAL_CHECK(handle);
    auto& promise = handle.promise();
    promise.detached = true;
    promise.on_detached_done = &Simulator::OnRootDone;
    promise.detached_done_context = this;
    // Link into the intrusive live-root list: O(1), no allocation, and
    // teardown can still find every root that has not completed.
    promise.frame_address = handle.address();
    promise.root_prev = nullptr;
    promise.root_next = live_roots_;
    if (live_roots_ != nullptr) live_roots_->root_prev = &promise;
    live_roots_ = &promise;
    handle.resume();
  }

  /// Awaitable that suspends the current process for `delay` milliseconds.
  /// A zero delay still goes through the event queue, i.e. it yields to
  /// other events already scheduled for the current time.
  auto Delay(SimTime delay) {
    struct Awaiter {
      Simulator* simulator;
      SimTime delay;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> handle) {
        simulator->ScheduleResume(delay, handle);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, delay};
  }

  /// Schedules `handle` to be resumed after `delay`. Building block for
  /// custom awaitables (resources, signals). Fast path: the event node
  /// stores the raw frame address and a static resume thunk — no closure.
  void ScheduleResume(SimTime delay, std::coroutine_handle<> handle);

  /// Runs until the event queue is empty. Returns the number of events
  /// processed.
  uint64_t Run();

  /// Runs until simulated time reaches `until` (events at exactly `until`
  /// are processed) or the queue drains. Time is advanced to `until` even if
  /// the queue drains earlier. Returns the number of events processed.
  uint64_t RunUntil(SimTime until);

  uint64_t events_processed() const { return events_processed_; }
  size_t pending_events() const { return queue_.size(); }

  /// Slab-allocation statistics, exposed for the arena lifetime tests.
  const EventArena& arena() const { return arena_; }

 private:
  template <typename Fn>
  void ScheduleAt(SimTime when, Fn&& fn) {
    EventNode* node = arena_.Allocate();
    node->time = when;
    node->seq = next_seq_++;
    node->Emplace(std::forward<Fn>(fn));
    queue_.Insert(node);
  }

  /// Pops and dispatches the earliest event without opening a profile
  /// scope; Run/RunUntil wrap it (sim.step is accounted per run loop, not
  /// per event, so profiling overhead stays off the dispatch path).
  bool StepOne();

  static void OnRootDone(void* context, internal::PromiseBase* promise);

  SimTime now_ = 0.0;
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
  EventArena arena_;
  CalendarQueue queue_;
  // Head of the intrusive doubly-linked list of detached root promises
  // still in flight (see Spawn).
  internal::PromiseBase* live_roots_ = nullptr;
};

}  // namespace memgoal::sim

#endif  // MEMGOAL_SIM_SIMULATOR_H_
