#include "sim/simulator.h"

#include <cstring>

#include "common/check.h"
#include "obs/profiler.h"

namespace memgoal::sim {

Simulator::~Simulator() {
  // Destroying a root frame transitively destroys the frames of any tasks
  // it is currently awaiting (they live in the root's co_await temporaries).
  // Stale coroutine handles left in queued events or resource wait lists
  // are never resumed after this point.
  while (live_roots_ != nullptr) {
    internal::PromiseBase* promise = live_roots_;
    live_roots_ = promise->root_next;
    std::coroutine_handle<>::from_address(promise->frame_address).destroy();
  }
  // Dispose still-pending events: destroy each stored callable without
  // running it, then recycle the node so the arena's teardown sees every
  // slab fully dead.
  EventNode* node;
  while ((node = queue_.PopMin()) != nullptr) {
    node->invoke(node, /*run=*/false);
    arena_.Free(node);
  }
}

void Simulator::OnRootDone(void* context, internal::PromiseBase* promise) {
  auto* simulator = static_cast<Simulator*>(context);
  if (promise->root_prev != nullptr) {
    promise->root_prev->root_next = promise->root_next;
  } else {
    simulator->live_roots_ = promise->root_next;
  }
  if (promise->root_next != nullptr) {
    promise->root_next->root_prev = promise->root_prev;
  }
}

namespace {

// ScheduleResume events store just the coroutine frame address: no closure
// object, nothing to destroy, one indirect call to resume.
void ResumeThunk(EventNode* node, bool run) {
  if (!run) return;
  void* address;
  std::memcpy(&address, node->storage, sizeof(address));
  std::coroutine_handle<>::from_address(address).resume();
}

}  // namespace

void Simulator::ScheduleResume(SimTime delay,
                               std::coroutine_handle<> handle) {
  MEMGOAL_CHECK(delay >= 0.0);
  EventNode* node = arena_.Allocate();
  node->time = now_ + delay;
  node->seq = next_seq_++;
  void* address = handle.address();
  std::memcpy(node->storage, &address, sizeof(address));
  node->invoke = &ResumeThunk;
  queue_.Insert(node);
}

bool Simulator::StepOne() {
  EventNode* node = queue_.PopMin();
  if (node == nullptr) return false;
  MEMGOAL_DCHECK(node->time >= now_);
  now_ = node->time;
  ++events_processed_;
  node->invoke(node, /*run=*/true);
  arena_.Free(node);
  return true;
}

uint64_t Simulator::Run() {
  // Event dispatch is the simulation's outermost hot path: everything a
  // run does (coroutine resumptions included) happens inside some event,
  // so deeper phases nest under this scope in the folded stacks. The scope
  // wraps whole run loops rather than individual events — sim.step totals
  // still cover all dispatch wall time, at a handful of clock reads per
  // run instead of two per event.
  obs::ProfileScope profile(obs::Phase::kSimStep);
  uint64_t processed = 0;
  while (StepOne()) ++processed;
  return processed;
}

uint64_t Simulator::RunUntil(SimTime until) {
  MEMGOAL_CHECK(until >= now_);
  obs::ProfileScope profile(obs::Phase::kSimStep);
  uint64_t processed = 0;
  const EventNode* head;
  while ((head = queue_.PeekMin()) != nullptr && head->time <= until) {
    StepOne();
    ++processed;
  }
  now_ = until;
  return processed;
}

}  // namespace memgoal::sim
