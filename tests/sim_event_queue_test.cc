// Locks in the calendar-queue event core from sim/event_queue.h.
//
// Three layers of defense:
//  1. Queue-level conformance: CalendarQueue is driven through randomized
//     insert/pop schedules and must pop the same nodes in the same order as
//     a sorted reference model — including duplicate timestamps, zero
//     delays and far-future times that overflow the day ordinal.
//  2. Simulator-level properties: FIFO at equal timestamps, monotone Now(),
//     Run/RunUntil/Step interleaving, and a golden fingerprint of a
//     synthetic schedule's execution order (any reordering regression
//     changes the fingerprint).
//  3. Arena lifetime: destroying a Simulator mid-run with suspended
//     coroutines and pending events must destroy every callable and frame
//     exactly once (ASan/UBSan validate this in the sanitizer preset), and
//     steady-state churn must recycle slab nodes instead of growing.

#include "sim/event_queue.h"

// Mirrors the detection in sim/frame_pool.cc: under ASan the pool
// deliberately never recycles, so the recycling assertion is skipped.
#if defined(__SANITIZE_ADDRESS__)
#define MEMGOAL_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MEMGOAL_TEST_ASAN 1
#endif
#endif

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sim/frame_pool.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace memgoal::sim {
namespace {

// ---------------------------------------------------------------------------
// Layer 1: queue conformance against a reference model.

// Reference model: the queue contract in its most obvious form — a vector
// kept sorted by (time, seq). Deliberately naive; any disagreement is a
// calendar-queue bug.
class ReferenceModel {
 public:
  void Insert(EventNode* node) {
    auto it = std::lower_bound(nodes_.begin(), nodes_.end(), node,
                               EventNode::Earlier);
    nodes_.insert(it, node);
  }
  EventNode* PeekMin() const { return nodes_.empty() ? nullptr : nodes_[0]; }
  EventNode* PopMin() {
    if (nodes_.empty()) return nullptr;
    EventNode* node = nodes_.front();
    nodes_.erase(nodes_.begin());
    return node;
  }
  size_t size() const { return nodes_.size(); }

 private:
  std::vector<EventNode*> nodes_;
};

// Drives the calendar queue and the reference model through one schedule
// of operations, asserting identical pop order throughout.
//
// Nodes never carry callables here — the queue layer only orders headers;
// callable lifetime is the simulator's business (tested below).
class QueueConformance : public ::testing::Test {
 protected:
  EventNode* MakeNode(SimTime time) {
    auto node = std::make_unique<EventNode>();
    node->time = time;
    node->seq = next_seq_++;
    nodes_.push_back(std::move(node));
    return nodes_.back().get();
  }

  void InsertBoth(SimTime time) {
    EventNode* node = MakeNode(time);
    queue_.Insert(node);
    model_.Insert(node);
  }

  // Pops from both and asserts they agree; returns false when both empty.
  bool PopBothAndCompare() {
    EventNode* expected = model_.PopMin();
    EventNode* actual = queue_.PopMin();
    EXPECT_EQ(expected, actual)
        << "queue diverged: model " << (expected ? expected->time : -1.0)
        << "/" << (expected ? expected->seq : 0) << " vs queue "
        << (actual ? actual->time : -1.0) << "/" << (actual ? actual->seq : 0);
    return actual != nullptr;
  }

  std::vector<std::unique_ptr<EventNode>> nodes_;
  CalendarQueue queue_;
  ReferenceModel model_;
  uint64_t next_seq_ = 0;
};

TEST_F(QueueConformance, EmptyQueueReturnsNull) {
  EXPECT_EQ(queue_.PeekMin(), nullptr);
  EXPECT_EQ(queue_.PopMin(), nullptr);
  EXPECT_EQ(queue_.size(), 0u);
}

TEST_F(QueueConformance, DuplicateTimestampsPopInSeqOrder) {
  for (int i = 0; i < 100; ++i) InsertBoth(5.0);
  for (int i = 0; i < 50; ++i) InsertBoth(1.0);
  uint64_t last_seq = 0;
  SimTime last_time = -1.0;
  while (queue_.size() > 0) {
    EventNode* node = queue_.PeekMin();
    ASSERT_TRUE(PopBothAndCompare());
    if (node->time == last_time) {
      EXPECT_GT(node->seq, last_seq);
    }
    EXPECT_GE(node->time, last_time);
    last_time = node->time;
    last_seq = node->seq;
  }
}

TEST_F(QueueConformance, FarFutureTimesStayOrdered) {
  // Times whose day ordinal saturates kMaxDay must still order among
  // themselves and after every near-term event.
  InsertBoth(1e305);
  InsertBoth(0.0);
  InsertBoth(1e12);
  InsertBoth(3.5);
  InsertBoth(1e12);   // duplicate far-future timestamp: seq breaks the tie
  InsertBoth(1e300);
  while (PopBothAndCompare()) {
  }
  EXPECT_EQ(queue_.size(), 0u);
}

TEST_F(QueueConformance, PeekMatchesPop) {
  for (int i = 0; i < 64; ++i) InsertBoth(static_cast<SimTime>(i % 7));
  while (queue_.size() > 0) {
    EventNode* peeked = queue_.PeekMin();
    EXPECT_EQ(peeked, model_.PeekMin());
    EventNode* popped = queue_.PopMin();
    EXPECT_EQ(peeked, popped);
    model_.PopMin();
  }
}

TEST_F(QueueConformance, RandomizedInterleaveMatchesModel) {
  // Chaos-style fuzz: random mixture of inserts (clustered, uniform, zero,
  // and occasionally far-future times) and pops, with the time base
  // advancing like a simulation clock so the calendar's cursor must both
  // advance and rewind.
  common::Rng rng(0xEC5u);
  SimTime now = 0.0;
  for (int round = 0; round < 4000; ++round) {
    const double action = rng.NextDouble();
    if (action < 0.55 || queue_.size() == 0) {
      const double shape = rng.NextDouble();
      SimTime when;
      if (shape < 0.3) {
        when = now;  // zero delay
      } else if (shape < 0.8) {
        when = now + rng.NextDouble() * 10.0;
      } else if (shape < 0.95) {
        when = now + rng.NextDouble() * 5000.0;
      } else {
        when = now + 1e12 + rng.NextDouble() * 1e15;  // day overflow
      }
      InsertBoth(when);
    } else {
      EventNode* expected_peek = model_.PeekMin();
      ASSERT_EQ(queue_.PeekMin(), expected_peek);
      ASSERT_TRUE(PopBothAndCompare());
      now = std::max(now, expected_peek->time);
    }
    ASSERT_EQ(queue_.size(), model_.size());
  }
  while (PopBothAndCompare()) {
  }
}

TEST_F(QueueConformance, ReinsertionAfterPopRefiles) {
  // A popped node reinserted at a later time (the simulator never does
  // this, but the queue contract allows it) must be refiled correctly:
  // day/next are recomputed on every Insert.
  common::Rng rng(77u);
  for (int i = 0; i < 200; ++i) {
    InsertBoth(rng.NextDouble() * 100.0);
  }
  for (int i = 0; i < 500; ++i) {
    EventNode* node = model_.PopMin();
    ASSERT_EQ(queue_.PopMin(), node);
    node->time += rng.NextDouble() * 50.0;
    node->seq = next_seq_++;
    queue_.Insert(node);
    model_.Insert(node);
  }
  while (PopBothAndCompare()) {
  }
}

TEST_F(QueueConformance, PopScansRetuneAWidthSetByABurst) {
  // The shape of a 64-node interval boundary on a bare queue: about 4k
  // events spread over a second, then a burst of events a hair apart,
  // inserted out of order so that insert walks alone fire the retune,
  // which samples the burst at the head and sets a width far too fine for
  // the steady stream behind it (30x the burst's spacing). Pops then step
  // past empty days while inserts walk almost nothing; the steps pops pay
  // must bring the width back within two retune windows. Every pop is
  // checked against the reference model throughout.
  constexpr int kPopulation = 4200;  // > 4096: the table settles at 4096
  constexpr double kStream = 1000.0 / kPopulation;  // ms between events
  constexpr double kBurst = kStream / 30.0;
  constexpr int kBurstSize = 3900;  // population stays under 2 x 4096
  constexpr int kWindow = 8192;     // CalendarQueue::kRetuneWindow
  common::Rng rng(0xB0057u);
  for (int i = 0; i < kPopulation; ++i) {
    InsertBoth(rng.Uniform(0.0, 1000.0));
  }
  // The stream: every pop is replaced one second later, at the far end.
  SimTime stream_end = 1000.0;
  auto hold = [&] {
    ASSERT_TRUE(PopBothAndCompare());
    stream_end += kStream;
    InsertBoth(stream_end);
  };
  // From a fresh queue the retune windows count from the last growth
  // rebuild (at 4097 events): 500 holds in, the burst and the holds that
  // pop through it close the window while the burst is still the head.
  for (int i = 0; i < 500; ++i) hold();
  const double stream_width = queue_.width();
  const SimTime burst_start = model_.PeekMin()->time;
  std::vector<int> order(kBurstSize);
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng.engine());
  for (const int j : order) InsertBoth(burst_start + j * kBurst);

  bool narrowed = false;
  for (int i = 0; i < kWindow && !narrowed; ++i) {
    hold();
    narrowed = queue_.width() < kStream / 3.0;
  }
  ASSERT_TRUE(narrowed) << "the burst never set the width; width "
                        << queue_.width() << " ms, was " << stream_width;
  EXPECT_LT(queue_.width(), 4.0 * kBurst);

  for (int i = 0; i < 2 * kWindow; ++i) hold();
  EXPECT_GE(queue_.width(), kStream) << "the burst's width outlived it";
  EXPECT_LE(queue_.width(), 6.0 * kStream);
  while (PopBothAndCompare()) {
  }
}

// ---------------------------------------------------------------------------
// Layer 2: simulator-level properties.

TEST(SimulatorOrder, ZeroDelayYieldsToAlreadyScheduledEvents) {
  Simulator simulator;
  std::vector<int> order;
  simulator.Schedule(0.0, [&] {
    order.push_back(1);
    // Scheduled mid-dispatch at the same timestamp: must run after every
    // event already queued for t=0, not immediately.
    simulator.Schedule(0.0, [&] { order.push_back(3); });
  });
  simulator.Schedule(0.0, [&] { order.push_back(2); });
  simulator.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(simulator.Now(), 0.0);
}

TEST(SimulatorOrder, FifoAtSameTimestampAcrossMixedSources) {
  // Callback events and coroutine resumes scheduled for one timestamp fire
  // in scheduling order regardless of how they were scheduled.
  Simulator simulator;
  std::vector<int> order;
  auto process = [](Simulator* sim, std::vector<int>* out,
                    int tag) -> Task<void> {
    co_await sim->Delay(10.0);
    out->push_back(tag);
  };
  simulator.Spawn(process(&simulator, &order, 0));
  simulator.At(10.0, [&] { order.push_back(1); });
  simulator.Spawn(process(&simulator, &order, 2));
  simulator.At(10.0, [&] { order.push_back(3); });
  simulator.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SimulatorOrder, NowIsMonotoneThroughRandomizedSchedule) {
  Simulator simulator;
  common::Rng rng(0xBADCAFEu);
  SimTime last_seen = 0.0;
  uint64_t fired = 0;
  // Self-rescheduling events with random delays: each firing checks the
  // clock never moved backwards.
  auto tick = [&](auto&& self, int depth) -> void {
    EXPECT_GE(simulator.Now(), last_seen);
    last_seen = simulator.Now();
    ++fired;
    if (depth > 0) {
      const double delay =
          rng.NextDouble() < 0.25 ? 0.0 : rng.NextDouble() * 20.0;
      // Copy `self` into the event: the recursion parameter dies with this
      // call, but the copied closure only holds references to long-lived
      // test locals.
      simulator.Schedule(delay, [self, depth] { self(self, depth - 1); });
    }
  };
  for (int i = 0; i < 32; ++i) {
    simulator.Schedule(rng.NextDouble() * 5.0,
                       [&tick] { tick(tick, 40); });
  }
  simulator.Run();
  EXPECT_EQ(fired, 32u * 41u);
  EXPECT_EQ(simulator.pending_events(), 0u);
}

TEST(SimulatorOrder, RunUntilRunInterleaveAgrees) {
  // The same schedule executed two ways — pure Run() and RunUntil slices —
  // must fire events in the same order at the same times.
  auto record = [&](int mode) {
    Simulator simulator;
    std::vector<std::pair<double, int>> log;
    common::Rng rng(99u);
    for (int i = 0; i < 200; ++i) {
      const double when = rng.NextDouble() * 100.0;
      simulator.At(when, [&log, &simulator, i] {
        log.emplace_back(simulator.Now(), i);
      });
    }
    if (mode == 0) {
      simulator.Run();
    } else {
      for (double t = 10.0; t <= 100.0; t += 10.0) simulator.RunUntil(t);
      simulator.Run();
    }
    EXPECT_EQ(simulator.pending_events(), 0u);
    return log;
  };
  const auto pure = record(0);
  EXPECT_EQ(record(1), pure);
  ASSERT_EQ(pure.size(), 200u);
}

// FNV-1a over each fired event's (time bits, tag): a compact fingerprint of
// execution order AND timing.
uint64_t Fnv1a(uint64_t hash, uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xFF;
    hash *= 0x100000001B3ull;
  }
  return hash;
}

uint64_t SyntheticScheduleFingerprint() {
  Simulator simulator;
  common::Rng rng(0x600DF00Du);
  uint64_t fingerprint = 0xCBF29CE484222325ull;
  auto note = [&](int tag) {
    fingerprint = Fnv1a(fingerprint, std::bit_cast<uint64_t>(simulator.Now()));
    fingerprint = Fnv1a(fingerprint, static_cast<uint64_t>(tag));
  };
  // A deliberately nasty mix: duplicate timestamps, zero delays, far-future
  // outliers, coroutine delays, and chained rescheduling.
  auto process = [](Simulator* sim, common::Rng* prng, auto* notefn,
                    int tag) -> Task<void> {
    for (int hop = 0; hop < 4; ++hop) {
      co_await sim->Delay(prng->NextDouble() < 0.3 ? 0.0
                                                   : prng->NextDouble() * 8.0);
      (*notefn)(tag * 10 + hop);
    }
  };
  for (int i = 0; i < 25; ++i) {
    const double shape = rng.NextDouble();
    if (shape < 0.2) {
      simulator.Spawn(process(&simulator, &rng, &note, 1000 + i));
    } else if (shape < 0.4) {
      simulator.At(5.0, [&note, i] { note(i); });  // duplicate timestamp
    } else if (shape < 0.5) {
      simulator.At(1e12 + i, [&note, i] { note(i); });  // far future
    } else {
      const double when = rng.NextDouble() * 40.0;
      simulator.At(when, [&simulator, &note, i] {
        note(i);
        simulator.Schedule(0.0, [&note, i] { note(100 + i); });
      });
    }
  }
  simulator.Run();
  return fingerprint;
}

TEST(EventOrderGolden, SyntheticScheduleFingerprintIsPinned) {
  // Golden fingerprint of the synthetic schedule above, pinned when the
  // calendar queue and a binary heap still agreed on it. If an intentional
  // ordering change lands (there is exactly one correct order under the
  // (time, seq) contract, so think twice), re-pin with the value printed
  // on failure.
  constexpr uint64_t kGolden = 0x021AB8773EB1AAA7ull;
  const uint64_t fingerprint = SyntheticScheduleFingerprint();
  EXPECT_EQ(fingerprint, kGolden)
      << "event order changed; new fingerprint 0x" << std::hex << fingerprint;
}

// ---------------------------------------------------------------------------
// Layer 3: arena and frame lifetime. Run these under the asan-ubsan preset:
// the assertions below catch accounting bugs, the sanitizer catches
// double-destroy / leak / use-after-free in the same scenarios.

TEST(EventArenaTest, RecyclesNodesWithinOneSlab) {
  EventArena arena;
  // Churn far more nodes than a slab holds; with free-list recycling the
  // arena must never grow past one slab.
  for (int round = 0; round < 10000; ++round) {
    EventNode* node = arena.Allocate();
    EXPECT_EQ(arena.in_use(), 1u);
    arena.Free(node);
  }
  EXPECT_EQ(arena.slabs(), 1u);
  EXPECT_EQ(arena.in_use(), 0u);
  EXPECT_EQ(arena.high_water(), 1u);
}

TEST(EventArenaTest, FreeListIsLifo) {
  EventArena arena;
  EventNode* a = arena.Allocate();
  EventNode* b = arena.Allocate();
  arena.Free(a);
  arena.Free(b);
  // Hot reuse: the most recently freed node comes back first.
  EXPECT_EQ(arena.Allocate(), b);
  EXPECT_EQ(arena.Allocate(), a);
  arena.Free(a);
  arena.Free(b);
}

TEST(ArenaLifetimeTest, SteadyStateSimulationStaysInOneSlab) {
  Simulator simulator;
  uint64_t fired = 0;
  // A self-rescheduling ladder keeps ~8 events pending forever; the arena
  // must recycle instead of growing.
  for (int i = 0; i < 8; ++i) {
    auto tick = [&simulator, &fired](auto&& self) -> void {
      if (++fired < 50000) simulator.Schedule(1.0, [self] { self(self); });
    };
    simulator.Schedule(1.0, [tick] { tick(tick); });
  }
  simulator.Run();
  EXPECT_EQ(simulator.arena().slabs(), 1u);
  EXPECT_EQ(simulator.arena().in_use(), 0u);
  EXPECT_LE(simulator.arena().high_water(), 16u);
}

TEST(ArenaLifetimeTest, DestroyMidRunWithPendingEventsAndSuspendedFrames) {
  // The hard teardown path: RunUntil leaves coroutines suspended in
  // Delay(), callback events still queued (with non-trivially-destructible
  // captures), and chained awaits in flight. ~Simulator must destroy every
  // pending callable without running it and free every suspended frame.
  // ASan verifies no leak and no double-free; the shared_ptr use counts
  // verify each capture was destroyed exactly once.
  auto payload = std::make_shared<int>(7);
  {
    Simulator simulator;
    auto inner = [](Simulator* sim) -> Task<void> {
      co_await sim->Delay(1000.0);
    };
    auto outer = [](Simulator* sim, auto inner_fn,
                    std::shared_ptr<int> keep) -> Task<void> {
      co_await sim->Delay(1.0);
      // Suspended awaiting a child task at teardown: both frames must go.
      co_await inner_fn(sim);
      *keep = 0;  // never reached
    };
    for (int i = 0; i < 40; ++i) {
      simulator.Spawn(outer(&simulator, inner, payload));
      simulator.At(500.0, [keep = payload] { *keep = 1; });
    }
    simulator.RunUntil(10.0);  // outer processes now suspended inside inner
    EXPECT_GT(simulator.pending_events(), 0u);
    EXPECT_EQ(simulator.arena().in_use(), simulator.pending_events());
  }
  // Every queued callback held one reference; all released, none ran.
  EXPECT_EQ(payload.use_count(), 1);
  EXPECT_EQ(*payload, 7);
}

TEST(ArenaLifetimeTest, DestroyWithNeverResumedSpawn) {
  // A process that suspends on its very first co_await and is never
  // resumed: teardown frees the frame without resuming it.
  for (int round = 0; round < 3; ++round) {
    Simulator simulator;
    auto process = [](Simulator* sim) -> Task<void> {
      co_await sim->Delay(1e9);
    };
    simulator.Spawn(process(&simulator));
    // No Run at all in round 0; partial runs otherwise.
    if (round > 0) simulator.RunUntil(static_cast<double>(round));
  }
}

TEST(ArenaLifetimeTest, SpawnImmediateCompletionRecyclesFrames) {
  // A spawn that completes without suspending frees its frame on the spot;
  // the FramePool must serve subsequent spawns from its free list instead
  // of new allocations. (Under the ASan preset the pool deliberately never
  // recycles, so only the delta check below would be vacuous — reused
  // stays 0 there and fresh keeps counting, which is also correct.)
  auto immediate = [](int* count) -> Task<void> {
    ++*count;
    co_return;
  };
  Simulator simulator;
  int completions = 0;
  simulator.Spawn(immediate(&completions));  // warm the pool's bucket
  const FramePool::Stats before = FramePool::stats();
  for (int i = 0; i < 1000; ++i) simulator.Spawn(immediate(&completions));
  const FramePool::Stats after = FramePool::stats();
  EXPECT_EQ(completions, 1001);
  const uint64_t served = (after.reused - before.reused) +
                          (after.fresh - before.fresh) +
                          (after.oversized - before.oversized);
  EXPECT_GE(served, 1000u);
#ifndef MEMGOAL_TEST_ASAN
  // Recycling path: at most a handful of fresh blocks (allocate_shared
  // tails etc.); the bulk must come from the free list.
  EXPECT_GE(after.reused - before.reused, 990u);
#endif
}

}  // namespace
}  // namespace memgoal::sim
