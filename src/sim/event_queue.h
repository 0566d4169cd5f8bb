#ifndef MEMGOAL_SIM_EVENT_QUEUE_H_
#define MEMGOAL_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"

namespace memgoal::sim {

/// Simulated time, in milliseconds. All model constants in the repository
/// (disk service times, network transfer times, observation intervals) are
/// expressed in this unit, matching the paper's reporting unit.
using SimTime = double;

/// One pending simulator event, allocated from an EventArena and linked
/// intrusively into the CalendarQueue that owns it.
///
/// The scheduled callable is constructed directly into `storage` when it
/// fits (every closure the repository schedules today does), so the common
/// Schedule/At/ScheduleResume paths perform no heap allocation at all;
/// oversized callables are boxed transparently. `invoke` both runs and
/// destroys the callable, so a node carries no virtual table and no
/// std::function indirection.
struct EventNode {
  /// Inline callable storage. Sized so captures of a handful of pointers
  /// plus arguments stay inline; together with the header fields this makes
  /// a node exactly two cache lines.
  static constexpr size_t kInlineBytes = 88;

  /// `run` true: invoke the stored callable, then destroy it.
  /// `run` false: destroy the callable without invoking it (simulator
  /// teardown with events still pending).
  using InvokeFn = void (*)(EventNode*, bool run);

  SimTime time = 0.0;
  uint64_t seq = 0;
  /// Calendar bucket ordinal floor(time / width), computed once per
  /// (re)insertion and then treated as the node's authoritative position so
  /// floating-point rounding can never re-file it mid-residence.
  uint64_t day = 0;
  /// Intrusive link: calendar bucket chain, or the arena free list.
  EventNode* next = nullptr;
  InvokeFn invoke = nullptr;
  alignas(std::max_align_t) unsigned char storage[kInlineBytes];

  /// Constructs `fn` into this node and installs the matching invoke thunk.
  template <typename Fn>
  void Emplace(Fn&& fn) {
    using Callable = std::decay_t<Fn>;
    if constexpr (sizeof(Callable) <= kInlineBytes &&
                  alignof(Callable) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(storage)) Callable(std::forward<Fn>(fn));
      invoke = [](EventNode* node, bool run) {
        Callable* callable =
            std::launder(reinterpret_cast<Callable*>(node->storage));
        if (run) (*callable)();
        callable->~Callable();
      };
    } else {
      Callable* boxed = new Callable(std::forward<Fn>(fn));
      ::new (static_cast<void*>(storage)) Callable*(boxed);
      invoke = [](EventNode* node, bool run) {
        Callable* callable =
            *std::launder(reinterpret_cast<Callable**>(node->storage));
        if (run) (*callable)();
        delete callable;
      };
    }
  }

  /// True when `a` fires before `b`: (time, seq) lexicographic order, the
  /// simulator's documented FIFO-at-same-timestamp contract. `seq` values
  /// are unique, so this is a strict total order: any correct priority
  /// queue over it pops in one bit-identical order.
  static bool Earlier(const EventNode* a, const EventNode* b) {
    if (a->time != b->time) return a->time < b->time;
    return a->seq < b->seq;
  }
};

/// Slab allocator for EventNodes with free-list recycling. Nodes are handed
/// out hot (most recently freed first), so steady-state simulations churn a
/// small resident set of slabs instead of hitting the general-purpose heap
/// once per scheduled event.
class EventArena {
 public:
  static constexpr size_t kSlabNodes = 512;

  EventArena() = default;
  EventArena(const EventArena&) = delete;
  EventArena& operator=(const EventArena&) = delete;

  /// Returns a node whose callable slot is dead (freshly carved or fully
  /// destroyed by its invoke thunk). Header fields are the caller's to set.
  EventNode* Allocate() {
    EventNode* node = free_;
    if (node != nullptr) {
      free_ = node->next;
    } else {
      if (bump_ == kSlabNodes) {
        slabs_.push_back(std::make_unique<Slab>());
        bump_ = 0;
      }
      node = &slabs_.back()->nodes[bump_++];
    }
    ++in_use_;
    high_water_ = std::max(high_water_, in_use_);
    return node;
  }

  /// Recycles `node`. The stored callable must already have been destroyed
  /// (by running it, or by invoke(node, false)).
  void Free(EventNode* node) {
    MEMGOAL_DCHECK(in_use_ > 0);
    --in_use_;
    node->invoke = nullptr;
    node->next = free_;
    free_ = node;
  }

  size_t slabs() const { return slabs_.size(); }
  size_t in_use() const { return in_use_; }
  size_t high_water() const { return high_water_; }

 private:
  struct Slab {
    EventNode nodes[kSlabNodes];
  };

  std::vector<std::unique_ptr<Slab>> slabs_;
  EventNode* free_ = nullptr;
  size_t bump_ = kSlabNodes;  // next unused node in slabs_.back()
  size_t in_use_ = 0;
  size_t high_water_ = 0;
};

/// Calendar queue (Brown, CACM'88): an array of day buckets, each a sorted
/// intrusive list, with a cursor walking the current day. Amortized O(1)
/// insert and pop under the stationarity the simulation's event population
/// actually exhibits, versus O(log n) for a binary heap. Ordered by
/// EventNode::Earlier; never owns node memory (the Simulator's arena does).
///
/// Layout invariants:
///  - node->day = floor(time / width_), computed once at (re)insertion;
///  - bucket b chains exactly the nodes with day % bucket_count == b,
///    sorted by (time, seq) — day is monotone in time, so one comparison
///    rule sorts both;
///  - no queued node has day < cursor_day_ (Insert rewinds the cursor).
/// Hence the earliest event overall is the head of the first bucket, in
/// day order from cursor_day_, whose head matches the scanned day; a full
/// fruitless year falls back to a direct scan of all bucket heads.
class CalendarQueue {
 public:
  CalendarQueue();

  /// Files `node` (time and seq already set). Rewrites node->day/next.
  void Insert(EventNode* node);
  /// Earliest node without removing it; nullptr when empty.
  EventNode* PeekMin();
  /// Removes and returns the earliest node; nullptr when empty.
  EventNode* PopMin();
  size_t size() const { return size_; }

  size_t bucket_count() const { return buckets_.size(); }
  double width() const { return width_; }

 private:
  static constexpr size_t kMinBuckets = 16;
  /// Day ordinal cap: times so far in the future that floor(time / width)
  /// overflows land together in the max day, still ordered by (time, seq)
  /// within their shared bucket.
  static constexpr uint64_t kMaxDay = uint64_t{1} << 62;
  /// Step-cost self-tuning: every kRetuneWindow inserts, if the steps paid
  /// since the last retune (sorted-insert walk steps plus the empty days
  /// PeekMin's cursor stepped past) exceeded kRetuneMeanSteps per insert,
  /// the calendar rebuilds at the same bucket count purely to re-derive the
  /// width from the *current* head density. Load factor alone cannot catch
  /// a stale width, in either direction: a burst of near-term events can
  /// pile dozens of chained nodes into a handful of "today" buckets while
  /// the table as a whole looks perfectly sized (inserts walk), and a width
  /// sampled from such a burst leaves the steady stream after it spread
  /// over many empty days (pops scan).
  static constexpr uint64_t kRetuneWindow = 8192;
  static constexpr uint64_t kRetuneMeanSteps = 4;

  uint64_t DayOf(SimTime time) const;
  /// Re-buckets every node into `bucket_count` buckets with a width
  /// re-derived from the current event population.
  void Rebuild(size_t bucket_count);

  std::vector<EventNode*> buckets_;
  uint64_t bucket_mask_;
  double width_ = 1.0;
  uint64_t cursor_day_ = 0;
  size_t size_ = 0;
  /// Last inserted node, used as a walk start when the next insert sorts
  /// after it in the same day: FCFS completion chains and same-timestamp
  /// fan-out bursts arrive in (time, seq) order and would otherwise re-walk
  /// the whole day chain per insert (quadratic in the burst length).
  /// Invalidated whenever the node leaves its chain (pop or rebuild).
  EventNode* hint_ = nullptr;
  /// Memoized PeekMin result. The simulator peeks before every pop (and
  /// PopMin peeks again), so without the memo each event pays two cursor
  /// scans. Insert keeps it exact — an earlier new node replaces it, a
  /// later one cannot displace a chain head — and PopMin clears it.
  /// Rebuild preserves it: relinking moves no node across the (time, seq)
  /// order, so the minimum is the same node at a new bucket head.
  EventNode* peeked_ = nullptr;
  uint64_t steps_since_retune_ = 0;
  uint64_t inserts_since_retune_ = 0;
  /// Doubles after a retune that failed to change the width (e.g. an
  /// all-equal-timestamp head), so an untunable population cannot thrash
  /// O(n log n) rebuilds; resets on any effective width change.
  uint64_t retune_window_ = kRetuneWindow;
};

}  // namespace memgoal::sim

#endif  // MEMGOAL_SIM_EVENT_QUEUE_H_
