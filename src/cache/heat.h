#ifndef MEMGOAL_CACHE_HEAT_H_
#define MEMGOAL_CACHE_HEAT_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/flat_hash_map.h"
#include "sim/simulator.h"
#include "storage/types.h"

namespace memgoal::cache {

/// LRU-K heat estimator (O'Neil et al., SIGMOD'93), as used by the paper's
/// cost-based buffer manager to approximate page heat (§6: "In the
/// implementation the LRU-k algorithm is used to approximate the heat").
///
/// The heat of a page is its access frequency per millisecond, estimated
/// from the backward K-distance: with m = min(count, K) recorded accesses
/// and t_m the m-th most recent access time,
///     heat(p, now) = m / (now - t_m + epsilon).
/// Pages never accessed have heat 0. History survives cache eviction (the
/// defining property of LRU-K) so a re-fetched page keeps its frequency
/// estimate, but it must not survive forever: without pruning, every page
/// ever touched holds a K-slot record until process exit, so a scan-heavy
/// workload grows the map without bound. EvictColderThan prunes records
/// whose backward-K time has fallen behind a caller-chosen horizon — such a
/// page's heat is indistinguishable from a cold restart anyway — while a
/// retain predicate protects pages the caller still holds resident.
/// Updates are batched: RecordAccess is an O(1) append to a pending log,
/// and the log is applied — in record order, so the end state is identical
/// to eager application — the moment any reader needs the histories. The
/// cost-based policy reads heat only at victim selection, so steady-state
/// accesses pay one vector push instead of a hash probe each, and the
/// per-interval cache.heat_update profile scope covers batches rather than
/// single records.
class HeatTracker {
 public:
  explicit HeatTracker(int k, double epsilon_ms = 1.0);

  void RecordAccess(PageId page, sim::SimTime now) {
    pending_.push_back(PendingAccess{page, now});
  }

  double HeatOf(PageId page, sim::SimTime now) const;

  /// RecordAccess(page, now) immediately followed by HeatOf(page, now),
  /// fused into one history lookup. The per-access dissemination check
  /// (Node::MaybePropagateHeat) reads the heat of exactly the page just
  /// recorded, which through the separate calls costs a pending-log round
  /// trip plus two hash probes per access.
  double RecordAndHeat(PageId page, sim::SimTime now);

  /// The m-th most recent access time (m = min(count, K)), i.e. the LRU-K
  /// reference timestamp; 0 if never accessed. Exposed for the LRU-K
  /// replacement policy's victim ordering.
  sim::SimTime BackwardKTime(PageId page) const;

  /// Number of recorded accesses to `page` (saturates at 2^31).
  int AccessCount(PageId page) const;

  /// Drops the history of every page whose backward-K time is older than
  /// `horizon` and for which `retain` (if given) returns false. Returns the
  /// number of records evicted. Typical use: horizon = now - a few
  /// observation intervals, retain = "page is cache-resident".
  size_t EvictColderThan(sim::SimTime horizon,
                         const std::function<bool(PageId)>& retain = nullptr);

  int k() const { return k_; }
  size_t tracked_pages() const {
    Flush();
    return history_.size();
  }

 private:
  struct History {
    // Circular buffer of the last up-to-K access times, stored as k_
    // consecutive slots at slab_[offset]: one shared arena instead of a
    // heap vector per tracked page. times[next] is the slot the next
    // access will overwrite.
    uint32_t offset = 0;
    int32_t next = 0;
    int32_t count = 0;
  };
  struct PendingAccess {
    PageId page;
    sim::SimTime time;
  };

  /// Applies the pending log in record order. Readers call it first, so
  /// the stores are mutable and every const accessor sees eager-equivalent
  /// state. The empty check is inline: most reads in a steady-state run
  /// find the log already applied.
  void Flush() const {
    if (!pending_.empty()) FlushPending();
  }
  void FlushPending() const;

  /// Claims a zero-filled k_-slot run in slab_ (reusing a freed run when
  /// one exists) and returns its offset.
  uint32_t AllocateSlots() const;

  int k_;
  double epsilon_ms_;
  mutable std::vector<PendingAccess> pending_;
  mutable common::FlatHashMap<PageId, History> history_;
  // Timestamp arena: every History owns k_ contiguous slots. Freed runs
  // (EvictColderThan) are recycled through free_offsets_.
  mutable std::vector<sim::SimTime> slab_;
  mutable std::vector<uint32_t> free_offsets_;
};

}  // namespace memgoal::cache

#endif  // MEMGOAL_CACHE_HEAT_H_
