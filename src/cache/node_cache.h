#ifndef MEMGOAL_CACHE_NODE_CACHE_H_
#define MEMGOAL_CACHE_NODE_CACHE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "cache/buffer_pool.h"
#include "cache/replacement.h"
#include "storage/types.h"

namespace memgoal::cache {

/// The buffer memory of one node, split into a no-goal pool plus one
/// dedicated pool per goal class, implementing the multi-buffer access
/// algorithm of §6:
///
///  - a page is resident in at most one pool of the node;
///  - an access by class k with a dedicated pool promotes the page from the
///    no-goal pool into k's dedicated pool (no I/O), leaves it in place if
///    it already sits in *any* dedicated pool, and inserts fetched pages
///    into k's dedicated pool;
///  - pages evicted from a dedicated pool are dropped from the node
///    completely (not demoted to the no-goal pool);
///  - accesses by classes without a dedicated pool hit wherever the page
///    is, and fetched pages go to the no-goal pool.
///
/// The no-goal pool's capacity is always the node total minus the dedicated
/// budgets (equation 6's upper bound), so growing a dedicated pool evicts
/// from the no-goal pool and vice versa.
class NodeCache {
 public:
  /// Creates the replacement policy for a pool. `pool_class` is
  /// kNoGoalClass for the no-goal pool and the class id for dedicated
  /// pools, letting cost-based policies rank by the matching heat scope
  /// (§6: class heats for dedicated buffers, accumulated heat otherwise).
  using PolicyFactory =
      std::function<std::unique_ptr<ReplacementPolicy>(ClassId pool_class)>;

  NodeCache(NodeId node, uint64_t total_bytes, uint32_t page_bytes,
            const PolicyFactory& factory);

  /// Result of an access or insert: which pages left the node entirely
  /// (their directory entries must be dropped) and whether the accessed
  /// page became resident.
  struct AccessResult {
    bool hit = false;
    bool inserted = false;
    EvictedList dropped;
  };

  /// Creates class k's dedicated pool (initially 0 bytes) if absent.
  void EnsureDedicatedPool(ClassId klass);

  bool IsCached(PageId page) const { return page_location_.Contains(page); }

  /// Handles the buffer-resident part of an access by class `klass`;
  /// `result.hit` tells the caller whether a fetch is needed.
  AccessResult OnAccess(ClassId klass, PageId page);

  /// Inserts a freshly fetched page according to §6 placement rules.
  AccessResult InsertFetched(ClassId klass, PageId page);

  /// Removes `page` from whichever pool holds it (cache invalidation, e.g.
  /// after a committed update elsewhere). Returns false if not resident.
  bool Drop(PageId page);

  /// Drops a frame that failed verify-on-read so it can never be served
  /// again, counting the eviction separately from ordinary drops. Returns
  /// false if the page is not resident.
  bool Quarantine(PageId page);

  /// Frames evicted through Quarantine() so far. The invariant auditor
  /// balances this against the system's quarantine *decisions* to catch a
  /// buffer pool that keeps serving a frame it was told to quarantine.
  uint64_t quarantined() const { return quarantined_; }

  /// Empties every pool and resets all dedicated budgets to zero — the
  /// node's volatile buffer state after a crash (a recovered node restarts
  /// with a cold cache and no dedications). Returns the pages that were
  /// resident so the caller can clean up directory state.
  std::vector<PageId> Clear();

  /// Sets class k's dedicated budget, clamped to AvailableForClass(k)
  /// (§5e: "the local agent allocates as much memory as possible").
  /// Returns the granted byte budget; pages dropped in the process (from
  /// the shrunk dedicated pool or the squeezed no-goal pool) are appended
  /// to `dropped`.
  uint64_t SetDedicatedBytes(ClassId klass, uint64_t bytes,
                             std::vector<PageId>* dropped);

  uint64_t dedicated_bytes(ClassId klass) const;
  uint64_t total_dedicated_bytes() const;
  uint64_t nogoal_bytes() const { return total_bytes_ - total_dedicated_bytes(); }
  uint64_t total_bytes() const { return total_bytes_; }

  /// Upper bound of equation 6: SIZE_i minus the other classes' dedicated
  /// budgets.
  uint64_t AvailableForClass(ClassId klass) const;

  NodeId node() const { return node_; }
  size_t resident_pages() const { return page_location_.size(); }

  /// Pool currently holding `page`, as a class id (kNoGoalClass for the
  /// no-goal pool); only valid if IsCached(page).
  ClassId LocationOf(PageId page) const;

 private:
  BufferPool& PoolFor(ClassId location);

  // Applies an InsertResult: updates the location map and collects drops.
  void ApplyInsert(ClassId location, PageId page,
                   BufferPool::InsertResult insert_result,
                   AccessResult* result);

  NodeId node_;
  uint64_t total_bytes_;
  uint32_t page_bytes_;
  BufferPool nogoal_pool_;
  std::map<ClassId, BufferPool> dedicated_;  // ordered for determinism
  /// Sum of dedicated_ pool capacities, maintained at every capacity
  /// change: AvailableForClass sits on the controller's per-class-per-node
  /// rollup (O(K * N) calls per interval), where recomputing the sum made
  /// the rollup O(K^2 * N).
  uint64_t total_dedicated_bytes_ = 0;
  common::FlatHashMap<PageId, ClassId> page_location_;
  PolicyFactory factory_;
  uint64_t quarantined_ = 0;
};

}  // namespace memgoal::cache

#endif  // MEMGOAL_CACHE_NODE_CACHE_H_
