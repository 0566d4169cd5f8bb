#ifndef MEMGOAL_CACHE_LRU_K_H_
#define MEMGOAL_CACHE_LRU_K_H_

#include <memory>

#include "cache/heat.h"
#include "cache/indexed_heap.h"
#include "cache/replacement.h"
#include "sim/simulator.h"

namespace memgoal::cache {

/// LRU-K replacement (O'Neil et al., SIGMOD'93): the victim is the resident
/// page with the maximum backward K-distance, i.e. the oldest K-th most
/// recent access. Pages with fewer than K recorded accesses have infinite
/// backward distance and are evicted first, ordered by least recent access
/// among themselves.
///
/// The policy reads access history from a HeatTracker shared with the owner
/// (so history survives eviction, as LRU-K requires), and keeps residents in
/// an indexed min-heap keyed by
///     key = t_K                         (count >= K)
///     key = t_last - kInfinitePenalty   (count <  K)
/// so the minimum key is always the correct victim.
class LruKPolicy final : public ReplacementPolicy {
 public:
  /// `tracker` must outlive the policy and must be fed every access (the
  /// BufferPool calls OnAccess/OnInsert after the owner recorded the access
  /// in the tracker).
  LruKPolicy(const HeatTracker* tracker, const sim::Simulator* simulator);

  void OnInsert(PageId page) override;
  void OnAccess(PageId page) override;
  void OnErase(PageId page) override;
  bool Contains(PageId p) const override { return residents_.Contains(p); }
  std::optional<PageId> ChooseVictim() override;
  const char* name() const override { return "lru-k"; }

 private:
  static constexpr double kInfinitePenalty = 1e15;

  double KeyOf(PageId page) const;

  const HeatTracker* tracker_;
  const sim::Simulator* simulator_;
  IndexedMinHeap<PageId> residents_;
};

std::unique_ptr<ReplacementPolicy> MakeLruKPolicy(
    const HeatTracker* tracker, const sim::Simulator* simulator);

}  // namespace memgoal::cache

#endif  // MEMGOAL_CACHE_LRU_K_H_
