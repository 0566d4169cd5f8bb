#ifndef MEMGOAL_CACHE_COST_BASED_H_
#define MEMGOAL_CACHE_COST_BASED_H_

#include <functional>
#include <memory>

#include "cache/indexed_heap.h"
#include "cache/replacement.h"

namespace memgoal::cache {

/// Computes the current benefit of keeping `page` in this pool (see
/// CostModel and NodeCache for the concrete formula).
using BenefitFn = std::function<double(PageId)>;

/// Cost-based replacement of Sinnwell & Weikum (ICDE'97), as integrated in
/// §6 of the paper: pages are ranked by the *benefit* of keeping them
/// cached — heat times the access-cost difference between dropping and
/// keeping — and the victim is the page with the lowest benefit.
///
/// Benefits drift over time (heat decays, copy status changes elsewhere),
/// so maintenance is lazy end to end: an access just marks the page's heap
/// entry dirty in O(1), and victim selection repairs the heap — every
/// dirty entry is re-keyed with a fresh benefit before the pop, then the
/// top is re-evaluated until a fixed point or a bounded number of
/// refreshes. Benefit evaluations thus scale with evictions (touched pages
/// per selection), not with accesses, exactly like the threshold-based
/// bookkeeping of the original system trades message traffic for accuracy.
class CostBasedPolicy final : public ReplacementPolicy {
 public:
  explicit CostBasedPolicy(BenefitFn benefit_fn, int revalidation_limit = 8);

  void OnInsert(PageId page) override;
  void OnAccess(PageId page) override;
  void OnErase(PageId page) override;
  bool Contains(PageId p) const override { return residents_.Contains(p); }
  std::optional<PageId> ChooseVictim() override;
  const char* name() const override { return "cost-based"; }

 private:
  BenefitFn benefit_fn_;
  int revalidation_limit_;
  IndexedMinHeap<PageId> residents_;
};

std::unique_ptr<ReplacementPolicy> MakeCostBasedPolicy(BenefitFn benefit_fn);

}  // namespace memgoal::cache

#endif  // MEMGOAL_CACHE_COST_BASED_H_
