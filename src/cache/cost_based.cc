#include "cache/cost_based.h"

#include <cmath>
#include <utility>

#include "common/check.h"
#include "obs/profiler.h"

namespace memgoal::cache {

CostBasedPolicy::CostBasedPolicy(BenefitFn benefit_fn, int revalidation_limit)
    : benefit_fn_(std::move(benefit_fn)),
      revalidation_limit_(revalidation_limit) {
  MEMGOAL_CHECK(benefit_fn_ != nullptr);
  MEMGOAL_CHECK(revalidation_limit_ >= 0);
}

void CostBasedPolicy::OnInsert(PageId page) {
  obs::ProfileScope profile(obs::Phase::kHeapMaintain);
  residents_.Insert(page, benefit_fn_(page));
}

void CostBasedPolicy::OnAccess(PageId page) {
  // O(1), no benefit evaluation, no profile scope: the mark is cheaper
  // than the instrumentation would be. The stale key is repaired in
  // ChooseVictim's flush, where heap_maintain time is accounted.
  residents_.MarkDirty(page);
}

void CostBasedPolicy::OnErase(PageId page) {
  obs::ProfileScope profile(obs::Phase::kHeapMaintain);
  residents_.Erase(page);
}

std::optional<PageId> CostBasedPolicy::ChooseVictim() {
  obs::ProfileScope profile(obs::Phase::kVictimSelect);
  if (residents_.empty()) return std::nullopt;
  {
    // Repair-on-pop: every page touched since the last selection gets one
    // fresh benefit evaluation, in mark order, before the minimum is read.
    obs::ProfileScope repair(obs::Phase::kHeapMaintain);
    residents_.FlushDirty([this](PageId page) { return benefit_fn_(page); });
  }
  // Post-flush revalidation: keys are exact as of the flush, but the flush
  // itself moves entries (a re-keyed page can surface a top whose benefit
  // the directory changed without a touch); confirm the minimum to a fixed
  // point or the bound.
  for (int i = 0; i < revalidation_limit_; ++i) {
    const auto [page, key] = residents_.Peek();
    const double fresh = benefit_fn_(page);
    residents_.Update(page, fresh);
    if (residents_.Peek().first == page) return page;
  }
  return residents_.Peek().first;
}

std::unique_ptr<ReplacementPolicy> MakeCostBasedPolicy(BenefitFn benefit_fn) {
  return std::make_unique<CostBasedPolicy>(std::move(benefit_fn));
}

}  // namespace memgoal::cache
