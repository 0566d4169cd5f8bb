#include "cache/buffer_pool.h"

#include <utility>

#include "common/check.h"

namespace memgoal::cache {

BufferPool::BufferPool(uint32_t page_bytes, uint64_t capacity_bytes,
                       std::unique_ptr<ReplacementPolicy> policy)
    : page_bytes_(page_bytes), capacity_bytes_(capacity_bytes),
      policy_(std::move(policy)) {
  MEMGOAL_CHECK(page_bytes_ > 0);
  MEMGOAL_CHECK(policy_ != nullptr);
}

void BufferPool::Touch(PageId page) {
  MEMGOAL_DCHECK(Contains(page));
  policy_->OnAccess(page);
}

template <typename Out>
void BufferPool::EvictDownTo(size_t limit, Out* out) {
  while (resident_ > limit) {
    std::optional<PageId> victim = policy_->ChooseVictim();
    MEMGOAL_CHECK(victim.has_value());
    policy_->OnErase(*victim);
    --resident_;
    out->push_back(*victim);
  }
}

template void BufferPool::EvictDownTo(size_t, EvictedList*);
template void BufferPool::EvictDownTo(size_t, std::vector<PageId>*);

BufferPool::InsertResult BufferPool::Insert(PageId page) {
  InsertResult result;
  const size_t frames = capacity_frames();
  if (frames == 0) return result;
  // Admission control: the page joins first, then the pool evicts down to
  // capacity. If the new page itself is the weakest entry it bounces right
  // back out — essential for the cost-based policy, where a freshly fetched
  // *duplicate* must not displace a resident last-copy page (it is used
  // once and discarded instead). Recency policies are unaffected: a new
  // page is never their immediate victim. The policy CHECKs that `page`
  // was not resident.
  policy_->OnInsert(page);
  ++resident_;
  result.inserted = true;
  EvictDownTo(frames, &result.evicted);
  for (auto it = result.evicted.begin(); it != result.evicted.end(); ++it) {
    if (*it == page) {
      result.inserted = false;
      result.evicted.erase(it);
      break;
    }
  }
  return result;
}

void BufferPool::Erase(PageId page) {
  policy_->OnErase(page);  // CHECKs that `page` is resident
  --resident_;
}

std::vector<PageId> BufferPool::Resize(uint64_t new_capacity_bytes) {
  capacity_bytes_ = new_capacity_bytes;
  std::vector<PageId> evicted;
  EvictDownTo(capacity_frames(), &evicted);
  return evicted;
}

}  // namespace memgoal::cache
