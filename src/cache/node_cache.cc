#include "cache/node_cache.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace memgoal::cache {

NodeCache::NodeCache(NodeId node, uint64_t total_bytes, uint32_t page_bytes,
                     const PolicyFactory& factory)
    : node_(node), total_bytes_(total_bytes), page_bytes_(page_bytes),
      nogoal_pool_(page_bytes, total_bytes, factory(kNoGoalClass)),
      factory_(factory) {
  MEMGOAL_CHECK(factory_ != nullptr);
}

void NodeCache::EnsureDedicatedPool(ClassId klass) {
  MEMGOAL_CHECK(klass != kNoGoalClass);
  if (dedicated_.count(klass) > 0) return;
  dedicated_.emplace(
      klass, BufferPool(page_bytes_, /*capacity_bytes=*/0, factory_(klass)));
}

BufferPool& NodeCache::PoolFor(ClassId location) {
  if (location == kNoGoalClass) return nogoal_pool_;
  auto it = dedicated_.find(location);
  MEMGOAL_CHECK(it != dedicated_.end());
  return it->second;
}

ClassId NodeCache::LocationOf(PageId page) const {
  const ClassId* location = page_location_.Find(page);
  MEMGOAL_CHECK(location != nullptr);
  return *location;
}

void NodeCache::ApplyInsert(ClassId location, PageId page,
                            BufferPool::InsertResult insert_result,
                            AccessResult* result) {
  for (PageId victim : insert_result.evicted) {
    MEMGOAL_CHECK(page_location_.Erase(victim) == 1);
    result->dropped.push_back(victim);
  }
  if (insert_result.inserted) {
    page_location_[page] = location;
    result->inserted = true;
  }
}

NodeCache::AccessResult NodeCache::OnAccess(ClassId klass, PageId page) {
  AccessResult result;
  const ClassId* location_ptr = page_location_.Find(page);

  auto dedicated_it =
      klass == kNoGoalClass ? dedicated_.end() : dedicated_.find(klass);
  const bool has_dedicated = dedicated_it != dedicated_.end();

  if (location_ptr == nullptr) {
    return result;  // miss: caller fetches, then InsertFetched
  }
  result.hit = true;

  const ClassId location = *location_ptr;
  if (!has_dedicated || location != kNoGoalClass) {
    // No movement: either the accessing class has no dedicated pool, or the
    // page already sits in a dedicated pool (k's own or another class's).
    PoolFor(location).Touch(page);
    return result;
  }

  // Page is in the no-goal pool and class k has a dedicated pool: promote
  // (§6, "acquired from the local no-goal buffer, from which it is
  // removed"). A zero-frame dedicated pool cannot take it; leave in place.
  BufferPool& target = dedicated_it->second;
  if (target.capacity_frames() == 0) {
    nogoal_pool_.Touch(page);
    return result;
  }
  nogoal_pool_.Erase(page);
  page_location_.Erase(page);
  ApplyInsert(klass, page, target.Insert(page), &result);
  // A promotion can bounce under cost-based admission control (the page had
  // the lowest benefit in the dedicated pool); it is then gone from the
  // node entirely, matching §6's drop-completely rule for dedicated-pool
  // victims.
  if (!result.inserted) result.dropped.push_back(page);
  return result;
}

NodeCache::AccessResult NodeCache::InsertFetched(ClassId klass, PageId page) {
  MEMGOAL_CHECK(!page_location_.Contains(page));
  AccessResult result;

  auto dedicated_it =
      klass == kNoGoalClass ? dedicated_.end() : dedicated_.find(klass);
  if (dedicated_it != dedicated_.end() &&
      dedicated_it->second.capacity_frames() > 0) {
    ApplyInsert(klass, page, dedicated_it->second.Insert(page), &result);
  } else {
    ApplyInsert(kNoGoalClass, page, nogoal_pool_.Insert(page), &result);
  }
  return result;
}

bool NodeCache::Drop(PageId page) {
  const ClassId* location = page_location_.Find(page);
  if (location == nullptr) return false;
  PoolFor(*location).Erase(page);
  page_location_.Erase(page);
  return true;
}

bool NodeCache::Quarantine(PageId page) {
  if (!Drop(page)) return false;
  ++quarantined_;
  return true;
}

std::vector<PageId> NodeCache::Clear() {
  std::vector<PageId> dropped;
  dropped.reserve(page_location_.size());
  for (auto it = page_location_.begin(); it != page_location_.end(); ++it) {
    PoolFor(it.value()).Erase(it.key());
    dropped.push_back(it.key());
  }
  page_location_.clear();
  std::sort(dropped.begin(), dropped.end());  // hash-map order is not stable
  for (auto& [klass, pool] : dedicated_) {
    const std::vector<PageId> evicted = pool.Resize(0);
    MEMGOAL_CHECK(evicted.empty());  // pools were emptied above
  }
  total_dedicated_bytes_ = 0;
  nogoal_pool_.Resize(total_bytes_);
  return dropped;
}

uint64_t NodeCache::SetDedicatedBytes(ClassId klass, uint64_t bytes,
                                      std::vector<PageId>* dropped) {
  EnsureDedicatedPool(klass);
  const uint64_t granted = std::min(bytes, AvailableForClass(klass));

  auto collect = [&](std::vector<PageId> evicted) {
    for (PageId victim : evicted) {
      MEMGOAL_CHECK(page_location_.Erase(victim) == 1);
      dropped->push_back(victim);
    }
  };
  BufferPool& pool = dedicated_.at(klass);
  total_dedicated_bytes_ -= pool.capacity_bytes();
  collect(pool.Resize(granted));
  total_dedicated_bytes_ += pool.capacity_bytes();
  // The no-goal pool absorbs whatever is left of the node budget.
  collect(nogoal_pool_.Resize(nogoal_bytes()));
  return granted;
}

uint64_t NodeCache::dedicated_bytes(ClassId klass) const {
  auto it = dedicated_.find(klass);
  return it == dedicated_.end() ? 0 : it->second.capacity_bytes();
}

uint64_t NodeCache::total_dedicated_bytes() const {
  MEMGOAL_DCHECK([&] {
    uint64_t total = 0;
    for (const auto& [klass, pool] : dedicated_) {
      total += pool.capacity_bytes();
    }
    return total == total_dedicated_bytes_;
  }());
  return total_dedicated_bytes_;
}

uint64_t NodeCache::AvailableForClass(ClassId klass) const {
  return total_bytes_ - (total_dedicated_bytes() - dedicated_bytes(klass));
}

}  // namespace memgoal::cache
