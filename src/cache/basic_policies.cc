#include "cache/replacement.h"

#include <list>
#include <unordered_map>

#include "common/check.h"

namespace memgoal::cache {

const char* PolicyKindName(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kFifo:
      return "fifo";
    case PolicyKind::kLru:
      return "lru";
    case PolicyKind::kLruK:
      return "lru-k";
    case PolicyKind::kCostBased:
      return "cost-based";
  }
  return "?";
}

namespace {

// Shared list+index machinery: eviction order is front-to-back.
class ListPolicyBase : public ReplacementPolicy {
 public:
  void OnInsert(PageId page) override {
    MEMGOAL_CHECK(index_.count(page) == 0);
    order_.push_back(page);
    index_[page] = std::prev(order_.end());
  }

  void OnErase(PageId page) override {
    auto it = index_.find(page);
    MEMGOAL_CHECK(it != index_.end());
    order_.erase(it->second);
    index_.erase(it);
  }

  bool Contains(PageId page) const override { return index_.count(page) > 0; }

  std::optional<PageId> ChooseVictim() override {
    if (order_.empty()) return std::nullopt;
    return order_.front();
  }

 protected:
  std::list<PageId> order_;
  std::unordered_map<PageId, std::list<PageId>::iterator> index_;
};

class FifoPolicy final : public ListPolicyBase {
 public:
  void OnAccess(PageId) override {}  // insertion order only
  const char* name() const override { return "fifo"; }
};

class LruPolicy final : public ListPolicyBase {
 public:
  void OnAccess(PageId page) override {
    auto it = index_.find(page);
    MEMGOAL_CHECK(it != index_.end());
    order_.splice(order_.end(), order_, it->second);
  }
  const char* name() const override { return "lru"; }
};

}  // namespace

std::unique_ptr<ReplacementPolicy> MakeFifoPolicy() {
  return std::make_unique<FifoPolicy>();
}

std::unique_ptr<ReplacementPolicy> MakeLruPolicy() {
  return std::make_unique<LruPolicy>();
}

}  // namespace memgoal::cache
