#ifndef MEMGOAL_CACHE_BUFFER_POOL_H_
#define MEMGOAL_CACHE_BUFFER_POOL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/replacement.h"
#include "common/inline_vector.h"
#include "storage/types.h"

namespace memgoal::cache {

/// Pages displaced by a single access/insert. Nearly always 0 or 1 entries
/// (one frame freed per insert), so they live inline; bulk operations
/// (resize, crash clear) use plain vectors instead.
using EvictedList = common::InlineVector<PageId, 2>;

/// One buffer pool: a byte budget, a count of resident pages, and a
/// replacement policy, whose index is the pool's one record of which pages
/// are resident. Pools are resizable at run time — the allocation
/// phase of the feedback loop (§5e) shrinks and grows the per-class
/// dedicated pools — and shrinking evicts immediately.
///
/// All pages have the same size, so the budget divides into frames; a
/// capacity below one page size means the pool cannot hold anything.
class BufferPool {
 public:
  BufferPool(uint32_t page_bytes, uint64_t capacity_bytes,
             std::unique_ptr<ReplacementPolicy> policy);

  bool Contains(PageId page) const { return policy_->Contains(page); }

  /// Records a hit on a resident page.
  void Touch(PageId page);

  /// Inserts `page`, evicting victims as needed. Returns the evicted pages.
  /// The insert uses admission control: the replacement policy may decide
  /// the new page itself is the least valuable entry, in which case
  /// `inserted` is false, the page "bounces" (used once, not cached), and
  /// it does not appear in `evicted`. A zero-frame pool also reports
  /// `inserted == false`. `page` must not be resident.
  struct InsertResult {
    bool inserted = false;
    EvictedList evicted;
  };
  InsertResult Insert(PageId page);

  /// Removes a resident page (promotion to another pool, external drop).
  /// `page` must be resident.
  void Erase(PageId page);

  /// Changes the byte budget; evicts down to the new frame count when
  /// shrinking. Returns the evicted pages.
  std::vector<PageId> Resize(uint64_t new_capacity_bytes);

  uint64_t capacity_bytes() const { return capacity_bytes_; }
  size_t capacity_frames() const {
    return static_cast<size_t>(capacity_bytes_ / page_bytes_);
  }
  size_t resident_pages() const { return resident_; }

 private:
  // Evicts victims until `resident_ <= limit`; appends to `out`.
  // Templated so the hot insert path appends to the inline EvictedList
  // while bulk resizes append to a plain vector.
  template <typename Out>
  void EvictDownTo(size_t limit, Out* out);

  uint32_t page_bytes_;
  uint64_t capacity_bytes_;
  std::unique_ptr<ReplacementPolicy> policy_;
  size_t resident_ = 0;
};

}  // namespace memgoal::cache

#endif  // MEMGOAL_CACHE_BUFFER_POOL_H_
