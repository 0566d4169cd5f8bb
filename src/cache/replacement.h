#ifndef MEMGOAL_CACHE_REPLACEMENT_H_
#define MEMGOAL_CACHE_REPLACEMENT_H_

#include <functional>
#include <memory>
#include <optional>

#include "storage/types.h"

namespace memgoal::cache {

/// Victim-selection strategy of a single buffer pool.
///
/// The pool tells the policy about structural events (insert/access/erase);
/// the policy answers ChooseVictim() without removing the page — the pool
/// erases it explicitly. The policy's index is the pool's only record of
/// which pages are resident, so OnInsert must CHECK that `page` is absent
/// and OnErase that it is present.
class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;

  /// `page` became resident. Called at most once until the matching
  /// OnErase.
  virtual void OnInsert(PageId page) = 0;

  /// A hit on the resident `page`.
  virtual void OnAccess(PageId page) = 0;

  /// `page` left the pool (eviction or external resize/drop).
  virtual void OnErase(PageId page) = 0;

  /// Whether `page` is resident.
  virtual bool Contains(PageId page) const = 0;

  /// The page the policy would evict next; nullopt if the pool is empty.
  virtual std::optional<PageId> ChooseVictim() = 0;

  virtual const char* name() const = 0;
};

/// Replacement policy families available in the simulator.
enum class PolicyKind {
  kFifo,
  kLru,
  kLruK,
  kCostBased,
};

const char* PolicyKindName(PolicyKind kind);

/// FIFO: evicts in insertion order, ignoring hits. Included mainly because
/// the paper cites Belady's FIFO anomaly as the caveat to its monotonicity
/// assumption (§3).
std::unique_ptr<ReplacementPolicy> MakeFifoPolicy();

/// Classic LRU.
std::unique_ptr<ReplacementPolicy> MakeLruPolicy();

}  // namespace memgoal::cache

#endif  // MEMGOAL_CACHE_REPLACEMENT_H_
