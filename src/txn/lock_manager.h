#ifndef MEMGOAL_TXN_LOCK_MANAGER_H_
#define MEMGOAL_TXN_LOCK_MANAGER_H_

#include <coroutine>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "sim/simulator.h"
#include "sim/task.h"
#include "storage/types.h"

namespace memgoal::txn {

/// Transaction identifier; monotonically increasing, so it doubles as the
/// wait-die timestamp (smaller id = older transaction).
using TxnId = uint64_t;

enum class LockMode {
  kShared,
  kExclusive,
};

/// Page-level two-phase locking with wait-die deadlock avoidance — the
/// concurrency-control substrate the paper points to for update support
/// (§3: "to guarantee the atomicity, we can use the (distributed)
/// 2-phase-locking protocol").
///
/// Semantics:
///  - S locks are compatible with S locks; X conflicts with everything.
///  - A transaction re-requesting a lock it holds is granted immediately;
///    an S->X upgrade succeeds at once when it is the sole holder.
///  - On conflict, wait-die decides: an *older* requester (smaller TxnId)
///    waits FIFO; a *younger* one "dies" (Acquire returns false and the
///    caller must abort). Younger transactions never wait, so wait-for
///    cycles — and therefore deadlocks — cannot form.
///  - ReleaseAll drops every lock of a transaction (strict 2PL: locks are
///    held until commit/abort) and grants waiting requests in FIFO order.
///
/// The lock table is a single (simulation-global) structure; the
/// distribution of lock authority over home nodes is modeled by the caller
/// charging message costs for remote lock requests.
class LockManager {
 public:
  explicit LockManager(sim::Simulator* simulator) : simulator_(simulator) {}
  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Acquires `mode` on `page` for `txn`. Returns true once granted; false
  /// if wait-die chose this transaction as the victim (caller aborts).
  sim::Task<bool> Acquire(TxnId txn, PageId page, LockMode mode);

  /// Releases every lock held by `txn` and wakes compatible waiters.
  void ReleaseAll(TxnId txn);

  /// True if `txn` currently holds a lock on `page` at least as strong as
  /// `mode`.
  bool Holds(TxnId txn, PageId page, LockMode mode) const;

  struct Stats {
    uint64_t grants = 0;
    uint64_t waits = 0;
    uint64_t deaths = 0;
    uint64_t upgrades = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Number of pages with at least one holder or waiter (tests).
  size_t locked_pages() const { return table_.size(); }

 private:
  struct Holder {
    TxnId txn;
    LockMode mode;
  };
  struct Waiter {
    TxnId txn;
    LockMode mode;
    std::coroutine_handle<> handle;
    bool granted = false;
  };
  struct PageLock {
    std::vector<Holder> holders;
    std::deque<Waiter> waiters;
  };

  static bool Compatible(LockMode held, LockMode requested) {
    return held == LockMode::kShared && requested == LockMode::kShared;
  }

  // True if `txn` may be granted `mode` on `lock` right now (ignoring any
  // locks txn itself holds there).
  static bool Grantable(const PageLock& lock, TxnId txn, LockMode mode);

  // Grants as many waiters as possible (FIFO, no overtaking).
  void PromoteWaiters(PageId page);

  sim::Simulator* simulator_;
  std::unordered_map<PageId, PageLock> table_;
  // txn -> pages it holds locks on (for ReleaseAll).
  std::unordered_map<TxnId, std::vector<PageId>> held_;
  Stats stats_;
};

}  // namespace memgoal::txn

#endif  // MEMGOAL_TXN_LOCK_MANAGER_H_
