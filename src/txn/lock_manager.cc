#include "txn/lock_manager.h"

#include <algorithm>

#include "common/check.h"

namespace memgoal::txn {

bool LockManager::Grantable(const PageLock& lock, TxnId txn, LockMode mode) {
  for (const Holder& holder : lock.holders) {
    if (holder.txn == txn) continue;
    if (!Compatible(holder.mode, mode)) return false;
  }
  return true;
}

sim::Task<bool> LockManager::Acquire(TxnId txn, PageId page, LockMode mode) {
  PageLock& lock = table_[page];

  // Re-entrant requests and upgrades.
  for (Holder& holder : lock.holders) {
    if (holder.txn != txn) continue;
    if (holder.mode == LockMode::kExclusive || mode == LockMode::kShared) {
      co_return true;  // already strong enough
    }
    // S -> X upgrade: instant when sole holder; otherwise the upgrade
    // conflicts with concurrent S holders — resolve by dying (an upgrade
    // wait would sidestep the wait-die age discipline).
    if (lock.holders.size() == 1) {
      holder.mode = LockMode::kExclusive;
      ++stats_.upgrades;
      co_return true;
    }
    ++stats_.deaths;
    co_return false;
  }

  if (lock.waiters.empty() && Grantable(lock, txn, mode)) {
    lock.holders.push_back(Holder{txn, mode});
    held_[txn].push_back(page);
    ++stats_.grants;
    co_return true;
  }

  // Conflict. Wait-die, conservatively against holders *and* queued
  // waiters: a transaction only ever waits for strictly younger ones, so
  // every wait-for edge points old -> young and no cycle can form.
  for (const Holder& holder : lock.holders) {
    if (txn > holder.txn) {
      ++stats_.deaths;
      co_return false;
    }
  }
  for (const Waiter& waiter : lock.waiters) {
    if (txn > waiter.txn) {
      ++stats_.deaths;
      co_return false;
    }
  }

  // Suspend until PromoteWaiters grants us.
  ++stats_.waits;
  struct WaitAwaiter {
    LockManager* manager;
    PageId page;
    TxnId txn;
    LockMode mode;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> handle) {
      manager->table_[page].waiters.push_back(Waiter{txn, mode, handle});
    }
    void await_resume() const noexcept {}
  };
  co_await WaitAwaiter{this, page, txn, mode};
  // PromoteWaiters moved us into the holder set before resuming.
  MEMGOAL_DCHECK(Holds(txn, page, mode));
  ++stats_.grants;
  co_return true;
}

void LockManager::PromoteWaiters(PageId page) {
  auto table_it = table_.find(page);
  if (table_it == table_.end()) return;
  PageLock& lock = table_it->second;
  // Strict FIFO: grant from the front while compatible; never overtake.
  while (!lock.waiters.empty()) {
    Waiter& front = lock.waiters.front();
    if (!Grantable(lock, front.txn, front.mode)) break;
    lock.holders.push_back(Holder{front.txn, front.mode});
    held_[front.txn].push_back(page);
    const std::coroutine_handle<> handle = front.handle;
    lock.waiters.pop_front();
    simulator_->ScheduleResume(0.0, handle);
  }
  if (lock.holders.empty() && lock.waiters.empty()) table_.erase(table_it);
}

void LockManager::ReleaseAll(TxnId txn) {
  auto held_it = held_.find(txn);
  if (held_it == held_.end()) return;
  std::vector<PageId> pages = std::move(held_it->second);
  held_.erase(held_it);
  for (PageId page : pages) {
    auto table_it = table_.find(page);
    if (table_it == table_.end()) continue;
    auto& holders = table_it->second.holders;
    holders.erase(std::remove_if(holders.begin(), holders.end(),
                                 [txn](const Holder& holder) {
                                   return holder.txn == txn;
                                 }),
                  holders.end());
    PromoteWaiters(page);
  }
}

bool LockManager::Holds(TxnId txn, PageId page, LockMode mode) const {
  auto table_it = table_.find(page);
  if (table_it == table_.end()) return false;
  for (const Holder& holder : table_it->second.holders) {
    if (holder.txn != txn) continue;
    return holder.mode == LockMode::kExclusive || mode == LockMode::kShared;
  }
  return false;
}

}  // namespace memgoal::txn
