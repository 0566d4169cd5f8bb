#ifndef MEMGOAL_TXN_TRANSACTION_H_
#define MEMGOAL_TXN_TRANSACTION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/system.h"
#include "sim/task.h"
#include "storage/types.h"
#include "txn/lock_manager.h"
#include "txn/wal.h"

namespace memgoal::txn {

/// Outcome of one transaction attempt.
struct TxnResult {
  bool committed = false;
  /// Aborted by the wait-die deadlock avoidance (caller may retry).
  bool died = false;
  double response_ms = 0.0;
  int pages_read = 0;
  int pages_written = 0;
  bool used_two_phase_commit = false;
};

/// Read-write transactions on top of the read-only caching system — the
/// update model sketched in §3 of the paper: distributed strict 2PL for
/// isolation, write-ahead logging for durability, and two-phase commit for
/// atomicity across nodes.
///
/// Protocol of one transaction executed at `node`:
///  1. For every page in the read set: acquire an S lock at the page's
///     *home* (a remote lock request costs a control-message round trip),
///     then read the page through the normal buffer hierarchy.
///  2. For every page in the write set: acquire an X lock the same way and
///     read the page (read-modify-write).
///  3. Commit: append redo records to the local WAL and force it. If any
///     written page is homed remotely, run two-phase commit with the homes
///     as participants (PREPARE -> participant log force -> YES; then
///     COMMIT -> participant log force), all message costs accounted.
///     Updated pages are forced to their home disks (FORCE policy: no
///     dirty pages survive in buffers, so the read-only caching layer
///     stays oblivious to recovery state) and every *other* cached copy is
///     invalidated.
///  4. Release all locks (strict 2PL).
///
/// On a wait-die death the transaction releases its locks and reports
/// `died`; the caller retries with a fresh (younger) timestamp after a
/// backoff.
class TransactionManager {
 public:
  explicit TransactionManager(core::ClusterSystem* system);
  TransactionManager(const TransactionManager&) = delete;
  TransactionManager& operator=(const TransactionManager&) = delete;

  /// Runs one transaction attempt. `klass` attributes the page accesses to
  /// a workload class for heat/placement purposes. `txn_id` pins the
  /// wait-die timestamp (used by retries; defaults to a fresh id).
  sim::Task<TxnResult> Run(NodeId node, ClassId klass,
                           std::vector<PageId> read_set,
                           std::vector<PageId> write_set,
                           std::optional<TxnId> txn_id = std::nullopt);

  /// Runs a transaction with retries and exponential backoff starting at
  /// `backoff_ms`. All attempts reuse the first attempt's TxnId — the
  /// textbook wait-die rule ("a restarted transaction keeps its original
  /// timestamp"), which makes it grow relatively older until it wins and
  /// rules out starvation. Gives up after `max_attempts`.
  sim::Task<TxnResult> RunWithRetry(NodeId node, ClassId klass,
                                    std::vector<PageId> read_set,
                                    std::vector<PageId> write_set,
                                    int max_attempts = 8,
                                    double backoff_ms = 2.0);

  LockManager& lock_manager() { return lock_manager_; }
  Wal& wal(NodeId node) { return *wals_[node]; }

  struct Stats {
    uint64_t commits = 0;
    uint64_t deaths = 0;
    uint64_t retries_exhausted = 0;
    uint64_t two_phase_commits = 0;
    uint64_t pages_invalidated = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  // Acquires a lock at the page's home, charging the remote round trip.
  sim::Task<bool> AcquireAtHome(TxnId txn, NodeId node, PageId page,
                                LockMode mode);

  core::ClusterSystem* system_;
  LockManager lock_manager_;
  std::vector<std::unique_ptr<Wal>> wals_;
  TxnId next_txn_id_ = 1;
  Stats stats_;
};

}  // namespace memgoal::txn

#endif  // MEMGOAL_TXN_TRANSACTION_H_
