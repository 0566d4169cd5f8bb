#include "txn/transaction.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/check.h"
#include "net/network.h"

namespace memgoal::txn {

namespace {
// Size of a redo record (page id + before/after deltas header) and of the
// 2PC control messages.
constexpr uint32_t kRedoRecordBytes = 128;
constexpr uint32_t kPrepareRecordBytes = 32;
}  // namespace

TransactionManager::TransactionManager(core::ClusterSystem* system)
    : system_(system), lock_manager_(&system->simulator()) {
  wals_.reserve(system->num_nodes());
  for (NodeId i = 0; i < system->num_nodes(); ++i) {
    wals_.push_back(std::make_unique<Wal>(&system->node(i).disk(), i));
  }
}

sim::Task<bool> TransactionManager::AcquireAtHome(TxnId txn, NodeId node,
                                                  PageId page, LockMode mode) {
  const NodeId home = system_->database().HomeOf(page);
  bool granted;
  if (home != node) {
    // Lock request travels to the page's home lock manager and back.
    co_await system_->network().Transfer(node, home, core::kControlMsgBytes,
                                         net::TrafficClass::kControl);
    granted = co_await lock_manager_.Acquire(txn, page, mode);
    co_await system_->network().Transfer(home, node, core::kControlMsgBytes,
                                         net::TrafficClass::kControl);
  } else {
    granted = co_await lock_manager_.Acquire(txn, page, mode);
  }
  co_return granted;
}

sim::Task<TxnResult> TransactionManager::Run(NodeId node, ClassId klass,
                                             std::vector<PageId> read_set,
                                             std::vector<PageId> write_set,
                                             std::optional<TxnId> txn_id) {
  const TxnId txn = txn_id.has_value() ? *txn_id : next_txn_id_++;
  const auto& config = system_->config();
  const sim::SimTime start = system_->simulator().Now();
  TxnResult result;
  // Transactions are not budgeted; their page accesses are still traced.
  auto traced = system_->MakeRequestProbe(node, /*budget=*/nullptr);
  obs::RequestProbe* const probe = traced ? &*traced : nullptr;

  auto abort = [&]() {
    lock_manager_.ReleaseAll(txn);
    result.died = true;
    result.response_ms = system_->simulator().Now() - start;
    ++stats_.deaths;
  };

  // 1. Read phase: S locks + buffered reads.
  for (PageId page : read_set) {
    if (!co_await AcquireAtHome(txn, node, page, LockMode::kShared)) {
      abort();
      co_return result;
    }
    co_await system_->node(node).AccessPage(klass, page, probe);
    ++result.pages_read;
  }

  // 2. Write phase: X locks + read-modify-write of the current version.
  for (PageId page : write_set) {
    if (!co_await AcquireAtHome(txn, node, page, LockMode::kExclusive)) {
      abort();
      co_return result;
    }
    co_await system_->node(node).AccessPage(klass, page, probe);
    ++result.pages_written;
  }

  // 3. Commit.
  if (!write_set.empty()) {
    Wal& local_wal = *wals_[node];
    uint64_t last_lsn = 0;
    for (PageId page : write_set) {
      (void)page;
      last_lsn = local_wal.Append(txn, kRedoRecordBytes);
    }
    co_await local_wal.Force(last_lsn);

    // Two-phase commit with every remote home of a written page (§3: "the
    // 2-phase commit protocol").
    std::set<NodeId> participants;
    for (PageId page : write_set) {
      const NodeId home = system_->database().HomeOf(page);
      if (home != node) participants.insert(home);
    }
    if (!participants.empty()) {
      result.used_two_phase_commit = true;
      ++stats_.two_phase_commits;
      for (NodeId participant : participants) {
        // PREPARE -> participant forces a prepare record -> YES vote.
        co_await system_->network().Transfer(node, participant,
                                             core::kControlMsgBytes,
                                             net::TrafficClass::kControl);
        Wal& remote_wal = *wals_[participant];
        co_await remote_wal.Force(remote_wal.Append(txn, kPrepareRecordBytes));
        co_await system_->network().Transfer(participant, node,
                                             core::kControlMsgBytes,
                                             net::TrafficClass::kControl);
      }
      // Decision: force the commit record locally, then notify.
      co_await local_wal.Force(local_wal.Append(txn, kPrepareRecordBytes));
      for (NodeId participant : participants) {
        co_await system_->network().Transfer(node, participant,
                                             core::kControlMsgBytes,
                                             net::TrafficClass::kControl);
        Wal& remote_wal = *wals_[participant];
        co_await remote_wal.Force(remote_wal.Append(txn, kPrepareRecordBytes));
      }
    }

    // FORCE policy: install every updated page at its home disk, shipping
    // the page if the home is remote, and invalidate stale copies.
    for (PageId page : write_set) {
      const NodeId home = system_->database().HomeOf(page);
      if (home != node) {
        co_await system_->network().Transfer(
            node, home, config.page_bytes + core::kPageHeaderBytes,
            net::TrafficClass::kPage);
      }
      co_await system_->node(home).disk().WritePage();
      stats_.pages_invalidated += static_cast<uint64_t>(
          system_->InvalidateCopies(page, /*except_node=*/node));
    }
  }

  // 4. Strict 2PL: locks fall at the very end.
  lock_manager_.ReleaseAll(txn);
  result.committed = true;
  result.response_ms = system_->simulator().Now() - start;
  ++stats_.commits;
  co_return result;
}

sim::Task<TxnResult> TransactionManager::RunWithRetry(
    NodeId node, ClassId klass, std::vector<PageId> read_set,
    std::vector<PageId> write_set, int max_attempts, double backoff_ms) {
  MEMGOAL_CHECK(max_attempts >= 1);
  double backoff = backoff_ms;
  const sim::SimTime start = system_->simulator().Now();
  const TxnId txn = next_txn_id_++;  // kept across retries (wait-die)
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    TxnResult result = co_await Run(node, klass, read_set, write_set, txn);
    if (result.committed || !result.died) {
      result.response_ms = system_->simulator().Now() - start;
      co_return result;
    }
    co_await system_->simulator().Delay(backoff);
    backoff *= 2.0;
  }
  ++stats_.retries_exhausted;
  TxnResult result;
  result.died = true;
  result.response_ms = system_->simulator().Now() - start;
  co_return result;
}

}  // namespace memgoal::txn
