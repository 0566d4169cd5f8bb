#ifndef MEMGOAL_TXN_WAL_H_
#define MEMGOAL_TXN_WAL_H_

#include <cstdint>

#include "sim/task.h"
#include "storage/disk.h"
#include "storage/types.h"

namespace memgoal::txn {

/// Per-node write-ahead log — the durability substrate of §3 ("we can
/// guarantee durability by the WAL (Write-Ahead-Logging) principle").
///
/// Records are appended to an in-memory tail and become durable when a
/// Force writes the tail to the log disk. Forces are grouped in the
/// group-commit style: one log write covers every record appended before
/// it started, and a force for an already-durable LSN returns immediately.
///
/// Integrity: every record carries a modeled per-record CRC trailer
/// (kRecordCrcBytes, included in the append accounting). A crash loses the
/// in-memory tail and tears any log write in flight; injected bit rot can
/// corrupt the durable tail. Recovery replays the on-disk log up to the
/// first missing or CRC-failing record and truncates the rest — the
/// classic WAL torn-tail rule.
class Wal {
 public:
  /// Modeled CRC trailer bytes appended per record.
  static constexpr uint32_t kRecordCrcBytes = 8;

  /// `disk` is the device log pages are written to (in this simulation the
  /// node's data disk, as on the paper's single-disk nodes).
  Wal(storage::Disk* disk, NodeId node)
      : disk_(disk), node_(node) {}
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Appends a record of `bytes` payload bytes (plus the CRC trailer);
  /// returns its LSN. Purely in-memory.
  uint64_t Append(uint64_t txn, uint32_t bytes);

  /// Makes everything up to `lsn` durable. Returns immediately if already
  /// durable; otherwise performs (or waits for) the covering log write.
  /// An `lsn` beyond the current tail — a record truncated away by a prior
  /// recovery — is clamped to the tail: there is nothing left to force.
  sim::Task<void> Force(uint64_t lsn);

  /// Models a crash of this node: the in-memory tail is gone, and a log
  /// write in flight is torn (its records fail their CRC on replay). Call
  /// Recover() before appending again.
  void Crash();

  /// Injected bit rot on the durable tail: records from `lsn` on fail
  /// their CRC, so the next Recover() truncates there.
  void CorruptFrom(uint64_t lsn);

  /// Replays the on-disk log after a crash: the recovered prefix ends just
  /// before the first missing or CRC-failing record; everything after it
  /// is truncated (counted in truncated_records()). Returns the recovered
  /// durable LSN.
  uint64_t Recover();

  uint64_t next_lsn() const { return next_lsn_; }
  uint64_t durable_lsn() const { return durable_lsn_; }
  uint64_t appended_bytes() const { return appended_bytes_; }
  uint64_t forces() const { return forces_; }
  /// Records discarded by recoveries (never durable, torn, or corrupt).
  uint64_t truncated_records() const { return truncated_records_; }
  /// Log writes that were in flight at a crash instant.
  uint64_t torn_writes() const { return torn_writes_; }
  NodeId node() const { return node_; }

 private:
  storage::Disk* disk_;
  NodeId node_;
  uint64_t next_lsn_ = 1;     // next LSN to hand out
  uint64_t durable_lsn_ = 0;  // highest LSN on disk
  uint64_t appended_bytes_ = 0;
  uint64_t forces_ = 0;
  uint64_t crashes_ = 0;
  uint32_t writes_in_flight_ = 0;
  uint64_t corrupt_from_ = 0;  // 0 = no injected tail corruption
  uint64_t truncated_records_ = 0;
  uint64_t torn_writes_ = 0;
};

}  // namespace memgoal::txn

#endif  // MEMGOAL_TXN_WAL_H_
