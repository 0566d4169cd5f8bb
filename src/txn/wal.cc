#include "txn/wal.h"

#include <algorithm>

#include "common/check.h"

namespace memgoal::txn {

uint64_t Wal::Append(uint64_t /*txn*/, uint32_t bytes) {
  appended_bytes_ += bytes + kRecordCrcBytes;
  return next_lsn_++;
}

sim::Task<void> Wal::Force(uint64_t lsn) {
  // A caller may hold an LSN that a recovery has since truncated away;
  // clamping to the tail keeps the loop's exit condition reachable.
  const uint64_t target = std::min(lsn, next_lsn_ - 1);
  // Group commit: a force that starts after `lsn` was appended makes
  // everything up to the current tail durable in one log write. Forces for
  // already-durable LSNs are free.
  while (durable_lsn_ < target) {
    const uint64_t covers = next_lsn_ - 1;
    const uint64_t crash_epoch = crashes_;
    ++forces_;
    ++writes_in_flight_;
    co_await disk_->WritePage();
    MEMGOAL_CHECK(writes_in_flight_ > 0);
    --writes_in_flight_;
    // A crash while the write was in flight tore it: its records are on
    // disk but fail their CRC, so they must not count as durable.
    if (crashes_ != crash_epoch) co_return;
    // Everything appended before this write started is now durable. (A
    // record appended *during* the write is covered by the next force —
    // hence the loop.)
    if (covers > durable_lsn_) durable_lsn_ = covers;
  }
}

void Wal::Crash() {
  ++crashes_;
  if (writes_in_flight_ > 0) ++torn_writes_;
}

void Wal::CorruptFrom(uint64_t lsn) {
  MEMGOAL_CHECK(lsn > 0);
  if (corrupt_from_ == 0 || lsn < corrupt_from_) corrupt_from_ = lsn;
}

uint64_t Wal::Recover() {
  // The on-disk prefix ends at durable_lsn_; a corrupt record inside it
  // pulls the first-bad point even earlier. Everything from the first bad
  // (or missing) record on is truncated.
  uint64_t recovered = durable_lsn_;
  if (corrupt_from_ != 0 && corrupt_from_ <= recovered) {
    recovered = corrupt_from_ - 1;
  }
  truncated_records_ += (next_lsn_ - 1) - recovered;
  next_lsn_ = recovered + 1;
  durable_lsn_ = recovered;
  corrupt_from_ = 0;
  return recovered;
}

}  // namespace memgoal::txn
