#ifndef MEMGOAL_CORE_INTEGRITY_SERVICE_H_
#define MEMGOAL_CORE_INTEGRITY_SERVICE_H_

#include <cstdint>
#include <optional>
#include <span>

#include "sim/task.h"
#include "storage/integrity.h"
#include "storage/types.h"

namespace memgoal::core {

class ClusterSystem;

/// The silent-corruption model (DESIGN.md §10): per-copy integrity marks,
/// the mapping of injected strikes onto them, verify-on-read, quarantine,
/// the disk repair ladder, the idle-disk scrubber and the ledger the
/// invariant auditor balances. It is the only code that reads or writes
/// integrity marks or ledger counters, and the only reader of the three
/// integrity bugs (kSkipVerify, kServeQuarantined, kLostPageLeak). The
/// access path asks it one question per read and acts on the answer.
///
/// Owned by ClusterSystem, whose nodes, directory and network it drives.
class IntegrityService {
 public:
  /// What the integrity model has observed and decided so far.
  struct Ledger {
    /// Verify-on-read detections, frames and disk copies together.
    uint64_t detected = 0;
    /// Detections on disk copies; each opens a repair ladder.
    uint64_t disk_detections = 0;
    /// Detectably corrupt data consumed by a client access. Must stay zero
    /// (auditor-enforced) except under the kSkipVerify injected bug.
    uint64_t served = 0;
    /// Latently corrupt data consumed by a client access; undetectable by
    /// construction, so reported but never audited against.
    uint64_t latent_served = 0;
    /// Quarantine decisions taken; the executions are the per-cache
    /// NodeCache::quarantined() counters (frames_quarantined()).
    uint64_t quarantine_decisions = 0;
    /// Repair-ladder outcomes for detectably corrupt disk copies.
    uint64_t repairs_replica = 0;
    uint64_t pages_lost = 0;
    /// Ladders between detection and outcome (a replica transfer or disk
    /// rewrite is in flight), so the accounting audit can run at interval
    /// boundaries without flagging repairs in progress.
    uint64_t ladders_open = 0;
    /// Scrubber progress: completed verify reads, wakeups, busy skips.
    uint64_t pages_scrubbed = 0;
    uint64_t scrub_ticks = 0;
    uint64_t scrub_skipped_busy = 0;
  };

  explicit IntegrityService(ClusterSystem* system);
  IntegrityService(const IntegrityService&) = delete;
  IntegrityService& operator=(const IntegrityService&) = delete;

  /// Spawns the per-node background scrubbers when scrubbing is enabled.
  /// A scrub-off run spawns nothing, so its event sequence is untouched.
  void Start();

  /// Corruption instant: maps the injector's opaque draw onto a concrete
  /// target (cached frame or disk copy at `node`) and a detectability
  /// outcome. Every decision is made here, from the draw, so the access
  /// path never consumes RNG. Draws that land on a non-resident frame under
  /// the frames-only surface, or on an already-flawed copy, fizzle.
  void HandleCorruption(NodeId node, uint64_t draw);

  /// Verify-on-read of `node`'s cached frame of `page`: on a local hit, and
  /// at the server of a remote fetch before it ships the page. Returns the
  /// flaw whoever reads the frame consumes (kNone, kLatent past the
  /// checksum, kDetectable only under kSkipVerify), or nullopt when the
  /// verify caught the flaw and quarantined the frame.
  std::optional<storage::Flaw> VerifyFrame(NodeId node, PageId page) {
    // Inline so the runs that never corrupt anything pay one branch.
    if (!map_.any_marked()) return storage::Flaw::kNone;
    return VerifyMarkedFrame(node, page);
  }

  /// Verify-on-read of `page`'s just-read disk copy. A detectable flaw
  /// runs the repair ladder: rewrite from the cheapest intact cached
  /// replica (accounted transfer + disk write at the home), else declare
  /// the page lost and re-initialize it. Returns the integrity of the
  /// content the reader ends up with: kNone after a clean read, a replica
  /// repair or a loss; kLatent when the copy (or the repair source)
  /// carries a flaw past the checksum; kDetectable only under kSkipVerify.
  sim::Task<storage::Flaw> VerifyDiskRead(PageId page);

  /// Counts what a client access consumed: kDetectable means a verify was
  /// skipped somewhere (the no-corrupt-page-served audit's ground truth).
  void Consume(storage::Flaw flaw) {
    if (flaw == storage::Flaw::kDetectable) {
      ++ledger_.served;
    } else if (flaw == storage::Flaw::kLatent) {
      ++ledger_.latent_served;  // sailed past the checksum; modeled only
    }
  }

  /// `node`'s fresh frame of `page` holds bits fetched with `flaw`: a
  /// flawed source silently propagates its flaw into the new copy.
  void OnFrameFilled(NodeId node, PageId page, storage::Flaw flaw) {
    if (flaw != storage::Flaw::kNone) map_.MarkFrame(node, page, flaw);
  }

  /// Clears the marks of frames leaving `node`'s cache by eviction or
  /// invalidation (a stale mark would mis-flag a future re-fetch).
  void OnFramesDropped(NodeId node, std::span<const PageId> dropped) {
    if (!map_.any_marked()) return;
    for (const PageId page : dropped) map_.ClearFrame(node, page);
  }

  /// Corrupt frames die with a crashed node's volatile buffer.
  void OnNodeCrash(NodeId node) { map_.ClearNodeFrames(node); }

  /// Per-copy integrity state (disk copies and cached frames).
  const storage::IntegrityMap& map() const { return map_; }
  const Ledger& ledger() const { return ledger_; }
  /// Quarantines executed by the buffer pools, summed over nodes.
  uint64_t frames_quarantined() const;

 private:
  std::optional<storage::Flaw> VerifyMarkedFrame(NodeId node, PageId page);

  /// Condemns `node`'s cached frame of `page` after a failed verify:
  /// counts the decision, evicts the frame (with directory cleanup and a
  /// drop hint to the home) and clears its mark. Under kServeQuarantined
  /// the decision is counted but the frame stays resident, which is exactly
  /// what the quarantine-accounting audit flags.
  void QuarantineFrame(NodeId node, PageId page);

  /// Per-node background scrubber: verifies one disk-resident page per
  /// tick, but only when the disk is idle (strictly lower priority than
  /// workload I/O), feeding detections into the repair ladder.
  sim::Task<void> ScrubLoop(NodeId node);

  ClusterSystem* system_;
  storage::IntegrityMap map_;
  Ledger ledger_;
};

}  // namespace memgoal::core

#endif  // MEMGOAL_CORE_INTEGRITY_SERVICE_H_
