#include "core/integrity_service.h"

#include "common/rng.h"
#include "core/system.h"

namespace memgoal::core {

IntegrityService::IntegrityService(ClusterSystem* system)
    : system_(system),
      map_(system->config().db_pages, system->config().num_nodes) {}

void IntegrityService::Start() {
  const SystemConfig& config = system_->config();
  if (config.scrub_interval_ms <= 0.0) return;
  for (NodeId i = 0; i < config.num_nodes; ++i) {
    system_->simulator().Spawn(ScrubLoop(i));
  }
}

void IntegrityService::HandleCorruption(NodeId node, uint64_t draw) {
  // Everything about the strike is decided here, from the injected draw:
  // which surface it hits, which page, and whether the flaw is latent. The
  // access paths make no RNG draws of their own, so enabling corruption at
  // rate zero leaves every other schedule bit-identical.
  const SystemConfig& config = system_->config();
  const storage::Database& database = system_->database();
  const double latent_roll =
      static_cast<double>(common::Mix64(draw ^ 0x1a7e57ull) >> 11) * 0x1.0p-53;
  const storage::Flaw flaw = latent_roll < config.corrupt_latent_fraction
                                 ? storage::Flaw::kLatent
                                 : storage::Flaw::kDetectable;
  // Bit rot prefers what exists: if the drawn page is resident in the
  // struck node's buffer, the frame takes the hit; otherwise the strike
  // falls on the node's disk (a page it homes). A strike on an
  // already-flawed copy fizzles (MarkFrame/MarkDisk return false).
  const PageId frame_page = static_cast<PageId>(
      common::Mix64(draw ^ 0x9a6eull) % database.num_pages());
  if (config.corrupt_surface != CorruptionSurface::kDisk &&
      system_->node(node).node_cache().IsCached(frame_page)) {
    map_.MarkFrame(node, frame_page, flaw);
    return;
  }
  // A frames-only strike on a non-resident page fizzles.
  if (config.corrupt_surface == CorruptionSurface::kFrames) return;
  const uint32_t homed = database.PagesHomedAt(node);
  if (homed == 0) return;
  const PageId disk_page = static_cast<PageId>(
      node + (common::Mix64(draw ^ 0xd15cull) % homed) * config.num_nodes);
  map_.MarkDisk(disk_page, flaw);
}

std::optional<storage::Flaw> IntegrityService::VerifyMarkedFrame(
    NodeId node, PageId page) {
  const storage::Flaw flaw = map_.FrameFlaw(node, page);
  if (flaw != storage::Flaw::kDetectable ||
      system_->config().injected_bug == InjectedBug::kSkipVerify) {
    return flaw;  // intact, latent, or (kSkipVerify) consumed as-is
  }
  ++ledger_.detected;
  QuarantineFrame(node, page);
  return std::nullopt;
}

void IntegrityService::QuarantineFrame(NodeId node, PageId page) {
  ++ledger_.quarantine_decisions;
  if (system_->config().injected_bug == InjectedBug::kServeQuarantined) {
    // Bug: the pool ignores the quarantine order — the frame (and its
    // mark) stay, so the decision/executed ledger stops balancing.
    return;
  }
  if (!system_->node(node).node_cache().Quarantine(page)) return;
  map_.ClearFrame(node, page);
  system_->directory().OnPageDropped(node, page);
  // The home learns of the drop the same way eviction hints travel.
  const NodeId home = system_->database().HomeOf(page);
  if (home != node) {
    system_->simulator().Spawn(system_->network().Transfer(
        node, home, kHintMsgBytes, net::TrafficClass::kHeatHint));
  }
}

sim::Task<storage::Flaw> IntegrityService::VerifyDiskRead(PageId page) {
  if (!map_.any_marked()) co_return storage::Flaw::kNone;
  const storage::Flaw flaw = map_.DiskFlaw(page);
  if (flaw != storage::Flaw::kDetectable) {
    co_return flaw;  // clean, or latent (sails past the checksum)
  }
  const SystemConfig& config = system_->config();
  if (config.injected_bug == InjectedBug::kSkipVerify) {
    co_return flaw;  // bug: the corrupt copy is consumed as-is
  }
  ++ledger_.detected;
  ++ledger_.disk_detections;
  ++ledger_.ladders_open;
  // Repair ladder: the cheapest intact cached replica rewrites the disk
  // copy (accounted page transfer to the home over the storage bus, then a
  // disk write). The sources are picked before the first transfer, so a
  // source struck while an earlier transfer is in flight is still tried.
  // Latent replicas count as intact (nothing can see their flaw): a repair
  // sourced from one faithfully writes latently bad bits back.
  const NodeId home = system_->database().HomeOf(page);
  net::PageDirectory::CopyList ranked;
  system_->directory().RankedCopies(page, home, &ranked);
  net::PageDirectory::CopyList sources;
  for (const NodeId holder : ranked) {
    if (map_.FrameFlaw(holder, page) != storage::Flaw::kDetectable) {
      sources.push_back(holder);
    }
  }
  for (const NodeId source : sources) {
    if (!system_->NodeUp(source)) continue;
    const storage::Flaw source_flaw = map_.FrameFlaw(source, page);
    const bool arrived = co_await system_->network().Transfer(
        source, home, config.page_bytes + kPageHeaderBytes,
        net::TrafficClass::kPage, /*via_storage_bus=*/true);
    if (!arrived) continue;  // lost mid-repair: try the next source
    co_await system_->node(home).disk().WritePage();
    map_.ClearDisk(page);
    if (source_flaw == storage::Flaw::kLatent) {
      map_.MarkDisk(page, storage::Flaw::kLatent);
    }
    ++ledger_.repairs_replica;
    --ledger_.ladders_open;
    co_return source_flaw;  // the reader gets the repaired content
  }
  // Ladder exhausted: no intact cached copy survives and the disk copy is
  // bad — the page is lost. Count it and re-initialize the copy so the
  // database stays navigable.
  --ledger_.ladders_open;
  if (config.injected_bug == InjectedBug::kLostPageLeak) {
    // Bug: neither counted nor re-initialized; the detection ledger leaks.
    co_return storage::Flaw::kNone;
  }
  map_.ClearDisk(page);
  ++ledger_.pages_lost;
  co_return storage::Flaw::kNone;
}

sim::Task<void> IntegrityService::ScrubLoop(NodeId node) {
  // Background scrubber: strictly lower priority than workload I/O — it
  // reads one homed page per tick and only when the node's disk is idle at
  // the tick instant, so it consumes idle disk bandwidth only.
  const SystemConfig& config = system_->config();
  const uint32_t homed = system_->database().PagesHomedAt(node);
  if (homed == 0) co_return;
  uint32_t cursor = 0;
  while (true) {
    co_await system_->simulator().Delay(config.scrub_interval_ms);
    ++ledger_.scrub_ticks;  // unconditional: the audit's liveness signal
    if (!system_->NodeUp(node)) continue;  // a dead node scrubs nothing
    storage::Disk& disk = system_->node(node).disk();
    if (disk.resource().in_use() > 0 || disk.resource().queue_length() > 0) {
      ++ledger_.scrub_skipped_busy;
      continue;
    }
    const PageId page = static_cast<PageId>(node + cursor * config.num_nodes);
    cursor = (cursor + 1) % homed;
    co_await disk.ReadPage();
    ++ledger_.pages_scrubbed;
    co_await VerifyDiskRead(page);
  }
}

uint64_t IntegrityService::frames_quarantined() const {
  uint64_t total = 0;
  for (NodeId i = 0; i < system_->num_nodes(); ++i) {
    total += system_->node(i).node_cache().quarantined();
  }
  return total;
}

}  // namespace memgoal::core
