#ifndef MEMGOAL_STORAGE_INTEGRITY_H_
#define MEMGOAL_STORAGE_INTEGRITY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "storage/types.h"

namespace memgoal::storage {

/// Modeled integrity state of one stored copy of a page. The simulation
/// never materializes page contents, so corruption is a per-copy flag: the
/// injector marks a copy flawed, verify-on-read observes the flag.
enum class Flaw : uint8_t {
  kNone = 0,
  /// A checksum verify on read catches this flaw.
  kDetectable = 1,
  /// Past the checksum (multi-bit pattern the CRC misses, or corruption of
  /// checksummed-then-cached data). Verify-on-read serves it unknowingly.
  kLatent = 2,
};

/// Tracks which stored copies of each page are corrupt: one slot per
/// permanent disk copy and one per (node, page) cached frame. Pure
/// bookkeeping — no RNG, no simulated time — so the access-path cost of
/// integrity checking in an uncorrupted run is a single `any_marked()`
/// branch, which keeps zero-rate runs bit-identical to builds that never
/// heard of corruption.
///
/// Marks are set by the fault-injection callback (detectability decided at
/// injection time from the injected draw) and cleared by whoever destroys
/// or rewrites the copy: quarantine/eviction clears a frame, repair
/// rewrites a disk copy, a crash wipes all of a node's frames.
class IntegrityMap {
 public:
  IntegrityMap(uint32_t num_pages, uint32_t num_nodes);

  /// Marks the permanent disk copy of `page` flawed. Returns false (and
  /// leaves the existing mark) if the copy is already flawed.
  bool MarkDisk(PageId page, Flaw flaw);

  /// Marks the frame caching `page` at `node` flawed. Returns false if the
  /// frame is already flawed.
  bool MarkFrame(NodeId node, PageId page, Flaw flaw);

  Flaw DiskFlaw(PageId page) const {
    return static_cast<Flaw>(disk_[page]);
  }
  Flaw FrameFlaw(NodeId node, PageId page) const {
    return static_cast<Flaw>(frames_[Index(node, page)]);
  }

  /// Clears the disk-copy mark (the copy was rewritten from an intact
  /// source, or re-initialized after being declared lost). Returns true if
  /// a mark was removed.
  bool ClearDisk(PageId page);

  /// Clears the frame mark (the frame was evicted, quarantined, or
  /// overwritten by a fresh fetch). Returns true if a mark was removed.
  bool ClearFrame(NodeId node, PageId page);

  /// Wipes every frame mark on `node` (its RAM is gone after a crash).
  /// Returns the number of marks removed.
  uint32_t ClearNodeFrames(NodeId node);

  /// Fast path: false means no copy anywhere is flawed and every verify
  /// trivially passes.
  bool any_marked() const { return marked_ != 0; }

  /// Currently outstanding marks (disk + frames).
  uint64_t marked() const { return marked_; }

  uint32_t num_pages() const { return num_pages_; }
  uint32_t num_nodes() const { return num_nodes_; }

 private:
  size_t Index(NodeId node, PageId page) const {
    return static_cast<size_t>(page) * num_nodes_ + node;
  }

  uint32_t num_pages_;
  uint32_t num_nodes_;
  std::vector<uint8_t> disk_;
  std::vector<uint8_t> frames_;
  uint64_t marked_ = 0;
};

}  // namespace memgoal::storage

#endif  // MEMGOAL_STORAGE_INTEGRITY_H_
