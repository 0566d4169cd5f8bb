#include "storage/integrity.h"

#include "common/check.h"

namespace memgoal::storage {

IntegrityMap::IntegrityMap(uint32_t num_pages, uint32_t num_nodes)
    : num_pages_(num_pages), num_nodes_(num_nodes),
      disk_(num_pages, 0),
      frames_(static_cast<size_t>(num_pages) * num_nodes, 0) {
  MEMGOAL_CHECK(num_pages > 0);
  MEMGOAL_CHECK(num_nodes > 0);
}

bool IntegrityMap::MarkDisk(PageId page, Flaw flaw) {
  MEMGOAL_CHECK(page < num_pages_);
  MEMGOAL_CHECK(flaw != Flaw::kNone);
  if (disk_[page] != 0) return false;
  disk_[page] = static_cast<uint8_t>(flaw);
  ++marked_;
  return true;
}

bool IntegrityMap::MarkFrame(NodeId node, PageId page, Flaw flaw) {
  MEMGOAL_CHECK(node < num_nodes_);
  MEMGOAL_CHECK(page < num_pages_);
  MEMGOAL_CHECK(flaw != Flaw::kNone);
  const size_t index = Index(node, page);
  if (frames_[index] != 0) return false;
  frames_[index] = static_cast<uint8_t>(flaw);
  ++marked_;
  return true;
}

bool IntegrityMap::ClearDisk(PageId page) {
  MEMGOAL_CHECK(page < num_pages_);
  if (disk_[page] == 0) return false;
  disk_[page] = 0;
  MEMGOAL_CHECK(marked_ > 0);
  --marked_;
  return true;
}

bool IntegrityMap::ClearFrame(NodeId node, PageId page) {
  MEMGOAL_CHECK(node < num_nodes_);
  MEMGOAL_CHECK(page < num_pages_);
  const size_t index = Index(node, page);
  if (frames_[index] == 0) return false;
  frames_[index] = 0;
  MEMGOAL_CHECK(marked_ > 0);
  --marked_;
  return true;
}

uint32_t IntegrityMap::ClearNodeFrames(NodeId node) {
  MEMGOAL_CHECK(node < num_nodes_);
  uint32_t wiped = 0;
  for (PageId page = 0; page < num_pages_; ++page) {
    const size_t index = Index(node, page);
    if (frames_[index] != 0) {
      frames_[index] = 0;
      ++wiped;
    }
  }
  MEMGOAL_CHECK(marked_ >= wiped);
  marked_ -= wiped;
  return wiped;
}

}  // namespace memgoal::storage
