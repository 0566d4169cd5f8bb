#include "net/directory.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

#include "common/check.h"

namespace memgoal::net {

PageDirectory::PageDirectory(const storage::Database* database)
    : database_(database), num_nodes_(database->num_nodes()),
      words_per_page_((num_nodes_ + 63) / 64),
      holders_(static_cast<size_t>(database->num_pages()) * words_per_page_,
               0),
      copy_count_(database->num_pages(), 0),
      heat_(static_cast<size_t>(database->num_pages()) * num_nodes_, 0.0),
      global_heat_(database->num_pages(), 0.0),
      node_cost_(num_nodes_, 0.0) {}

void PageDirectory::OnPageCached(NodeId node, PageId page) {
  MEMGOAL_DCHECK(node < num_nodes_ && page < database_->num_pages());
  uint64_t& word = holders_[HolderIndex(node, page)];
  if (word & HolderBit(node)) return;
  word |= HolderBit(node);
  ++copy_count_[page];
  ++total_cached_;
}

void PageDirectory::OnPageDropped(NodeId node, PageId page) {
  MEMGOAL_DCHECK(node < num_nodes_ && page < database_->num_pages());
  uint64_t& word = holders_[HolderIndex(node, page)];
  if (!(word & HolderBit(node))) return;
  word &= ~HolderBit(node);
  MEMGOAL_CHECK(copy_count_[page] > 0);
  --copy_count_[page];
  --total_cached_;
}

int PageDirectory::DropNode(NodeId node) {
  MEMGOAL_DCHECK(node < num_nodes_);
  int dropped = 0;
  for (PageId page = 0; page < database_->num_pages(); ++page) {
    uint64_t& word = holders_[HolderIndex(node, page)];
    if (word & HolderBit(node)) {
      word &= ~HolderBit(node);
      MEMGOAL_CHECK(copy_count_[page] > 0);
      --copy_count_[page];
      --total_cached_;
      ++dropped;
    }
    const size_t idx = Index(node, page);
    if (heat_[idx] != 0.0) {
      global_heat_[page] -= heat_[idx];
      heat_[idx] = 0.0;
    }
  }
  return dropped;
}

bool PageDirectory::IsCachedAt(NodeId node, PageId page) const {
  MEMGOAL_DCHECK(node < num_nodes_ && page < database_->num_pages());
  return (holders_[HolderIndex(node, page)] & HolderBit(node)) != 0;
}

int PageDirectory::CopyCount(PageId page) const {
  MEMGOAL_DCHECK(page < database_->num_pages());
  return copy_count_[page];
}

void PageDirectory::RankedCopies(PageId page, NodeId except,
                                 CopyList* out) const {
  out->clear();
  if (copy_count_[page] == 0) return;
  // Classic scan order first: home, then deterministically from the home,
  // i.e. holders in [home, N) and then in [0, home). Walking the words from
  // the home's word (its bits at and above the home first, the bits below
  // it last) emits exactly that rotation.
  const NodeId home = database_->HomeOf(page);
  const uint64_t* words =
      &holders_[static_cast<size_t>(page) * words_per_page_];
  const auto emit = [&](size_t word, uint64_t bits) {
    for (; bits != 0; bits &= bits - 1) {
      const auto node =
          static_cast<NodeId>(word * 64 + std::countr_zero(bits));
      if (node == except) continue;
      if (partition_active_ && reachable_ && !reachable_(except, node)) {
        continue;
      }
      out->push_back(node);
    }
  };
  const size_t home_word = home / 64;
  const uint64_t from_home = ~uint64_t{0} << (home % 64);
  emit(home_word, words[home_word] & from_home);
  for (size_t word = home_word + 1; word < words_per_page_; ++word) {
    emit(word, words[word]);
  }
  for (size_t word = 0; word < home_word; ++word) emit(word, words[word]);
  emit(home_word, words[home_word] & ~from_home);
  // Stable sort by health cost: equal costs (the healthy steady state)
  // preserve the scan order exactly, so ranking only reorders when the
  // fetch layer has actually observed asymmetric latencies. Insertion sort
  // keeps stability without std::stable_sort's temporary buffer; the list
  // is at most the replication degree long.
  for (NodeId* it = out->begin() + (out->empty() ? 0 : 1); it < out->end();
       ++it) {
    const NodeId node = *it;
    const double cost = node_cost_[node];
    NodeId* hole = it;
    while (hole != out->begin() && cost < node_cost_[*(hole - 1)]) {
      *hole = *(hole - 1);
      --hole;
    }
    *hole = node;
  }
}

void PageDirectory::SetNodeCost(NodeId node, double cost) {
  MEMGOAL_DCHECK(node < num_nodes_);
  node_cost_[node] = cost;
}

double PageDirectory::NodeCost(NodeId node) const {
  MEMGOAL_DCHECK(node < num_nodes_);
  return node_cost_[node];
}

void PageDirectory::ReportLocalHeat(NodeId node, PageId page, double heat) {
  MEMGOAL_DCHECK(node < num_nodes_ && page < database_->num_pages());
  const size_t idx = Index(node, page);
  global_heat_[page] += heat - heat_[idx];
  heat_[idx] = heat;
}

double PageDirectory::GlobalHeat(PageId page) const {
  MEMGOAL_DCHECK(page < database_->num_pages());
  return global_heat_[page];
}

std::optional<std::string> PageDirectory::AuditInternalConsistency() const {
  uint64_t recomputed_total = 0;
  for (PageId page = 0; page < database_->num_pages(); ++page) {
    int copies = 0;
    double heat_sum = 0.0;
    for (NodeId node = 0; node < num_nodes_; ++node) {
      if (IsCachedAt(node, page)) ++copies;
      heat_sum += heat_[Index(node, page)];
    }
    if (copies != copy_count_[page]) {
      return "page " + std::to_string(page) + ": copy_count " +
             std::to_string(copy_count_[page]) + " != recomputed " +
             std::to_string(copies);
    }
    const double drift = std::abs(heat_sum - global_heat_[page]);
    if (drift > 1e-6 * (1.0 + std::abs(heat_sum))) {
      return "page " + std::to_string(page) + ": global_heat " +
             std::to_string(global_heat_[page]) + " != recomputed " +
             std::to_string(heat_sum);
    }
    recomputed_total += static_cast<uint64_t>(copies);
  }
  if (recomputed_total != total_cached_) {
    return "total_cached " + std::to_string(total_cached_) +
           " != recomputed " + std::to_string(recomputed_total);
  }
  return std::nullopt;
}

}  // namespace memgoal::net
