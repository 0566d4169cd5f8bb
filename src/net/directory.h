#ifndef MEMGOAL_NET_DIRECTORY_H_
#define MEMGOAL_NET_DIRECTORY_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/inline_vector.h"
#include "storage/database.h"
#include "storage/types.h"

namespace memgoal::net {

/// Home-based page directory: tracks which nodes currently cache each page
/// and aggregates per-node heat reports into a global heat per page.
///
/// In the modelled system this state lives at each page's home node and is
/// maintained by control/hint messages; the simulation keeps it in one exact
/// structure while the message *traffic* for maintaining it is generated and
/// accounted by the cache layer (see DESIGN.md substitution table). The
/// paper's cost-based replacement consumes three queries from here: is a
/// local copy the last cached copy in the system (§6), where can a remote
/// copy be fetched from, and what is the global heat of a page.
class PageDirectory {
 public:
  explicit PageDirectory(const storage::Database* database);

  // -- Copy tracking -------------------------------------------------------

  /// Registers that `node` now caches `page`. Idempotent.
  void OnPageCached(NodeId node, PageId page);

  /// Registers that `node` dropped `page`. Idempotent.
  void OnPageDropped(NodeId node, PageId page);

  /// Bulk-drops every registration of `node`: cached-copy entries and heat
  /// contributions. One code path serves both a node crash (the node's
  /// volatile state is gone) and an administrative shrink-to-zero of a
  /// node's buffer pool. Idempotent; returns the number of copy entries
  /// removed.
  int DropNode(NodeId node);

  bool IsCachedAt(NodeId node, PageId page) const;
  int CopyCount(PageId page) const;

  /// True if `node` holds the only cached copy of `page` in the system.
  bool IsLastCopy(NodeId node, PageId page) const;

  /// A node other than `except` that caches `page`, if any. The best-ranked
  /// copy holder: lowest health cost first, ties broken by the classic scan
  /// order (the page's home node — no forward hop needed — then
  /// deterministically from the home). With all costs equal this is exactly
  /// the historic home-first scan.
  std::optional<NodeId> FindCopy(PageId page, NodeId except) const;

  /// Copy-holder list sized for the common replication degree; spills to
  /// the heap only on unusually wide replication.
  using CopyList = common::InlineVector<NodeId, 8>;

  /// All nodes other than `except` that cache `page`, best first, same
  /// ranking as FindCopy. The fetch path hedges down this list. While a
  /// partition is active (see SetReachability), holders unreachable *from*
  /// `except` — the requester in every call site — are excluded: the
  /// requester could not complete a fetch protocol with them anyway.
  std::vector<NodeId> RankedCopies(PageId page, NodeId except) const;

  /// Allocation-free variant for the per-access fetch path: appends the
  /// ranked holders to `out` (cleared first).
  void RankedCopies(PageId page, NodeId except, CopyList* out) const;

  // -- Partition awareness -------------------------------------------------

  /// Installs the reachability oracle (owned by the fault-injection layer,
  /// same relation the network enforces). Consulted by RankedCopies only
  /// while partition_active is set.
  void SetReachability(std::function<bool(NodeId, NodeId)> reachable) {
    reachable_ = std::move(reachable);
  }
  void SetPartitionActive(bool active) { partition_active_ = active; }
  bool partition_active() const { return partition_active_; }

  // -- Node health ranking -------------------------------------------------

  /// Sets the replica-ranking cost of `node` (lower = preferred; the fetch
  /// layer feeds its per-node health score, an EWMA of observed fetch
  /// latency, through here). Nodes default to cost 0.
  void SetNodeCost(NodeId node, double cost);
  double NodeCost(NodeId node) const;

  // -- Global heat ---------------------------------------------------------

  /// Updates the heat contribution reported by `node` for `page`.
  void ReportLocalHeat(NodeId node, PageId page, double heat);

  /// Sum of the most recent per-node heat reports for `page`.
  double GlobalHeat(PageId page) const;

  /// Total pages currently cached somewhere (for tests/metrics).
  uint64_t total_cached_pages() const { return total_cached_; }

  /// Recomputes the maintained aggregates (per-page copy counts, the total
  /// cached counter, per-page global heat sums) from the base tables and
  /// compares. Returns a description of the first mismatch, or nullopt when
  /// internally consistent. Used by the invariant auditor.
  std::optional<std::string> AuditInternalConsistency() const;

 private:
  size_t Index(NodeId node, PageId page) const {
    return static_cast<size_t>(page) * num_nodes_ + node;
  }

  const storage::Database* database_;
  uint32_t num_nodes_;
  std::vector<bool> cached_;        // [page * num_nodes + node]
  std::vector<uint16_t> copy_count_;  // [page]
  std::vector<double> heat_;        // [page * num_nodes + node]
  std::vector<double> global_heat_;  // [page], maintained sum
  std::vector<double> node_cost_;    // [node], replica-ranking cost
  uint64_t total_cached_ = 0;
  std::function<bool(NodeId, NodeId)> reachable_;
  bool partition_active_ = false;
};

}  // namespace memgoal::net

#endif  // MEMGOAL_NET_DIRECTORY_H_
