#include "core/measure.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "la/gauss.h"

namespace memgoal::core {

namespace {

constexpr size_t kNpos = std::numeric_limits<size_t>::max();

/// Median of values[0, count); reorders them.
double MedianInPlace(double* values, size_t count) {
  MEMGOAL_CHECK(count > 0);
  const size_t mid = count / 2;
  std::nth_element(values, values + mid, values + count);
  double median = values[mid];
  if (count % 2 == 0) {
    // Lower middle is the max of the left half after nth_element.
    median = (median + *std::max_element(values, values + mid)) / 2.0;
  }
  return median;
}

/// |x - median| in units of the normal-consistent MAD scale over `window`.
double RobustZ(const std::deque<double>& window, double x) {
  // Both medians select over the window in its own order, on the stack.
  constexpr size_t kMax = MeasureStore::kOutlierWindow;
  const size_t count = window.size();
  MEMGOAL_CHECK(count <= kMax);
  std::array<double, kMax> values;
  std::array<double, kMax> scratch;
  std::copy(window.begin(), window.end(), values.begin());
  std::copy_n(values.begin(), count, scratch.begin());
  const double median = MedianInPlace(scratch.data(), count);
  for (size_t i = 0; i < count; ++i) {
    scratch[i] = std::fabs(values[i] - median);
  }
  // 1.4826 makes the MAD estimate σ for normal data.
  double scale = 1.4826 * MedianInPlace(scratch.data(), count);
  if (scale <= 0.0) {
    // Degenerate window (more than half the samples identical): fall back
    // to a small relative scale so a genuinely different value still
    // registers but floating-point jitter does not.
    scale = 0.05 * std::max(std::fabs(median), 1e-9);
  }
  return std::fabs(x - median) / scale;
}

}  // namespace

MeasureStore::MeasureStore(size_t num_nodes) : num_nodes_(num_nodes) {
  MEMGOAL_CHECK(num_nodes > 0);
  active_.resize(num_nodes);
  for (size_t i = 0; i < num_nodes; ++i) active_[i] = i;
}

la::Vector MeasureStore::RowOf(const la::Vector& allocation) const {
  la::Vector row;
  row.reserve(active_.size() + 1);
  for (size_t i : active_) row.push_back(allocation[i]);
  row.push_back(1.0);
  return row;
}

size_t MeasureStore::FindMatching(const la::Vector& allocation) const {
  for (size_t i = 0; i < entries_.size(); ++i) {
    bool match = true;
    for (size_t j = 0; j < num_nodes_; ++j) {
      // Early exit on the first differing coordinate: at 256 nodes almost
      // every stored entry differs in the first few nodes, so the common
      // case is O(1) per entry instead of O(N).
      if (std::fabs(entries_[i].allocation[j] - allocation[j]) >
          kSameAllocationTolerance) {
        match = false;
        break;
      }
    }
    if (match) return i;
  }
  return kNpos;
}

bool MeasureStore::IsOutlier(double rt_k, double rt_0) {
  bool outlier = false;
  if (rt_k_window_.size() >= kOutlierMinSamples) {
    outlier = RobustZ(rt_k_window_, rt_k) > kOutlierZ ||
              RobustZ(rt_0_window_, rt_0) > kOutlierZ;
  }
  // Rejected samples still enter the window: a sustained level shift
  // re-centers the median within half a window and is accepted thereafter.
  rt_k_window_.push_back(rt_k);
  rt_0_window_.push_back(rt_0);
  while (rt_k_window_.size() > kOutlierWindow) rt_k_window_.pop_front();
  while (rt_0_window_.size() > kOutlierWindow) rt_0_window_.pop_front();
  return outlier;
}

const char* MeasureStore::OutcomeName(ObserveOutcome outcome) {
  switch (outcome) {
    case ObserveOutcome::kAccepted:
      return "accepted";
    case ObserveOutcome::kRefreshed:
      return "refreshed";
    case ObserveOutcome::kOutlier:
      return "outlier";
    case ObserveOutcome::kRejectedDependent:
      return "rejected_dependent";
    case ObserveOutcome::kConditionReset:
      return "condition_reset";
  }
  return "?";
}

double MeasureStore::ConditionEstimate() const {
  return inverse_.initialized() ? inverse_.ConditionEstimate() : 0.0;
}

void MeasureStore::MaybeConditionReset() {
  if (!inverse_.initialized()) return;
  if (inverse_.ConditionEstimate() <= kConditionResetLimit) return;
  ++condition_resets_;
  entries_.clear();
  inverse_ = la::RowReplaceInverse();
}

bool MeasureStore::RestoreInverse(size_t slot) {
  // Prefer the exact rank-one undo: putting the stored row back reverses
  // the failed replacement up to rounding. A full re-inversion would reject
  // any basis past Gauss's ~1/kSingularTolerance pivot ceiling — far
  // stricter than kConditionResetLimit — and needlessly reset a
  // marginal-but-legal store.
  if (inverse_.ReplaceRow(slot, RowOf(entries_[slot].allocation))) {
    return true;
  }
  const size_t dim = active_.size() + 1;
  MEMGOAL_DCHECK(entries_.size() == dim);
  la::Matrix b(dim, dim);
  for (size_t i = 0; i < dim; ++i) {
    b.SetRow(i, RowOf(entries_[i].allocation));
  }
  return inverse_.Reset(b);
}

void MeasureStore::TryInitialize() {
  if (active_.empty()) return;
  const size_t dim = active_.size() + 1;
  if (entries_.size() < dim) return;
  la::Matrix b(dim, dim);
  for (size_t i = 0; i < dim; ++i) {
    b.SetRow(i, RowOf(entries_[i].allocation));
  }
  if (!inverse_.Reset(b)) {
    // Affinely dependent set: drop the oldest entry and wait for a fresh
    // point. (The warm-up heuristic perturbs allocations so this resolves
    // quickly.)
    size_t oldest = 0;
    for (size_t i = 1; i < entries_.size(); ++i) {
      if (entries_[i].seq < entries_[oldest].seq) oldest = i;
    }
    entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(oldest));
    return;
  }
  MaybeConditionReset();
}

MeasureStore::ObserveOutcome MeasureStore::Observe(
    const la::Vector& allocation, double rt_k, double rt_0) {
  return ObserveDetailed(allocation, rt_k, rt_0, la::Vector());
}

MeasureStore::ObserveOutcome MeasureStore::ObserveDetailed(
    const la::Vector& allocation, double rt_k, double rt_0,
    const la::Vector& rt_per_node) {
  MEMGOAL_CHECK(allocation.size() == num_nodes_);
  MEMGOAL_CHECK(rt_per_node.empty() || rt_per_node.size() == num_nodes_);

  if (IsOutlier(rt_k, rt_0)) {
    ++outlier_rejections_;
    return ObserveOutcome::kOutlier;
  }

  const size_t match = FindMatching(allocation);
  if (match != kNpos) {
    // Same partitioning as a stored point: refresh its response times
    // (phase (b): "update of the last measure point").
    entries_[match].rt_k = rt_k;
    entries_[match].rt_0 = rt_0;
    entries_[match].rt_per_node = rt_per_node;
    entries_[match].seq = next_seq_++;
    return ObserveOutcome::kRefreshed;
  }

  Entry entry{allocation, rt_k, rt_0, rt_per_node, next_seq_++};

  if (!ready()) {
    entries_.push_back(std::move(entry));
    TryInitialize();
    return ObserveOutcome::kAccepted;
  }

  // Full store: replace the oldest point whose replacement keeps the set
  // affinely independent *and* well-conditioned. The O(N) probe mirrors the
  // paper's incremental linear-independence test; the condition check runs
  // before the entry is committed, so a replacement that would degrade the
  // basis is rolled back and the next-oldest slot is tried instead of
  // poisoning the store and forcing a reset after the fact.
  std::vector<size_t> order(entries_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return entries_[a].seq < entries_[b].seq;
  });
  // Each failed probe costs an O(N^2) rank-one update plus its undo; at 256
  // nodes probing all N+1 slots makes one observation cubic. A dependent
  // replacement nearly always stays dependent across neighboring-age slots,
  // so capping the probe changes nothing on small stores (the committed
  // scenarios have <= 13 slots) and bounds the tail at scale.
  if (order.size() > kMaxReplaceProbes) order.resize(kMaxReplaceProbes);
  const la::Vector row = RowOf(allocation);
  for (size_t slot : order) {
    if (!inverse_.ReplaceRow(slot, row)) continue;
    if (inverse_.ConditionEstimate() <= kConditionResetLimit) {
      entries_[slot] = std::move(entry);
      return ObserveOutcome::kAccepted;
    }
    if (!RestoreInverse(slot)) {
      // Both the rank-one undo and the exact re-inversion failed: the
      // incrementally maintained basis has drifted past usability. Reset
      // and re-accumulate; the measurement is dropped with the store.
      ++condition_resets_;
      entries_.clear();
      inverse_ = la::RowReplaceInverse();
      return ObserveOutcome::kConditionReset;
    }
  }
  // Every replacement was affinely dependent or ill-conditioned; keep the
  // old basis (it still spans the measurement space).
  ++rejected_points_;
  return ObserveOutcome::kRejectedDependent;
}

void MeasureStore::Reset() {
  entries_.clear();
  inverse_ = la::RowReplaceInverse();
  // The old response-time regime is gone with the points; a fresh window
  // avoids rejecting the first post-reset samples against stale levels.
  rt_k_window_.clear();
  rt_0_window_.clear();
}

void MeasureStore::SetActiveNodes(std::vector<size_t> active) {
  for (size_t i : active) MEMGOAL_CHECK(i < num_nodes_);
  for (size_t i = 1; i < active.size(); ++i) {
    MEMGOAL_CHECK(active[i - 1] < active[i]);  // sorted, unique
  }
  active_ = std::move(active);
  Reset();
}

std::optional<MeasureStore::Planes> MeasureStore::FitPlanes() const {
  if (!ready()) return std::nullopt;
  const size_t dim = active_.size() + 1;
  la::Vector y_k(dim), y_0(dim);
  for (size_t i = 0; i < dim; ++i) {
    y_k[i] = entries_[i].rt_k;
    y_0[i] = entries_[i].rt_0;
  }
  const la::Vector beta_k = inverse_.Solve(y_k);
  const la::Vector beta_0 = inverse_.Solve(y_0);

  // Gradients expand back to full dimension with 0 for inactive nodes: no
  // allocation there can move the response time.
  Planes planes;
  planes.grad_k.assign(num_nodes_, 0.0);
  planes.grad_0.assign(num_nodes_, 0.0);
  for (size_t j = 0; j < active_.size(); ++j) {
    planes.grad_k[active_[j]] = beta_k[j];
    planes.grad_0[active_[j]] = beta_0[j];
  }
  planes.intercept_k = beta_k.back();
  planes.intercept_0 = beta_0.back();
  return planes;
}

std::optional<std::vector<MeasureStore::NodePlane>>
MeasureStore::FitNodePlanes() const {
  if (!ready()) return std::nullopt;
  // Per-node plane fits (the §8 variance objective) are only meaningful
  // with every node alive; callers fall back to the mean-plane LP during an
  // outage.
  if (active_.size() != num_nodes_) return std::nullopt;
  for (const Entry& entry : entries_) {
    if (entry.rt_per_node.size() != num_nodes_) return std::nullopt;
  }
  std::vector<NodePlane> planes(num_nodes_);
  la::Vector y(num_nodes_ + 1);
  for (size_t node = 0; node < num_nodes_; ++node) {
    for (size_t i = 0; i <= num_nodes_; ++i) {
      y[i] = entries_[i].rt_per_node[node];
    }
    const la::Vector beta = inverse_.Solve(y);
    planes[node].grad.assign(beta.begin(), beta.end() - 1);
    planes[node].intercept = beta.back();
  }
  return planes;
}

}  // namespace memgoal::core
