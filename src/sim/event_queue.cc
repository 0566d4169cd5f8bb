#include "sim/event_queue.h"

#include <algorithm>

namespace memgoal::sim {

CalendarQueue::CalendarQueue()
    : buckets_(kMinBuckets, nullptr), bucket_mask_(kMinBuckets - 1) {}

uint64_t CalendarQueue::DayOf(SimTime time) const {
  MEMGOAL_DCHECK(time >= 0.0);
  const double day = time / width_;
  if (!(day < static_cast<double>(kMaxDay))) return kMaxDay;
  return static_cast<uint64_t>(day);
}

void CalendarQueue::Insert(EventNode* node) {
  node->day = DayOf(node->time);
  // An event can legitimately land behind the cursor: the cursor may have
  // walked past now's day hunting for a sparse future event before the
  // simulator scheduled something new at the present.
  if (node->day < cursor_day_) cursor_day_ = node->day;
  // Monotone runs (FCFS completion chains, same-timestamp fan-out bursts)
  // resume the walk at the previous insert instead of the chain head: the
  // hint is linked in the same chain (same day => same bucket) at a sorted
  // position before `node`, so the found slot is identical.
  EventNode** link;
  if (hint_ != nullptr && hint_->day == node->day &&
      EventNode::Earlier(hint_, node)) {
    link = &hint_->next;
  } else {
    link = &buckets_[node->day & bucket_mask_];
  }
  uint64_t steps = 0;
  while (*link != nullptr && EventNode::Earlier(*link, node)) {
    link = &(*link)->next;
    ++steps;
  }
  node->next = *link;
  *link = node;
  hint_ = node;
  if (peeked_ != nullptr && EventNode::Earlier(node, peeked_)) peeked_ = node;
  ++size_;
  steps_since_retune_ += steps;
  if (size_ > 2 * buckets_.size()) {
    Rebuild(buckets_.size() * 2);
  } else if (++inserts_since_retune_ >= retune_window_) {
    if (steps_since_retune_ > kRetuneMeanSteps * inserts_since_retune_) {
      const double old_width = width_;
      Rebuild(buckets_.size());
      retune_window_ =
          width_ == old_width ? retune_window_ * 2 : kRetuneWindow;
    }
    steps_since_retune_ = 0;
    inserts_since_retune_ = 0;
  }
}

EventNode* CalendarQueue::PeekMin() {
  if (size_ == 0) return nullptr;
  if (peeked_ != nullptr) return peeked_;
  const size_t year_days = buckets_.size();
  for (size_t scanned = 0; scanned < year_days; ++scanned) {
    EventNode* head = buckets_[cursor_day_ & bucket_mask_];
    // The head is the bucket's earliest event; its day matches the scanned
    // day exactly when the bucket holds anything in this day (later years
    // sort behind). No queued day precedes cursor_day_, so the first match
    // is the global minimum.
    if (head != nullptr && head->day == cursor_day_) return peeked_ = head;
    // An empty day, charged to the retune budget: a width too fine for the
    // population retunes even when inserts find their slots at once.
    ++cursor_day_;
    ++steps_since_retune_;
  }
  // A whole year without a hit: the population is sparse relative to the
  // current width. Direct search over bucket heads, then re-park the
  // cursor at the winner's day. The direct search is charged too.
  steps_since_retune_ += year_days;
  EventNode* best = nullptr;
  for (EventNode* head : buckets_) {
    if (head == nullptr) continue;
    if (best == nullptr || EventNode::Earlier(head, best)) best = head;
  }
  MEMGOAL_DCHECK(best != nullptr);
  cursor_day_ = best->day;
  return peeked_ = best;
}

EventNode* CalendarQueue::PopMin() {
  EventNode* node = PeekMin();
  if (node == nullptr) return nullptr;
  buckets_[node->day & bucket_mask_] = node->next;
  node->next = nullptr;
  if (node == hint_) hint_ = nullptr;
  peeked_ = nullptr;
  --size_;
  // Halve at quarter load (grow triggers at double load): the hysteresis
  // band keeps an oscillating population from rebuilding every few ops.
  if (buckets_.size() > kMinBuckets && size_ < buckets_.size() / 4) {
    Rebuild(buckets_.size() / 2);
  }
  return node;
}

void CalendarQueue::Rebuild(size_t bucket_count) {
  hint_ = nullptr;
  steps_since_retune_ = 0;
  inserts_since_retune_ = 0;
  std::vector<EventNode*> nodes;
  nodes.reserve(size_);
  for (EventNode* head : buckets_) {
    for (EventNode* node = head; node != nullptr; node = node->next) {
      nodes.push_back(node);
    }
  }
  std::sort(nodes.begin(), nodes.end(), EventNode::Earlier);

  // Re-derive the bucket width from the head region's spread so a day
  // holds a few events of the *current* population. Far-future stragglers
  // beyond the sample cannot skew it. All-equal timestamps keep the old
  // width; ordering never depends on width, only the walk cost does.
  if (nodes.size() >= 2) {
    const size_t sample = std::min<size_t>(nodes.size(), 64);
    const double span = nodes[sample - 1]->time - nodes[0]->time;
    if (span > 0.0) {
      width_ = 3.0 * span / static_cast<double>(sample - 1);
    }
  }

  buckets_.assign(bucket_count, nullptr);
  bucket_mask_ = bucket_count - 1;
  // Relink in reverse sorted order; pushing at each bucket's head leaves
  // every chain sorted ascending.
  for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) {
    EventNode* node = *it;
    node->day = DayOf(node->time);
    EventNode*& head = buckets_[node->day & bucket_mask_];
    node->next = head;
    head = node;
  }
  cursor_day_ = nodes.empty() ? 0 : nodes.front()->day;
}

}  // namespace memgoal::sim
