#ifndef MEMGOAL_CACHE_INDEXED_HEAP_H_
#define MEMGOAL_CACHE_INDEXED_HEAP_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/flat_hash_map.h"

namespace memgoal::cache {

/// Binary min-heap with a position index, supporting O(log n) insert,
/// erase, and key update for arbitrary ids. Ties are broken by id so that
/// victim selection (and hence the whole simulation) is deterministic.
///
/// This is the priority queue backing the cost-based replacement policy of
/// §6: pages are keyed by benefit and the victim is the minimum.
///
/// Layout: each entry owns a dense slot for as long as it is in the heap
/// (erased slots are reused). The hash map holds id -> slot and is probed
/// once per public call; the heap position and the dirty flag live in
/// plain vectors indexed by slot, so sifts touch no hash table. Sifts move
/// a hole rather than swapping, writing one position per level.
///
/// Lazy maintenance: when keys drift cheaply and often (every cache access
/// changes a page's benefit) but the minimum is consulted rarely (only at
/// eviction), callers can MarkDirty(id) in O(1) instead of re-computing and
/// re-sifting per access, then FlushDirty(key_fn) once before the next
/// Peek/Pop. Dirty entries keep their stale keys and participate in sifts
/// normally — the heap invariant always holds for the *stored* keys — so
/// correctness only requires a flush before reading the minimum.
template <typename Id>
class IndexedMinHeap {
 public:
  bool Contains(Id id) const { return slot_of_.Contains(id); }
  size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }

  void Insert(Id id, double key) {
    const bool inserted = Upsert(id, key);
    MEMGOAL_CHECK(inserted);
  }

  /// Inserts `id` or changes its key if present.
  void Update(Id id, double key) { Upsert(id, key); }

  void Erase(Id id) {
    const std::optional<uint32_t> slot = slot_of_.Extract(id);
    MEMGOAL_CHECK(slot.has_value());
    free_slots_.push_back(*slot);
    const size_t pos = position_[*slot];
    const Entry last = heap_.back();
    heap_.pop_back();
    if (pos < heap_.size()) {
      heap_[pos] = last;
      SiftUp(pos);
      SiftDown(pos);
    }
  }

  /// Minimum entry (id, key). Heap must be non-empty.
  std::pair<Id, double> Peek() const {
    MEMGOAL_CHECK(!heap_.empty());
    return {heap_[0].id, heap_[0].key};
  }

  void Pop() {
    MEMGOAL_CHECK(!heap_.empty());
    Erase(heap_[0].id);
  }

  double KeyOf(Id id) const {
    const uint32_t* slot = slot_of_.Find(id);
    MEMGOAL_CHECK(slot != nullptr);
    return heap_[position_[*slot]].key;
  }

  /// O(1): flags `id`'s stored key as stale. Idempotent until the next
  /// flush. `id` must be present.
  void MarkDirty(Id id) {
    const uint32_t* slot = slot_of_.Find(id);
    MEMGOAL_CHECK(slot != nullptr);
    if (dirty_flag_[*slot]) return;
    dirty_flag_[*slot] = 1;
    dirty_.push_back(id);
  }

  bool has_dirty() const { return !dirty_.empty(); }
  size_t dirty_count() const { return dirty_.size(); }

  /// Repairs every dirty entry to key_fn(id), in mark order (deterministic
  /// given a deterministic caller). Ids erased — or erased and re-inserted
  /// fresh — since marking are skipped; the per-slot flag arbitrates.
  /// Returns the number of entries re-keyed. After this call the heap's
  /// minimum is exact for key_fn's current values.
  template <typename KeyFn>
  size_t FlushDirty(KeyFn&& key_fn) {
    size_t repaired = 0;
    for (size_t i = 0; i < dirty_.size(); ++i) {
      const Id id = dirty_[i];
      const uint32_t* found = slot_of_.Find(id);
      if (found == nullptr) continue;
      const uint32_t slot = *found;
      if (!dirty_flag_[slot]) continue;
      dirty_flag_[slot] = 0;
      const double key = key_fn(id);
      Rekey(position_[slot], key);
      ++repaired;
    }
    dirty_.clear();
    return repaired;
  }

 private:
  struct Entry {
    double key;
    Id id;
    uint32_t slot;
  };

  static bool Less(const Entry& a, const Entry& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.id < b.id;
  }

  /// Re-keys `id`, or inserts it with a fresh slot; returns whether it was
  /// absent. The map grows exactly when `id` is new.
  bool Upsert(Id id, double key) {
    const size_t before = slot_of_.size();
    uint32_t& slot = slot_of_[id];
    if (slot_of_.size() == before) {
      Rekey(position_[slot], key);
      return false;
    }
    if (free_slots_.empty()) {
      slot = static_cast<uint32_t>(position_.size());
      position_.push_back(0);
      dirty_flag_.push_back(0);
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
      dirty_flag_[slot] = 0;
    }
    heap_.push_back(Entry{key, id, slot});
    SiftUp(heap_.size() - 1);
    return true;
  }

  void Rekey(size_t pos, double key) {
    const double old_key = heap_[pos].key;
    heap_[pos].key = key;
    if (key < old_key) {
      SiftUp(pos);
    } else {
      SiftDown(pos);
    }
  }

  void Place(size_t pos, const Entry& entry) {
    heap_[pos] = entry;
    position_[entry.slot] = static_cast<uint32_t>(pos);
  }

  // Both sifts make the same comparisons, in the same order, as a sift by
  // pairwise swaps, so they leave the same layout.
  void SiftUp(size_t pos) {
    const Entry moving = heap_[pos];
    while (pos > 0) {
      const size_t parent = (pos - 1) / 2;
      if (!Less(moving, heap_[parent])) break;
      Place(pos, heap_[parent]);
      pos = parent;
    }
    Place(pos, moving);
  }

  void SiftDown(size_t pos) {
    const Entry moving = heap_[pos];
    while (true) {
      const size_t left = 2 * pos + 1;
      const size_t right = 2 * pos + 2;
      size_t smallest = pos;
      const Entry* best = &moving;
      if (left < heap_.size() && Less(heap_[left], *best)) {
        smallest = left;
        best = &heap_[left];
      }
      if (right < heap_.size() && Less(heap_[right], *best)) {
        smallest = right;
      }
      if (smallest == pos) break;
      Place(pos, heap_[smallest]);
      pos = smallest;
    }
    Place(pos, moving);
  }

  std::vector<Entry> heap_;
  common::FlatHashMap<Id, uint32_t> slot_of_;
  /// Indexed by slot: the entry's heap position, and whether its stored
  /// key is stale (see MarkDirty/FlushDirty).
  std::vector<uint32_t> position_;
  std::vector<uint8_t> dirty_flag_;
  std::vector<uint32_t> free_slots_;
  /// Ids in first-mark order; may hold ids erased after marking.
  std::vector<Id> dirty_;
};

}  // namespace memgoal::cache

#endif  // MEMGOAL_CACHE_INDEXED_HEAP_H_
