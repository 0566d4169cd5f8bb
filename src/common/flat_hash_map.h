#ifndef MEMGOAL_COMMON_FLAT_HASH_MAP_H_
#define MEMGOAL_COMMON_FLAT_HASH_MAP_H_

#include <cstdint>
#include <cstddef>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"

namespace memgoal::common {

/// Mixing hash for integral keys. Page and node ids are dense small
/// integers; an identity hash (std::hash on libstdc++) combined with a
/// power-of-two table would make every erase/re-insert pattern probe the
/// same run of slots, so the id is scrambled through a 64-bit
/// multiply-xorshift first.
struct IntegralHash {
  size_t operator()(uint64_t key) const {
    uint64_t h = key * 0x9E3779B97F4A7C15ull;
    h ^= h >> 32;
    return static_cast<size_t>(h);
  }
};

/// Open-addressing hash map with linear probing, used on the simulation's
/// hottest id-keyed paths (heap slot index, page locations, heat
/// histories, reported heat) in place of std::unordered_map, which
/// allocates one node per element and chases a pointer per probe.
///
///  - power-of-two capacity, control byte per slot (empty / full /
///    tombstone), values stored inline;
///  - erase writes a tombstone (no backward shift), so iterators stay
///    valid across erase-during-iteration; tombstones are reclaimed at the
///    next rehash;
///  - grows at ~7/8 occupancy (full + tombstones) to twice the live size.
///
/// V must be movable; K must be equality-comparable and hashable by Hash.
/// Iteration order is an implementation detail (as with unordered_map) —
/// callers that need determinism must sort or otherwise order themselves.
template <typename K, typename V, typename Hash = IntegralHash>
class FlatHashMap {
  enum : uint8_t { kEmpty = 0, kFull = 1, kTombstone = 2 };

  struct Slot {
    K key;
    V value;
  };

 public:
  FlatHashMap() = default;
  ~FlatHashMap() { DestroyAll(); }

  FlatHashMap(FlatHashMap&& other) noexcept { MoveFrom(std::move(other)); }
  FlatHashMap& operator=(FlatHashMap&& other) noexcept {
    if (this != &other) {
      DestroyAll();
      MoveFrom(std::move(other));
    }
    return *this;
  }
  FlatHashMap(const FlatHashMap&) = delete;
  FlatHashMap& operator=(const FlatHashMap&) = delete;

  class iterator {
   public:
    iterator(FlatHashMap* map, size_t index) : map_(map), index_(index) {
      SkipToFull();
    }
    const K& key() const { return map_->SlotAt(index_).key; }
    V& value() const { return map_->SlotAt(index_).value; }
    iterator& operator++() {
      ++index_;
      SkipToFull();
      return *this;
    }
    bool operator==(const iterator& other) const {
      return index_ == other.index_;
    }
    bool operator!=(const iterator& other) const { return !(*this == other); }

   private:
    friend class FlatHashMap;
    void SkipToFull() {
      while (index_ < map_->capacity_ && map_->ctrl_[index_] != kFull) {
        ++index_;
      }
    }
    FlatHashMap* map_;
    size_t index_;
  };

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, capacity_); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    DestroyAll();
    slots_ = nullptr;
    ctrl_.clear();
    capacity_ = 0;
    size_ = 0;
    tombstones_ = 0;
  }

  void reserve(size_t n) {
    size_t cap = 16;
    while (cap * 7 < n * 8) cap *= 2;
    if (cap > capacity_) Rehash(cap);
  }

  /// Pointer to the value for `key`, or nullptr if absent.
  V* Find(const K& key) {
    if (capacity_ == 0) return nullptr;
    const size_t index = FindIndex(key);
    return index == kNotFound ? nullptr : &SlotAt(index).value;
  }
  const V* Find(const K& key) const {
    return const_cast<FlatHashMap*>(this)->Find(key);
  }

  bool Contains(const K& key) const { return Find(key) != nullptr; }

  V& operator[](const K& key) {
    ReserveForInsert();
    size_t index = FindIndex(key);
    if (index != kNotFound) return SlotAt(index).value;
    index = InsertSlot(key);
    ::new (&SlotAt(index).value) V();
    return SlotAt(index).value;
  }

  /// Removes `key` if present; returns the number of elements removed.
  size_t Erase(const K& key) {
    if (capacity_ == 0) return 0;
    const size_t index = FindIndex(key);
    if (index == kNotFound) return 0;
    EraseAt(index);
    return 1;
  }

  /// Removes `key` and returns its value, or nullopt if absent: Find and
  /// Erase in one probe.
  std::optional<V> Extract(const K& key) {
    const size_t index = FindIndex(key);
    if (index == kNotFound) return std::nullopt;
    std::optional<V> value(std::move(SlotAt(index).value));
    EraseAt(index);
    return value;
  }

  /// Erases the element at `it` and returns an iterator to the next
  /// element. `it` must point at a live element.
  iterator Erase(iterator it) {
    MEMGOAL_DCHECK(it.map_ == this && ctrl_[it.index_] == kFull);
    EraseAt(it.index_);
    it.SkipToFull();
    return it;
  }

 private:
  static constexpr size_t kNotFound = static_cast<size_t>(-1);

  Slot& SlotAt(size_t index) {
    return reinterpret_cast<Slot*>(slots_.get())[index];
  }

  size_t FindIndex(const K& key) const {
    if (capacity_ == 0) return kNotFound;
    const size_t mask = capacity_ - 1;
    size_t index = Hash{}(key)&mask;
    while (true) {
      const uint8_t ctrl = ctrl_[index];
      if (ctrl == kEmpty) return kNotFound;
      if (ctrl == kFull) {
        const Slot& slot =
            reinterpret_cast<const Slot*>(slots_.get())[index];
        if (slot.key == key) return index;
      }
      index = (index + 1) & mask;
    }
  }

  /// Claims a slot for `key` (which must be absent) and returns its index.
  /// The value is left unconstructed — the caller placement-news it.
  size_t InsertSlot(const K& key) {
    const size_t mask = capacity_ - 1;
    size_t index = Hash{}(key)&mask;
    while (ctrl_[index] == kFull) index = (index + 1) & mask;
    if (ctrl_[index] == kTombstone) --tombstones_;
    ctrl_[index] = kFull;
    Slot& slot = SlotAt(index);
    ::new (&slot.key) K(key);
    ++size_;
    return index;
  }

  void EraseAt(size_t index) {
    Slot& slot = SlotAt(index);
    slot.key.~K();
    slot.value.~V();
    ctrl_[index] = kTombstone;
    ++tombstones_;
    --size_;
  }

  void ReserveForInsert() {
    if (capacity_ == 0) {
      Rehash(16);
    } else if ((size_ + tombstones_ + 1) * 8 > capacity_ * 7) {
      // Double relative to the live size; a tombstone-heavy table of
      // stable size rehashes in place.
      size_t cap = 16;
      while (cap * 7 < (size_ + 1) * 8 * 2) cap *= 2;
      Rehash(cap);
    }
  }

  void Rehash(size_t new_capacity) {
    std::unique_ptr<unsigned char[]> old_slots = std::move(slots_);
    std::vector<uint8_t> old_ctrl = std::move(ctrl_);
    const size_t old_capacity = capacity_;

    static_assert(alignof(Slot) <= alignof(std::max_align_t));
    slots_.reset(new unsigned char[new_capacity * sizeof(Slot)]);
    ctrl_.assign(new_capacity, kEmpty);
    capacity_ = new_capacity;
    size_ = 0;
    tombstones_ = 0;

    Slot* old = reinterpret_cast<Slot*>(old_slots.get());
    for (size_t i = 0; i < old_capacity; ++i) {
      if (old_ctrl[i] != kFull) continue;
      const size_t index = InsertSlot(old[i].key);
      ::new (&SlotAt(index).value) V(std::move(old[i].value));
      old[i].key.~K();
      old[i].value.~V();
    }
  }

  void DestroyAll() {
    for (size_t i = 0; i < capacity_; ++i) {
      if (ctrl_[i] != kFull) continue;
      Slot& slot = SlotAt(i);
      slot.key.~K();
      slot.value.~V();
    }
  }

  void MoveFrom(FlatHashMap&& other) {
    slots_ = std::move(other.slots_);
    ctrl_ = std::move(other.ctrl_);
    capacity_ = other.capacity_;
    size_ = other.size_;
    tombstones_ = other.tombstones_;
    other.capacity_ = 0;
    other.size_ = 0;
    other.tombstones_ = 0;
    other.ctrl_.clear();
  }

  // Raw storage: slots are constructed/destroyed individually as ctrl_
  // flips between full and not-full.
  std::unique_ptr<unsigned char[]> slots_;
  std::vector<uint8_t> ctrl_;
  size_t capacity_ = 0;
  size_t size_ = 0;
  size_t tombstones_ = 0;
};

}  // namespace memgoal::common

#endif  // MEMGOAL_COMMON_FLAT_HASH_MAP_H_
