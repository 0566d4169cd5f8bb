#include "cache/indexed_heap.h"

#include <algorithm>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace memgoal::cache {
namespace {

TEST(IndexedMinHeapTest, BasicInsertPeekPop) {
  IndexedMinHeap<int> heap;
  EXPECT_TRUE(heap.empty());
  heap.Insert(10, 3.0);
  heap.Insert(20, 1.0);
  heap.Insert(30, 2.0);
  EXPECT_EQ(heap.size(), 3u);
  EXPECT_EQ(heap.Peek().first, 20);
  heap.Pop();
  EXPECT_EQ(heap.Peek().first, 30);
  heap.Pop();
  EXPECT_EQ(heap.Peek().first, 10);
  heap.Pop();
  EXPECT_TRUE(heap.empty());
}

TEST(IndexedMinHeapTest, UpdateMovesBothDirections) {
  IndexedMinHeap<int> heap;
  heap.Insert(1, 1.0);
  heap.Insert(2, 2.0);
  heap.Insert(3, 3.0);
  heap.Update(3, 0.5);  // decrease
  EXPECT_EQ(heap.Peek().first, 3);
  heap.Update(3, 10.0);  // increase
  EXPECT_EQ(heap.Peek().first, 1);
  heap.Update(4, 0.1);  // insert-via-update
  EXPECT_EQ(heap.Peek().first, 4);
}

TEST(IndexedMinHeapTest, EraseMiddle) {
  IndexedMinHeap<int> heap;
  for (int i = 0; i < 10; ++i) heap.Insert(i, static_cast<double>(i));
  heap.Erase(0);
  heap.Erase(5);
  EXPECT_EQ(heap.size(), 8u);
  EXPECT_FALSE(heap.Contains(5));
  EXPECT_EQ(heap.Peek().first, 1);
}

TEST(IndexedMinHeapTest, TieBrokenById) {
  IndexedMinHeap<int> heap;
  heap.Insert(7, 1.0);
  heap.Insert(3, 1.0);
  heap.Insert(5, 1.0);
  EXPECT_EQ(heap.Peek().first, 3);
}

TEST(IndexedMinHeapTest, KeyOf) {
  IndexedMinHeap<int> heap;
  heap.Insert(1, 4.5);
  EXPECT_DOUBLE_EQ(heap.KeyOf(1), 4.5);
  heap.Update(1, 2.5);
  EXPECT_DOUBLE_EQ(heap.KeyOf(1), 2.5);
}

TEST(IndexedMinHeapTest, DuplicateInsertAborts) {
  IndexedMinHeap<int> heap;
  heap.Insert(1, 1.0);
  EXPECT_DEATH(heap.Insert(1, 2.0), "CHECK");
}

TEST(IndexedMinHeapTest, EraseOfAbsentIdAborts) {
  IndexedMinHeap<int> heap;
  heap.Insert(1, 1.0);
  EXPECT_DEATH(heap.Erase(2), "CHECK");
  heap.Erase(1);
  EXPECT_DEATH(heap.Erase(1), "CHECK");
}

// An erase frees the entry's slot and the next insert takes it. A mark
// left by the erased id must neither re-key the slot's new owner a second
// time nor flag the erased id's own fresh re-insert.
TEST(IndexedMinHeapTest, SlotReuseUnderStaleMarks) {
  constexpr int kA = 1;
  constexpr int kB = 2;
  constexpr int kC = 3;
  IndexedMinHeap<int> heap;
  heap.Insert(kA, 10.0);
  heap.Insert(kB, 20.0);
  heap.MarkDirty(kA);
  heap.Erase(kA);
  heap.Insert(kC, 30.0);  // takes A's slot
  heap.MarkDirty(kC);
  heap.Insert(kA, 5.0);  // fresh, not dirty
  std::vector<int> keyed;
  const size_t repaired = heap.FlushDirty([&keyed](int id) {
    keyed.push_back(id);
    return 1.0;
  });
  EXPECT_EQ(repaired, 1u);
  EXPECT_EQ(keyed, std::vector<int>{kC});
  EXPECT_DOUBLE_EQ(heap.KeyOf(kA), 5.0);
  EXPECT_DOUBLE_EQ(heap.KeyOf(kB), 20.0);
  EXPECT_DOUBLE_EQ(heap.KeyOf(kC), 1.0);
  EXPECT_EQ(heap.Peek().first, kC);
  EXPECT_FALSE(heap.has_dirty());
}

// Property: under a random op sequence the heap always pops the exact
// minimum of a reference map.
class IndexedHeapPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(IndexedHeapPropertyTest, MatchesReferenceModel) {
  common::Rng rng(static_cast<uint64_t>(GetParam()));
  IndexedMinHeap<int> heap;
  std::map<int, double> reference;

  for (int step = 0; step < 3000; ++step) {
    const int op = static_cast<int>(rng.UniformInt(0, 3));
    const int id = static_cast<int>(rng.UniformInt(0, 100));
    if (op == 0) {  // insert or update
      const double key = rng.Uniform(0.0, 10.0);
      heap.Update(id, key);
      reference[id] = key;
    } else if (op == 1 && reference.count(id)) {
      heap.Erase(id);
      reference.erase(id);
    } else if (op == 2 && !reference.empty()) {
      // Verify the heap min matches the reference min (key, id) order.
      auto best = reference.begin();
      for (auto it = reference.begin(); it != reference.end(); ++it) {
        if (it->second < best->second ||
            (it->second == best->second && it->first < best->first)) {
          best = it;
        }
      }
      ASSERT_EQ(heap.Peek().first, best->first);
      ASSERT_DOUBLE_EQ(heap.Peek().second, best->second);
    } else if (op == 3 && !reference.empty()) {
      const int top = heap.Peek().first;
      heap.Pop();
      ASSERT_EQ(reference.count(top), 1u);
      reference.erase(top);
    }
    ASSERT_EQ(heap.size(), reference.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexedHeapPropertyTest,
                         ::testing::Range(1, 9));

// Property: lazy maintenance (MarkDirty on every key drift, FlushDirty
// before each read) selects the exact same victims as eager maintenance
// (Update on every drift). This is the contract the cost-based policy's
// cache.heap_maintain path relies on: deferring the sift must never change
// which page gets evicted.
class LazyVsEagerTest : public ::testing::TestWithParam<int> {};

TEST_P(LazyVsEagerTest, VictimSequencesIdentical) {
  common::Rng rng(0xD1337u + static_cast<uint64_t>(GetParam()));
  IndexedMinHeap<int> eager;
  IndexedMinHeap<int> lazy;
  std::map<int, double> true_key;
  const auto key_fn = [&true_key](int id) { return true_key.at(id); };

  for (int step = 0; step < 4000; ++step) {
    const int op = static_cast<int>(rng.UniformInt(0, 4));
    const int id = static_cast<int>(rng.UniformInt(0, 80));
    if (op == 0) {  // admit or re-key (an insert is eager in both modes)
      const double key = rng.Uniform(0.0, 100.0);
      true_key[id] = key;
      eager.Update(id, key);
      if (lazy.Contains(id)) {
        lazy.MarkDirty(id);
      } else {
        lazy.Insert(id, key);
      }
    } else if (op == 1 && true_key.count(id)) {  // access: key drifts
      true_key[id] += rng.Uniform(-5.0, 5.0);
      eager.Update(id, true_key[id]);
      lazy.MarkDirty(id);
    } else if (op == 2 && true_key.count(id)) {  // drop
      true_key.erase(id);
      eager.Erase(id);
      lazy.Erase(id);
    } else if (op == 3 && !true_key.empty()) {  // victim selection
      lazy.FlushDirty(key_fn);
      ASSERT_EQ(lazy.Peek().first, eager.Peek().first) << "step " << step;
      ASSERT_DOUBLE_EQ(lazy.Peek().second, eager.Peek().second);
      const int victim = eager.Peek().first;
      eager.Pop();
      lazy.Pop();
      true_key.erase(victim);
    } else if (op == 4 && true_key.count(id)) {
      // Redundant marks between flushes must coalesce, not double-apply.
      lazy.MarkDirty(id);
      lazy.MarkDirty(id);
      eager.Update(id, true_key[id]);
    }
    ASSERT_EQ(lazy.size(), eager.size());
  }
  // Drain: the full remaining eviction order must agree.
  lazy.FlushDirty(key_fn);
  while (!eager.empty()) {
    ASSERT_EQ(lazy.Peek().first, eager.Peek().first);
    eager.Pop();
    lazy.Pop();
  }
  EXPECT_TRUE(lazy.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LazyVsEagerTest, ::testing::Range(1, 7));

}  // namespace
}  // namespace memgoal::cache
