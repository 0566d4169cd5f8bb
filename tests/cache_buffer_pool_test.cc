#include "cache/buffer_pool.h"

#include <map>

#include <gtest/gtest.h>

#include "cache/cost_based.h"
#include "cache/replacement.h"

namespace memgoal::cache {
namespace {

constexpr uint32_t kPage = 4096;

BufferPool MakeLruPool(uint64_t capacity_bytes) {
  return BufferPool(kPage, capacity_bytes, MakeLruPolicy());
}

TEST(BufferPoolTest, CapacityInFrames) {
  BufferPool pool = MakeLruPool(3 * kPage + 100);
  EXPECT_EQ(pool.capacity_frames(), 3u);
  BufferPool tiny = MakeLruPool(kPage - 1);
  EXPECT_EQ(tiny.capacity_frames(), 0u);
}

TEST(BufferPoolTest, InsertUntilFullThenEvict) {
  BufferPool pool = MakeLruPool(2 * kPage);
  auto r1 = pool.Insert(1);
  EXPECT_TRUE(r1.inserted);
  EXPECT_TRUE(r1.evicted.empty());
  auto r2 = pool.Insert(2);
  EXPECT_TRUE(r2.inserted);
  EXPECT_TRUE(r2.evicted.empty());
  auto r3 = pool.Insert(3);
  EXPECT_TRUE(r3.inserted);
  ASSERT_EQ(r3.evicted.size(), 1u);
  EXPECT_EQ(r3.evicted[0], 1u);  // LRU
  EXPECT_FALSE(pool.Contains(1));
  EXPECT_TRUE(pool.Contains(2));
  EXPECT_TRUE(pool.Contains(3));
}

TEST(BufferPoolTest, TouchChangesEvictionOrder) {
  BufferPool pool = MakeLruPool(2 * kPage);
  pool.Insert(1);
  pool.Insert(2);
  pool.Touch(1);
  auto r = pool.Insert(3);
  ASSERT_EQ(r.evicted.size(), 1u);
  EXPECT_EQ(r.evicted[0], 2u);
}

TEST(BufferPoolTest, ZeroFramesRejectsInsert) {
  BufferPool pool = MakeLruPool(0);
  auto r = pool.Insert(1);
  EXPECT_FALSE(r.inserted);
  EXPECT_TRUE(r.evicted.empty());
  EXPECT_EQ(pool.resident_pages(), 0u);
}

TEST(BufferPoolTest, ShrinkEvicts) {
  BufferPool pool = MakeLruPool(4 * kPage);
  for (PageId p = 1; p <= 4; ++p) pool.Insert(p);
  auto evicted = pool.Resize(2 * kPage);
  ASSERT_EQ(evicted.size(), 2u);
  EXPECT_EQ(evicted[0], 1u);
  EXPECT_EQ(evicted[1], 2u);
  EXPECT_EQ(pool.resident_pages(), 2u);
  EXPECT_EQ(pool.capacity_bytes(), 2u * kPage);
}

TEST(BufferPoolTest, GrowAllowsMoreResidents) {
  BufferPool pool = MakeLruPool(kPage);
  pool.Insert(1);
  EXPECT_TRUE(pool.Resize(2 * kPage).empty());
  auto r = pool.Insert(2);
  EXPECT_TRUE(r.inserted);
  EXPECT_TRUE(r.evicted.empty());
}

TEST(BufferPoolTest, ShrinkToZeroDropsEverything) {
  BufferPool pool = MakeLruPool(3 * kPage);
  for (PageId p = 1; p <= 3; ++p) pool.Insert(p);
  auto evicted = pool.Resize(0);
  EXPECT_EQ(evicted.size(), 3u);
  EXPECT_EQ(pool.resident_pages(), 0u);
}

TEST(BufferPoolTest, CostBasedAdmissionBouncesWeakPage) {
  std::map<PageId, double> benefit = {{1, 10.0}, {2, 20.0}, {3, 0.5}};
  BufferPool pool(kPage, 2 * kPage,
                  MakeCostBasedPolicy([&](PageId p) { return benefit.at(p); }));
  EXPECT_TRUE(pool.Insert(1).inserted);
  EXPECT_TRUE(pool.Insert(2).inserted);
  // Page 3 is weaker than both residents: it must bounce, leaving the pool
  // untouched and reporting no eviction.
  auto r = pool.Insert(3);
  EXPECT_FALSE(r.inserted);
  EXPECT_TRUE(r.evicted.empty());
  EXPECT_TRUE(pool.Contains(1));
  EXPECT_TRUE(pool.Contains(2));
  EXPECT_FALSE(pool.Contains(3));
  EXPECT_EQ(pool.resident_pages(), 2u);
  // A strong page still displaces the weakest resident.
  benefit[4] = 15.0;
  auto r4 = pool.Insert(4);
  EXPECT_TRUE(r4.inserted);
  ASSERT_EQ(r4.evicted.size(), 1u);
  EXPECT_EQ(r4.evicted[0], 1u);
  EXPECT_EQ(pool.resident_pages(), 2u);
}

// The policy's index is the pool's only record of residency: inserting a
// resident page or erasing an absent one must still abort, under the list
// and the heap policies alike.
BufferPool MakeCostBasedPool(uint64_t capacity_bytes) {
  return BufferPool(
      kPage, capacity_bytes,
      MakeCostBasedPolicy([](PageId p) { return static_cast<double>(p); }));
}

TEST(BufferPoolTest, InsertOfResidentPageAborts) {
  BufferPool lru = MakeLruPool(2 * kPage);
  lru.Insert(1);
  EXPECT_DEATH(lru.Insert(1), "CHECK");
  BufferPool cost_based = MakeCostBasedPool(2 * kPage);
  cost_based.Insert(1);
  EXPECT_DEATH(cost_based.Insert(1), "CHECK");
}

TEST(BufferPoolTest, EraseOfAbsentPageAborts) {
  BufferPool lru = MakeLruPool(2 * kPage);
  lru.Insert(1);
  EXPECT_DEATH(lru.Erase(2), "CHECK");
  BufferPool cost_based = MakeCostBasedPool(2 * kPage);
  cost_based.Insert(1);
  EXPECT_DEATH(cost_based.Erase(2), "CHECK");
}

TEST(BufferPoolTest, EraseRemovesWithoutEviction) {
  BufferPool pool = MakeLruPool(2 * kPage);
  pool.Insert(1);
  pool.Insert(2);
  pool.Erase(1);
  EXPECT_FALSE(pool.Contains(1));
  auto r = pool.Insert(3);
  EXPECT_TRUE(r.inserted);
  EXPECT_TRUE(r.evicted.empty());
}

}  // namespace
}  // namespace memgoal::cache
