#include "cache/heat.h"

#include <algorithm>

#include <gtest/gtest.h>

namespace memgoal::cache {
namespace {

TEST(HeatTrackerTest, NeverAccessedIsZero) {
  HeatTracker tracker(2);
  EXPECT_DOUBLE_EQ(tracker.HeatOf(1, 100.0), 0.0);
  EXPECT_EQ(tracker.AccessCount(1), 0);
}

TEST(HeatTrackerTest, SingleAccessHeat) {
  HeatTracker tracker(2, /*epsilon_ms=*/1.0);
  tracker.RecordAccess(1, 100.0);
  // heat = 1 / (now - t1 + eps).
  EXPECT_DOUBLE_EQ(tracker.HeatOf(1, 150.0), 1.0 / 51.0);
  EXPECT_EQ(tracker.AccessCount(1), 1);
}

TEST(HeatTrackerTest, LruKUsesKthMostRecent) {
  HeatTracker tracker(2, 1.0);
  tracker.RecordAccess(1, 100.0);
  tracker.RecordAccess(1, 200.0);
  tracker.RecordAccess(1, 300.0);
  // K=2: second most recent access is at t=200.
  EXPECT_DOUBLE_EQ(tracker.BackwardKTime(1), 200.0);
  EXPECT_DOUBLE_EQ(tracker.HeatOf(1, 400.0), 2.0 / 201.0);
}

TEST(HeatTrackerTest, HeatDecaysOverTime) {
  HeatTracker tracker(2, 1.0);
  tracker.RecordAccess(1, 0.0);
  tracker.RecordAccess(1, 10.0);
  const double early = tracker.HeatOf(1, 20.0);
  const double late = tracker.HeatOf(1, 2000.0);
  EXPECT_GT(early, late);
}

TEST(HeatTrackerTest, FrequentAccessesAreHotter) {
  HeatTracker tracker(2, 1.0);
  tracker.RecordAccess(1, 90.0);
  tracker.RecordAccess(1, 100.0);
  tracker.RecordAccess(2, 10.0);
  tracker.RecordAccess(2, 100.0);
  EXPECT_GT(tracker.HeatOf(1, 101.0), tracker.HeatOf(2, 101.0));
}

TEST(HeatTrackerTest, BackwardKTimeBeforeKAccesses) {
  HeatTracker tracker(3);
  tracker.RecordAccess(1, 50.0);
  tracker.RecordAccess(1, 60.0);
  // Only 2 of 3 accesses: oldest retained is t=50.
  EXPECT_DOUBLE_EQ(tracker.BackwardKTime(1), 50.0);
}

class HeatKSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(HeatKSweepTest, CircularBufferWrapsCorrectly) {
  const int k = GetParam();
  HeatTracker tracker(k, 1.0);
  // 3k accesses at times 1, 2, ..., 3k.
  for (int t = 1; t <= 3 * k; ++t) {
    tracker.RecordAccess(7, static_cast<double>(t));
  }
  // The K-th most recent is at time 3k - (k - 1) = 2k + 1.
  EXPECT_DOUBLE_EQ(tracker.BackwardKTime(7), static_cast<double>(2 * k + 1));
  const double now = static_cast<double>(3 * k + 10);
  EXPECT_DOUBLE_EQ(tracker.HeatOf(7, now),
                   static_cast<double>(k) / (now - (2 * k + 1) + 1.0));
}

INSTANTIATE_TEST_SUITE_P(Ks, HeatKSweepTest, ::testing::Values(1, 2, 3, 5, 8));

TEST(HeatTrackerTest, EvictColderThanDropsStaleHistory) {
  HeatTracker tracker(2);
  tracker.RecordAccess(1, 10.0);
  tracker.RecordAccess(1, 20.0);   // backward-2 time 10
  tracker.RecordAccess(2, 90.0);   // backward time 90
  tracker.RecordAccess(3, 40.0);
  tracker.RecordAccess(3, 95.0);   // backward-2 time 40
  ASSERT_EQ(tracker.tracked_pages(), 3u);

  EXPECT_EQ(tracker.EvictColderThan(50.0), 2u);  // pages 1 and 3
  EXPECT_EQ(tracker.tracked_pages(), 1u);
  EXPECT_EQ(tracker.AccessCount(1), 0);
  EXPECT_EQ(tracker.AccessCount(3), 0);
  // Page 2 survives with its history intact.
  EXPECT_DOUBLE_EQ(tracker.BackwardKTime(2), 90.0);
  // An evicted page restarts cold, exactly like one never seen.
  EXPECT_DOUBLE_EQ(tracker.HeatOf(1, 100.0), 0.0);
  tracker.RecordAccess(1, 100.0);
  EXPECT_EQ(tracker.AccessCount(1), 1);
}

TEST(HeatTrackerTest, EvictColderThanHonorsRetainPredicate) {
  HeatTracker tracker(2);
  tracker.RecordAccess(1, 10.0);
  tracker.RecordAccess(2, 10.0);
  // Both are stale, but page 1 is "resident" and must be kept.
  const size_t evicted = tracker.EvictColderThan(
      50.0, [](PageId page) { return page == 1; });
  EXPECT_EQ(evicted, 1u);
  EXPECT_EQ(tracker.tracked_pages(), 1u);
  EXPECT_EQ(tracker.AccessCount(1), 1);
  EXPECT_EQ(tracker.AccessCount(2), 0);
}

TEST(HeatTrackerTest, LongScanStaysBoundedUnderPeriodicEviction) {
  // A pure sequential scan touches each page once. Without pruning the map
  // grows by one record per page forever; with a periodic horizon sweep the
  // footprint is bounded by the pages touched within one horizon.
  HeatTracker tracker(2);
  constexpr double kHorizonMs = 1000.0;
  constexpr double kStepMs = 1.0;
  size_t max_tracked = 0;
  for (int page = 0; page < 20000; ++page) {
    const double now = page * kStepMs;
    tracker.RecordAccess(static_cast<PageId>(page), now);
    if (page % 500 == 0 && now > kHorizonMs) {
      tracker.EvictColderThan(now - kHorizonMs);
    }
    max_tracked = std::max(max_tracked, tracker.tracked_pages());
  }
  // Bound: one horizon's worth of scan pages plus one sweep period of slack
  // — far below the 20000 pages touched.
  EXPECT_LE(max_tracked,
            static_cast<size_t>(kHorizonMs / kStepMs) + 500 + 1);
  EXPECT_GE(max_tracked, static_cast<size_t>(kHorizonMs / kStepMs) / 2);
}

}  // namespace
}  // namespace memgoal::cache
