#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "storage/database.h"
#include "storage/disk.h"
#include "storage/integrity.h"
#include "storage/types.h"

namespace memgoal::storage {
namespace {

TEST(DatabaseTest, RoundRobinHomes) {
  Database db(10, 4096, 3);
  EXPECT_EQ(db.HomeOf(0), 0u);
  EXPECT_EQ(db.HomeOf(1), 1u);
  EXPECT_EQ(db.HomeOf(2), 2u);
  EXPECT_EQ(db.HomeOf(3), 0u);
  EXPECT_EQ(db.HomeOf(9), 0u);
}

TEST(DatabaseTest, PagesHomedAtPartitionsEvenly) {
  Database db(10, 4096, 3);
  // 10 pages over 3 nodes: 4, 3, 3.
  EXPECT_EQ(db.PagesHomedAt(0), 4u);
  EXPECT_EQ(db.PagesHomedAt(1), 3u);
  EXPECT_EQ(db.PagesHomedAt(2), 3u);
  uint32_t total = 0;
  for (NodeId i = 0; i < 3; ++i) total += db.PagesHomedAt(i);
  EXPECT_EQ(total, db.num_pages());
}

TEST(DatabaseTest, TotalBytes) {
  Database db(2000, 4096, 3);
  EXPECT_EQ(db.total_bytes(), 2000ull * 4096);
}

TEST(DiskTest, ServiceTimeFromParameters) {
  sim::Simulator simulator;
  Disk::Params params;
  params.avg_seek_ms = 8.0;
  params.rotation_ms = 8.0;
  params.transfer_mb_per_s = 4.096;  // 4 KB in exactly 1 ms
  Disk disk(&simulator, params, 4096, "d");
  EXPECT_NEAR(disk.PageServiceTime(), 8.0 + 4.0 + 1.0, 1e-9);
}

TEST(DiskTest, ReadsAreFcfsSerialized) {
  sim::Simulator simulator;
  Disk disk(&simulator, Disk::Params{}, 4096, "d");
  const double service = disk.PageServiceTime();
  for (int i = 0; i < 3; ++i) simulator.Spawn(disk.ReadPage());
  simulator.Run();
  EXPECT_NEAR(simulator.Now(), 3.0 * service, 1e-9);
  EXPECT_EQ(disk.reads_completed(), 3u);
}

TEST(IntegrityMapTest, StartsCleanAndTracksMarks) {
  IntegrityMap map(10, 3);
  EXPECT_FALSE(map.any_marked());
  EXPECT_EQ(map.DiskFlaw(4), Flaw::kNone);
  EXPECT_EQ(map.FrameFlaw(2, 4), Flaw::kNone);

  EXPECT_TRUE(map.MarkDisk(4, Flaw::kDetectable));
  EXPECT_TRUE(map.MarkFrame(2, 4, Flaw::kLatent));
  EXPECT_TRUE(map.any_marked());
  EXPECT_EQ(map.marked(), 2u);
  EXPECT_EQ(map.DiskFlaw(4), Flaw::kDetectable);
  EXPECT_EQ(map.FrameFlaw(2, 4), Flaw::kLatent);
  // Disk and frame copies are distinct: the other copies stay clean.
  EXPECT_EQ(map.FrameFlaw(0, 4), Flaw::kNone);
  EXPECT_EQ(map.DiskFlaw(5), Flaw::kNone);
}

TEST(IntegrityMapTest, DoubleMarkKeepsFirstFlaw) {
  IntegrityMap map(4, 2);
  EXPECT_TRUE(map.MarkDisk(1, Flaw::kLatent));
  // A second strike on an already-bad copy changes nothing: the pattern is
  // already bad, and the ledger must not double-count.
  EXPECT_FALSE(map.MarkDisk(1, Flaw::kDetectable));
  EXPECT_EQ(map.DiskFlaw(1), Flaw::kLatent);
  EXPECT_EQ(map.marked(), 1u);
}

TEST(IntegrityMapTest, ClearRemovesExactlyTheMark) {
  IntegrityMap map(4, 2);
  EXPECT_FALSE(map.ClearDisk(0));  // nothing marked
  EXPECT_TRUE(map.MarkDisk(0, Flaw::kDetectable));
  EXPECT_TRUE(map.MarkFrame(1, 0, Flaw::kDetectable));
  EXPECT_TRUE(map.ClearDisk(0));
  EXPECT_FALSE(map.ClearDisk(0));
  // The frame mark survives a disk-copy rewrite.
  EXPECT_EQ(map.FrameFlaw(1, 0), Flaw::kDetectable);
  EXPECT_TRUE(map.ClearFrame(1, 0));
  EXPECT_FALSE(map.any_marked());
}

TEST(IntegrityMapTest, ClearNodeFramesWipesOneNodeOnly) {
  IntegrityMap map(6, 3);
  EXPECT_TRUE(map.MarkFrame(1, 0, Flaw::kDetectable));
  EXPECT_TRUE(map.MarkFrame(1, 3, Flaw::kLatent));
  EXPECT_TRUE(map.MarkFrame(2, 3, Flaw::kDetectable));
  EXPECT_TRUE(map.MarkDisk(3, Flaw::kDetectable));

  EXPECT_EQ(map.ClearNodeFrames(1), 2u);
  EXPECT_EQ(map.ClearNodeFrames(1), 0u);
  EXPECT_EQ(map.FrameFlaw(2, 3), Flaw::kDetectable);
  EXPECT_EQ(map.DiskFlaw(3), Flaw::kDetectable);
  EXPECT_EQ(map.marked(), 2u);
}

TEST(StorageLevelTest, Names) {
  EXPECT_STREQ(StorageLevelName(StorageLevel::kLocalBuffer), "local-buffer");
  EXPECT_STREQ(StorageLevelName(StorageLevel::kRemoteDisk), "remote-disk");
}

}  // namespace
}  // namespace memgoal::storage
