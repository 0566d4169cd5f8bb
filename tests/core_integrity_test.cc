// Drives the integrity service's ledger one transition at a time on a
// 3-node cluster whose workload never starts: pages are cached by spawning
// Node::AccessPage on the simulator, strikes are aimed by residency (a
// strike hits the struck node's frame when it caches the drawn page, its
// disk otherwise, so a node caching all 30 pages takes frame strikes and
// one caching none takes disk strikes), and each verify, quarantine, repair
// or loss is checked against the ledger, the buffer pools and the
// directory.

#include "core/integrity_service.h"

#include <gtest/gtest.h>

#include <optional>

#include "core/system.h"
#include "workload/spec.h"

namespace memgoal::core {
namespace {

constexpr uint32_t kPages = 30;  // 10 homed at each node

SystemConfig IntegrityConfig(double latent) {
  SystemConfig config;
  config.num_nodes = 3;
  config.db_pages = kPages;
  config.corrupt_latent_fraction = latent;
  return config;
}

// A cluster with both classes registered and nothing started.
class Cluster {
 public:
  explicit Cluster(const SystemConfig& config) : system_(config) {
    workload::ClassSpec goal;
    goal.id = 1;
    goal.goal_rt_ms = 5.0;
    goal.pages = {0, kPages};
    system_.AddClass(goal);
    workload::ClassSpec nogoal;
    nogoal.id = kNoGoalClass;
    nogoal.pages = {0, kPages};
    system_.AddClass(nogoal);
  }

  ClusterSystem& system() { return system_; }
  IntegrityService& integrity() { return system_.integrity(); }
  const IntegrityService::Ledger& ledger() { return integrity().ledger(); }

  // One no-goal access of `page` at `node`, run to completion.
  StorageLevel Access(NodeId node, PageId page) {
    StorageLevel level = StorageLevel::kLocalBuffer;
    system_.simulator().Spawn(AccessInto(node, page, &level));
    system_.simulator().Run();
    return level;
  }

  // Verify-on-read of `page`'s disk copy, run to completion.
  storage::Flaw VerifyDisk(PageId page) {
    storage::Flaw flaw = storage::Flaw::kDetectable;
    system_.simulator().Spawn(VerifyDiskInto(page, &flaw));
    system_.simulator().Run();
    return flaw;
  }

  // Strikes `node` with successive draws until one lands; returns the page
  // whose frame at `node` (frames) or disk copy (disk) it marked.
  PageId Strike(NodeId node, bool frames) {
    const storage::IntegrityMap& map = integrity().map();
    for (uint64_t draw = 1; draw < 1000; ++draw) {
      const uint64_t before = map.marked();
      integrity().HandleCorruption(node, draw);
      if (map.marked() == before) continue;
      for (PageId page = 0; page < kPages; ++page) {
        const storage::Flaw flaw =
            frames ? map.FrameFlaw(node, page) : map.DiskFlaw(page);
        if (flaw != storage::Flaw::kNone) return page;
      }
    }
    ADD_FAILURE() << "no strike landed on node " << node;
    return 0;
  }

 private:
  sim::Task<void> AccessInto(NodeId node, PageId page, StorageLevel* out) {
    *out = co_await system_.node(node).AccessPage(kNoGoalClass, page);
  }
  sim::Task<void> VerifyDiskInto(PageId page, storage::Flaw* out) {
    *out = co_await integrity().VerifyDiskRead(page);
  }

  ClusterSystem system_;
};

TEST(IntegrityServiceTest, DetectableFrameIsQuarantined) {
  Cluster cluster(IntegrityConfig(0.0));
  for (PageId page = 0; page < kPages; ++page) cluster.Access(0, page);
  const PageId page = cluster.Strike(0, /*frames=*/true);
  EXPECT_EQ(cluster.integrity().map().FrameFlaw(0, page),
            storage::Flaw::kDetectable);

  EXPECT_EQ(cluster.integrity().VerifyFrame(0, page), std::nullopt);
  EXPECT_EQ(cluster.ledger().detected, 1u);
  EXPECT_EQ(cluster.ledger().quarantine_decisions, 1u);
  EXPECT_EQ(cluster.integrity().frames_quarantined(), 1u);
  EXPECT_FALSE(cluster.system().node(0).node_cache().IsCached(page));
  EXPECT_FALSE(cluster.system().directory().IsCachedAt(0, page));
  EXPECT_FALSE(cluster.integrity().map().any_marked());

  // The next read re-fetches clean bits; nothing corrupt was consumed.
  EXPECT_NE(cluster.Access(0, page), StorageLevel::kLocalBuffer);
  EXPECT_EQ(cluster.ledger().served, 0u);
  EXPECT_EQ(cluster.ledger().latent_served, 0u);
}

TEST(IntegrityServiceTest, LatentFrameIsServedAndCounted) {
  Cluster cluster(IntegrityConfig(1.0));
  for (PageId page = 0; page < kPages; ++page) cluster.Access(0, page);
  const PageId page = cluster.Strike(0, /*frames=*/true);

  EXPECT_EQ(cluster.integrity().VerifyFrame(0, page), storage::Flaw::kLatent);
  EXPECT_EQ(cluster.Access(0, page), StorageLevel::kLocalBuffer);
  EXPECT_EQ(cluster.ledger().latent_served, 1u);
  EXPECT_EQ(cluster.ledger().detected, 0u);
  EXPECT_EQ(cluster.ledger().quarantine_decisions, 0u);
  EXPECT_EQ(cluster.ledger().served, 0u);
  EXPECT_TRUE(cluster.system().node(0).node_cache().IsCached(page));
}

TEST(IntegrityServiceTest, DiskCopyIsRepairedFromReplicaElseLost) {
  Cluster cluster(IntegrityConfig(0.0));
  // Node 1 caches every page homed at node 0; nothing caches node 2's.
  for (PageId page = 0; page < kPages; page += 3) cluster.Access(1, page);

  const PageId replicated = cluster.Strike(0, /*frames=*/false);
  ASSERT_EQ(replicated % 3, 0u);
  ASSERT_TRUE(cluster.system().directory().IsCachedAt(1, replicated));
  EXPECT_EQ(cluster.VerifyDisk(replicated), storage::Flaw::kNone);
  EXPECT_EQ(cluster.ledger().detected, 1u);
  EXPECT_EQ(cluster.ledger().disk_detections, 1u);
  EXPECT_EQ(cluster.ledger().repairs_replica, 1u);
  EXPECT_EQ(cluster.ledger().pages_lost, 0u);
  EXPECT_EQ(cluster.ledger().ladders_open, 0u);
  EXPECT_EQ(cluster.integrity().map().DiskFlaw(replicated),
            storage::Flaw::kNone);

  const PageId orphan = cluster.Strike(2, /*frames=*/false);
  ASSERT_EQ(orphan % 3, 2u);
  EXPECT_EQ(cluster.system().directory().CopyCount(orphan), 0);
  EXPECT_EQ(cluster.VerifyDisk(orphan), storage::Flaw::kNone);
  EXPECT_EQ(cluster.ledger().disk_detections, 2u);
  EXPECT_EQ(cluster.ledger().repairs_replica, 1u);
  EXPECT_EQ(cluster.ledger().pages_lost, 1u);
  EXPECT_EQ(cluster.ledger().ladders_open, 0u);
  EXPECT_EQ(cluster.integrity().map().DiskFlaw(orphan), storage::Flaw::kNone);
}

TEST(IntegrityServiceTest, ServeQuarantinedBugKeepsTheFrame) {
  SystemConfig config = IntegrityConfig(0.0);
  config.injected_bug = InjectedBug::kServeQuarantined;
  Cluster cluster(config);
  for (PageId page = 0; page < kPages; ++page) cluster.Access(0, page);
  const PageId page = cluster.Strike(0, /*frames=*/true);

  EXPECT_EQ(cluster.integrity().VerifyFrame(0, page), std::nullopt);
  EXPECT_EQ(cluster.ledger().quarantine_decisions, 1u);
  EXPECT_EQ(cluster.integrity().frames_quarantined(), 0u);
  EXPECT_TRUE(cluster.system().node(0).node_cache().IsCached(page));
  EXPECT_TRUE(cluster.system().directory().IsCachedAt(0, page));
  EXPECT_EQ(cluster.integrity().map().FrameFlaw(0, page),
            storage::Flaw::kDetectable);
}

}  // namespace
}  // namespace memgoal::core
