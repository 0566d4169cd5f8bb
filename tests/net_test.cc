#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "net/directory.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "storage/database.h"

namespace memgoal::net {
namespace {

TEST(NetworkTest, TransmissionTime) {
  sim::Simulator simulator;
  Network::Params params;
  params.bandwidth_mbit_per_s = 100.0;
  params.latency_ms = 0.05;
  Network network(&simulator, params);
  // 4096 bytes = 32768 bits at 100 Mbit/s = 0.32768 ms.
  EXPECT_NEAR(network.TransmissionTime(4096), 0.32768, 1e-9);
}

TEST(NetworkTest, TransferTakesTransmissionPlusLatency) {
  sim::Simulator simulator;
  Network network(&simulator, Network::Params{100.0, 0.05});
  simulator.Spawn(network.Transfer(0, 1, 4096, TrafficClass::kPage));
  simulator.Run();
  EXPECT_NEAR(simulator.Now(), 0.32768 + 0.05, 1e-9);
}

TEST(NetworkTest, SharedMediumSerializes) {
  sim::Simulator simulator;
  Network network(&simulator, Network::Params{100.0, 0.0});
  for (int i = 0; i < 3; ++i) {
    simulator.Spawn(network.Transfer(0, 1, 4096, TrafficClass::kPage));
  }
  simulator.Run();
  EXPECT_NEAR(simulator.Now(), 3 * 0.32768, 1e-9);
}

TEST(NetworkTest, SameNodeTransferIsFree) {
  sim::Simulator simulator;
  Network network(&simulator, Network::Params{});
  simulator.Spawn(network.Transfer(2, 2, 4096, TrafficClass::kPage));
  simulator.Run();
  EXPECT_DOUBLE_EQ(simulator.Now(), 0.0);
  EXPECT_EQ(network.total_bytes_sent(), 0u);
}

TEST(NetworkTest, PerCategoryAccounting) {
  sim::Simulator simulator;
  Network network(&simulator, Network::Params{});
  simulator.Spawn(network.Transfer(0, 1, 100, TrafficClass::kControl));
  simulator.Spawn(network.Transfer(0, 1, 4096, TrafficClass::kPage));
  simulator.Spawn(
      network.Transfer(1, 0, 48, TrafficClass::kPartitionProtocol));
  simulator.Run();
  EXPECT_EQ(network.bytes_sent(TrafficClass::kControl), 100u);
  EXPECT_EQ(network.bytes_sent(TrafficClass::kPage), 4096u);
  EXPECT_EQ(network.bytes_sent(TrafficClass::kPartitionProtocol), 48u);
  EXPECT_EQ(network.bytes_sent(TrafficClass::kHeatHint), 0u);
  EXPECT_EQ(network.total_bytes_sent(), 100u + 4096u + 48u);
  EXPECT_EQ(network.total_messages_sent(), 3u);
  EXPECT_EQ(network.messages_sent(TrafficClass::kPage), 1u);
}

TEST(NetworkTest, BurstLossDropsPerClassCounters) {
  // Force the Gilbert–Elliott chain into the bad state on the first
  // best-effort message and keep it there: every protocol/hint message
  // drops, while the reliable classes sail through untouched.
  sim::Simulator simulator;
  Network::Params params;
  params.loss_model = LossModel::kBurst;
  params.burst_good_to_bad = 1.0;
  params.burst_bad_to_good = 0.0;
  params.burst_loss_good = 0.0;
  params.burst_loss_bad = 1.0;
  Network network(&simulator, params);
  for (int i = 0; i < 5; ++i) {
    simulator.Spawn(
        network.Transfer(0, 1, 48, TrafficClass::kPartitionProtocol));
    simulator.Spawn(network.Transfer(0, 1, 32, TrafficClass::kHeatHint));
    simulator.Spawn(network.Transfer(0, 1, 64, TrafficClass::kControl));
    simulator.Spawn(network.Transfer(0, 1, 4096, TrafficClass::kPage));
  }
  simulator.Run();
  EXPECT_TRUE(network.in_burst());
  EXPECT_EQ(network.messages_dropped(TrafficClass::kPartitionProtocol), 5u);
  EXPECT_EQ(network.messages_dropped(TrafficClass::kHeatHint), 5u);
  EXPECT_EQ(network.messages_dropped(TrafficClass::kControl), 0u);
  EXPECT_EQ(network.messages_dropped(TrafficClass::kPage), 0u);
}

TEST(NetworkTest, BurstLossIsBursty) {
  // With rare good->bad transitions, a lossless good state and a lossy bad
  // state, drops must cluster: the overall drop rate tracks the stationary
  // bad-state probability, and consecutive drops (runs) must occur far more
  // often than an i.i.d. process at the same rate would produce.
  sim::Simulator simulator;
  Network::Params params;
  params.loss_model = LossModel::kBurst;
  params.burst_good_to_bad = 0.02;
  params.burst_bad_to_good = 0.2;
  params.burst_loss_good = 0.0;
  params.burst_loss_bad = 1.0;
  Network network(&simulator, params);

  const int kMessages = 4000;
  int dropped = 0, paired_drops = 0;
  bool last_dropped = false;
  for (int i = 0; i < kMessages; ++i) {
    bool delivered = true;
    simulator.Spawn([](Network* net, bool* out) -> sim::Task<void> {
      *out = co_await net->Transfer(0, 1, 32, TrafficClass::kHeatHint);
    }(&network, &delivered));
    simulator.Run();
    if (!delivered) {
      ++dropped;
      if (last_dropped) ++paired_drops;
    }
    last_dropped = !delivered;
  }
  // Stationary bad probability = g2b / (g2b + b2g) = 0.02/0.22 ~ 9%.
  const double rate = static_cast<double>(dropped) / kMessages;
  EXPECT_NEAR(rate, 0.09, 0.04);
  // P(drop | previous dropped) ~ P(stay bad) = 0.8 >> rate: strong
  // clustering. An i.i.d. process would give paired_drops/dropped ~ rate.
  const double conditional =
      static_cast<double>(paired_drops) / static_cast<double>(dropped);
  EXPECT_GT(conditional, 0.5);
}

TEST(NetworkTest, IidLossUnaffectedByBurstKnobs) {
  // Default model stays i.i.d.: burst knobs are inert and zero probability
  // means zero drops (and no RNG draws, preserving old seeds' streams).
  sim::Simulator simulator;
  Network::Params params;
  params.loss_probability = 0.0;
  params.burst_good_to_bad = 1.0;  // would drop everything in burst mode
  Network network(&simulator, params);
  for (int i = 0; i < 10; ++i) {
    simulator.Spawn(network.Transfer(0, 1, 32, TrafficClass::kHeatHint));
  }
  simulator.Run();
  EXPECT_EQ(network.messages_dropped(TrafficClass::kHeatHint), 0u);
  EXPECT_FALSE(network.in_burst());
}

TEST(NetworkTest, NodeSlowdownStretchesLatencyOnly) {
  sim::Simulator simulator;
  Network network(&simulator, Network::Params{100.0, 0.05});
  network.SetNodeSlowdown(1, 10.0);
  EXPECT_DOUBLE_EQ(network.NodeSlowdown(1), 10.0);
  EXPECT_DOUBLE_EQ(network.NodeSlowdown(0), 1.0);
  // Latency is paced by the degraded endpoint's NIC/stack; the shared
  // medium's transmission time is unaffected.
  simulator.Spawn(network.Transfer(0, 1, 4096, TrafficClass::kPage));
  simulator.Run();
  EXPECT_NEAR(simulator.Now(), 0.32768 + 0.5, 1e-9);
}

TEST(NetworkTest, NodeSlowdownUsesWorseEndpoint) {
  sim::Simulator simulator;
  Network network(&simulator, Network::Params{100.0, 0.05});
  network.SetNodeSlowdown(0, 20.0);
  network.SetNodeSlowdown(1, 10.0);
  simulator.Spawn(network.Transfer(1, 0, 4096, TrafficClass::kPage));
  simulator.Run();
  EXPECT_NEAR(simulator.Now(), 0.32768 + 1.0, 1e-9);
  // Restoring both endpoints restores the nominal latency.
  network.SetNodeSlowdown(0, 1.0);
  network.SetNodeSlowdown(1, 1.0);
  simulator.Spawn(network.Transfer(0, 1, 4096, TrafficClass::kPage));
  simulator.Run();
  EXPECT_NEAR(simulator.Now(), 2 * 0.32768 + 1.0 + 0.05, 1e-9);
}

TEST(NetworkTest, PartitionDropsEveryClassAcrossTheCut) {
  // Unlike best-effort loss, a partition swallows even the reliable
  // categories: there is no wire to the other side.
  sim::Simulator simulator;
  Network network(&simulator, Network::Params{});
  network.SetReachability([](NodeId from, NodeId to) {
    return (from == 2) == (to == 2);  // node 2 is cut off
  });
  network.SetPartitionActive(true);

  const auto transfer = [&](NodeId from, NodeId to, bool* out) {
    simulator.Spawn([](Network* net, NodeId f, NodeId t,
                       bool* delivered) -> sim::Task<void> {
      *delivered = co_await net->Transfer(f, t, 4096, TrafficClass::kPage);
    }(&network, from, to, out));
    simulator.Run();
  };

  bool delivered = true;
  transfer(0, 2, &delivered);
  EXPECT_FALSE(delivered);
  transfer(2, 0, &delivered);
  EXPECT_FALSE(delivered);
  transfer(0, 1, &delivered);  // same side: unaffected
  EXPECT_TRUE(delivered);
  EXPECT_EQ(network.messages_partition_dropped(TrafficClass::kPage), 2u);
  EXPECT_EQ(network.messages_dropped(TrafficClass::kPage), 2u);
  EXPECT_EQ(network.total_messages_partition_dropped(), 2u);

  // Healing stops the drops without touching the oracle.
  network.SetPartitionActive(false);
  transfer(0, 2, &delivered);
  EXPECT_TRUE(delivered);
  EXPECT_EQ(network.messages_partition_dropped(TrafficClass::kPage), 2u);
}

TEST(NetworkTest, PartitionedTransferStillOccupiesTheMedium) {
  // The sender cannot know the cut exists: its NIC transmits and the bytes
  // die at the boundary, so the medium is held for the transmission time.
  sim::Simulator simulator;
  Network network(&simulator, Network::Params{100.0, 0.05});
  network.SetReachability([](NodeId, NodeId) { return false; });
  network.SetPartitionActive(true);
  simulator.Spawn(network.Transfer(0, 1, 4096, TrafficClass::kPage));
  simulator.Run();
  EXPECT_NEAR(simulator.Now(), 0.32768 + 0.05, 1e-9);
  EXPECT_EQ(network.bytes_sent(TrafficClass::kPage), 4096u);
}

TEST(NetworkTest, StorageBusBypassesPartition) {
  // The dual-ported SCSI path is not the interconnect: disk traffic flows
  // regardless of the partition.
  sim::Simulator simulator;
  Network network(&simulator, Network::Params{});
  network.SetReachability([](NodeId, NodeId) { return false; });
  network.SetPartitionActive(true);

  bool delivered = false;
  simulator.Spawn([](Network* net, bool* out) -> sim::Task<void> {
    *out = co_await net->Transfer(0, 1, 4096, TrafficClass::kPage,
                                  /*via_storage_bus=*/true);
  }(&network, &delivered));
  simulator.Run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(network.total_messages_partition_dropped(), 0u);
}

class DirectoryTest : public ::testing::Test {
 protected:
  DirectoryTest() : db_(30, 4096, 3), directory_(&db_) {}

  std::vector<NodeId> Ranked(PageId page, NodeId except) const {
    PageDirectory::CopyList out;
    directory_.RankedCopies(page, except, &out);
    return std::vector<NodeId>(out.begin(), out.end());
  }

  storage::Database db_;
  PageDirectory directory_;
};

TEST_F(DirectoryTest, CopyTrackingIdempotent) {
  EXPECT_EQ(directory_.CopyCount(5), 0);
  directory_.OnPageCached(1, 5);
  directory_.OnPageCached(1, 5);  // idempotent
  EXPECT_EQ(directory_.CopyCount(5), 1);
  EXPECT_TRUE(directory_.IsCachedAt(1, 5));
  directory_.OnPageCached(2, 5);
  EXPECT_EQ(directory_.CopyCount(5), 2);
  directory_.OnPageDropped(1, 5);
  directory_.OnPageDropped(1, 5);  // idempotent
  EXPECT_EQ(directory_.CopyCount(5), 1);
  EXPECT_FALSE(directory_.IsCachedAt(1, 5));
}

TEST_F(DirectoryTest, RankedCopiesPutsHomeFirstWhenCostsEqual) {
  // Page 7's home is node 1 (7 % 3); with equal costs the ranking must be
  // exactly the historic home-first scan order.
  directory_.OnPageCached(0, 7);
  directory_.OnPageCached(1, 7);
  directory_.OnPageCached(2, 7);
  EXPECT_EQ(Ranked(7, /*except=*/2), (std::vector<NodeId>{1, 0}));
  EXPECT_EQ(Ranked(7, /*except=*/0), (std::vector<NodeId>{1, 2}));
}

TEST_F(DirectoryTest, RankedCopiesExcludesRequester) {
  directory_.OnPageCached(2, 7);
  EXPECT_TRUE(Ranked(7, /*except=*/2).empty());
  directory_.OnPageCached(0, 7);
  EXPECT_EQ(Ranked(7, /*except=*/2), (std::vector<NodeId>{0}));
}

TEST_F(DirectoryTest, RankedCopiesEmptyWhenUncached) {
  // The list is cleared first, so a reused one never keeps stale holders.
  PageDirectory::CopyList out;
  out.push_back(1);
  directory_.RankedCopies(3, /*except=*/0, &out);
  EXPECT_TRUE(out.empty());
}

TEST_F(DirectoryTest, GlobalHeatAggregatesReports) {
  directory_.ReportLocalHeat(0, 4, 0.5);
  directory_.ReportLocalHeat(1, 4, 0.25);
  EXPECT_DOUBLE_EQ(directory_.GlobalHeat(4), 0.75);
  // Re-report replaces, not adds.
  directory_.ReportLocalHeat(0, 4, 0.1);
  EXPECT_DOUBLE_EQ(directory_.GlobalHeat(4), 0.35);
}

TEST_F(DirectoryTest, RankedCopiesOrdersByNodeCost) {
  directory_.OnPageCached(0, 7);
  directory_.OnPageCached(1, 7);
  // The home node turns expensive (e.g. its fetch-latency EWMA spiked): a
  // cheaper replica outranks it.
  directory_.SetNodeCost(1, 5.0);
  directory_.SetNodeCost(0, 1.0);
  EXPECT_DOUBLE_EQ(directory_.NodeCost(1), 5.0);
  EXPECT_EQ(Ranked(7, /*except=*/2), (std::vector<NodeId>{0, 1}));
  // Costs converging back restores the home-first preference.
  directory_.SetNodeCost(1, 1.0);
  EXPECT_EQ(Ranked(7, /*except=*/2), (std::vector<NodeId>{1, 0}));
}

TEST_F(DirectoryTest, RankedCopiesFiltersUnreachableHoldersDuringPartition) {
  // Page 7's home is node 1 (7 % 3); all three nodes hold copies.
  directory_.OnPageCached(0, 7);
  directory_.OnPageCached(1, 7);
  directory_.OnPageCached(2, 7);
  directory_.SetReachability([](NodeId from, NodeId to) {
    return (from == 2) == (to == 2);  // node 2 is cut off
  });

  // Oracle installed but no partition active: full ranking.
  EXPECT_EQ(Ranked(7, /*except=*/2), (std::vector<NodeId>{1, 0}));

  // Partition active: the cut-off requester sees no copies across the
  // boundary, and requesters on the majority side do not see node 2.
  directory_.SetPartitionActive(true);
  EXPECT_TRUE(Ranked(7, /*except=*/2).empty());
  EXPECT_EQ(Ranked(7, /*except=*/0), (std::vector<NodeId>{1}));

  directory_.SetPartitionActive(false);
  EXPECT_EQ(Ranked(7, /*except=*/2), (std::vector<NodeId>{1, 0}));
}

TEST_F(DirectoryTest, AuditInternalConsistencyDetectsTampering) {
  directory_.OnPageCached(0, 5);
  directory_.OnPageCached(1, 5);
  directory_.ReportLocalHeat(0, 5, 0.5);
  EXPECT_FALSE(directory_.AuditInternalConsistency().has_value());
}

TEST_F(DirectoryTest, TotalCachedPages) {
  directory_.OnPageCached(0, 1);
  directory_.OnPageCached(1, 1);
  directory_.OnPageCached(2, 2);
  EXPECT_EQ(directory_.total_cached_pages(), 3u);
  directory_.OnPageDropped(1, 1);
  EXPECT_EQ(directory_.total_cached_pages(), 2u);
}

// The ranking as a linear scan over an independent holder table: nodes in
// [home, N) and then [0, home), minus the requester and, while a partition
// is active, the holders it cannot reach, stably sorted by node cost.
std::vector<NodeId> ReferenceRanking(
    const std::vector<std::vector<bool>>& held,
    const std::vector<double>& cost, const std::vector<int>& side,
    const storage::Database& db, PageId page, NodeId except,
    bool partition) {
  const uint32_t n = db.num_nodes();
  const NodeId home = db.HomeOf(page);
  std::vector<NodeId> out;
  for (uint32_t offset = 0; offset < n; ++offset) {
    const NodeId node = (home + offset) % n;
    if (node == except || !held[page][node]) continue;
    if (partition && side[node] != side[except]) continue;
    out.push_back(node);
  }
  std::stable_sort(out.begin(), out.end(),
                   [&](NodeId a, NodeId b) { return cost[a] < cost[b]; });
  return out;
}

TEST(DirectoryBitmaskTest, RankingMatchesLinearScanAcrossWordBoundaries) {
  for (const uint32_t nodes : {1u, 3u, 63u, 64u, 65u, 128u, 130u}) {
    SCOPED_TRACE(nodes);
    const uint32_t pages = 2 * nodes + 7;  // every node is some page's home
    const storage::Database db(pages, 4096, nodes);
    PageDirectory directory(&db);
    common::Rng rng(0xD1C7u + nodes);
    // Holder sets from empty to full: each page gets its own density.
    std::vector<std::vector<bool>> held(pages, std::vector<bool>(nodes));
    for (PageId page = 0; page < pages; ++page) {
      const double density = rng.NextDouble();
      for (NodeId node = 0; node < nodes; ++node) {
        if (rng.NextDouble() < density) {
          directory.OnPageCached(node, page);
          directory.ReportLocalHeat(node, page, rng.NextDouble());
          held[page][node] = true;
        }
      }
    }
    // Few distinct costs, so the stable sort's ties are exercised.
    std::vector<double> cost(nodes);
    for (NodeId node = 0; node < nodes; ++node) {
      cost[node] = static_cast<double>(rng.UniformInt(0, 2));
      directory.SetNodeCost(node, cost[node]);
    }
    std::vector<int> side(nodes);
    for (int& s : side) s = static_cast<int>(rng.UniformInt(0, 1));
    directory.SetReachability(
        [&side](NodeId from, NodeId to) { return side[from] == side[to]; });

    const auto check_all = [&] {
      for (const bool partition : {false, true}) {
        directory.SetPartitionActive(partition);
        for (int query = 0; query < 400; ++query) {
          const auto page = static_cast<PageId>(rng.UniformInt(0, pages - 1));
          const auto except =
              static_cast<NodeId>(rng.UniformInt(0, nodes - 1));
          PageDirectory::CopyList out;
          directory.RankedCopies(page, except, &out);
          ASSERT_EQ(std::vector<NodeId>(out.begin(), out.end()),
                    ReferenceRanking(held, cost, side, db, page, except,
                                     partition))
              << "page " << page << " home " << db.HomeOf(page)
              << " requester " << except << " partition " << partition;
        }
      }
      directory.SetPartitionActive(false);
      uint64_t total = 0;
      for (PageId page = 0; page < pages; ++page) {
        const auto copies = static_cast<int>(
            std::count(held[page].begin(), held[page].end(), true));
        ASSERT_EQ(directory.CopyCount(page), copies) << "page " << page;
        total += static_cast<uint64_t>(copies);
        for (NodeId node = 0; node < nodes; ++node) {
          ASSERT_EQ(directory.IsCachedAt(node, page), held[page][node])
              << "page " << page << " node " << node;
        }
      }
      EXPECT_EQ(directory.total_cached_pages(), total);
      EXPECT_FALSE(directory.AuditInternalConsistency().has_value());
    };
    check_all();

    // Drops, single and whole-node, on both sides of a word boundary.
    for (int drop = 0; drop < 200; ++drop) {
      const auto page = static_cast<PageId>(rng.UniformInt(0, pages - 1));
      const auto node = static_cast<NodeId>(rng.UniformInt(0, nodes - 1));
      directory.OnPageDropped(node, page);
      held[page][node] = false;
    }
    for (const NodeId node : {0u, nodes / 2, nodes - 1}) {
      int expected = 0;
      for (PageId page = 0; page < pages; ++page) {
        if (held[page][node]) ++expected;
        held[page][node] = false;
      }
      EXPECT_EQ(directory.DropNode(node), expected) << "node " << node;
    }
    check_all();
  }
}

}  // namespace
}  // namespace memgoal::net
