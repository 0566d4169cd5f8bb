#include "core/scenario.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/config.h"

namespace memgoal::core {
namespace {

std::optional<Scenario> Load(const std::string& text, std::string* error) {
  common::Config config;
  EXPECT_TRUE(config.ParseText(text));
  return LoadScenario(config, error);
}

TEST(ScenarioTest, BackendKeysAreNotRead) {
  // The simulator has one event queue and one simplex: the keys that once
  // picked between backends are unknown keys now, left for the caller's
  // unused-key warning.
  common::Config config;
  ASSERT_TRUE(config.ParseText("queue=heap\nlp=dense\nclass1_goal_ms=50\n"));
  std::string error;
  ASSERT_TRUE(LoadScenario(config, &error).has_value()) << error;
  EXPECT_EQ(config.UnusedKeys(), (std::vector<std::string>{"lp", "queue"}));
}

TEST(ScenarioTest, PolicyNearMissGetsSuggestion) {
  std::string error;
  EXPECT_FALSE(Load("policy=lru_k\nclass1_goal_ms=50\n", &error).has_value());
  EXPECT_NE(error.find("policy must be cost-based, lru, lru-k or fifo"),
            std::string::npos)
      << error;
  EXPECT_NE(error.find("did you mean lru-k?"), std::string::npos) << error;
}

TEST(ScenarioTest, ObjectiveNearMissGetsSuggestion) {
  std::string error;
  EXPECT_FALSE(
      Load("objective=varianse\nclass1_goal_ms=50\n", &error).has_value());
  EXPECT_NE(error.find("objective must be nogoal or variance"),
            std::string::npos)
      << error;
  EXPECT_NE(error.find("did you mean variance?"), std::string::npos) << error;
}

TEST(ScenarioTest, PolicyAndObjectiveKeysPopulateConfig) {
  std::string error;
  const std::optional<Scenario> scenario = Load(
      "policy=lru-k\nobjective=variance\nclass1_goal_ms=50\n", &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  EXPECT_EQ(scenario->system.policy, cache::PolicyKind::kLruK);
  EXPECT_EQ(scenario->system.objective,
            PartitioningObjective::kMinimizeNodeVariance);
}

TEST(ScenarioTest, MalformedPageRangesAndNodeListsAreRejected) {
  // Each of these once aborted the process: a non-numeric page or node
  // (uncaught std::invalid_argument from std::stoul), or a range past the
  // database truncated to 32 bits and tripping a check in AddClass.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"class1_pages=abc:10\n", "class1_pages must be begin:end"},
      {"class1_pages=0:99999999999\n", "class1_pages must be begin:end"},
      {"class1_pages=0:2001\n", "<= db_pages (2000)"},
      {"class1_pages=10:10\n", "class1_pages must be begin:end"},
      {"class1_pages=-1:10\n", "class1_pages must be begin:end"},
      {"class1_pages=5:10x\n", "class1_pages must be begin:end"},
      {"class1_share_prob=0.5\nclass1_shared_pages=0:3000\n",
       "class1_shared_pages must be begin:end"},
      {"partition_nodes=1,x\n", "partition_nodes entry 'x'"},
      {"partition_nodes=1,3\n", "partition_nodes entry '3'"},
      {"partition_nodes=0,,2\n", "partition_nodes entry ''"},
  };
  for (const auto& [text, message] : cases) {
    std::string error;
    EXPECT_FALSE(Load("class1_goal_ms=50\n" + text, &error).has_value())
        << text;
    EXPECT_NE(error.find(message), std::string::npos) << text << error;
  }
  // The boundary itself is fine.
  std::string error;
  EXPECT_TRUE(Load("class1_goal_ms=50\nclass1_pages=1000:2000\n"
                   "partition_nodes=0,2\n",
                   &error)
                  .has_value())
      << error;
}

TEST(ScenarioTest, OutOfRangeNumbersAreRejected) {
  // Each of these once aborted the process in a constructor's
  // MEMGOAL_CHECK, hung it (interval_ms=0 ends every interval at time 0),
  // or wrapped to a huge unsigned value (cache_bytes=-5).
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"interval_ms=0\n", "interval_ms must be finite and > 0, got 0"},
      {"interval_ms=-5\n", "interval_ms must be finite and > 0, got -5"},
      {"nodes=0\n", "nodes must be in 1..65535, got 0"},
      {"page_bytes=0\n", "page_bytes must be in 1..4294967295, got 0"},
      {"db_pages=0\n", "db_pages must be in 1..4294967295, got 0"},
      {"crash_node=7\n", "crash_node must be in -1..2, got 7"},
      {"corrupt_node=9\n", "corrupt_node must be in -1..2, got 9"},
      {"degrade_node=1\ndegrade_factor=1\n",
       "degrade_factor must be finite and > 1, got 1"},
      {"classes=0\n", "classes must be in 1..2000, got 0"},
      {"class1_interarrival_ms=0\n",
       "class1_interarrival_ms must be finite and > 0, got 0"},
      {"class1_accesses=0\n", "class1_accesses must be in 1..2147483647"},
      {"class1_skew=-1\n", "class1_skew must be finite and >= 0, got -1"},
      {"scrub=idle\nscrub_interval_ms=-1\n",
       "scrub_interval_ms must be finite and > 0, got -1"},
      {"net_loss=2\n", "net_loss must be in [0, 1], got 2"},
      {"net_mbit=0\n", "net_mbit must be finite and > 0, got 0"},
      {"disk_transfer=0\n", "disk_transfer must be finite and > 0, got 0"},
      {"corrupt_latent=3\n", "corrupt_latent must be in [0, 1], got 3"},
      {"fault_mttf_ms=1000\nfault_mttr_ms=0\n",
       "fault_mttr_ms must be finite and > 0, got 0"},
      {"cache_bytes=-5\n", "cache_bytes must be >= 0, got -5"},
      {"corrupt_count=0\n", "corrupt_count must be in 1..4294967295"},
      {"intervals=-1\n", "intervals must be in 0..2147483647, got -1"},
      {"net_latency_ms=nan\n", "net_latency_ms must be finite and >= 0"},
      {"nodes=2\nfault_mttp_ms=1000\n", "fault_mttp_ms > 0 needs nodes >= 3"},
  };
  for (const auto& [text, message] : cases) {
    std::string error;
    EXPECT_FALSE(Load("class1_goal_ms=50\n" + text, &error).has_value())
        << text;
    EXPECT_NE(error.find(message), std::string::npos) << text << error;
  }
  // The edges of each range load.
  std::string error;
  EXPECT_TRUE(Load("class1_goal_ms=50\ncache_bytes=0\ncrash_node=2\n"
                   "net_loss=1\nclass1_skew=0\nintervals=0\n",
                   &error)
                  .has_value())
      << error;
}

TEST(ScenarioTest, CorruptNearMissGetsSuggestion) {
  std::string error;
  EXPECT_FALSE(Load("corrupt=frmaes\n", &error).has_value());
  EXPECT_NE(error.find("corrupt must be off, disk, frames or all"),
            std::string::npos)
      << error;
  EXPECT_NE(error.find("did you mean frames?"), std::string::npos) << error;
}

TEST(ScenarioTest, ScrubNearMissGetsSuggestion) {
  std::string error;
  EXPECT_FALSE(Load("scrub=idel\n", &error).has_value());
  EXPECT_NE(error.find("scrub must be off or idle"), std::string::npos)
      << error;
  EXPECT_NE(error.find("did you mean idle?"), std::string::npos) << error;
}

TEST(ScenarioTest, FarFetchedEnumValueGetsNoSuggestion) {
  std::string error;
  EXPECT_FALSE(Load("policy=fibonacci\n", &error).has_value());
  EXPECT_NE(error.find("policy must be"), std::string::npos) << error;
  EXPECT_EQ(error.find("did you mean"), std::string::npos) << error;
}

TEST(ScenarioTest, CorruptionKeysPopulateConfig) {
  std::string error;
  const std::optional<Scenario> scenario = Load(
      "class1_goal_ms=5\n"
      "corrupt=disk\n"
      "fault_mttc_ms=40000\n"
      "corrupt_latent=0.25\n"
      "corrupt_node=2\n"
      "corrupt_at_ms=1500\n"
      "corrupt_count=3\n"
      "corrupt_salt=77\n"
      "scrub=idle\n"
      "scrub_interval_ms=800\n",
      &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  const SystemConfig& system = scenario->system;
  EXPECT_EQ(system.corrupt_surface, CorruptionSurface::kDisk);
  EXPECT_DOUBLE_EQ(system.faults.mttc_ms, 40000.0);
  EXPECT_DOUBLE_EQ(system.corrupt_latent_fraction, 0.25);
  EXPECT_DOUBLE_EQ(system.scrub_interval_ms, 800.0);
  ASSERT_EQ(system.faults.corruption_script.size(), 1u);
  EXPECT_DOUBLE_EQ(system.faults.corruption_script[0].at_ms, 1500.0);
  EXPECT_EQ(system.faults.corruption_script[0].node, 2u);
  EXPECT_EQ(system.faults.corruption_script[0].count, 3u);
  EXPECT_EQ(system.faults.corruption_script[0].salt, 77u);
}

TEST(ScenarioTest, CorruptOffIsAKillSwitch) {
  std::string error;
  const std::optional<Scenario> scenario = Load(
      "class1_goal_ms=5\n"
      "corrupt=off\n"
      "fault_mttc_ms=40000\n"
      "corrupt_node=2\n",
      &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  EXPECT_DOUBLE_EQ(scenario->system.faults.mttc_ms, 0.0);
  EXPECT_TRUE(scenario->system.faults.corruption_script.empty());
}

TEST(ScenarioTest, ScrubDefaultsOff) {
  std::string error;
  const std::optional<Scenario> scenario = Load("nodes=3\nclass1_goal_ms=5\n", &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  EXPECT_DOUBLE_EQ(scenario->system.scrub_interval_ms, 0.0);
  EXPECT_DOUBLE_EQ(scenario->system.faults.mttc_ms, 0.0);
}

}  // namespace
}  // namespace memgoal::core
