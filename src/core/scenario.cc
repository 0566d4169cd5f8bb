#include "core/scenario.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "common/config.h"
#include "sim/chaos_schedule.h"

namespace memgoal::core {
namespace {

// Enum-valued scenario keys fail the way Config::RejectUnknownFlags fails
// for unknown flags: name the accepted values and, on a near-miss, suggest
// the nearest one.
std::string BadEnumValue(const std::string& key, const std::string& value,
                         const std::vector<std::string>& accepted) {
  std::string message = key + " must be ";
  for (size_t i = 0; i < accepted.size(); ++i) {
    if (i > 0) message += i + 1 == accepted.size() ? " or " : ", ";
    message += accepted[i];
  }
  message += ", got " + value;
  const std::string suggestion = common::NearestSuggestion(value, accepted);
  if (!suggestion.empty()) {
    message += " (did you mean " + suggestion + "?)";
  }
  return message;
}

std::string BadPageRange(const std::string& key, const std::string& value,
                         PageId db_pages) {
  return key + " must be begin:end with begin < end <= db_pages (" +
         std::to_string(db_pages) + "), got '" + value + "'";
}

using common::NumberRange;

constexpr int64_t kMaxUint32 = std::numeric_limits<uint32_t>::max();
constexpr int64_t kMaxInt = std::numeric_limits<int>::max();
// The page directory and the integrity map, allocated whole when the
// cluster is built, take about 9 bytes per (page, node) pair and 11 per
// page: at most 20 bytes a pair (nodes = 1), so this cap keeps them under
// 2.7 GB. The largest run in the repo, bench_scaling's 256-node grid, uses
// about 4e7 pairs.
constexpr uint64_t kMaxPageNodePairs = uint64_t{1} << 27;
constexpr NumberRange kNonNegative = NumberRange::AtLeast(0.0);
constexpr NumberRange kPositive = NumberRange::Above(0.0);
constexpr NumberRange kFraction{0.0, 1.0};

// Parses all of `text` as a decimal unsigned integer: no sign, no
// whitespace, no trailing characters, no overflow.
bool ParseUnsigned(std::string_view text, uint64_t* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

bool ParsePageRange(const std::string& text, PageId db_pages,
                    workload::PageRange* out) {
  const size_t colon = text.find(':');
  if (colon == std::string::npos) return false;
  const std::string_view view(text);
  uint64_t begin = 0;
  uint64_t end = 0;
  if (!ParseUnsigned(view.substr(0, colon), &begin) ||
      !ParseUnsigned(view.substr(colon + 1), &end) || begin >= end ||
      end > db_pages) {
    return false;
  }
  out->begin = static_cast<PageId>(begin);
  out->end = static_cast<PageId>(end);
  return true;
}

std::optional<Scenario> LoadScenario(common::Config& config,
                                     std::string* error) {
  // Every numeric key is read with its range, so no constructor's
  // MEMGOAL_CHECK is the first line of validation. A value outside the
  // range, or one that does not parse, is recorded by `config` (the first
  // one wins) and the key's default stands in so the remaining keys can
  // still be read; the load then fails with config.bad_value().
  Scenario scenario;
  SystemConfig& system_config = scenario.system;
  system_config.num_nodes =
      static_cast<uint32_t>(config.GetInt("nodes", 3, {1, kMaxNodes}));
  const int64_t last_node = system_config.num_nodes - 1;
  system_config.cache_bytes_per_node =
      static_cast<uint64_t>(config.GetInt("cache_bytes", 2 << 20, {0}));
  system_config.page_bytes =
      static_cast<uint32_t>(config.GetInt("page_bytes", 4096, {1, kMaxUint32}));
  system_config.db_pages =
      static_cast<uint32_t>(config.GetInt("db_pages", 2000, {1, kMaxUint32}));
  if (uint64_t{system_config.db_pages} * system_config.num_nodes >
      kMaxPageNodePairs) {
    if (error) {
      *error = "db_pages * nodes must be <= " +
               std::to_string(kMaxPageNodePairs) + ", got " +
               std::to_string(system_config.db_pages) + " * " +
               std::to_string(system_config.num_nodes);
    }
    return std::nullopt;
  }
  system_config.observation_interval_ms =
      config.GetDouble("interval_ms", 5000.0, kPositive);
  system_config.seed = static_cast<uint64_t>(config.GetInt("seed", 1));
  const std::string policy = config.GetString("policy", "cost-based");
  if (policy == "cost-based") {
    system_config.policy = cache::PolicyKind::kCostBased;
  } else if (policy == "lru") {
    system_config.policy = cache::PolicyKind::kLru;
  } else if (policy == "lru-k") {
    system_config.policy = cache::PolicyKind::kLruK;
  } else if (policy == "fifo") {
    system_config.policy = cache::PolicyKind::kFifo;
  } else {
    if (error) {
      *error = BadEnumValue("policy", policy,
                            {"cost-based", "lru", "lru-k", "fifo"});
    }
    return std::nullopt;
  }
  const std::string objective = config.GetString("objective", "nogoal");
  if (objective == "nogoal") {
    system_config.objective = PartitioningObjective::kMinimizeNoGoalRt;
  } else if (objective == "variance") {
    system_config.objective = PartitioningObjective::kMinimizeNodeVariance;
  } else {
    if (error) {
      *error = BadEnumValue("objective", objective, {"nogoal", "variance"});
    }
    return std::nullopt;
  }
  system_config.disk.avg_seek_ms =
      config.GetDouble("disk_seek_ms", 8.0, kNonNegative);
  system_config.disk.rotation_ms =
      config.GetDouble("disk_rotation_ms", 8.33, kNonNegative);
  system_config.disk.transfer_mb_per_s =
      config.GetDouble("disk_transfer", 10.0, kPositive);
  system_config.network.bandwidth_mbit_per_s =
      config.GetDouble("net_mbit", 100.0, kPositive);
  system_config.network.latency_ms =
      config.GetDouble("net_latency_ms", 0.05, kNonNegative);
  system_config.network.loss_probability =
      config.GetDouble("net_loss", 0.0, kFraction);
  // Conditional keys are still read unconditionally so RejectUnknownFlags
  // in the caller never mistakes a dormant knob for a typo.
  const double burst_g2b = config.GetDouble("net_burst_g2b", 0.0, kFraction);
  const double burst_b2g = config.GetDouble("net_burst_b2g", 0.5, kFraction);
  const double burst_loss_good =
      config.GetDouble("net_burst_loss_good", 0.0, kFraction);
  const double burst_loss_bad =
      config.GetDouble("net_burst_loss_bad", 1.0, kFraction);
  if (config.GetString("net_loss_model", "iid") == "burst") {
    system_config.network.loss_model = net::LossModel::kBurst;
    system_config.network.burst_good_to_bad = burst_g2b;
    system_config.network.burst_bad_to_good = burst_b2g;
    system_config.network.burst_loss_good = burst_loss_good;
    system_config.network.burst_loss_bad = burst_loss_bad;
  }

  const int64_t crash_node = config.GetInt("crash_node", -1, {-1, last_node});
  const double crash_at = config.GetDouble("crash_at_ms", 0.0, kNonNegative);
  const double recover_at =
      config.GetDouble("recover_at_ms", 0.0, kNonNegative);
  if (crash_node >= 0) {
    system_config.faults.script.push_back(
        {crash_at, static_cast<uint32_t>(crash_node), /*crash=*/true});
    if (recover_at > crash_at) {
      system_config.faults.script.push_back(
          {recover_at, static_cast<uint32_t>(crash_node), /*crash=*/false});
    }
  }
  system_config.faults.mttf_ms =
      config.GetDouble("fault_mttf_ms", 0.0, kNonNegative);
  system_config.faults.mttr_ms =
      config.GetDouble("fault_mttr_ms", 10000.0, kPositive);
  system_config.faults.seed =
      static_cast<uint64_t>(config.GetInt("fault_seed", 0xFA171));
  system_config.faults.min_live_nodes = static_cast<uint32_t>(
      config.GetInt("fault_min_live", 1, {0, kMaxUint32}));
  const int64_t degrade_node =
      config.GetInt("degrade_node", -1, {-1, last_node});
  const double degrade_at =
      config.GetDouble("degrade_at_ms", 0.0, kNonNegative);
  const double restore_at =
      config.GetDouble("restore_at_ms", 0.0, kNonNegative);
  const double degrade_factor =
      config.GetDouble("degrade_factor", 10.0, NumberRange::Above(1.0));
  if (degrade_node >= 0) {
    system_config.faults.degradation_script.push_back(
        {degrade_at, static_cast<uint32_t>(degrade_node), /*begin=*/true,
         degrade_factor});
    if (restore_at > degrade_at) {
      system_config.faults.degradation_script.push_back(
          {restore_at, static_cast<uint32_t>(degrade_node), /*begin=*/false});
    }
  }
  system_config.faults.mttd_ms =
      config.GetDouble("fault_mttd_ms", 0.0, kNonNegative);
  system_config.faults.degradation_repair_ms =
      config.GetDouble("fault_degrade_repair_ms", 10000.0, kPositive);
  system_config.faults.degradation_factor =
      config.GetDouble("fault_degrade_factor", 10.0, NumberRange::Above(1.0));

  const std::string partition_nodes = config.GetString("partition_nodes", "");
  const double partition_at =
      config.GetDouble("partition_at_ms", 0.0, kNonNegative);
  const double heal_at = config.GetDouble("heal_at_ms", 0.0, kNonNegative);
  if (!partition_nodes.empty()) {
    std::vector<uint32_t> groups(system_config.num_nodes, 0);
    std::stringstream nodes(partition_nodes);
    std::string item;
    while (std::getline(nodes, item, ',')) {
      uint64_t node = 0;
      if (!ParseUnsigned(item, &node) || node >= system_config.num_nodes) {
        if (error) {
          *error = "partition_nodes entry '" + item + "' is not a node in 0.." +
                   std::to_string(system_config.num_nodes - 1);
        }
        return std::nullopt;
      }
      groups[node] = 1;
    }
    system_config.faults.partition_script.push_back({partition_at, groups});
    if (heal_at > partition_at) {
      system_config.faults.partition_script.push_back({heal_at, {}});
    }
  }
  system_config.faults.mttp_ms =
      config.GetDouble("fault_mttp_ms", 0.0, kNonNegative);
  system_config.faults.partition_heal_ms =
      config.GetDouble("fault_partition_heal_ms", 10000.0, kPositive);
  system_config.crash_detect_timeout_ms =
      config.GetDouble("crash_detect_timeout_ms", 2.0, kNonNegative);
  if (system_config.faults.mttp_ms > 0.0 && system_config.num_nodes < 3) {
    if (error) *error = "fault_mttp_ms > 0 needs nodes >= 3";
    return std::nullopt;
  }

  // Corruption (the fourth fault class) and the background scrubber. All
  // keys are read unconditionally (same idiom as the burst-loss knobs).
  const std::string corrupt = config.GetString("corrupt", "all");
  const int64_t corrupt_node =
      config.GetInt("corrupt_node", -1, {-1, last_node});
  const double corrupt_at =
      config.GetDouble("corrupt_at_ms", 0.0, kNonNegative);
  const int64_t corrupt_count =
      config.GetInt("corrupt_count", 1, {1, kMaxUint32});
  const uint64_t corrupt_salt =
      static_cast<uint64_t>(config.GetInt("corrupt_salt", 1));
  system_config.faults.mttc_ms =
      config.GetDouble("fault_mttc_ms", 0.0, kNonNegative);
  system_config.corrupt_latent_fraction =
      config.GetDouble("corrupt_latent", 0.0, kFraction);
  const std::string scrub = config.GetString("scrub", "off");
  const double scrub_interval =
      config.GetDouble("scrub_interval_ms", 1000.0, kPositive);
  if (corrupt == "off") {
    // Kill switch: no stochastic stream, no scripted strikes.
    system_config.faults.mttc_ms = 0.0;
  } else if (corrupt != "all") {
    if (error) *error = BadEnumValue("corrupt", corrupt, {"off", "all"});
    return std::nullopt;
  }
  if (corrupt_node >= 0 && corrupt != "off") {
    system_config.faults.corruption_script.push_back(
        {corrupt_at, static_cast<uint32_t>(corrupt_node),
         static_cast<uint32_t>(corrupt_count), corrupt_salt});
  }
  if (scrub == "off") {
    system_config.scrub_interval_ms = 0.0;
  } else if (scrub == "idle") {
    system_config.scrub_interval_ms = scrub_interval;
  } else {
    if (error) *error = BadEnumValue("scrub", scrub, {"off", "idle"});
    return std::nullopt;
  }

  scenario.intervals =
      static_cast<int>(config.GetInt("intervals", 40, common::kIntCount));
  scenario.audit = config.GetBool("audit", false);
  scenario.chaos_seed = static_cast<uint64_t>(config.GetInt("chaos_seed", 0));
  if (scenario.chaos_seed != 0) {
    // Overlay a generated chaos schedule on the scripted faults. The
    // schedule's own goal-churn events are disabled — scenario files define
    // the classes, so there is no fixed class list to churn.
    if (system_config.num_nodes < 3 || system_config.num_nodes > 32) {
      if (error) *error = "chaos_seed needs 3..32 nodes";
      return std::nullopt;
    }
    sim::chaos::GenerateLimits limits;
    limits.num_nodes = system_config.num_nodes;
    limits.horizon_ms =
        scenario.intervals * system_config.observation_interval_ms;
    const sim::chaos::Schedule schedule =
        sim::chaos::Generate(scenario.chaos_seed, limits);
    sim::chaos::ApplyToFaultParams(schedule, &system_config.faults);
    scenario.chaos_events = schedule.events.size();
  }

  // Every class needs at least one page of its own by default.
  const int num_classes = static_cast<int>(
      config.GetInt("classes", 2,
                    {1, std::min<int64_t>(system_config.db_pages, kMaxInt)}));
  for (int c = 0; c < num_classes; ++c) {
    const std::string prefix = "class" + std::to_string(c) + "_";
    workload::ClassSpec spec;
    spec.id = static_cast<ClassId>(c);
    // Class 0 has no goal, so its goal_ms is left unread: a value given
    // to it draws the caller's unused-key warning.
    if (c != 0) {
      const double goal = config.GetDouble(prefix + "goal_ms", 0.0, kPositive);
      if (goal == 0.0) {
        // A goal outside the range (read as 0) reports as such.
        if (error) {
          *error = config.bad_value().empty()
                       ? prefix + "goal_ms required for goal class"
                       : config.bad_value();
        }
        return std::nullopt;
      }
      spec.goal_rt_ms = goal;
    }
    const PageId slice =
        system_config.db_pages / static_cast<PageId>(num_classes);
    const std::string default_range =
        std::to_string(c * slice) + ":" + std::to_string((c + 1) * slice);
    workload::PageRange range;
    const std::string range_text =
        config.GetString(prefix + "pages", default_range);
    if (!ParsePageRange(range_text, system_config.db_pages, &range)) {
      if (error) {
        *error = BadPageRange(prefix + "pages", range_text,
                              system_config.db_pages);
      }
      return std::nullopt;
    }
    spec.pages = range;
    spec.mean_interarrival_ms =
        config.GetDouble(prefix + "interarrival_ms", 100.0, kPositive);
    spec.accesses_per_op =
        static_cast<int>(config.GetInt(prefix + "accesses", 4, {1, kMaxInt}));
    spec.zipf_skew = config.GetDouble(prefix + "skew", 0.0, kNonNegative);
    spec.share_prob = config.GetDouble(prefix + "share_prob", 0.0, kFraction);
    const std::string shared_text =
        config.GetString(prefix + "shared_pages", "");
    const double shared_skew =
        config.GetDouble(prefix + "shared_skew", spec.zipf_skew, kNonNegative);
    if (spec.share_prob > 0.0) {
      workload::PageRange shared;
      if (!ParsePageRange(shared_text, system_config.db_pages, &shared)) {
        if (error) {
          *error = BadPageRange(prefix + "shared_pages", shared_text,
                                system_config.db_pages);
        }
        return std::nullopt;
      }
      spec.shared_pages = shared;
      spec.shared_skew = shared_skew;
    }
    scenario.classes.push_back(spec);
  }
  if (!config.bad_value().empty()) {
    if (error) *error = config.bad_value();
    return std::nullopt;
  }
  return scenario;
}

}  // namespace memgoal::core
