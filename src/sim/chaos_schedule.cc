#include "sim/chaos_schedule.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/rng.h"

namespace memgoal::sim::chaos {

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kCrash:
      return "crash";
    case EventKind::kRecover:
      return "recover";
    case EventKind::kDegrade:
      return "degrade";
    case EventKind::kRestore:
      return "restore";
    case EventKind::kPartition:
      return "partition";
    case EventKind::kHeal:
      return "heal";
    case EventKind::kGoalChange:
      return "goal";
    case EventKind::kCorrupt:
      return "corrupt";
  }
  return "?";
}

Schedule Generate(uint64_t seed, const GenerateLimits& limits) {
  MEMGOAL_CHECK(limits.num_nodes >= 3 && limits.num_nodes <= 32);
  MEMGOAL_CHECK(limits.horizon_ms > 0.0);
  MEMGOAL_CHECK(limits.max_episodes >= 1);
  common::Rng rng(common::Mix64(seed));
  Schedule schedule;
  schedule.seed = seed;
  schedule.num_nodes = limits.num_nodes;
  schedule.horizon_ms = limits.horizon_ms;
  const uint32_t n = limits.num_nodes;
  const double horizon = limits.horizon_ms;

  // Crash episodes: begin in the first 75% of the horizon, last 2 s .. 20%
  // of the horizon (the recovery may land past the horizon; harmless).
  const int crashes = static_cast<int>(rng.UniformInt(0, limits.max_episodes));
  for (int i = 0; i < crashes; ++i) {
    const uint32_t node = static_cast<uint32_t>(rng.UniformInt(0, n - 1));
    const double at = rng.Uniform(0.0, 0.75 * horizon);
    const double duration = rng.Uniform(2000.0, 0.2 * horizon);
    schedule.events.push_back({at, EventKind::kCrash, node});
    schedule.events.push_back({at + duration, EventKind::kRecover, node});
  }

  // Gray-degradation episodes.
  const int grays = static_cast<int>(rng.UniformInt(0, limits.max_episodes));
  for (int i = 0; i < grays; ++i) {
    const uint32_t node = static_cast<uint32_t>(rng.UniformInt(0, n - 1));
    const double at = rng.Uniform(0.0, 0.75 * horizon);
    const double duration = rng.Uniform(2000.0, 0.2 * horizon);
    const double factor = rng.Uniform(3.0, 15.0);
    schedule.events.push_back({at, EventKind::kDegrade, node, factor});
    schedule.events.push_back({at + duration, EventKind::kRestore, node});
  }

  // Partition episodes: always at least one, and its heal lands before 70%
  // of the horizon so post-heal invariants (reconciliation, health resets,
  // re-convergence) are actually observed by the audit points that follow.
  const int partitions = static_cast<int>(
      rng.UniformInt(1, std::max(1, limits.max_episodes / 2)));
  const uint32_t max_minority = (n - 1) / 2;
  for (int i = 0; i < partitions; ++i) {
    const uint32_t k =
        static_cast<uint32_t>(rng.UniformInt(1, max_minority));
    uint32_t mask = 0;
    while (static_cast<uint32_t>(__builtin_popcount(mask)) < k) {
      mask |= 1u << rng.UniformInt(0, n - 1);
    }
    const double at = rng.Uniform(0.0, 0.55 * horizon);
    const double duration = rng.Uniform(3000.0, 0.15 * horizon);
    schedule.events.push_back({at, EventKind::kPartition, 0, 0.0, mask});
    schedule.events.push_back({at + duration, EventKind::kHeal});
  }

  // Goal churn: the coordinator re-plans around moving targets while the
  // topology is moving underneath it.
  for (const uint32_t klass : limits.goal_classes) {
    const int churns =
        static_cast<int>(rng.UniformInt(0, limits.max_episodes));
    for (int i = 0; i < churns; ++i) {
      const double at = rng.Uniform(0.0, 0.8 * horizon);
      const double factor = rng.Uniform(0.6, 1.8);
      schedule.events.push_back(
          {at, EventKind::kGoalChange, 0, factor, 0, klass});
    }
  }

  // Corruption episodes. Drawn last — and not at all when the knob is 0 —
  // so schedules generated before this kind existed reproduce bit-exactly.
  if (limits.max_corrupt_episodes > 0) {
    const int corrupts = static_cast<int>(
        rng.UniformInt(1, limits.max_corrupt_episodes));
    for (int i = 0; i < corrupts; ++i) {
      Event event;
      event.kind = EventKind::kCorrupt;
      event.node = static_cast<uint32_t>(rng.UniformInt(0, n - 1));
      event.at_ms = rng.Uniform(0.0, 0.8 * horizon);
      event.count = static_cast<uint32_t>(rng.UniformInt(1, 3));
      event.salt = rng.NextUint64();
      schedule.events.push_back(event);
    }
  }

  std::stable_sort(schedule.events.begin(), schedule.events.end(),
                   [](const Event& a, const Event& b) {
                     return a.at_ms < b.at_ms;
                   });
  return schedule;
}

void ApplyToFaultParams(const Schedule& schedule,
                        FaultInjector::Params* params) {
  for (const Event& event : schedule.events) {
    switch (event.kind) {
      case EventKind::kCrash:
        params->script.push_back({event.at_ms, event.node, /*crash=*/true});
        break;
      case EventKind::kRecover:
        params->script.push_back({event.at_ms, event.node, /*crash=*/false});
        break;
      case EventKind::kDegrade:
        params->degradation_script.push_back(
            {event.at_ms, event.node, /*begin=*/true, event.factor});
        break;
      case EventKind::kRestore:
        params->degradation_script.push_back(
            {event.at_ms, event.node, /*begin=*/false});
        break;
      case EventKind::kPartition: {
        std::vector<uint32_t> groups(schedule.num_nodes, 0);
        for (uint32_t node = 0; node < schedule.num_nodes; ++node) {
          if (event.minority_mask & (1u << node)) groups[node] = 1;
        }
        params->partition_script.push_back({event.at_ms, std::move(groups)});
        break;
      }
      case EventKind::kHeal:
        params->partition_script.push_back({event.at_ms, {}});
        break;
      case EventKind::kGoalChange:
        break;  // applied by the harness, not the injector
      case EventKind::kCorrupt:
        params->corruption_script.push_back(
            {event.at_ms, event.node, event.count, event.salt});
        break;
    }
  }
}

std::vector<Event> GoalChanges(const Schedule& schedule) {
  std::vector<Event> changes;
  for (const Event& event : schedule.events) {
    if (event.kind == EventKind::kGoalChange) changes.push_back(event);
  }
  return changes;
}

std::string ToText(const Schedule& schedule) {
  std::ostringstream out;
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "# chaos schedule v1\nseed %" PRIu64
                "\nnodes %u\nhorizon_ms %.17g\n",
                schedule.seed, schedule.num_nodes, schedule.horizon_ms);
  out << buffer;
  for (const Event& event : schedule.events) {
    switch (event.kind) {
      case EventKind::kCrash:
      case EventKind::kRecover:
      case EventKind::kRestore:
        std::snprintf(buffer, sizeof(buffer), "%s %.17g %u\n",
                      EventKindName(event.kind), event.at_ms, event.node);
        break;
      case EventKind::kDegrade:
        std::snprintf(buffer, sizeof(buffer), "degrade %.17g %u %.17g\n",
                      event.at_ms, event.node, event.factor);
        break;
      case EventKind::kPartition:
        std::snprintf(buffer, sizeof(buffer), "partition %.17g 0x%x\n",
                      event.at_ms, event.minority_mask);
        break;
      case EventKind::kHeal:
        std::snprintf(buffer, sizeof(buffer), "heal %.17g\n", event.at_ms);
        break;
      case EventKind::kGoalChange:
        std::snprintf(buffer, sizeof(buffer), "goal %.17g %u %.17g\n",
                      event.at_ms, event.klass, event.factor);
        break;
      case EventKind::kCorrupt:
        std::snprintf(buffer, sizeof(buffer),
                      "corrupt %.17g %u %u %" PRIu64 "\n", event.at_ms,
                      event.node, event.count, event.salt);
        break;
    }
    out << buffer;
  }
  return out.str();
}

namespace {

// Longest horizon FromText accepts (ms): a harness that loops over the
// horizon's observation intervals then counts them in an int at any
// interval length of at least 1 ms.
constexpr double kMaxHorizonMs = 2147483647.0;

std::string Number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.10g", value);
  return buffer;
}

// Why the fault injector or the harness could not run `event` of
// `schedule`, or "" when it can.
std::string EventProblem(const Event& event, const Schedule& schedule,
                         const std::vector<uint32_t>* goal_classes) {
  if (!std::isfinite(event.at_ms) || event.at_ms < 0.0) {
    return "time must be finite and >= 0, got " + Number(event.at_ms);
  }
  const uint32_t n = schedule.num_nodes;
  switch (event.kind) {
    case EventKind::kPartition: {
      const uint32_t nodes_mask = n >= 32 ? ~0u : (1u << n) - 1;
      if ((event.minority_mask & ~nodes_mask) != 0) {
        return "partition mask has bits at or above nodes " +
               std::to_string(n);
      }
      return "";
    }
    case EventKind::kHeal:
      return "";
    case EventKind::kGoalChange:
      if (!std::isfinite(event.factor) || event.factor <= 0.0) {
        return "goal factor must be finite and > 0, got " +
               Number(event.factor);
      }
      if (goal_classes != nullptr &&
          std::find(goal_classes->begin(), goal_classes->end(),
                    event.klass) == goal_classes->end()) {
        return "goal class " + std::to_string(event.klass) +
               " is not a goal class of this harness";
      }
      return "";
    default:
      break;
  }
  if (event.node >= n) {
    return "node " + std::to_string(event.node) + " is not below nodes " +
           std::to_string(n);
  }
  if (event.kind == EventKind::kDegrade &&
      (!std::isfinite(event.factor) || event.factor <= 1.0)) {
    return "degrade factor must be finite and > 1, got " +
           Number(event.factor);
  }
  if (event.kind == EventKind::kCorrupt && event.count == 0) {
    return "corrupt count must be >= 1";
  }
  return "";
}

}  // namespace

bool FromText(const std::string& text, Schedule* out, std::string* error,
              const std::vector<uint32_t>* goal_classes) {
  *out = Schedule{};
  std::istringstream in(text);
  std::string line;
  int line_number = 0;
  int seed_line = 0, nodes_line = 0, horizon_line = 0;
  std::vector<int> event_lines;
  const auto fail = [error](int at, const std::string& reason) {
    if (error != nullptr) *error = std::to_string(at) + ": " + reason;
    return false;
  };
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string kind;
    fields >> kind;
    Event event;
    int* header_line = nullptr;
    if (kind == "seed") {
      fields >> out->seed;
      header_line = &seed_line;
    } else if (kind == "nodes") {
      fields >> out->num_nodes;
      header_line = &nodes_line;
    } else if (kind == "horizon_ms") {
      fields >> out->horizon_ms;
      header_line = &horizon_line;
    } else if (kind == "crash" || kind == "recover" || kind == "restore") {
      event.kind = kind == "crash"     ? EventKind::kCrash
                   : kind == "recover" ? EventKind::kRecover
                                       : EventKind::kRestore;
      fields >> event.at_ms >> event.node;
    } else if (kind == "degrade") {
      event.kind = EventKind::kDegrade;
      fields >> event.at_ms >> event.node >> event.factor;
    } else if (kind == "partition") {
      event.kind = EventKind::kPartition;
      std::string mask;
      fields >> event.at_ms >> mask;
      char* end = nullptr;
      const unsigned long long value = std::strtoull(mask.c_str(), &end, 0);
      if (!fields.fail() && (*end != '\0' || value > 0xffffffffull)) {
        return fail(line_number, "malformed partition mask '" + mask + "'");
      }
      event.minority_mask = static_cast<uint32_t>(value);
    } else if (kind == "heal") {
      event.kind = EventKind::kHeal;
      fields >> event.at_ms;
    } else if (kind == "goal") {
      event.kind = EventKind::kGoalChange;
      fields >> event.at_ms >> event.klass >> event.factor;
    } else if (kind == "corrupt") {
      event.kind = EventKind::kCorrupt;
      fields >> event.at_ms >> event.node >> event.count >> event.salt;
    } else {
      return fail(line_number, "unknown record '" + kind + "'");
    }
    if (fields.fail()) return fail(line_number, "malformed " + kind + " line");
    if (header_line != nullptr) {
      *header_line = line_number;
    } else {
      out->events.push_back(event);
      event_lines.push_back(line_number);
    }
  }
  if (seed_line == 0 || nodes_line == 0 || horizon_line == 0) {
    return fail(line_number, "missing seed, nodes or horizon_ms line");
  }
  if (out->num_nodes < 3 || out->num_nodes > 32) {
    return fail(nodes_line, "nodes must be in 3..32, got " +
                                std::to_string(out->num_nodes));
  }
  if (!std::isfinite(out->horizon_ms) || out->horizon_ms <= 0.0 ||
      out->horizon_ms > kMaxHorizonMs) {
    return fail(horizon_line, "horizon_ms must be in (0, " +
                                  Number(kMaxHorizonMs) + "], got " +
                                  Number(out->horizon_ms));
  }
  for (size_t i = 0; i < out->events.size(); ++i) {
    const std::string problem =
        EventProblem(out->events[i], *out, goal_classes);
    if (!problem.empty()) return fail(event_lines[i], problem);
  }
  return true;
}

Schedule Shrink(const Schedule& schedule,
                const std::function<bool(const Schedule&)>& fails) {
  std::vector<Event> current = schedule.events;
  auto still_fails = [&](const std::vector<Event>& events) {
    Schedule candidate = schedule;
    candidate.events = events;
    return fails(candidate);
  };
  // ddmin: repeatedly try to delete chunks, halving the chunk size whenever
  // a full sweep removes nothing. Deterministic, terminates because every
  // accepted step strictly shrinks the schedule.
  size_t chunk = std::max<size_t>(1, current.size());
  while (chunk >= 1) {
    bool removed = false;
    for (size_t start = 0; start < current.size();) {
      const size_t end = std::min(current.size(), start + chunk);
      std::vector<Event> candidate;
      candidate.reserve(current.size() - (end - start));
      candidate.insert(candidate.end(), current.begin(),
                       current.begin() + start);
      candidate.insert(candidate.end(), current.begin() + end,
                       current.end());
      if (candidate.size() < current.size() && still_fails(candidate)) {
        current = std::move(candidate);
        removed = true;  // keep `start`: the next chunk slid into place
      } else {
        start = end;
      }
    }
    if (!removed) {
      if (chunk == 1) break;
      chunk = std::max<size_t>(1, chunk / 2);
    }
  }
  Schedule result = schedule;
  result.events = std::move(current);
  return result;
}

}  // namespace memgoal::sim::chaos
