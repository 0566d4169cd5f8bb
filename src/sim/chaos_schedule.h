#ifndef MEMGOAL_SIM_CHAOS_SCHEDULE_H_
#define MEMGOAL_SIM_CHAOS_SCHEDULE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/fault_injector.h"
#include "sim/simulator.h"

namespace memgoal::sim::chaos {

/// One fault or control-plane event of a chaos schedule. The kinds mirror
/// the fault injector's manual operations plus goal churn (the harness
/// applies goal changes itself, via Simulator::At).
enum class EventKind {
  kCrash,
  kRecover,
  kDegrade,
  kRestore,
  kPartition,
  kHeal,
  kGoalChange,
  kCorrupt,
};

const char* EventKindName(EventKind kind);

struct Event {
  SimTime at_ms = 0.0;
  EventKind kind = EventKind::kCrash;
  /// Crash/recover/degrade/restore target.
  uint32_t node = 0;
  /// Degradation slowdown factor, or the goal multiplier of a goal change.
  double factor = 0.0;
  /// Partition: bitmask of the nodes cut off from the rest (<= 32 nodes).
  uint32_t minority_mask = 0;
  /// Goal change target class.
  uint32_t klass = 0;
  /// Corruption: independent strikes fired at the instant, and the draw
  /// salt that (deterministically) decides each strike's page and
  /// detectability.
  uint32_t count = 1;
  uint64_t salt = 0;
};

/// A complete, self-describing schedule: together with the (fixed) system
/// configuration of the harness it determines a run bit-exactly, which is
/// what makes shrunk repro files replayable.
struct Schedule {
  uint64_t seed = 0;
  uint32_t num_nodes = 0;
  double horizon_ms = 0.0;
  std::vector<Event> events;
};

struct GenerateLimits {
  uint32_t num_nodes = 4;
  double horizon_ms = 150000.0;
  /// Upper bound on episodes per fault kind (crash, gray, goal churn per
  /// class); partitions draw 1..max(1, max_episodes/2) episodes.
  int max_episodes = 4;
  /// Classes eligible for goal churn (empty disables it).
  std::vector<uint32_t> goal_classes;
  /// Upper bound on corruption episodes; 0 draws none — and consumes no
  /// RNG, so schedules generated before corruption existed are unchanged.
  int max_corrupt_episodes = 0;
};

/// Deterministically expands (seed, limits) into a random schedule over
/// crash x gray x partition x goal-churn. Always contains at least one
/// partition episode whose heal lands before 70% of the horizon, so
/// heal-time bugs (the injected-bug validation target) are reliably
/// exercised with settling time to spare. Requires num_nodes in [3, 32].
Schedule Generate(uint64_t seed, const GenerateLimits& limits);

/// Moves the schedule's fault events into the injector's script form
/// (crash/recover -> script, degrade/restore -> degradation_script,
/// partition/heal -> partition_script). Goal changes are not faults; fetch
/// them with GoalChanges() and apply via Simulator::At.
void ApplyToFaultParams(const Schedule& schedule,
                        FaultInjector::Params* params);

std::vector<Event> GoalChanges(const Schedule& schedule);

/// Text round-trip for repro files: ToText output parses back to an equal
/// schedule (doubles serialized losslessly).
std::string ToText(const Schedule& schedule);

/// Parses a repro file. Besides malformed lines it rejects every schedule
/// the fault injector or a harness would abort on: a node count outside
/// 3..32, a node at or above the node count (or partition mask bits
/// there), a negative or non-finite time, a degrade factor not above 1, a
/// goal factor not above 0, a corruption count of 0, and a horizon outside
/// (0, 2^31 - 1] ms. When `goal_classes` is non-null, goal changes must
/// name one of its classes. On failure returns false and, when `error` is
/// non-null, sets it to "<line>: <reason>" for the first offending line.
bool FromText(const std::string& text, Schedule* out,
              std::string* error = nullptr,
              const std::vector<uint32_t>* goal_classes = nullptr);

/// Delta-debugging shrink (ddmin-style, deterministic): returns the
/// smallest event subsequence for which `fails` still returns true. The
/// input schedule must itself fail. Every candidate keeps the original
/// event order; `fails` is invoked O(n log n) times in the typical case.
Schedule Shrink(const Schedule& schedule,
                const std::function<bool(const Schedule&)>& fails);

}  // namespace memgoal::sim::chaos

#endif  // MEMGOAL_SIM_CHAOS_SCHEDULE_H_
