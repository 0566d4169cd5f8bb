// chaos_fuzz — randomized fault-schedule fuzzer with invariant auditing.
//
// Generates seeded random schedules composing crash x gray-degradation x
// partition x goal-churn events, runs each against the full system with the
// invariant auditor attached, and fails on any audit violation. A failing
// schedule is delta-shrunk (ddmin) to a minimal event list that still
// reproduces the violation's check, written as a text repro file that
// replays bit-exactly (the simulation is deterministic in the seed).
//
//   chaos_fuzz --seeds=50                     # fuzz; expect every seed clean
//   chaos_fuzz --seeds=8 --inject-bug=skip-heal-reconcile
//              --expect-violation --repro-out=/tmp/repro.txt
//   chaos_fuzz --replay=/tmp/repro.txt --inject-bug=skip-heal-reconcile
//              --expect-violation                # deterministic re-run
//
// Flags (all optional):
//   --seeds (50)            number of generated schedules to run (>= 1)
//   --seed-base (1)         first seed; schedule i uses seed-base + i
//   --nodes (4)             cluster size for generated schedules (3..32)
//   --horizon-ms (150000)   schedule horizon (> 0)
//   --max-episodes (4)      per-kind episode cap of the generator (>= 1)
//   --goal-ms (5.0)         class-1 response-time goal (churn scales it)
//   --corrupt (0)           compose corruption episodes into generated
//                           schedules and run the background scrubber (pass
//                           it to replay runs of corrupt repros too)
//   --inject-bug (none)     none | skip-heal-reconcile | no-epoch-fence |
//                           leak-directory-entry | skip-verify |
//                           serve-quarantined | lost-page-leak
//   --expect-violation      invert the exit code: pass iff a violation fires
//   --repro-out (path)      write the shrunk repro of the first violation
//   --replay (path)         replay a repro file instead of generating
//
// Exit status: 0 when the outcome matches the expectation, 1 otherwise
// (or on usage/parse errors).

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/config.h"
#include "core/system.h"
#include "sim/chaos_schedule.h"
#include "sim/invariant_auditor.h"
#include "workload/spec.h"

namespace {

using memgoal::core::ClusterSystem;
using memgoal::core::InjectedBug;
using memgoal::core::SystemConfig;
using memgoal::sim::InvariantAuditor;
namespace chaos = memgoal::sim::chaos;

struct RunResult {
  bool violated = false;
  std::string check;
  double at_ms = 0.0;
  std::string detail;
};

bool ParseBug(const std::string& name, InjectedBug* out) {
  if (name == "none") {
    *out = InjectedBug::kNone;
  } else if (name == "skip-heal-reconcile") {
    *out = InjectedBug::kSkipHealReconcile;
  } else if (name == "no-epoch-fence") {
    *out = InjectedBug::kNoEpochFence;
  } else if (name == "leak-directory-entry") {
    *out = InjectedBug::kLeakDirectoryEntry;
  } else if (name == "skip-verify") {
    *out = InjectedBug::kSkipVerify;
  } else if (name == "serve-quarantined") {
    *out = InjectedBug::kServeQuarantined;
  } else if (name == "lost-page-leak") {
    *out = InjectedBug::kLostPageLeak;
  } else {
    return false;
  }
  return true;
}

// Runs one schedule end to end under the auditor; deterministic in the
// schedule (all randomness derives from schedule.seed).
RunResult RunSchedule(const chaos::Schedule& schedule, InjectedBug bug,
                      double goal_ms, bool corrupt) {
  SystemConfig config;
  config.num_nodes = schedule.num_nodes;
  config.seed = schedule.seed == 0 ? 1 : schedule.seed;
  config.injected_bug = bug;
  config.faults.min_live_nodes = 1;
  if (corrupt) {
    // Corruption runs scrub so disk strikes are found (and the repair
    // ladder exercised) even on pages the workload never touches.
    config.scrub_interval_ms = 400.0;
  }
  chaos::ApplyToFaultParams(schedule, &config.faults);

  ClusterSystem system(config);
  const memgoal::PageId half = config.db_pages / 2;
  memgoal::workload::ClassSpec goal_class;
  goal_class.id = 1;
  goal_class.goal_rt_ms = goal_ms;
  goal_class.pages = {0, half};
  goal_class.mean_interarrival_ms = 60.0;
  goal_class.accesses_per_op = 4;
  system.AddClass(goal_class);
  memgoal::workload::ClassSpec nogoal_class;
  nogoal_class.id = memgoal::kNoGoalClass;
  nogoal_class.pages = {half, config.db_pages};
  nogoal_class.mean_interarrival_ms = 40.0;
  nogoal_class.accesses_per_op = 4;
  system.AddClass(nogoal_class);

  InvariantAuditor auditor;
  system.EnableAuditor(&auditor);

  for (const chaos::Event& event : chaos::GoalChanges(schedule)) {
    system.simulator().At(event.at_ms, [&system, event, goal_ms] {
      system.SetGoal(event.klass, goal_ms * event.factor);
    });
  }

  system.Start();
  // Two settle intervals past the horizon so post-heal invariants (hint
  // reconciliation, lease reacquisition) are audited after the last event.
  const int intervals =
      static_cast<int>(
          std::ceil(schedule.horizon_ms / config.observation_interval_ms)) +
      2;
  system.RunIntervals(intervals);

  RunResult result;
  if (!auditor.ok()) {
    const InvariantAuditor::Violation& first = auditor.violations().front();
    result.violated = true;
    result.check = first.check;
    result.at_ms = first.at_ms;
    result.detail = first.detail;
  }
  return result;
}

bool ReadFileText(const std::string& path, std::string* out) {
  std::ifstream file(path);
  if (!file) return false;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  *out = buffer.str();
  return true;
}

int Run(memgoal::common::Config& config) {
  const int seeds = static_cast<int>(
      config.GetInt("seeds", 50, {1, memgoal::common::kIntCount.max}));
  const uint64_t seed_base =
      static_cast<uint64_t>(config.GetInt("seed_base", 1));
  chaos::GenerateLimits limits;
  limits.num_nodes = static_cast<uint32_t>(config.GetInt("nodes", 4, {3, 32}));
  limits.horizon_ms = config.GetDouble(
      "horizon_ms", 150000.0, memgoal::common::NumberRange::Above(0.0));
  limits.max_episodes = static_cast<int>(config.GetInt(
      "max_episodes", 4, {1, memgoal::common::kIntCount.max}));
  limits.goal_classes = {1};
  const bool corrupt = config.GetBool("corrupt", false);
  if (corrupt) limits.max_corrupt_episodes = limits.max_episodes;
  const double goal_ms = config.GetDouble(
      "goal_ms", 5.0, memgoal::common::NumberRange::Above(0.0));
  const std::string bug_name = config.GetString("inject_bug", "none");
  const bool expect_violation = config.GetBool("expect_violation", false);
  const std::string repro_out = config.GetString("repro_out", "");
  const std::string replay_path = config.GetString("replay", "");
  if (!config.RejectUnknownFlags()) {
    std::fprintf(stderr, "error: %s\n", config.error().c_str());
    return 1;
  }
  InjectedBug bug;
  if (!ParseBug(bug_name, &bug)) {
    std::fprintf(stderr, "error: unknown inject_bug '%s'\n",
                 bug_name.c_str());
    return 1;
  }

  RunResult violation;
  chaos::Schedule failing;

  if (!replay_path.empty()) {
    // Replay mode: one deterministic re-run of a recorded repro.
    std::string text;
    if (!ReadFileText(replay_path, &text)) {
      std::fprintf(stderr, "error: cannot read %s\n", replay_path.c_str());
      return 1;
    }
    chaos::Schedule schedule;
    std::string error;
    if (!chaos::FromText(text, &schedule, &error, &limits.goal_classes)) {
      std::fprintf(stderr, "error: %s:%s\n", replay_path.c_str(),
                   error.c_str());
      return 1;
    }
    violation = RunSchedule(schedule, bug, goal_ms, corrupt);
    failing = schedule;
    if (violation.violated) {
      std::fprintf(stderr,
                   "replay seed=%llu: VIOLATION %s at %.0f ms: %s\n",
                   static_cast<unsigned long long>(schedule.seed),
                   violation.check.c_str(), violation.at_ms,
                   violation.detail.c_str());
    } else {
      std::fprintf(stderr, "replay seed=%llu: clean (%zu events)\n",
                   static_cast<unsigned long long>(schedule.seed),
                   schedule.events.size());
    }
  } else {
    for (int i = 0; i < seeds; ++i) {
      const uint64_t seed = seed_base + static_cast<uint64_t>(i);
      const chaos::Schedule schedule = chaos::Generate(seed, limits);
      const RunResult result = RunSchedule(schedule, bug, goal_ms, corrupt);
      if (result.violated) {
        std::fprintf(stderr,
                     "seed %llu: VIOLATION %s at %.0f ms: %s "
                     "(%zu events)\n",
                     static_cast<unsigned long long>(seed),
                     result.check.c_str(), result.at_ms,
                     result.detail.c_str(), schedule.events.size());
        violation = result;
        failing = schedule;
        break;  // first failure wins; it gets shrunk below
      }
      std::fprintf(stderr, "seed %llu: clean (%zu events)\n",
                   static_cast<unsigned long long>(seed),
                   schedule.events.size());
    }
  }

  if (violation.violated && !repro_out.empty()) {
    // Shrink to a minimal event list that still trips the same check, then
    // prove the written repro replays to the identical violation.
    const std::string check = violation.check;
    const chaos::Schedule shrunk =
        chaos::Shrink(failing, [&](const chaos::Schedule& candidate) {
          const RunResult r = RunSchedule(candidate, bug, goal_ms, corrupt);
          return r.violated && r.check == check;
        });
    std::FILE* file = std::fopen(repro_out.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", repro_out.c_str());
      return 1;
    }
    const std::string text = chaos::ToText(shrunk);
    std::fwrite(text.data(), 1, text.size(), file);
    std::fclose(file);

    const RunResult direct = RunSchedule(shrunk, bug, goal_ms, corrupt);
    chaos::Schedule reread;
    std::string reread_text;
    const bool replayable =
        ReadFileText(repro_out, &reread_text) &&
        chaos::FromText(reread_text, &reread) &&
        [&] {
          const RunResult r = RunSchedule(reread, bug, goal_ms, corrupt);
          return r.violated && r.check == direct.check &&
                 r.at_ms == direct.at_ms;
        }();
    std::fprintf(stderr,
                 "shrunk %zu -> %zu events, repro %s (%s) -> %s\n",
                 failing.events.size(), shrunk.events.size(),
                 repro_out.c_str(),
                 replayable ? "replays bit-exactly" : "REPLAY MISMATCH",
                 direct.check.c_str());
    if (!replayable) return 1;
  }

  if (expect_violation != violation.violated) {
    std::fprintf(stderr, "FAIL: expected %s, got %s\n",
                 expect_violation ? "a violation" : "a clean run",
                 violation.violated ? "a violation" : "clean runs");
    return 1;
  }
  std::fprintf(stderr, "OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  memgoal::common::Config config;
  if (!config.ParseArgs(argc, argv)) {
    std::fprintf(stderr, "error: %s\n", config.error().c_str());
    return 1;
  }
  return Run(config);
}
