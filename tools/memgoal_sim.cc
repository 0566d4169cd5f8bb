// memgoal_sim — scenario-file driven simulation runner.
//
// Reads a scenario description (key=value lines, '#' comments) from a file
// given as the first argument (or from stdin with "-"), runs it, prints the
// per-interval metrics as CSV to stdout and a summary to stderr. Any
// further command-line key=value arguments override the file.
//
//   memgoal_sim scenario.conf intervals=120 seed=9
//
// Scenario keys (defaults in parentheses), read by core::LoadScenario; the
// examples under examples/ take the same keys on top of their own
// scenario file:
//   nodes (3), cache_bytes (2097152), page_bytes (4096), db_pages (2000),
//   interval_ms (5000), seed (1), intervals (40),
//   policy (cost-based | lru | lru-k | fifo),
//   objective (nogoal | variance),
//   disk_seek_ms (8.0), disk_rotation_ms (8.33), disk_transfer (10.0),
//   net_mbit (100.0), net_latency_ms (0.05), net_loss (0.0),
//   net_loss_model (iid | burst), net_burst_g2b (0.0), net_burst_b2g (0.5),
//   net_burst_loss_good (0.0), net_burst_loss_bad (1.0),
//   crash_node (-1), crash_at_ms (0), recover_at_ms (0)
//                                    — scripted crash/recovery of one node
//   fault_mttf_ms (0), fault_mttr_ms (10000), fault_seed (1024369),
//   fault_min_live (1)               — stochastic per-node fault process
//   degrade_node (-1), degrade_at_ms (0), degrade_factor (10),
//   restore_at_ms (0)                — scripted gray degradation of one node
//   fault_mttd_ms (0), fault_degrade_repair_ms (10000),
//   fault_degrade_factor (10)        — stochastic gray-failure process
//   partition_nodes (""), partition_at_ms (0), heal_at_ms (0)
//                                    — scripted group partition: the listed
//                                      nodes (comma-separated) are cut off
//                                      from the rest between the two times
//   fault_mttp_ms (0), fault_partition_heal_ms (10000)
//                                    — stochastic whole-cluster partitions
//   corrupt (all | off)              — kill switch of the corruption
//                                      fault class; a strike hits the
//                                      struck node's frame when the drawn
//                                      page is resident there, its disk
//                                      otherwise
//   fault_mttc_ms (0)                — stochastic per-node bit rot
//   corrupt_node (-1), corrupt_at_ms (0), corrupt_count (1),
//   corrupt_salt (1)                 — scripted corruption episode
//   corrupt_latent (0)               — fraction of strikes the checksum
//                                      misses (served unknowingly)
//   scrub (off | idle), scrub_interval_ms (1000)
//                                    — idle-disk background scrubber
//   chaos_seed (0)                   — nonzero: overlay a generated chaos
//                                      schedule (crash x gray x partition)
//                                      on top of the scripted faults
//   audit (0)                        — run the invariant auditor every
//                                      interval; violations fail the run
//                                      (memgoal_sim only: the examples
//                                      reject it)
//   crash_detect_timeout_ms (2.0),
//   classes (2)                      — total class count including class 0
//   class<i>_goal_ms                 — > 0, required for each goal class
//                                      (i >= 1); class 0 has no goal
//   class<i>_pages                   — "begin:end" page range
//   class<i>_interarrival_ms (100), class<i>_accesses (4),
//   class<i>_skew (0), class<i>_share_prob (0),
//   class<i>_shared_pages            — "begin:end" of the shared range
//
// Observability outputs (also accepted as --trace-out=..., --decision-log=...
// style flags; a path of "" disables; unknown --flags are rejected with a
// near-miss suggestion):
//   trace_out                        — Chrome trace-event JSON of request
//                                      spans (open in Perfetto / about:tracing)
//   decision_log                     — JSONL, one controller decision record
//                                      per coordinator check
//   obs_csv, obs_jsonl               — metrics-registry snapshot history
//   attainment_out                   — per-(class, node, interval) response
//                                      time budget rows; ".csv" suffix
//                                      selects CSV, anything else JSONL
//                                      (goal-miss root-cause cards live in
//                                      the decision log's records)
//   profile_out                      — hot-path wall-clock profile as JSON
//   profile_folded                   — same profile as folded stacks
//                                      (flamegraph.pl / speedscope input)
//
// The trace, decision log, metrics and attainment outputs are also flushed
// from a signal handler on abnormal exit (MEMGOAL_CHECK abort, SIGINT,
// SIGTERM), so a truncated run still yields parseable files of complete
// records. The two profile outputs are written only by a finished run.
//
// Example scenario file: see tools/scenarios/base.conf.

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.h"
#include "core/goal_controller.h"
#include "core/scenario.h"
#include "core/system.h"
#include "net/network.h"
#include "obs/attainment.h"
#include "obs/decision_log.h"
#include "obs/profiler.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "sim/invariant_auditor.h"

namespace {

bool EndsWithCsv(const std::string& path) {
  return path.size() >= 4 &&
         path.compare(path.size() - 4, 4, ".csv") == 0;
}

// Writes `writer(file)` to `path`; returns false (with a message) on I/O
// failure so a bad path fails the run visibly instead of silently.
template <typename Writer>
bool WriteFileOrComplain(const std::string& path, const char* what,
                         Writer&& writer) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "error: cannot write %s to %s\n", what, path.c_str());
    return false;
  }
  writer(file);
  std::fclose(file);
  return true;
}

/// One observability output: its path ("" when off), what it holds (for
/// the error message) and how to write it.
struct Sink {
  std::string path;
  const char* what;
  std::function<void(std::FILE*)> write;
};

/// Writes every sink that has a path; false when any write failed.
bool WriteSinks(const std::vector<Sink>& sinks) {
  bool ok = true;
  for (const Sink& sink : sinks) {
    if (!sink.path.empty()) {
      ok &= WriteFileOrComplain(sink.path, sink.what, sink.write);
    }
  }
  return ok;
}

/// Emergency flush: the sinks of the running simulation, armed while it
/// runs. A MEMGOAL_CHECK abort (or SIGINT/SIGTERM) lands in
/// FlushSinksOnSignal, which writes them once with whatever the run
/// produced so far — each writer emits only complete records, so a
/// truncated run still yields parseable files. The simulator is
/// single-threaded and the crash is synchronous, which is what makes the
/// stdio calls here safe in practice despite signal-safety rules.
const std::vector<Sink>* g_emergency_sinks = nullptr;

extern "C" void FlushSinksOnSignal(int sig) {
  const std::vector<Sink>* sinks = g_emergency_sinks;
  g_emergency_sinks = nullptr;
  if (sinks != nullptr) WriteSinks(*sinks);
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

int Run(memgoal::common::Config& config) {
  // Scenario construction (system config, fault scripts, chaos overlay,
  // class specs) lives in core/scenario.{h,cc} so the differential test
  // harness can replay the same .conf files; this tool keeps only the
  // CLI concerns: file I/O, observability wiring and the summary report.
  std::string scenario_error;
  std::optional<memgoal::core::Scenario> scenario =
      memgoal::core::LoadScenario(config, &scenario_error);
  if (!scenario.has_value()) {
    std::fprintf(stderr, "error: %s\n", scenario_error.c_str());
    return 1;
  }
  if (scenario->chaos_seed != 0) {
    std::fprintf(stderr, "# chaos schedule: seed=%llu events=%zu\n",
                 static_cast<unsigned long long>(scenario->chaos_seed),
                 scenario->chaos_events);
  }
  const memgoal::core::SystemConfig& system_config = scenario->system;
  const int intervals = scenario->intervals;

  memgoal::core::ClusterSystem system(system_config);
  for (const memgoal::workload::ClassSpec& spec : scenario->classes) {
    system.AddClass(spec);
  }

  const std::string trace_path = config.GetString("trace_out", "");
  const std::string decision_path = config.GetString("decision_log", "");
  const std::string attainment_path = config.GetString("attainment_out", "");
  const std::string profile_path = config.GetString("profile_out", "");
  const std::string profile_folded_path =
      config.GetString("profile_folded", "");
  memgoal::obs::Tracer tracer;
  memgoal::obs::DecisionLog decision_log;
  memgoal::obs::AttainmentTracker attainment;
  memgoal::obs::Profiler profiler;
  // Written at the end of the run, or by the signal handler on an abnormal
  // exit.
  const std::vector<Sink> sinks = {
      {trace_path, "trace", [&](std::FILE* f) { tracer.WriteJson(f); }},
      {decision_path, "decision log",
       [&](std::FILE* f) { decision_log.WriteJsonl(f); }},
      {config.GetString("obs_csv", ""), "metrics CSV",
       [&](std::FILE* f) { system.registry().WriteCsv(f); }},
      {config.GetString("obs_jsonl", ""), "metrics JSONL",
       [&](std::FILE* f) { system.registry().WriteJsonl(f); }},
      {attainment_path, "attainment report",
       [&, csv = EndsWithCsv(attainment_path)](std::FILE* f) {
         if (csv) {
           attainment.WriteCsv(f);
         } else {
           attainment.WriteJsonl(f);
         }
       }},
  };
  std::optional<memgoal::obs::Profiler::ScopedInstall> profile_install;
  if (!trace_path.empty()) {
    tracer.Enable(true);
    system.SetTracer(&tracer);
  }
  if (!decision_path.empty()) system.SetDecisionLog(&decision_log);
  if (!attainment_path.empty()) {
    attainment.Enable(true);
    system.SetAttainment(&attainment);
  }
  if (!profile_path.empty() || !profile_folded_path.empty()) {
    profiler.Enable(true);
    profile_install.emplace(&profiler);
  }
  memgoal::sim::InvariantAuditor auditor;
  const bool audit = scenario->audit;
  if (audit) system.EnableAuditor(&auditor);

  // All keys have been queried by now; a --flag nothing consumed is a typo.
  if (!config.RejectUnknownFlags()) {
    std::fprintf(stderr, "error: %s\n", config.error().c_str());
    return 1;
  }

  // Arm the abnormal-exit sink flush until the normal path has written the
  // sinks (they are Run()-locals).
  g_emergency_sinks = &sinks;
  std::signal(SIGABRT, FlushSinksOnSignal);
  std::signal(SIGINT, FlushSinksOnSignal);
  std::signal(SIGTERM, FlushSinksOnSignal);

  const auto wall_start = std::chrono::steady_clock::now();
  system.Start();
  system.RunIntervals(intervals);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  profile_install.reset();
  system.metrics().WriteCsv(stdout);

  bool obs_ok = WriteSinks(sinks);
  g_emergency_sinks = nullptr;
  if (!trace_path.empty()) {
    std::fprintf(stderr, "# trace: %zu events -> %s\n", tracer.size(),
                 trace_path.c_str());
  }
  if (!decision_path.empty()) {
    std::fprintf(stderr, "# decision log: %zu records -> %s\n",
                 decision_log.size(), decision_path.c_str());
  }
  if (!attainment_path.empty()) {
    std::fprintf(stderr,
                 "# attainment: %zu budget rows, %llu miss cards -> %s\n",
                 attainment.rows().size(),
                 static_cast<unsigned long long>(attainment.misses_recorded()),
                 attainment_path.c_str());
  }
  if (!profile_path.empty()) {
    obs_ok &= WriteFileOrComplain(profile_path, "profile", [&](std::FILE* f) {
      std::string json;
      profiler.AppendJson(&json);
      std::fputs(json.c_str(), f);
      std::fputc('\n', f);
    });
    std::fprintf(stderr, "# profile: %llu samples -> %s\n",
                 static_cast<unsigned long long>(profiler.total_count()),
                 profile_path.c_str());
  }
  if (!profile_folded_path.empty()) {
    obs_ok &= WriteFileOrComplain(profile_folded_path, "folded profile",
                                  [&](std::FILE* f) {
                                    profiler.WriteFolded(f);
                                  });
  }
  if (!obs_ok) return 1;

  // Summary to stderr so the CSV stays clean.
  const uint64_t events = system.simulator().events_processed();
  const double sim_ms = system.simulator().Now();
  const double safe_wall = std::max(wall_seconds, 1e-9);
  std::fprintf(stderr,
               "# wall=%.3f s events=%llu events/s=%.3g sim/wall=%.3g\n",
               wall_seconds, static_cast<unsigned long long>(events),
               static_cast<double>(events) / safe_wall,
               sim_ms / (safe_wall * 1e3));
  std::fprintf(stderr, "# %d intervals, %u nodes, policy=%s\n", intervals,
               system_config.num_nodes,
               memgoal::cache::PolicyKindName(system_config.policy));
  for (const auto& spec : system.classes()) {
    const auto& counters = system.counters(spec.id);
    std::fprintf(stderr,
                 "# class %u: accesses=%llu local=%.3f remote=%.3f "
                 "disk=%.3f dedicated=%llu KB\n",
                 spec.id,
                 static_cast<unsigned long long>(counters.total()),
                 counters.HitFraction(memgoal::StorageLevel::kLocalBuffer),
                 counters.HitFraction(memgoal::StorageLevel::kRemoteBuffer),
                 counters.HitFraction(memgoal::StorageLevel::kLocalDisk) +
                     counters.HitFraction(memgoal::StorageLevel::kRemoteDisk),
                 static_cast<unsigned long long>(
                     system.TotalDedicatedBytes(spec.id) / 1024));
  }
  if (!attainment_path.empty()) attainment.WriteSummary(stderr);
  const auto& fault_stats = system.fault_injector().stats();
  if (fault_stats.crashes > 0 || fault_stats.suppressed > 0) {
    std::fprintf(stderr,
                 "# faults: crashes=%llu recoveries=%llu suppressed=%llu "
                 "nodes_up=%u/%u\n",
                 static_cast<unsigned long long>(fault_stats.crashes),
                 static_cast<unsigned long long>(fault_stats.recoveries),
                 static_cast<unsigned long long>(fault_stats.suppressed),
                 system.fault_injector().nodes_up(), system.num_nodes());
  }
  if (fault_stats.degradations > 0) {
    std::fprintf(
        stderr, "# gray faults: episodes=%llu lifted=%llu\n",
        static_cast<unsigned long long>(fault_stats.degradations),
        static_cast<unsigned long long>(fault_stats.degradation_recoveries));
  }
  if (fault_stats.partitions > 0) {
    std::fprintf(
        stderr,
        "# partitions: episodes=%llu heals=%llu msgs_dropped=%llu "
        "reconciled_hints=%llu stale_grants_rejected=%llu\n",
        static_cast<unsigned long long>(fault_stats.partitions),
        static_cast<unsigned long long>(fault_stats.partition_heals),
        static_cast<unsigned long long>(
            system.network().total_messages_partition_dropped()),
        static_cast<unsigned long long>(system.reconcile_hints_sent()),
        static_cast<unsigned long long>(
            system.grants_rejected_stale_epoch()));
  }
  const memgoal::core::IntegrityService::Ledger& ledger =
      system.integrity().ledger();
  if (fault_stats.corruptions > 0 || ledger.pages_scrubbed > 0) {
    std::fprintf(
        stderr,
        "# corruption: injected=%llu detected=%llu served=%llu "
        "latent_served=%llu quarantined=%llu repaired=%llu lost=%llu "
        "scrubbed=%llu\n",
        static_cast<unsigned long long>(fault_stats.corruptions),
        static_cast<unsigned long long>(ledger.detected),
        static_cast<unsigned long long>(ledger.served),
        static_cast<unsigned long long>(ledger.latent_served),
        static_cast<unsigned long long>(ledger.quarantine_decisions),
        static_cast<unsigned long long>(ledger.repairs_replica),
        static_cast<unsigned long long>(ledger.pages_lost),
        static_cast<unsigned long long>(ledger.pages_scrubbed));
  }
  if (audit) {
    auditor.WriteReport(stderr);
    if (!auditor.ok()) return 1;
  }
  // A single node sends nothing over the network.
  const auto& network = system.network();
  const double total_bytes = static_cast<double>(network.total_bytes_sent());
  std::fprintf(stderr, "# network: %.1f MB total, protocol share %.5f%%\n",
               total_bytes / 1e6,
               total_bytes > 0.0
                   ? 100.0 *
                         static_cast<double>(network.bytes_sent(
                             memgoal::net::TrafficClass::kPartitionProtocol)) /
                         total_bytes
                   : 0.0);

  for (const std::string& key : config.UnusedKeys()) {
    std::fprintf(stderr, "# warning: unused key %s\n", key.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <scenario.conf|-> [key=value ...]\n", argv[0]);
    return 1;
  }

  memgoal::common::Config config;
  bool parsed = false;
  if (std::string(argv[1]) == "-") {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    parsed = config.ParseText(buffer.str());
  } else {
    parsed = config.ParseFile(argv[1]);
  }
  if (!parsed || !config.ParseArgs(argc - 1, argv + 1)) {
    std::fprintf(stderr, "error: %s\n", config.error().c_str());
    return 1;
  }
  return Run(config);
}
