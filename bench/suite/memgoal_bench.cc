// memgoal_bench: one benchmark workload per process.
//
// Usage: memgoal_bench --workload=<name> [--seed=N] [--seconds=S]
//                      [--trace=0|1] [--quick]
//
// Workloads: paper_base, grid_64x64, faults_mix, update_oltp, coordinator
// (see README.md). Every metric is printed as "name value unit"; the last
// line of stdout is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace=0) or the per-layer metrics
// (--trace=1). The exit code is non-zero when a correctness check fails.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "cluster.h"
#include "common/config.h"
#include "common/rng.h"
#include "coordinator.h"
#include "host_speed.h"
#include "layers.h"
#include "obs/latency_budget.h"
#include "obs/profiler.h"

namespace memgoal::bench::suite {
namespace {

// Every host timing below is taken at the nominal host speed: the host
// speed is measured around each timed span (see HostSpeed).
//
// Set-ups timed per untraced run; setup_s is their median. The one in the
// middle is measured, so the set-ups spread over the run.
constexpr int kClusterSetups = 3;
constexpr int kCoordinatorSetups = 11;
// Timed blocks of the measured phase; sim_s_per_wall_s is the median of
// their rates.
constexpr int kBlocks = 25;
// Nodes of the coordinator workload, and its checks per second of
// --seconds.
constexpr size_t kCoordinatorNodes = 64;
constexpr double kChecksPerSecond = 15000.0;
// Check cost (check_us_*) of a simulated workload: one window of
// kChecksPerWindow checks after each measured block, split over
// kCheckPlants plants, 10000 checks in all. Each plant runs twice, as two
// identical loops (same seed, same checks), and every check counts at the
// faster of its two timings, which drops the single checks an interrupt
// lands in. Each loop's window starts with untimed checks: the simulation
// before it evicted the loop's data from the caches.
constexpr int kCheckWindows = kBlocks;
constexpr int kChecksPerWindow = 400;
constexpr int kCheckPlants = 4;
constexpr int kWarmChecks = 50;
// Tail percentile of the check cost, 100 checks or more beyond it.
constexpr double kCheckTail = 0.99;
// The Table 1 recast: per-check cost at these node counts, and the checks
// timed at each.
constexpr std::pair<size_t, int> kCheckShapes[] = {
    {3, 4000}, {16, 2000}, {64, 1000}, {256, 200}};
// Budget phases reported as shares of the goal classes' response time.
constexpr obs::BudgetPhase kBudgetPhases[] = {
    obs::BudgetPhase::kDiskWait, obs::BudgetPhase::kNetWait,
    obs::BudgetPhase::kFetchWait, obs::BudgetPhase::kBackoff,
    obs::BudgetPhase::kLockWait, obs::BudgetPhase::kWalForce};

using Costs = std::vector<std::pair<std::string, double>>;

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Collects the run's metrics and prints them.
class Report {
 public:
  void EndToEnd(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit, /*layer=*/false});
  }
  void Layer(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit, /*layer=*/true});
  }
  /// Printed for inspection, in neither JSON metric set.
  void Info(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit, /*layer=*/true, /*info=*/true});
  }
  void Fail(const std::string& message) { errors_.push_back(message); }
  void FailAll(const std::vector<std::string>& messages) {
    errors_.insert(errors_.end(), messages.begin(), messages.end());
  }
  void Digest(uint64_t digest) { digest_ = digest; }
  void Attempted(uint64_t attempted) { attempted_ = attempted; }
  bool ok() const { return errors_.empty(); }

  /// Prints every metric as "name value unit" and the digest, then the JSON
  /// line with the end-to-end (or, when `layers`, per-layer) metrics.
  void Print(bool layers) {
    for (const Metric& m : metrics_) {
      if (!std::isfinite(m.value)) Fail("metric " + m.name + " is not finite");
      std::printf("%s %.17g %s\n", m.name.c_str(), m.value, m.unit);
    }
    std::printf("sim_digest 0x%016" PRIx64 " hash\n", digest_);
    for (const std::string& error : errors_) {
      std::fprintf(stderr, "memgoal_bench: FAIL: %s\n", error.c_str());
    }
    // No operation of a correct run fails: the simulated system's own
    // aborts are measured outcomes (core.failed_op_share).
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": 0, \"metrics\": {",
                ok() ? "true" : "false", std::max<uint64_t>(attempted_, 1));
    const char* separator = "";
    for (const Metric& m : metrics_) {
      if (m.info || m.layer != layers || !std::isfinite(m.value)) continue;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  separator, m.name.c_str(), m.value, m.unit);
      separator = ", ";
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
    bool layer;
    bool info = false;
  };

  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
  uint64_t digest_ = 0;
  uint64_t attempted_ = 0;
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
};

// The host timings (block rates, set-ups, checks) come at the nominal host
// speed (see HostSpeed).
void ReportEndToEnd(const std::vector<double>& block_rates,
                    const std::vector<double>& setups,
                    const std::vector<double>& check_us, double goal_met_frac,
                    double nogoal_rt_ms, double converge_intervals,
                    const HostSpeed& speed, Report* report) {
  report->Info("host_speed_factor", speed.MedianFactor(), "x");
  report->EndToEnd("sim_s_per_wall_s", Median(block_rates), "s/s");
  report->EndToEnd("setup_s", Median(setups), "s");
  report->EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
  report->EndToEnd("check_us_p50", Median(check_us), "us");
  report->EndToEnd("check_us_p99", Quantile(check_us, kCheckTail), "us");
  report->EndToEnd("goal_met_frac", goal_met_frac, "fraction");
  report->EndToEnd("nogoal_rt_ms", nogoal_rt_ms, "ms");
  report->EndToEnd("converge_intervals", converge_intervals, "intervals");
}

// Self time per profiler phase, from the folded stack paths
// ("memgoal;sim.step;la.simplex_solve <self_ns>": the last frame owns the
// sample).
Costs SelfNs(const obs::Profiler& profiler) {
  Costs self;
  for (int p = 0; p < obs::kNumPhases; ++p) {
    self.emplace_back(obs::PhaseName(static_cast<obs::Phase>(p)), 0.0);
  }
  char* text = nullptr;
  size_t size = 0;
  std::FILE* folded = open_memstream(&text, &size);
  if (folded == nullptr) return self;
  profiler.WriteFolded(folded);
  std::fclose(folded);
  const std::string lines(text, size);
  std::free(text);
  size_t begin = 0;
  while (begin < lines.size()) {
    size_t end = lines.find('\n', begin);
    if (end == std::string::npos) end = lines.size();
    const std::string line = lines.substr(begin, end - begin);
    begin = end + 1;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const size_t frame = line.rfind(';', space);
    if (frame == std::string::npos) continue;
    const std::string phase = line.substr(frame + 1, space - frame - 1);
    for (auto& [name, ns] : self) {
      if (name == phase) ns += std::strtod(line.c_str() + space + 1, nullptr);
    }
  }
  return self;
}

double Cost(const Costs& costs, const std::string& name) {
  for (const auto& [n, value] : costs) {
    if (n == name) return value;
  }
  return 0.0;
}

uint64_t PhaseCount(const obs::Profiler& profiler, obs::Phase phase) {
  return profiler.stats(phase).count;
}

// The layers' unit costs at `shape`, the Table 1 per-check cost at every
// shape, and the check's phase split at the workload's node count.
Costs ReportLayers(const LayerShape& shape, uint64_t seed, Report* report) {
  Costs costs = MeasureLayers(shape, seed);
  for (const auto& [name, value] : costs) {
    const bool us = name.find("_us") != std::string::npos;
    report->Layer(name, value, us ? "us" : "ns");
  }
  for (const auto& [n, checks] : kCheckShapes) {
    CheckLoop loop(n, seed);
    loop.Setup();
    loop.Run(checks);
    report->Layer("core.check_us.n" + std::to_string(n),
                  Median(loop.Result().check_us), "us");
  }
  CheckLoop loop(shape.nodes, seed);
  loop.Setup();
  loop.Run(kCheckWindows * kChecksPerWindow);
  const CheckLoopResult result = loop.Result();
  report->Layer("core.check_us.observe", result.observe_us, "us");
  report->Layer("core.check_us.fit", result.fit_us, "us");
  report->Layer("core.check_us.solve", result.solve_us, "us");
  return costs;
}

void ReportTracedRun(const obs::Profiler& profiler, double plain_wall_s,
                     double traced_wall_s, double explained_ns,
                     Report* report) {
  report->Layer("obs.trace_overhead", traced_wall_s / plain_wall_s - 1.0,
                "fraction");
  for (const auto& [phase, ns] : SelfNs(profiler)) {
    report->Layer("profile." + phase + ".self_share",
                  ns / (traced_wall_s * 1e9), "fraction");
  }
  report->Layer("ledger.unexplained_share",
                1.0 - explained_ns / (plain_wall_s * 1e9), "fraction");
}

// -- Simulated cluster workloads ----------------------------------------------

int MeasuredIntervals(const ClusterWorkload& workload,
                      const Options& options) {
  if (options.quick) return workload.quick_intervals;
  return std::max(1, static_cast<int>(std::lround(
                         options.seconds * workload.intervals_per_second)));
}

void RunClusterPlain(const ClusterWorkload& workload, const Options& options,
                     Report* report) {
  const int intervals = MeasuredIntervals(workload, options);
  // Check cost at the workload's node count (see kCheckWindows).
  std::vector<std::unique_ptr<CheckLoop>> replays;
  for (int p = 0; p < kCheckPlants; ++p) {
    for (int replay = 0; replay < 2; ++replay) {
      replays.push_back(std::make_unique<CheckLoop>(
          workload.nodes,
          common::DeriveStreamSeed(options.seed, static_cast<uint64_t>(p))));
      replays.back()->Setup();
    }
  }
  HostSpeed speed;
  std::vector<double> check_us;
  // Measure runs min(kBlocks, intervals) blocks; the windows spread evenly
  // over them, several after one block when there are fewer blocks.
  const int blocks = std::min(kBlocks, intervals);
  int blocks_done = 0;
  int windows_done = 0;
  const auto time_checks = [&] {
    constexpr int kChecks = kChecksPerWindow / kCheckPlants;
    for (++blocks_done; windows_done < blocks_done * kCheckWindows / blocks;
         ++windows_done) {
      const size_t window = check_us.size();
      const double factor = speed.Around([&] {
        for (size_t p = 0; p < replays.size(); p += 2) {
          for (size_t replay = p; replay < p + 2; ++replay) {
            replays[replay]->Warm(kWarmChecks);
            replays[replay]->Run(kChecks);
          }
          const std::vector<double>& first = replays[p]->check_us();
          const std::vector<double>& second = replays[p + 1]->check_us();
          for (size_t i = first.size() - kChecks; i < first.size(); ++i) {
            check_us.push_back(std::min(first[i], second[i]));
          }
        }
      });
      for (size_t i = window; i < check_us.size(); ++i) check_us[i] /= factor;
    }
  };
  std::vector<double> setups;
  EpisodeResult result;
  uint64_t setup_digest = 0;
  for (int s = 0; s < kClusterSetups; ++s) {
    Episode episode(workload, options.seed);
    double setup_s = 0.0;
    const double factor = speed.Around([&] { setup_s = episode.Setup(); });
    setups.push_back(setup_s / factor);
    const uint64_t digest = episode.Digest();
    if (s == 0) setup_digest = digest;
    if (digest != setup_digest) report->Fail("set-up is not deterministic");
    if (s == kClusterSetups / 2) {
      result = episode.Measure(intervals, blocks, time_checks, &speed);
    }
  }
  for (const std::unique_ptr<CheckLoop>& replay : replays) {
    report->FailAll(replay->Result().errors);
  }
  report->FailAll(result.errors);
  report->Digest(result.digest);
  report->Attempted(result.attempted);
  std::vector<double> rates = result.block_rates;
  for (size_t b = 0; b < rates.size(); ++b) rates[b] *= result.block_factors[b];
  ReportEndToEnd(rates, setups, check_us, result.goal_met_frac,
                 result.nogoal_rt_ms, result.converge_intervals, speed,
                 report);
}

void RunClusterTraced(const ClusterWorkload& workload, const Options& options,
                      Report* report) {
  const int intervals = MeasuredIntervals(workload, options);
  EpisodeResult plain;
  LayerShape shape;
  shape.nodes = workload.nodes;
  {
    Episode episode(workload, options.seed);
    episode.Setup();
    plain = episode.Measure(intervals, kBlocks);
    const core::SystemConfig& config = episode.system().config();
    shape.db_pages = config.db_pages;
    shape.frames_per_node =
        static_cast<uint32_t>(config.cache_bytes_per_node / config.page_bytes);
    shape.bandwidth_mbit_per_s = config.network.bandwidth_mbit_per_s;
    shape.goal_class = episode.system().spec(1);
  }
  shape.pending_events = plain.mean_pending_events;
  shape.copies = plain.mean_copies;
  report->FailAll(plain.errors);
  report->Digest(plain.digest);
  report->Attempted(plain.attempted);

  Tracing tracing;
  EpisodeResult traced;
  {
    Episode episode(workload, options.seed, &tracing);
    episode.Setup();
    traced = episode.Measure(intervals, kBlocks);
  }
  report->FailAll(traced.errors);
  if (traced.digest != plain.digest) {
    report->Fail("the traced run diverged from the plain run (sim_digest)");
  }

  const Costs costs = ReportLayers(shape, options.seed, report);
  report->Layer("sim.ns_per_event",
                plain.wall_s * 1e9 / static_cast<double>(plain.events), "ns");
  for (const auto& [name, value] : plain.counts) {
    const char* unit = name.ends_with("_share")    ? "fraction"
                       : name.ends_with("_ms")     ? "ms"
                       : name.starts_with("obs.")  ? "KB"
                                                   : "count";
    report->Layer(name, value, unit);
  }

  // Attainment budget of the goal classes over the measured intervals.
  double phase_ms[obs::kNumBudgetPhases] = {};
  double rt_ms = 0.0;
  for (const obs::AttainmentTracker::BudgetRow& row :
       tracing.attainment.rows()) {
    if (row.interval < traced.first_interval ||
        std::find(traced.goal_classes.begin(), traced.goal_classes.end(),
                  row.klass) == traced.goal_classes.end()) {
      continue;
    }
    rt_ms += row.rt_sum_ms;
    for (int p = 0; p < obs::kNumBudgetPhases; ++p) {
      phase_ms[p] += row.phase_ms[p];
    }
  }
  double unattributed = rt_ms;
  for (double ms : phase_ms) unattributed -= ms;
  if (!(rt_ms > 0.0) || std::fabs(unattributed) > 1e-6 * rt_ms) {
    report->Fail("the goal classes' budget does not sum to their latency");
  }
  for (obs::BudgetPhase phase : kBudgetPhases) {
    report->Layer(std::string("budget.") + obs::BudgetPhaseName(phase) +
                      "_share",
                  phase_ms[static_cast<int>(phase)] / rt_ms, "fraction");
  }

  // The ledger: layer unit costs times the run's operation counts, against
  // the plain run's wall time. Each page access samples a page and records
  // it in two heat trackers (accumulated and class heat).
  const obs::Profiler& profiler = tracing.profiler;
  const auto times = [](uint64_t count, double ns) {
    return static_cast<double>(count) * ns;
  };
  const double explained_ns =
      times(plain.events, Cost(costs, "sim.resume_ns")) +
      times(plain.frames, Cost(costs, "sim.frame_pool_ns")) +
      times(plain.accesses, Cost(costs, "workload.sample_ns") +
                                2.0 * Cost(costs, "cache.heat_record_ns")) +
      times(plain.remote_fetches, Cost(costs, "net.ranked_copies_ns")) +
      times(plain.messages, Cost(costs, "net.transfer_ns")) +
      times(PhaseCount(profiler, obs::Phase::kHeapMaintain),
            Cost(costs, "cache.heap_insert_pop_ns")) +
      times(PhaseCount(profiler, obs::Phase::kRowReplace),
            Cost(costs, "la.row_replace_ns")) +
      times(PhaseCount(profiler, obs::Phase::kSimplexSolve),
            Cost(costs, "la.simplex_us.warm") * 1e3) +
      times(plain.lock_grants, Cost(costs, "txn.lock_pair_ns"));
  ReportTracedRun(profiler, plain.wall_s, traced.wall_s, explained_ns,
                  report);
}

// -- Coordinator workload -----------------------------------------------------

int CoordinatorChecks(const Options& options) {
  if (options.quick) return 2000;
  return std::max(kBlocks, static_cast<int>(std::lround(
                               options.seconds * kChecksPerSecond)));
}

// Runs `checks` checks in kBlocks timed blocks, with the host speed measured
// around each; returns the per-block simulated seconds per host second and
// appends every check's time to `check_us`, both at the nominal host speed.
std::vector<double> RunBlocks(CheckLoop* loop, int checks, HostSpeed* speed,
                              std::vector<double>* check_us) {
  std::vector<double> rates;
  int done = 0;
  for (int b = 0; b < kBlocks; ++b) {
    const int length = (checks - done) / (kBlocks - b);
    double wall_s = 0.0;
    const double factor = speed->Around([&] { wall_s = loop->Run(length); });
    rates.push_back(length * CheckLoop::kObservationIntervalS / wall_s *
                    factor);
    const std::vector<double>& all = loop->check_us();
    for (size_t i = all.size() - length; i < all.size(); ++i) {
      check_us->push_back(all[i] / factor);
    }
    done += length;
  }
  return rates;
}

void RunCoordinatorPlain(const Options& options, Report* report) {
  const int checks = CoordinatorChecks(options);
  HostSpeed speed;
  std::vector<double> setups;
  std::vector<double> rates;
  std::vector<double> check_us;
  CheckLoopResult result;
  uint64_t setup_digest = 0;
  for (int s = 0; s < kCoordinatorSetups; ++s) {
    CheckLoop loop(kCoordinatorNodes, options.seed);
    double setup_s = 0.0;
    const double factor = speed.Around([&] { setup_s = loop.Setup(); });
    setups.push_back(setup_s / factor);
    if (s == 0) setup_digest = loop.digest();
    if (loop.digest() != setup_digest) {
      report->Fail("set-up is not deterministic");
    }
    if (s == kCoordinatorSetups / 2) {
      rates = RunBlocks(&loop, checks, &speed, &check_us);
      result = loop.Result();
    }
  }
  report->FailAll(result.errors);
  report->Digest(result.digest);
  report->Attempted(static_cast<uint64_t>(result.checks));
  ReportEndToEnd(rates, setups, check_us, result.goal_met_frac,
                 result.nogoal_rt_ms, result.converge_intervals, speed,
                 report);
}

void RunCoordinatorTraced(const Options& options, Report* report) {
  const int checks = CoordinatorChecks(options);
  CheckLoop plain_loop(kCoordinatorNodes, options.seed);
  plain_loop.Setup();
  const double plain_wall_s = plain_loop.Run(checks);
  const CheckLoopResult plain = plain_loop.Result();
  report->FailAll(plain.errors);
  report->Digest(plain.digest);
  report->Attempted(static_cast<uint64_t>(plain.checks));

  obs::Profiler profiler;
  double traced_wall_s = 0.0;
  {
    CheckLoop loop(kCoordinatorNodes, options.seed);
    loop.Setup();
    profiler.Enable(true);
    obs::Profiler::ScopedInstall install(&profiler);
    traced_wall_s = loop.Run(checks);
    if (loop.digest() != plain.digest) {
      report->Fail("the traced run diverged from the plain run (sim_digest)");
    }
  }

  // No simulated cluster: the sim, cache, net and txn layers are timed at
  // the paper's base shape, and their counts are zero.
  LayerShape shape;
  shape.nodes = kCoordinatorNodes;
  shape.goal_class.pages = {0, 1000};
  const Costs costs = ReportLayers(shape, options.seed, report);
  report->Layer("sim.ns_per_event", 0.0, "ns");
  for (const char* name :
       {"sim.events", "cache.local_hit_share", "cache.remote_hit_share",
        "cache.disk_share", "net.messages", "net.bytes",
        "net.partition_dropped", "net.protocol_share",
        "storage.disk_busy_share", "storage.corrupt_detected",
        "storage.repairs_replica", "storage.pages_lost",
        "storage.pages_scrubbed", "core.fetch_fallbacks", "core.crashes",
        "core.failovers", "core.failed_op_share", "txn.commits", "txn.deaths",
        "txn.invalidations"}) {
    report->Layer(name, 0.0,
                  std::string(name).ends_with("_share") ? "fraction"
                                                        : "count");
  }
  report->Layer("txn.commit_ms", 0.0, "ms");
  report->Layer("obs.registry_kb_per_interval", 0.0, "KB");
  for (obs::BudgetPhase phase : kBudgetPhases) {
    report->Layer(std::string("budget.") + obs::BudgetPhaseName(phase) +
                      "_share",
                  0.0, "fraction");
  }
  report->Layer("core.ctrl_checks", plain.checks, "count");
  report->Layer("core.lp_warm_share",
                plain.lp_solves == 0
                    ? 0.0
                    : static_cast<double>(plain.lp_warm) /
                          static_cast<double>(plain.lp_solves),
                "fraction");
  report->Layer("core.store_resets", static_cast<double>(plain.store_resets),
                "count");
  const double explained_ns =
      static_cast<double>(PhaseCount(profiler, obs::Phase::kRowReplace)) *
          Cost(costs, "la.row_replace_ns") +
      static_cast<double>(PhaseCount(profiler, obs::Phase::kSimplexSolve)) *
          Cost(costs, "la.simplex_us.warm") * 1e3;
  ReportTracedRun(profiler, plain_wall_s, traced_wall_s, explained_ns,
                  report);
}

int Main(int argc, char** argv) {
  common::Config args;
  if (!args.ParseArgs(argc, argv)) {
    std::fprintf(stderr, "%s\n", args.error().c_str());
    return 2;
  }
  Options options;
  options.workload = args.GetString("workload", "");
  options.seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  options.seconds = args.GetDouble("seconds", 10.0);
  options.trace = args.GetBool("trace", false);
  options.quick = args.GetBool("quick", false);
  if (!args.RejectUnknownFlags()) {
    std::fprintf(stderr, "%s\n", args.error().c_str());
    return 2;
  }
  const ClusterWorkload* cluster = FindClusterWorkload(options.workload);
  if (cluster == nullptr && options.workload != "coordinator") {
    std::fprintf(stderr, "memgoal_bench: unknown --workload=%s (one of",
                 options.workload.c_str());
    for (const std::string& name : ClusterWorkloadNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, " coordinator)\n");
    return 2;
  }
  if (!(options.seconds > 0.0 && options.seconds <= 600.0)) {
    std::fprintf(stderr, "memgoal_bench: --seconds must be in (0, 600]\n");
    return 2;
  }

  Report report;
  if (cluster == nullptr) {
    if (options.trace) {
      RunCoordinatorTraced(options, &report);
    } else {
      RunCoordinatorPlain(options, &report);
    }
  } else if (options.trace) {
    RunClusterTraced(*cluster, options, &report);
  } else {
    RunClusterPlain(*cluster, options, &report);
  }
  report.Print(options.trace);
  return report.ok() ? 0 : 1;
}

}  // namespace
}  // namespace memgoal::bench::suite

int main(int argc, char** argv) {
  return memgoal::bench::suite::Main(argc, argv);
}
