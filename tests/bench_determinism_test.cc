// Reproducibility harness for the parallel trial runner: the same `Setup`
// must yield bit-identical interval records no matter when it runs, and a
// pooled experiment must yield bit-identical statistics no matter how many
// runner threads execute its trials. These tests pin the contract stated in
// bench/trial_runner.h; a failure here means some shared mutable state or
// order-dependent seeding crept back into the trial path.
//
// The ScenarioGolden table extends the same idea across commits: every
// scenario file under tools/scenarios/ and a set of chaos-fuzz schedules
// reduce to pinned digests of their metrics CSV, decision log and
// attainment exports plus their exact event count, so a refactor of the
// simulation core must keep clock advancement, RNG draw order and
// controller decisions bit-identical.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/experiment.h"
#include "bench/trial_runner.h"
#include "common/config.h"
#include "common/rng.h"
#include "core/metrics.h"
#include "core/scenario.h"
#include "core/system.h"
#include "obs/attainment.h"
#include "obs/decision_log.h"
#include "obs/trace.h"
#include "sim/chaos_schedule.h"
#include "sim/invariant_auditor.h"

namespace memgoal::bench {
namespace {

using ExperimentSetup = ::memgoal::bench::Setup;

ExperimentSetup SmallSetup(uint64_t seed) {
  ExperimentSetup setup;
  setup.seed = seed;
  setup.pages_per_class = 100;
  setup.cache_bytes_per_node = 64 * 4096;
  setup.interarrival_ms = 50.0;
  setup.observation_interval_ms = 2000.0;
  return setup;
}

// The bytes `write(stream)` prints.
template <typename Write>
std::string Capture(Write&& write) {
  char* buf = nullptr;
  size_t size = 0;
  std::FILE* stream = open_memstream(&buf, &size);
  write(stream);
  std::fclose(stream);
  std::string text(buf, size);
  std::free(buf);
  return text;
}

// Renders a run's full interval log as CSV, the same bytes
// `tools/memgoal_sim` would emit. Comparing the serialized form catches any
// divergence in any field of any record.
std::string CsvOf(const core::MetricsLog& log) {
  return Capture([&log](std::FILE* stream) { log.WriteCsv(stream); });
}

// One complete simulation trial -> its interval CSV.
std::string RunTrialCsv(uint64_t master_seed, int trial, int intervals) {
  ExperimentSetup setup =
      SmallSetup(common::DeriveStreamSeed(master_seed, static_cast<uint64_t>(trial)));
  std::unique_ptr<core::ClusterSystem> system = BuildSystem(setup);
  system->SetGoal(1, 30.0);
  system->Start();
  system->RunIntervals(intervals);
  return CsvOf(system->metrics());
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

TEST(TrialRunnerTest, ResultsLandInTrialOrder) {
  TrialRunner runner(4);
  const std::vector<int> results =
      runner.Run(16, [](int trial) { return trial * trial; });
  ASSERT_EQ(results.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(results[static_cast<size_t>(i)], i * i);
}

TEST(TrialRunnerTest, HandlesZeroTrialsAndMoreThreadsThanTrials) {
  TrialRunner runner(8);
  EXPECT_TRUE(runner.Run(0, [](int trial) { return trial; }).empty());
  const std::vector<int> two = runner.Run(2, [](int trial) { return trial + 1; });
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0], 1);
  EXPECT_EQ(two[1], 2);
}

TEST(TrialRunnerTest, PropagatesTrialExceptions) {
  TrialRunner runner(4);
  EXPECT_THROW(runner.Run(8,
                          [](int trial) {
                            if (trial == 5) throw std::runtime_error("trial 5");
                            return trial;
                          }),
               std::runtime_error);
}

TEST(DeterminismTest, SameSetupTwiceGivesIdenticalIntervalCsv) {
  // Two cold runs of the same Setup in the same process: every interval
  // record must serialize to the same bytes. Guards against static caches
  // or other cross-run state in the simulator.
  const std::string first = RunTrialCsv(17, 0, 10);
  const std::string second = RunTrialCsv(17, 0, 10);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(DeterminismTest, TrialCsvsIdenticalAcrossThreadCounts) {
  // Four independent trials run serially and on a 4-thread pool must
  // produce identical per-trial CSVs: trial randomness derives from
  // (master_seed, trial_index) only, never from scheduling order.
  constexpr int kTrials = 4;
  const auto run_all = [](int threads) {
    TrialRunner runner(threads);
    return runner.Run(kTrials, [](int trial) {
      return RunTrialCsv(23, trial, 8);
    });
  };
  const std::vector<std::string> serial = run_all(1);
  const std::vector<std::string> parallel = run_all(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (int i = 0; i < kTrials; ++i) {
    EXPECT_EQ(serial[static_cast<size_t>(i)], parallel[static_cast<size_t>(i)])
        << "trial " << i << " diverged between 1 and 4 threads";
  }
  // And the trials are genuinely distinct experiments, not copies.
  EXPECT_NE(serial[0], serial[1]);
}

TEST(DeterminismTest, PooledConvergenceStatsBitIdenticalAcrossThreadCounts) {
  // The full Table-2 protocol: calibration + pooled convergence runs. Every
  // field of the pooled result — including the accumulated doubles — must
  // be bit-for-bit identical between a serial and a 4-thread execution.
  const ExperimentSetup base = SmallSetup(31);
  ConvergencePlan plan;
  plan.max_runs = 3;
  plan.intervals_per_run = 20;
  plan.calibration_intervals = 8;

  TrialRunner serial_runner(1);
  TrialRunner parallel_runner(4);
  const ConvergenceResult serial = MeasureConvergence(base, plan, &serial_runner);
  const ConvergenceResult parallel =
      MeasureConvergence(base, plan, &parallel_runner);

  EXPECT_EQ(serial.goals_completed, parallel.goals_completed);
  EXPECT_EQ(serial.censored, parallel.censored);
  EXPECT_EQ(serial.runs_used, parallel.runs_used);
  EXPECT_EQ(Bits(serial.goal_lo), Bits(parallel.goal_lo));
  EXPECT_EQ(Bits(serial.goal_hi), Bits(parallel.goal_hi));
  EXPECT_EQ(serial.iterations.count(), parallel.iterations.count());
  EXPECT_EQ(Bits(serial.iterations.mean()), Bits(parallel.iterations.mean()));
  EXPECT_EQ(Bits(serial.iterations.variance()),
            Bits(parallel.iterations.variance()));
  EXPECT_EQ(Bits(serial.iterations.min()), Bits(parallel.iterations.min()));
  EXPECT_EQ(Bits(serial.iterations.max()), Bits(parallel.iterations.max()));

  // The protocol actually produced samples (the assertions above are not
  // vacuously comparing empty accumulators).
  EXPECT_GT(serial.iterations.count(), 0);
  EXPECT_GT(serial.goals_completed, 0);
}

TEST(DeterminismTest, MeasureConvergenceDefaultsToInlineRunner) {
  // Without a runner the protocol runs inline and must match a 1-thread
  // runner exactly.
  const ExperimentSetup base = SmallSetup(37);
  ConvergencePlan plan;
  plan.max_runs = 2;
  plan.intervals_per_run = 15;
  plan.calibration_intervals = 6;
  TrialRunner one(1);
  const ConvergenceResult inline_result = MeasureConvergence(base, plan);
  const ConvergenceResult runner_result = MeasureConvergence(base, plan, &one);
  EXPECT_EQ(inline_result.iterations.count(), runner_result.iterations.count());
  EXPECT_EQ(Bits(inline_result.iterations.mean()),
            Bits(runner_result.iterations.mean()));
  EXPECT_EQ(inline_result.runs_used, runner_result.runs_used);
  EXPECT_EQ(Bits(inline_result.goal_lo), Bits(runner_result.goal_lo));
  EXPECT_EQ(Bits(inline_result.goal_hi), Bits(runner_result.goal_hi));
}

// ---------------------------------------------------------------------------
// Pinned whole-run digests.

// One full scenario run reduced to its observable outputs: the interval
// metrics CSV, the controller decision log (every coordinator check,
// serialized), the attainment tracker's exports (empty when the run is not
// tracked) and the event count.
struct ScenarioRun {
  std::string metrics_csv;
  std::string decision_jsonl;
  std::string attainment_jsonl;
  std::string attainment_csv;
  uint64_t events = 0;
};

// Parses scenario key=value text; later lines override earlier ones, so
// callers append test-sized overrides.
std::optional<core::Scenario> ParseScenario(const std::string& text) {
  common::Config config;
  if (!config.ParseText(text)) {
    ADD_FAILURE() << "bad scenario text: " << config.error();
    return std::nullopt;
  }
  std::string error;
  std::optional<core::Scenario> scenario = core::LoadScenario(config, &error);
  if (!scenario.has_value()) ADD_FAILURE() << "LoadScenario: " << error;
  return scenario;
}

ScenarioRun RunScenario(const core::Scenario& scenario,
                        obs::AttainmentTracker* attainment = nullptr,
                        obs::Tracer* tracer = nullptr,
                        bool log_decisions = true) {
  core::ClusterSystem system(scenario.system);
  for (const workload::ClassSpec& spec : scenario.classes) {
    system.AddClass(spec);
  }
  obs::DecisionLog decision_log;
  if (log_decisions) system.SetDecisionLog(&decision_log);
  if (attainment != nullptr) system.SetAttainment(attainment);
  if (tracer != nullptr) system.SetTracer(tracer);
  sim::InvariantAuditor auditor;
  if (scenario.audit) system.EnableAuditor(&auditor);
  system.Start();
  system.RunIntervals(scenario.intervals);
  EXPECT_TRUE(!scenario.audit || auditor.ok());

  ScenarioRun run;
  run.metrics_csv = CsvOf(system.metrics());
  run.decision_jsonl = Capture(
      [&decision_log](std::FILE* stream) { decision_log.WriteJsonl(stream); });
  if (attainment != nullptr) {
    run.attainment_jsonl = Capture(
        [attainment](std::FILE* stream) { attainment->WriteJsonl(stream); });
    run.attainment_csv = Capture(
        [attainment](std::FILE* stream) { attainment->WriteCsv(stream); });
  }
  run.events = system.simulator().events_processed();
  return run;
}

std::optional<ScenarioRun> RunScenarioText(
    const std::string& text, obs::AttainmentTracker* attainment = nullptr,
    obs::Tracer* tracer = nullptr, bool log_decisions = true) {
  std::optional<core::Scenario> scenario = ParseScenario(text);
  if (!scenario.has_value()) return std::nullopt;
  return RunScenario(*scenario, attainment, tracer, log_decisions);
}

// FNV-1a over `text`'s bytes. Each artifact of a run is pinned by its own
// digest, so a change that means to move one (the decision log, say) can
// re-pin that one and show the others did not move.
uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 0xCBF29CE484222325ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ull;
  }
  return hash;
}

// The digest of no bytes: an untracked run's attainment exports.
constexpr uint64_t kNoBytes = 0xCBF29CE484222325ull;

std::string ScenarioFile(const std::string& name) {
  const std::string path = std::string(MEMGOAL_SCENARIO_DIR "/") + name;
  std::ifstream file(path);
  EXPECT_TRUE(file.is_open()) << path;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

// The small multiclass cluster the chaos-fuzz repro files run on.
constexpr char kSmallCluster[] =
    "nodes=4\ndb_pages=800\ncache_bytes=262144\n"
    "interval_ms=2000\nintervals=8\nseed=5\n"
    "classes=2\nclass1_goal_ms=60\n";
constexpr char kBusyClasses[] =
    "class0_interarrival_ms=40\nclass1_interarrival_ms=40\n";

// Stochastic crashes on the small busy cluster.
std::string CrashingCluster() {
  return std::string(kSmallCluster) + kBusyClasses +
         "fault_mttf_ms=30000\nfault_mttr_ms=5000\n";
}

// The chaos_fuzz repro-file path, end to end: a generated schedule is
// serialized with ToText (the repro file format), parsed back with
// FromText and applied to the fault params.
std::optional<ScenarioRun> RunReproRoundTrip() {
  sim::chaos::GenerateLimits limits;
  limits.num_nodes = 4;
  limits.horizon_ms = 8 * 2000.0;
  const sim::chaos::Schedule generated = sim::chaos::Generate(777u, limits);
  sim::chaos::Schedule replayed;
  EXPECT_TRUE(sim::chaos::FromText(sim::chaos::ToText(generated), &replayed));
  std::optional<core::Scenario> scenario = ParseScenario(kSmallCluster);
  if (!scenario.has_value()) return std::nullopt;
  sim::chaos::ApplyToFaultParams(replayed, &scenario->system.faults);
  return RunScenario(*scenario);
}

// Stochastic crashes on the small busy cluster with the attainment
// tracker enabled: its budget rows, and the miss cards in the decision
// records.
std::optional<ScenarioRun> RunTrackedCrashingCluster() {
  obs::AttainmentTracker tracker;
  tracker.Enable(true);
  return RunScenarioText(CrashingCluster(), &tracker);
}

TEST(ScenarioGolden, RunDigestsMatchPinnedTable) {
  // Every checked-in scenario file at a horizon that covers its scripted
  // episodes (gray degrade/restore, partition cut/heal, crash/recover,
  // the scripted corruption strike), chaos-fuzz schedules, the repro-file
  // round trip, burst loss under the auditor (the densest same-timestamp
  // collisions), active corruption with the scrubber, and a tracked run's
  // attainment exports. Each row pins four artifacts apart: the metrics
  // CSV, the decision-log JSONL and the attainment JSONL+CSV by FNV-1a
  // digest, and the event count exactly. Together they cover clock
  // advancement, RNG draw order and every controller decision, so any
  // change in simulated behaviour moves at least one, and a failure names
  // the one that moved. The pins were taken while the calendar queue and a
  // binary heap still agreed byte for byte on every row. Like
  // EventOrderGolden they are specific to the tier-1 toolchain (x86-64,
  // GCC 12.2, glibc 2.36): the doubles they hash pass through libm.
  // Re-pin only the artifact an intended change moves, from the observed
  // value printed on failure.
  struct Golden {
    std::string name;
    uint64_t metrics;
    uint64_t decisions;
    uint64_t attainment;
    uint64_t events;
    std::function<std::optional<ScenarioRun>()> run;
  };
  const auto file = [](const std::string& name, int intervals) {
    return [name, intervals] {
      return RunScenarioText(ScenarioFile(name) + "\nintervals=" +
                             std::to_string(intervals) + "\n");
    };
  };
  const auto text = [](const std::string& body) {
    return [body] { return RunScenarioText(body); };
  };
  // A scenario file with the attainment tracker enabled: its budget rows,
  // and the miss cards in the decision records.
  const auto tracked_file = [](const std::string& name,
                               const std::string& overrides) {
    return [name, overrides] {
      obs::AttainmentTracker tracker;
      tracker.Enable(true);
      return RunScenarioText(ScenarioFile(name) + "\n" + overrides, &tracker);
    };
  };
  const auto chaos = [&text](uint64_t seed) {
    return text(std::string(kSmallCluster) + kBusyClasses +
                "chaos_seed=" + std::to_string(seed) + "\n");
  };
  const std::vector<Golden> goldens = {
      {"base.conf", 0x154120dc3f5a3c48ull, 0x8273710a041bfb3eull,
       kNoBytes, 167669,
       file("base.conf", 6)},
      {"corrupt.conf", 0x8fcc04da2782352eull, 0x63d2a0741cb30928ull,
       kNoBytes, 368914,
       file("corrupt.conf", 14)},
      {"faults.conf", 0x975082a72d0f9d96ull, 0xe492e9c59f8ccaa6ull,
       kNoBytes, 940913,
       file("faults.conf", 46)},
      {"gray.conf", 0x2261f1cac6ded183ull, 0xca856ad575894d0dull,
       kNoBytes, 763631,
       file("gray.conf", 34)},
      {"oltp_dss.conf", 0x80aa29e818bfd46full, 0x93a6866f0f2cc5aeull,
       kNoBytes, 99551,
       file("oltp_dss.conf", 6)},
      {"partition.conf", 0x2310f952cac1c2daull, 0xe9009ad4bda7a251ull,
       kNoBytes, 858206,
       file("partition.conf", 34)},
      {"chaos_seed=11", 0xbeb58ff65c76fbdbull, 0x2000beb85b4458f7ull,
       kNoBytes, 68230,
       chaos(11)},
      {"chaos_seed=4242", 0x7fa7322535339397ull, 0x92cf6cda046eb51cull,
       kNoBytes, 78289,
       chaos(4242)},
      {"chaos_seed=987654321", 0xc7c6a462dd852343ull, 0x50769f5cd6f8ddfcull,
       kNoBytes, 77163,
       chaos(987654321)},
      {"repro-round-trip", 0xac276cccd50ebfafull, 0xc7aa9588845b9e7bull,
       kNoBytes, 41675,
       RunReproRoundTrip},
      {"burst-loss+audit", 0x9c0bf2841ed14ecfull, 0xa45b0752eb4e634bull,
       kNoBytes, 24489,
       text("nodes=3\ndb_pages=600\ncache_bytes=262144\n"
            "interval_ms=2000\nintervals=6\nseed=3\n"
            "net_loss_model=burst\nnet_burst_g2b=0.01\nnet_burst_b2g=0.3\n"
            "net_loss=0.02\naudit=1\n"
            "classes=2\nclass1_goal_ms=80\n")},
      {"corruption+scrub", 0x4f2813a6650f4d29ull, 0xf9373305e76ab8c8ull,
       kNoBytes, 95179,
       text(std::string(kSmallCluster) + kBusyClasses +
            "corrupt=all\ncorrupt_latent=0.25\nfault_mttc_ms=4000\n"
            "corrupt_node=1\ncorrupt_at_ms=1500\ncorrupt_count=3\n"
            "corrupt_salt=9\nscrub=idle\nscrub_interval_ms=500\naudit=1\n")},
      {"crashing+attainment", 0x9ce540ec09b15c78ull, 0x02db7d9e55335c60ull,
       0xf941d915cbc4c98eull, 88822,
       RunTrackedCrashingCluster},
      {"variance+attainment", 0x1028c23c66117a92ull, 0x3f29c0ad371aea7cull,
       0xd6ac6ef738dd51b4ull, 515643,
       tracked_file("base.conf", "objective=variance\nintervals=20\n")},
      {"partition+attainment", 0x2310f952cac1c2daull, 0x8594485f3d532588ull,
       0x71bc354f778c9a36ull, 858206,
       tracked_file("partition.conf", "intervals=34\n")},
  };
  for (const Golden& golden : goldens) {
    const std::optional<ScenarioRun> run = golden.run();
    ASSERT_TRUE(run.has_value()) << golden.name;
    EXPECT_GT(run->events, 0u) << golden.name;
    EXPECT_FALSE(run->decision_jsonl.empty()) << golden.name;
    const auto expect_pin = [&golden](const char* artifact, uint64_t observed,
                                      uint64_t pinned) {
      EXPECT_EQ(observed, pinned)
          << golden.name << ": the " << artifact << " moved, observed 0x"
          << std::hex << observed;
    };
    expect_pin("metrics CSV", Fnv1a(run->metrics_csv), golden.metrics);
    expect_pin("decision log", Fnv1a(run->decision_jsonl), golden.decisions);
    expect_pin("attainment exports",
               Fnv1a(run->attainment_jsonl + run->attainment_csv),
               golden.attainment);
    EXPECT_EQ(run->events, golden.events)
        << golden.name << ": the event count moved";
  }
}

// ---------------------------------------------------------------------------
// Observers and dormant machinery leave a run bit-identical.

TEST(ScenarioBitExactness, ZeroRateCorruptionMachineryIsBitExact) {
  // The integrity machinery at rate zero must be invisible: enabling the
  // corruption keys without any corruption source (no MTTC process, no
  // scripted strike, scrub off) makes no RNG draw and schedules no event,
  // so the metrics CSV and decision log are byte-identical to a run that
  // never heard of corruption.
  const std::string base = CrashingCluster();
  const std::optional<ScenarioRun> off = RunScenarioText(base);
  const std::optional<ScenarioRun> on =
      RunScenarioText(base + "corrupt=all\ncorrupt_latent=0.25\n");
  ASSERT_TRUE(off.has_value() && on.has_value());
  EXPECT_GT(off->events, 0u);
  EXPECT_EQ(off->events, on->events);
  EXPECT_EQ(off->metrics_csv, on->metrics_csv);
  EXPECT_EQ(off->decision_jsonl, on->decision_jsonl);
}

TEST(ScenarioBitExactness, EnabledAttainmentTrackingIsBitExact) {
  // The attainment tracker is a pure observer: with tracking ENABLED the
  // simulation itself (event count, metrics CSV) must be byte-identical to
  // a bare run. (Bare vs tracked decision logs are not compared: the
  // tracked run legitimately adds miss-card fields to its records.) The
  // tracker's own exports and the annotated decision log are pinned by the
  // crashing+attainment golden.
  const std::string text = CrashingCluster();
  const std::optional<ScenarioRun> bare = RunScenarioText(text);
  obs::AttainmentTracker tracker;
  tracker.Enable(true);
  const std::optional<ScenarioRun> tracked = RunScenarioText(text, &tracker);
  ASSERT_TRUE(bare.has_value() && tracked.has_value());
  EXPECT_GT(bare->events, 0u);
  EXPECT_EQ(bare->events, tracked->events);
  EXPECT_EQ(bare->metrics_csv, tracked->metrics_csv);
  EXPECT_GT(tracker.requests_recorded(), 0u);
  EXPECT_LE(tracker.max_sum_error(), 1e-9);
  EXPECT_FALSE(tracked->attainment_jsonl.empty());
  EXPECT_FALSE(tracked->attainment_csv.empty());
}

TEST(ScenarioBitExactness, TracingBesideAttainmentTrackingIsBitExact) {
  // The tracer and the attainment tracker read one request probe. With
  // both enabled, the simulation must match a bare run, and the tracker's
  // exports and the decision log it annotates must match a tracker-only
  // run: the second sink neither perturbs the run nor double counts.
  const std::string text = CrashingCluster();
  const std::optional<ScenarioRun> bare = RunScenarioText(text);
  obs::AttainmentTracker tracker_only;
  tracker_only.Enable(true);
  const std::optional<ScenarioRun> tracked =
      RunScenarioText(text, &tracker_only);
  obs::AttainmentTracker tracker;
  tracker.Enable(true);
  obs::Tracer tracer;
  tracer.Enable(true);
  const std::optional<ScenarioRun> both =
      RunScenarioText(text, &tracker, &tracer);
  ASSERT_TRUE(bare.has_value() && tracked.has_value() && both.has_value());
  EXPECT_EQ(bare->events, both->events);
  EXPECT_EQ(bare->metrics_csv, both->metrics_csv);
  EXPECT_EQ(tracked->attainment_jsonl, both->attainment_jsonl);
  EXPECT_EQ(tracked->attainment_csv, both->attainment_csv);
  EXPECT_EQ(tracked->decision_jsonl, both->decision_jsonl);
  EXPECT_GT(tracer.size(), 0u);
}

TEST(ScenarioBitExactness, AttainmentExportsDoNotNeedTheDecisionLog) {
  // The tracker reads every coordinator check whether or not a decision
  // log is attached: a tracked run without a log must count as many miss
  // cards and export the same budget rows, byte for byte, as the same run
  // with one.
  const std::string text = CrashingCluster();
  obs::AttainmentTracker logged_tracker;
  logged_tracker.Enable(true);
  const std::optional<ScenarioRun> logged =
      RunScenarioText(text, &logged_tracker);
  obs::AttainmentTracker unlogged_tracker;
  unlogged_tracker.Enable(true);
  const std::optional<ScenarioRun> unlogged = RunScenarioText(
      text, &unlogged_tracker, /*tracer=*/nullptr, /*log_decisions=*/false);
  ASSERT_TRUE(logged.has_value() && unlogged.has_value());
  EXPECT_TRUE(unlogged->decision_jsonl.empty());
  EXPECT_GT(logged_tracker.misses_recorded(), 0u);
  EXPECT_EQ(logged_tracker.misses_recorded(),
            unlogged_tracker.misses_recorded());
  EXPECT_EQ(logged->events, unlogged->events);
  EXPECT_EQ(logged->metrics_csv, unlogged->metrics_csv);
  EXPECT_EQ(logged->attainment_jsonl, unlogged->attainment_jsonl);
  EXPECT_EQ(logged->attainment_csv, unlogged->attainment_csv);
}

TEST(MissCardFaults, CorruptionsCountStrikesSinceThePreviousMeasuredCheck) {
  // A miss card's miss_corruptions counts the strikes injected since the
  // class's previous measured check, whether that check missed or not.
  std::optional<core::Scenario> scenario =
      ParseScenario(ScenarioFile("corrupt.conf") + "\nintervals=20\n");
  ASSERT_TRUE(scenario.has_value());
  core::ClusterSystem system(scenario->system);
  for (const workload::ClassSpec& spec : scenario->classes) {
    system.AddClass(spec);
  }
  obs::AttainmentTracker tracker;
  tracker.Enable(true);
  system.SetAttainment(&tracker);
  obs::DecisionLog decision_log;
  system.SetDecisionLog(&decision_log);
  // Cumulative strikes at each interval boundary, by interval; the
  // interval's coordinator check runs 1 ms later.
  std::vector<uint64_t> strikes;
  system.SetIntervalCallback([&](const core::IntervalRecord& record) {
    ASSERT_EQ(static_cast<size_t>(record.index), strikes.size());
    strikes.push_back(system.fault_injector().stats().corruptions);
  });
  system.Start();
  system.RunIntervals(scenario->intervals);

  int misses = 0;
  uint64_t strikes_at_check = 0;
  for (const obs::DecisionRecord& record : decision_log.records()) {
    if (record.klass != 1 || record.goal_rt == 0.0) continue;  // unmeasured
    const uint64_t now = strikes.at(static_cast<size_t>(record.interval));
    if (record.miss_card) {
      ++misses;
      EXPECT_EQ(record.miss_corruptions, now - strikes_at_check)
          << "the miss at interval " << record.interval;
    }
    strikes_at_check = now;
  }
  EXPECT_GT(misses, 0);
  EXPECT_GT(strikes.back(), 0u);
}

}  // namespace
}  // namespace memgoal::bench
