#include "bench/experiment.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "baseline/static_controllers.h"
#include "common/check.h"

// The build's revision stamp (bench/git_describe.cmake); a build that
// generates none, such as bench/suite's, reports "unknown".
#if __has_include("memgoal_git_describe.h")
#include "memgoal_git_describe.h"
#endif
#ifndef MEMGOAL_GIT_DESCRIBE
#define MEMGOAL_GIT_DESCRIBE "unknown"
#endif

namespace memgoal::bench {

namespace {

// Goals start loose enough that nothing triggers before the caller (or the
// GoalChangeDriver) installs a real goal.
constexpr double kInertGoalMs = 1e9;

}  // namespace

core::SystemConfig Setup::ToConfig() const {
  core::SystemConfig config;
  config.num_nodes = num_nodes;
  config.cache_bytes_per_node = cache_bytes_per_node;
  config.db_pages =
      pages_per_class * static_cast<uint32_t>(goal_classes + 1);
  config.observation_interval_ms = observation_interval_ms;
  config.disk.avg_seek_ms = disk_seek_ms;
  config.disk.rotation_ms = disk_rotation_ms;
  config.disk.transfer_mb_per_s = disk_transfer_mb_per_s;
  config.policy = policy;
  config.hint_heat_threshold = hint_heat_threshold;
  config.faults = faults;
  config.corrupt_latent_fraction = corrupt_latent_fraction;
  config.scrub_interval_ms = scrub_interval_ms;
  config.network = network;
  config.seed = seed;
  return config;
}

std::unique_ptr<core::ClusterSystem> BuildSystem(const Setup& setup) {
  MEMGOAL_CHECK(setup.goal_classes >= 1 && setup.goal_classes <= 256);
  auto system = std::make_unique<core::ClusterSystem>(setup.ToConfig());

  const PageId range = setup.pages_per_class;

  for (int c = 1; c <= setup.goal_classes; ++c) {
    workload::ClassSpec spec;
    spec.id = static_cast<ClassId>(c);
    spec.goal_rt_ms = kInertGoalMs;
    spec.accesses_per_op = setup.accesses_per_op;
    spec.mean_interarrival_ms = setup.interarrival_ms;
    spec.pages = {static_cast<PageId>((c - 1) * range),
                  static_cast<PageId>(c * range)};
    spec.zipf_skew = setup.skew;
    if (c == 2 && setup.share_prob > 0.0) {
      // §7.4: class 2 shares class 1's pages with probability share_prob.
      spec.shared_pages = workload::PageRange{0, range};
      spec.share_prob = setup.share_prob;
      spec.shared_skew = setup.skew;
    }
    system->AddClass(spec);
  }

  workload::ClassSpec nogoal;
  nogoal.id = kNoGoalClass;
  nogoal.accesses_per_op = setup.accesses_per_op;
  nogoal.mean_interarrival_ms = setup.interarrival_ms;
  nogoal.pages = {static_cast<PageId>(setup.goal_classes * range),
                  static_cast<PageId>((setup.goal_classes + 1) * range)};
  nogoal.zipf_skew = setup.skew;
  system->AddClass(nogoal);
  return system;
}

double CalibrateRt(const Setup& setup, ClassId klass, double fraction,
                   int intervals) {
  std::unique_ptr<core::ClusterSystem> system = BuildSystem(setup);
  system->SetController(
      std::make_unique<baseline::NoPartitioningController>());
  system->Start();
  for (int c = 1; c <= setup.goal_classes; ++c) {
    const double class_fraction =
        static_cast<ClassId>(c) == klass ? fraction : 1.0 / 3.0;
    const auto bytes = static_cast<uint64_t>(
        class_fraction * static_cast<double>(setup.cache_bytes_per_node));
    for (NodeId i = 0; i < setup.num_nodes; ++i) {
      system->ApplyAllocation(static_cast<ClassId>(c), i, bytes);
    }
  }
  system->RunIntervals(intervals);

  // Only the settled tail: the cold-start fill and eviction shake-out of a
  // 2000-page database takes several intervals.
  common::RunningStats stats;
  const auto& records = system->metrics().records();
  for (size_t i = records.size() * 2 / 3; i < records.size(); ++i) {
    const auto& m = records[i].ForClass(klass);
    if (m.ops_completed > 0) stats.Add(m.observed_rt_ms);
  }
  MEMGOAL_CHECK(stats.count() > 0);
  return stats.mean();
}

GoalChangeDriver::GoalChangeDriver(core::ClusterSystem* system, ClassId klass,
                                   double goal_lo, double goal_hi,
                                   uint64_t seed)
    : system_(system), klass_(klass), goal_lo_(goal_lo), goal_hi_(goal_hi),
      rng_(seed) {
  MEMGOAL_CHECK(goal_lo_ < goal_hi_);
  system_->SetGoal(klass_, rng_.Uniform(goal_lo_, goal_hi_));
}

void GoalChangeDriver::PickNewGoal() {
  const double current = system_->spec(klass_).goal_rt_ms.value();
  const double quarter_band = 0.25 * (goal_hi_ - goal_lo_);
  double next = current;
  // "Randomly chosen so that it should be satisfiable under the current
  // workload and also differs significantly from the current goal" (§7.1).
  // Bounded: when the band is a few ulps wide every draw rounds onto the
  // current goal and the re-draw condition is unsatisfiable.
  for (int draws = 0; draws < kMaxGoalRedraws; ++draws) {
    next = rng_.Uniform(goal_lo_, goal_hi_);
    if (std::fabs(next - current) >= quarter_band) break;
  }
  if (std::fabs(next - current) < quarter_band) {
    next = (current - goal_lo_ >= goal_hi_ - current) ? goal_lo_ : goal_hi_;
  }
  system_->SetGoal(klass_, next);
  converging_ = true;
  intervals_since_change_ = 0;
  satisfied_streak_ = 0;
}

void GoalChangeDriver::OnInterval(const core::IntervalRecord& record) {
  const core::ClassIntervalMetrics& m = record.ForClass(klass_);
  if (converging_) {
    ++intervals_since_change_;
    if (m.satisfied) {
      if (first_goal_) {
        first_goal_ = false;  // cold-cache sample: discard
      } else {
        iterations_.Add(static_cast<double>(intervals_since_change_));
      }
      ++goals_completed_;
      converging_ = false;
      satisfied_streak_ = 1;
    } else if (intervals_since_change_ >= kCensorLimit) {
      ++censored_;
      converging_ = false;  // give up on this goal; wait for satisfaction
      satisfied_streak_ = 0;
      first_goal_ = false;
    }
    return;
  }
  // Holding: wait for a streak of satisfied intervals, then change goals.
  satisfied_streak_ = m.satisfied ? satisfied_streak_ + 1 : 0;
  if (satisfied_streak_ >= kSatisfiedStreakForChange) PickNewGoal();
}

GoalBand CalibrateGoalBand(const Setup& setup, ClassId klass,
                           TrialRunner* runner, int intervals) {
  // The three calibration points are independent seeded trials; each draws
  // its randomness from its own stream of setup.seed, so the band is the
  // same whether the points run serially or on a pool.
  const double fractions[] = {2.0 / 3.0, 1.0 / 3.0, 0.0};
  TrialRunner serial(1);
  TrialRunner& pool = runner != nullptr ? *runner : serial;
  const std::vector<double> rt =
      pool.Run(3, [&](int point) {
        Setup calibration = setup;
        calibration.seed = common::DeriveStreamSeed(
            setup.seed, kCalibrationStreamBase + static_cast<uint64_t>(point));
        return CalibrateRt(calibration, klass, fractions[point], intervals);
      });

  GoalBand band;
  band.lo = rt[0];
  band.rt_third = rt[1];
  band.rt_zero = rt[2];
  band.hi = std::min(band.rt_third, 0.75 * band.rt_zero);
  MEMGOAL_CHECK_MSG(band.lo < band.hi,
                    "calibration produced an empty goal band");
  return band;
}

namespace {

/// What one convergence trial hands back to the trial-index-ordered
/// reduction.
struct TrialOutcome {
  common::RunningStats iterations;
  int goals_completed = 0;
  int censored = 0;
  uint64_t events_processed = 0;
  double sim_time_ms = 0.0;
};

}  // namespace

ConvergenceResult MeasureConvergence(const Setup& base_setup,
                                     const ConvergencePlan& plan,
                                     TrialRunner* runner) {
  TrialRunner serial(1);
  TrialRunner& pool = runner != nullptr ? *runner : serial;

  ConvergenceResult result;
  const GoalBand band = CalibrateGoalBand(base_setup, 1, &pool,
                                          plan.calibration_intervals);
  result.goal_lo = band.lo;
  result.goal_hi = band.hi;

  // Any secondary goal class holds a fixed goal chosen to keep its
  // dedication near the neutral 1/3 the band calibration assumed, so the
  // two coordinators' demands stay jointly satisfiable.
  double goal_k2 = 0.0;
  if (base_setup.goal_classes >= 2) {
    Setup calibration = base_setup;
    calibration.seed = common::DeriveStreamSeed(base_setup.seed,
                                                kCalibrationStreamBase + 3);
    goal_k2 = 1.05 * CalibrateRt(calibration, 2, 1.0 / 3.0,
                                 plan.calibration_intervals);
  }

  const std::vector<TrialOutcome> outcomes = pool.Run(
      plan.max_runs, [&](int trial) {
        Setup setup = base_setup;
        setup.seed = common::DeriveStreamSeed(
            base_setup.seed, static_cast<uint64_t>(trial));
        std::unique_ptr<core::ClusterSystem> system = BuildSystem(setup);
        if (setup.goal_classes >= 2) {
          // Both coordinators are live concurrently (§5 drops the one-
          // class-at-a-time restriction); only class 1's convergence is
          // measured.
          system->SetGoal(2, goal_k2);
        }
        GoalChangeDriver driver(
            system.get(), 1, band.lo, band.hi,
            common::DeriveStreamSeed(
                base_setup.seed,
                kGoalDriverStreamBase + static_cast<uint64_t>(trial)));
        system->SetIntervalCallback(
            [&driver](const core::IntervalRecord& record) {
              driver.OnInterval(record);
            });
        system->Start();
        system->RunIntervals(plan.intervals_per_run);

        TrialOutcome outcome;
        outcome.iterations = driver.iterations();
        outcome.goals_completed = driver.goals_completed();
        outcome.censored = driver.censored();
        outcome.events_processed = system->simulator().events_processed();
        outcome.sim_time_ms = system->simulator().Now();
        return outcome;
      });

  // Reduce in trial-index order with the serial loop's stopping rule: a
  // parallel run may have computed trials past the stopping point, but they
  // are not merged, so the pooled statistics match a 1-thread run exactly.
  for (const TrialOutcome& outcome : outcomes) {
    result.iterations.Merge(outcome.iterations);
    result.goals_completed += outcome.goals_completed;
    result.censored += outcome.censored;
    result.events_processed += outcome.events_processed;
    result.sim_time_ms += outcome.sim_time_ms;
    ++result.runs_used;
    if (result.iterations.count() >= 10 &&
        common::ConfidenceHalfWidth(result.iterations, 0.99) < 1.0) {
      break;
    }
  }
  return result;
}

// -- Bench telemetry ---------------------------------------------------------

double MinOfRepsSeconds(int reps, const std::function<void()>& fn) {
  MEMGOAL_CHECK(reps >= 1);
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    best = rep == 0 ? elapsed.count() : std::min(best, elapsed.count());
  }
  return best;
}

namespace {

/// The calibration spin: a fixed FNV-style integer mix long enough
/// (~tens of ms) that timer granularity is negligible but short enough to
/// be an acceptable fixed cost per bench run.
uint64_t CalibrationSpin() {
  uint64_t h = 1469598103934665603ull;
  for (uint64_t i = 0; i < 20'000'000ull; ++i) {
    h ^= i;
    h *= 1099511628211ull;
  }
  return h;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

}  // namespace

double CalibrateMachineSeconds() {
  volatile uint64_t sink = 0;
  return MinOfRepsSeconds(3, [&sink] { sink = CalibrationSpin(); });
}

BenchReporter::BenchReporter(std::string name, common::Config* args)
    : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {
  MEMGOAL_CHECK(args != nullptr);
  json_dir_ = args->GetString("bench_json", ".");
  if (json_dir_ == "0" || json_dir_ == "off") json_dir_.clear();
  profiler_.Enable(args->GetBool("profile", false));
  threads_ = static_cast<int>(args->GetInt("threads", 0));
  quick_ = args->GetBool("quick", false);
  if (profiler_.enabled()) install_.emplace(&profiler_);
}

BenchReporter::~BenchReporter() {
  MEMGOAL_DCHECK(finished_);  // a bench that never Finish()es reports nothing
}

void BenchReporter::AddSetup(const std::string& key,
                             const std::string& value) {
  // Assembled with append(): GCC 12 raises a spurious -Wrestrict on the
  // equivalent operator+ chain.
  std::string quoted;
  quoted.append(1, '"');
  quoted.append(JsonEscape(value));
  quoted.append(1, '"');
  setup_.emplace_back(key, quoted);
}

void BenchReporter::AddSetup(const std::string& key, double value) {
  setup_.emplace_back(key, JsonNumber(value));
}

void BenchReporter::AddMetric(const std::string& name, double value) {
  metrics_.emplace_back(name, value);
}

void BenchReporter::AddEvents(uint64_t events, double sim_time_ms) {
  events_.fetch_add(events, std::memory_order_relaxed);
  // Microsecond ticks keep the accumulator an integer (atomic<double> has
  // no fetch_add pre-C++20-TS on every toolchain) with ample range.
  sim_time_us_.fetch_add(static_cast<uint64_t>(sim_time_ms * 1e3),
                         std::memory_order_relaxed);
}

void BenchReporter::Finish() {
  MEMGOAL_CHECK(!finished_);
  finished_ = true;
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start_;
  const double wall_seconds = elapsed.count();
  install_.reset();

  const uint64_t events = events_.load(std::memory_order_relaxed);
  const double sim_ms =
      static_cast<double>(sim_time_us_.load(std::memory_order_relaxed)) / 1e3;
  const double events_per_second =
      wall_seconds > 0.0 ? static_cast<double>(events) / wall_seconds : 0.0;
  const double sim_per_wall =
      wall_seconds > 0.0 ? sim_ms / (wall_seconds * 1e3) : 0.0;

  std::fprintf(stderr,
               "# bench %s: wall=%.3f s events=%" PRIu64
               " events/s=%.3g sim/wall=%.3g\n",
               name_.c_str(), wall_seconds, events, events_per_second,
               sim_per_wall);

  if (json_dir_.empty()) return;

  // The calibration spin runs after the measured work so it never inflates
  // wall_seconds.
  const double calib_seconds = CalibrateMachineSeconds();

  std::string json;
  json.reserve(2048);
  json += "{\n";
  json += "  \"schema_version\": 1,\n";
  json += "  \"bench\": \"";
  json.append(JsonEscape(name_));
  json += "\",\n  \"git_describe\": \"";
  json.append(JsonEscape(MEMGOAL_GIT_DESCRIBE));
  json += "\",\n  \"threads\": ";
  json.append(std::to_string(threads_));
  json += ",\n  \"quick\": ";
  json += quick_ ? "true" : "false";
  json += ",\n";
  json += "  \"setup\": {";
  for (size_t i = 0; i < setup_.size(); ++i) {
    if (i != 0) json += ", ";
    json.append(1, '"');
    json.append(JsonEscape(setup_[i].first));
    json.append("\": ");
    json.append(setup_[i].second);
  }
  json += "},\n";
  json += "  \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i != 0) json += ", ";
    json.append(1, '"');
    json.append(JsonEscape(metrics_[i].first));
    json.append("\": ");
    json.append(JsonNumber(metrics_[i].second));
  }
  json += "},\n";
  json += "  \"wall_seconds\": ";
  json.append(JsonNumber(wall_seconds));
  json += ",\n  \"calib_wall_seconds\": ";
  json.append(JsonNumber(calib_seconds));
  json += ",\n  \"events_processed\": ";
  json.append(std::to_string(events));
  json += ",\n  \"events_per_second\": ";
  json.append(JsonNumber(events_per_second));
  json += ",\n  \"sim_ms_per_wall_ms\": ";
  json.append(JsonNumber(sim_per_wall));
  json += ",\n  \"profile\": ";
  if (profiler_.enabled()) {
    profiler_.AppendJson(&json);
  } else {
    json += "null";
  }
  json += "\n}\n";

  std::string json_path = json_dir_;
  json_path.append("/BENCH_");
  json_path.append(name_);
  json_path.append(".json");
  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "# bench %s: cannot write %s\n", name_.c_str(),
                 json_path.c_str());
    return;
  }
  std::fwrite(json.data(), 1, json.size(), out);
  std::fclose(out);

  if (profiler_.enabled()) {
    std::string folded_path = json_dir_;
    folded_path.append("/BENCH_");
    folded_path.append(name_);
    folded_path.append(".folded");
    std::FILE* folded = std::fopen(folded_path.c_str(), "w");
    if (folded != nullptr) {
      profiler_.WriteFolded(folded);
      std::fclose(folded);
    }
    profiler_.WriteTable(stderr, wall_seconds);
  }
}

}  // namespace memgoal::bench
