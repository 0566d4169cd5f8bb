// The simulated workloads of the memgoal benchmark: the clusters, their goal
// protocols and the measured episode around them.
//
// The systems of the paper's setups are built, and their goal bands
// calibrated, by the research harnesses' own bench::BuildSystem and
// bench::CalibrateGoalBand, and the §7.1 goal protocol is theirs too
// (bench::GoalChangeDriver).

#ifndef MEMGOAL_BENCH_SUITE_CLUSTER_H_
#define MEMGOAL_BENCH_SUITE_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/experiment.h"
#include "core/system.h"
#include "host_speed.h"
#include "obs/attainment.h"
#include "obs/decision_log.h"
#include "obs/profiler.h"
#include "sim/invariant_auditor.h"
#include "txn/transaction.h"
#include "txn/update_source.h"

namespace memgoal::bench::suite {

/// One simulated cluster with its optional transactional overlay.
/// Members are destroyed in reverse order: the update source and the
/// transaction manager go before the system whose simulator they use.
struct Cluster {
  std::unique_ptr<core::ClusterSystem> system;
  std::unique_ptr<txn::TransactionManager> txn;
  std::unique_ptr<txn::UpdateSource> updates;

  void Start();
};

/// A named simulated workload. Exactly one of `setup` and `build` is set.
struct ClusterWorkload {
  std::string name;
  uint32_t nodes = 3;
  /// Classes 1..goal_classes hold goals; the others keep inert ones.
  int goal_classes = 1;
  /// A paper setup: the cluster is bench::BuildSystem(setup(seed)), and
  /// the goal band is calibrated on its fault-free twin.
  bench::Setup (*setup)(uint64_t seed) = nullptr;
  /// Any other cluster. Its goal classes follow §7.1 over the fixed band
  /// [goal_lo_ms, goal_hi_ms], unless `alternating` is set: then their
  /// goals alternate between alternate_lo and alternate_hi x the class's
  /// warm response time (its mean over the second half of the warm-up,
  /// with nothing dedicated yet) every kAlternatePeriod intervals, starting
  /// low.
  Cluster (*build)(uint64_t seed) = nullptr;
  double goal_lo_ms = 0.0;
  double goal_hi_ms = 0.0;
  bool alternating = false;
  double alternate_lo = 0.0;
  double alternate_hi = 0.0;
  /// Intervals run after construction (and calibration) before measuring;
  /// part of the timed set-up.
  int warmup_intervals = 10;
  /// Measured intervals per second of --seconds. The measured work is
  /// fixed per run, so every simulated metric is a pure function of the
  /// seed; the rate is chosen so one run measures about --seconds on one
  /// core of a 2020s x86 server, or longer where the simulated metrics
  /// need more intervals to vary little from seed to seed.
  double intervals_per_second = 250.0;
  int quick_intervals = 40;
  /// The invariant auditor also runs in untraced runs (it is part of what
  /// the fault workload exercises); elsewhere only traced runs attach it.
  bool always_audit = false;
  /// The no-goal response time of the second half of the measured phase
  /// (the median over its intervals, as nogoal_rt_ms) may exceed the first
  /// half's by at most this factor (0 = unchecked): the guard that a fault
  /// mix builds no unbounded backlog.
  double max_backlog_growth = 0.0;
};

inline constexpr int kAlternatePeriod = 10;
/// A goal change not met within this many intervals counts as this many
/// in converge_intervals.
inline constexpr int kConvergeCap = 10;

/// Looks a workload up by name; null when unknown.
const ClusterWorkload* FindClusterWorkload(const std::string& name);

/// Names of the simulated workloads, in a fixed order.
std::vector<std::string> ClusterWorkloadNames();

/// Instrumentation a traced episode attaches. All of it only observes: a
/// traced episode must produce the same sim_digest as a plain one.
struct Tracing {
  obs::Profiler profiler;
  obs::AttainmentTracker attainment;
  obs::DecisionLog decisions;
};

/// Counts and simulated outcomes of one measured episode.
struct EpisodeResult {
  /// Index of the first measured interval, and the classes holding goals.
  int first_interval = 0;
  std::vector<ClassId> goal_classes;
  /// Host seconds of the measured phase, per-block simulated seconds per
  /// host second, and the host-speed factor around each block (empty when
  /// not measured).
  double wall_s = 0.0;
  std::vector<double> block_rates;
  std::vector<double> block_factors;
  uint64_t events = 0;
  uint64_t frames = 0;
  uint64_t digest = 0;
  /// Mean number of pending simulator events at interval boundaries.
  double mean_pending_events = 0.0;
  /// Mean cached copies per cached page at the end of the episode.
  double mean_copies = 0.0;

  /// Share of (goal class, measured interval) pairs that met the goal.
  double goal_met_frac = 0.0;
  /// Median over the measured intervals of the interval's mean response
  /// time of the classes without a goal (simulated ms).
  double nogoal_rt_ms = 0.0;
  /// Mean intervals from a goal change to the first interval meeting it
  /// (at most kConvergeCap).
  double converge_intervals = 0.0;
  /// Operations and transactions issued in the measured phase; the
  /// operations among them an injected node crash aborted, and the
  /// transactions that ran out of retries.
  uint64_t attempted = 0;
  uint64_t crash_aborted = 0;
  uint64_t retries_exhausted = 0;

  /// Per-layer metrics of the measured phase: exact counts and shares.
  std::vector<std::pair<std::string, double>> counts;
  /// Page accesses, remote-buffer hits, messages and lock grants of the
  /// measured phase (operation counts of the ledger).
  uint64_t accesses = 0;
  uint64_t remote_fetches = 0;
  uint64_t messages = 0;
  uint64_t lock_grants = 0;

  /// Correctness failures found while running (empty when correct).
  std::vector<std::string> errors;
};

/// One seeded simulation of a workload: set-up (construction, goal-band
/// calibration, warm-up) and a measured phase of a fixed number of
/// observation intervals.
class Episode {
 public:
  /// `tracing` (may be null) is attached for the whole episode; its
  /// profiler is installed only around the measured phase.
  Episode(const ClusterWorkload& workload, uint64_t seed,
          Tracing* tracing = nullptr);
  ~Episode();
  Episode(const Episode&) = delete;
  Episode& operator=(const Episode&) = delete;

  /// Builds, calibrates and warms up; returns the host seconds it took.
  double Setup();

  /// Hash of the metrics log, the per-class access counters and the
  /// network byte totals so far.
  uint64_t Digest() const;

  /// Runs `intervals` measured intervals in `blocks` timed blocks, calling
  /// `between_blocks` (untimed) after each, and summarizes the episode.
  /// With `speed`, the host speed is measured around every block.
  EpisodeResult Measure(int intervals, int blocks,
                        const std::function<void()>& between_blocks = {},
                        HostSpeed* speed = nullptr);

  const core::ClusterSystem& system() const { return *cluster_.system; }

 private:
  class AlternatingGoals;

  void OnInterval(const core::IntervalRecord& record);

  const ClusterWorkload& workload_;
  uint64_t seed_;
  Tracing* tracing_;
  sim::InvariantAuditor auditor_;
  Cluster cluster_;
  std::vector<std::unique_ptr<bench::GoalChangeDriver>> drivers_;
  std::unique_ptr<AlternatingGoals> alternating_;
};

}  // namespace memgoal::bench::suite

#endif  // MEMGOAL_BENCH_SUITE_CLUSTER_H_
