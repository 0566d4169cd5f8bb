#include "cluster.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "bench_util.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/goal_controller.h"
#include "net/network.h"
#include "sim/frame_pool.h"

namespace memgoal::bench::suite {
namespace {

// Goals start loose enough that nothing triggers before a goal protocol
// installs a real one.
constexpr double kInertGoalMs = 1e9;

// paper_base: the paper's §7.1 base experiment, bench::Setup's defaults —
// 3 nodes x 2 MB, 2000 pages split between one goal class and the no-goal
// class, uniform access, 4 accesses per operation, 40 ms mean inter-arrival
// per node and class.
bench::Setup PaperBase(uint64_t seed) {
  bench::Setup setup;
  setup.seed = seed;
  return setup;
}

// faults_mix: 5 nodes under all four fault classes, with the idle-disk
// scrubber and the invariant auditor. Every 240 s cycle degrades one node 2x
// for 15 s at 0 s and another at 120 s, and cuts one node off for 10 s at
// 60 s; the victims are drawn from the seed. Scripting the cycle gives every
// seed the same gray and partition exposure, and the episodes never overlap:
// a node degraded and cut off at once saturates its disk, which also serves
// the cut side over the storage bus, and the backlog never drains. Each
// partition restarts the controller's measurements, so one per cycle is what
// still lets goals converge between episodes. Crashes and corruption strike
// as per-node Poisson processes; a crash takes its node down for 10 s on
// average, at most one node at a time. The load is lighter than the paper's
// (60 ms inter-arrival) to leave the disks the headroom the episodes
// consume.
bench::Setup FaultsMix(uint64_t seed) {
  constexpr uint32_t kNodes = 5;
  constexpr double kCycleMs = 240000.0;
  constexpr double kGrayMs = 15000.0;
  constexpr double kGrayFactor = 2.0;
  constexpr double kPartitionMs = 10000.0;
  // The script covers 20000 observation intervals: runs of up to 50 s of
  // --seconds. Every entry is a pending event from the start, so the
  // script is not longer than that.
  constexpr double kHorizonMs = 1e8;
  bench::Setup setup;
  setup.seed = seed;
  setup.num_nodes = kNodes;
  setup.pages_per_class = 1667;  // 1000 per 3 nodes, as in §7.2
  setup.interarrival_ms = 60.0;
  sim::FaultInjector::Params& f = setup.faults;
  f.seed = common::DeriveStreamSeed(seed, bench::kAuxStreamBase);
  common::Rng rng(f.seed);
  const auto victim = [&rng] {
    return static_cast<uint32_t>(rng.UniformInt(0, kNodes - 1));
  };
  for (double t = 0.0; t < kHorizonMs; t += kCycleMs) {
    for (double at : {t, t + kCycleMs / 2}) {
      const uint32_t slow = victim();
      f.degradation_script.push_back({at, slow, true, kGrayFactor});
      f.degradation_script.push_back({at + kGrayMs, slow, false, kGrayFactor});
    }
    std::vector<uint32_t> groups(kNodes, 0);
    groups[victim()] = 1;
    f.partition_script.push_back({t + kCycleMs / 4, groups});
    f.partition_script.push_back({t + kCycleMs / 4 + kPartitionMs, {}});
  }
  f.mttf_ms = 1.2e6;
  f.mttr_ms = 10000.0;
  f.min_live_nodes = kNodes - 1;
  f.mttc_ms = 20000.0;
  setup.corrupt_latent_fraction = 0.25;
  setup.scrub_interval_ms = 1000.0;
  return setup;
}

void AddClass(core::ClusterSystem* system, ClassId id, PageId begin,
              PageId end, int accesses, double interarrival_ms, double skew) {
  workload::ClassSpec spec;
  spec.id = id;
  if (id != kNoGoalClass) spec.goal_rt_ms = kInertGoalMs;
  spec.accesses_per_op = accesses;
  spec.mean_interarrival_ms = interarrival_ms;
  spec.pages = {begin, end};
  spec.zipf_skew = skew;
  system->AddClass(spec);
}

// grid_64x64: bench_scaling's 64 nodes x 64 goal classes cell. The database
// is 1.2x the cluster cache so partitioning stays binding, the per-class
// inter-arrival stretches with the class count so per-node load matches the
// base config, and the interconnect is a switched fabric whose bandwidth
// grows with the node count. The warm-up heuristic's grab is scaled to the
// class count: at the default 25% of free memory per class, eight goal
// classes violated at once take ~90% of every cache, starve the other 56
// classes onto the disks and build a backlog that never drains; 3% (~15
// frames per node, ~1000 cluster-wide) still holds a 600-page class. That
// setting is why the grid is not a bench::BuildSystem cluster.
Cluster BuildGrid(uint64_t seed) {
  constexpr int kClasses = 64;
  bench::Setup setup;
  setup.seed = seed;
  setup.num_nodes = 64;
  setup.goal_classes = kClasses;
  const double cluster_frames = setup.num_nodes *
                                static_cast<double>(setup.cache_bytes_per_node) /
                                4096.0;
  setup.pages_per_class = static_cast<uint32_t>(
      std::ceil(1.2 * cluster_frames / static_cast<double>(kClasses + 1)));
  setup.interarrival_ms = 20.0 * (kClasses + 1);
  setup.network.bandwidth_mbit_per_s = 100.0 * setup.num_nodes / 3.0;
  core::SystemConfig config = setup.ToConfig();
  config.warmup_fraction = 0.03;
  config.warmup_perturbation = 0.01;
  Cluster cluster;
  cluster.system = std::make_unique<core::ClusterSystem>(config);
  const PageId range = setup.pages_per_class;
  for (int c = 1; c <= kClasses + 1; ++c) {
    const ClassId id = c <= kClasses ? static_cast<ClassId>(c) : kNoGoalClass;
    AddClass(cluster.system.get(), id, (c - 1) * range, c * range,
             setup.accesses_per_op, setup.interarrival_ms, setup.skew);
  }
  return cluster;
}

// update_oltp: the OLTP/DSS mix of tools/scenarios/oltp_dss.conf — short
// skewed OLTP operations under a goal beside long near-uniform scans — plus
// read-write transactions on the OLTP pages (3 reads and 1 write, every
// 100 ms per node). The two classes differ in access count and skew, which
// bench::BuildSystem's uniform classes cannot express.
Cluster BuildUpdateOltp(uint64_t seed) {
  bench::Setup setup;
  setup.seed = seed;
  setup.pages_per_class = 1200;
  Cluster cluster;
  cluster.system = std::make_unique<core::ClusterSystem>(setup.ToConfig());
  AddClass(cluster.system.get(), 1, 0, 1000, 2, 30.0, 0.6);
  AddClass(cluster.system.get(), kNoGoalClass, 1000, 2400, 24, 400.0, 0.1);
  cluster.txn =
      std::make_unique<txn::TransactionManager>(cluster.system.get());
  txn::UpdateSource::Params updates;
  updates.klass = 1;
  updates.mean_interarrival_ms = 100.0;
  cluster.updates = std::make_unique<txn::UpdateSource>(
      cluster.system.get(), cluster.txn.get(), updates);
  return cluster;
}

const std::vector<ClusterWorkload>& Workloads() {
  static const std::vector<ClusterWorkload> workloads = [] {
    std::vector<ClusterWorkload> w(4);
    w[0].name = "paper_base";
    w[0].setup = PaperBase;
    w[0].intervals_per_second = 250.0;

    w[1].name = "grid_64x64";
    w[1].nodes = 64;
    w[1].goal_classes = 8;
    w[1].build = BuildGrid;
    w[1].alternating = true;
    w[1].alternate_lo = 0.75;
    w[1].alternate_hi = 0.9;
    w[1].warmup_intervals = 4;
    w[1].intervals_per_second = 4.0;
    w[1].quick_intervals = 12;

    w[2].name = "faults_mix";
    w[2].nodes = 5;
    w[2].setup = FaultsMix;
    // Crashes, partitions and gray episodes at seeded times make the
    // simulated metrics vary from seed to seed; 3000 intervals keep the
    // tail of converge_intervals' spread over ten seeds well under its
    // bound (at 1800 it reached 0.24), in a run of about 25 s.
    w[2].intervals_per_second = 300.0;
    w[2].always_audit = true;
    w[2].max_backlog_growth = 1.5;

    w[3].name = "update_oltp";
    w[3].build = BuildUpdateOltp;
    w[3].goal_lo_ms = 5.0;
    w[3].goal_hi_ms = 10.0;
    w[3].intervals_per_second = 200.0;
    return w;
  }();
  return workloads;
}

// Cumulative counters of a cluster, snapshotted around the measured phase.
struct Totals {
  uint64_t events = 0;
  uint64_t frames = 0;
  std::array<uint64_t, 4> by_level{};
  uint64_t fetch_fallbacks = 0;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t protocol_bytes = 0;
  uint64_t partition_dropped = 0;
  uint64_t crashes = 0;
  uint64_t failovers = 0;
  uint64_t commits = 0;
  double commit_ms_sum = 0.0;
  uint64_t txn_failed = 0;
  uint64_t deaths = 0;
  uint64_t invalidations = 0;
  uint64_t lock_grants = 0;

  static Totals Of(const Cluster& cluster) {
    core::ClusterSystem& system = *cluster.system;
    Totals t;
    t.events = system.simulator().events_processed();
    const sim::FramePool::Stats frames = sim::FramePool::stats();
    t.frames = frames.reused + frames.fresh + frames.oversized;
    for (const workload::ClassSpec& spec : system.classes()) {
      const core::AccessCounters& counters = system.counters(spec.id);
      for (int l = 0; l < 4; ++l) t.by_level[l] += counters.by_level[l];
      t.fetch_fallbacks += counters.fetch_fallbacks;
    }
    const net::Network& network = system.network();
    t.messages = network.total_messages_sent();
    t.bytes = network.total_bytes_sent();
    t.protocol_bytes =
        network.bytes_sent(net::TrafficClass::kPartitionProtocol);
    t.partition_dropped = network.total_messages_partition_dropped();
    t.crashes = system.fault_injector().stats().crashes;
    t.failovers = dynamic_cast<const core::GoalOrientedController&>(
                      system.controller())
                      .stats()
                      .coordinator_failovers;
    if (cluster.updates != nullptr) {
      t.commits = cluster.updates->committed();
      t.commit_ms_sum = cluster.updates->commit_latency_ms().sum();
      t.txn_failed = cluster.updates->failed();
      t.deaths = cluster.txn->stats().deaths;
      t.invalidations = cluster.txn->stats().pages_invalidated;
      t.lock_grants = cluster.txn->lock_manager().stats().grants;
    }
    return t;
  }
};

// Convergence (Table 2) over records[first..]: for every goal change of a
// goal class, the intervals from the change to the first interval meeting
// the new goal, capped at kConvergeCap. A change the run ends too soon to
// settle is left out. Returns the mean and the number of changes.
std::pair<double, int> ConvergeIntervals(
    const std::vector<core::IntervalRecord>& records, size_t first,
    const std::vector<ClassId>& goal_classes) {
  double sum = 0.0;
  int changes = 0;
  for (ClassId klass : goal_classes) {
    for (size_t i = std::max<size_t>(first, 1); i < records.size(); ++i) {
      if (records[i].ForClass(klass).goal_rt_ms ==
          records[i - 1].ForClass(klass).goal_rt_ms) {
        continue;
      }
      for (size_t j = i; j < records.size(); ++j) {
        const int intervals = static_cast<int>(j - i) + 1;
        if (records[j].ForClass(klass).satisfied || intervals == kConvergeCap) {
          sum += intervals;
          ++changes;
          break;
        }
      }
    }
  }
  return {changes == 0 ? 0.0 : sum / changes, changes};
}

// Approximate bytes the registry's retained history holds: snapshot and
// entry structs plus heap-held instrument names.
double RegistryBytes(const obs::Registry& registry) {
  double bytes = 0.0;
  for (const obs::Registry::Snapshot& snapshot : registry.history()) {
    bytes += static_cast<double>(
        sizeof(snapshot) +
        snapshot.entries.capacity() * sizeof(obs::Registry::SnapshotEntry));
    for (const obs::Registry::SnapshotEntry& entry : snapshot.entries) {
      // Names past the small-string buffer live on the heap.
      if (entry.name.capacity() > 15) bytes += entry.name.capacity() + 1;
    }
  }
  return bytes;
}

}  // namespace

void Cluster::Start() {
  system->Start();
  if (updates != nullptr) updates->Start();
}

const ClusterWorkload* FindClusterWorkload(const std::string& name) {
  for (const ClusterWorkload& workload : Workloads()) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

std::vector<std::string> ClusterWorkloadNames() {
  std::vector<std::string> names;
  for (const ClusterWorkload& workload : Workloads()) {
    names.push_back(workload.name);
  }
  return names;
}

/// The alternating goal protocol (ClusterWorkload::alternating).
class Episode::AlternatingGoals {
 public:
  AlternatingGoals(core::ClusterSystem* system, std::vector<ClassId> classes,
                   std::vector<double> warm_rt, double lo, double hi)
      : system_(system), classes_(std::move(classes)),
        warm_rt_(std::move(warm_rt)), lo_(lo), hi_(hi) {
    SetGoals(lo_);
  }

  void OnInterval() {
    if (++since_change_ < kAlternatePeriod) return;
    low_ = !low_;
    SetGoals(low_ ? lo_ : hi_);
  }

 private:
  void SetGoals(double factor) {
    for (size_t i = 0; i < classes_.size(); ++i) {
      system_->SetGoal(classes_[i], factor * warm_rt_[i]);
    }
    since_change_ = 0;
  }

  core::ClusterSystem* system_;
  std::vector<ClassId> classes_;
  std::vector<double> warm_rt_;
  double lo_;
  double hi_;
  bool low_ = true;
  int since_change_ = 0;
};

Episode::Episode(const ClusterWorkload& workload, uint64_t seed,
                 Tracing* tracing)
    : workload_(workload), seed_(seed), tracing_(tracing) {}

Episode::~Episode() = default;

void Episode::OnInterval(const core::IntervalRecord& record) {
  for (const auto& driver : drivers_) driver->OnInterval(record);
  if (alternating_ != nullptr) alternating_->OnInterval();
}

double Episode::Setup() {
  const auto start = std::chrono::steady_clock::now();
  bench::GoalBand band{workload_.goal_lo_ms, workload_.goal_hi_ms};
  if (workload_.setup != nullptr) {
    const bench::Setup setup = workload_.setup(seed_);
    // The band is calibrated on the fault-free twin.
    bench::Setup twin = setup;
    twin.faults = sim::FaultInjector::Params{};
    twin.corrupt_latent_fraction = 0.0;
    twin.scrub_interval_ms = 0.0;
    band = bench::CalibrateGoalBand(twin);
    cluster_.system = bench::BuildSystem(setup);
  } else {
    cluster_ = workload_.build(seed_);
  }
  core::ClusterSystem& system = *cluster_.system;
  if (tracing_ != nullptr) {
    tracing_->attainment.Enable(true);
    system.SetAttainment(&tracing_->attainment);
    system.SetDecisionLog(&tracing_->decisions);
  }
  if (tracing_ != nullptr || workload_.always_audit) {
    system.EnableAuditor(&auditor_);
  }
  if (!workload_.alternating) {
    for (int c = 1; c <= workload_.goal_classes; ++c) {
      drivers_.push_back(std::make_unique<bench::GoalChangeDriver>(
          &system, static_cast<ClassId>(c), band.lo, band.hi,
          common::DeriveStreamSeed(seed_, bench::kGoalDriverStreamBase + c)));
    }
  }
  system.SetIntervalCallback(
      [this](const core::IntervalRecord& record) { OnInterval(record); });
  cluster_.Start();
  system.RunIntervals(workload_.warmup_intervals);
  if (workload_.alternating) {
    // The warm response time is the mean over the second half of the
    // warm-up, when the caches have filled.
    const auto& records = system.metrics().records();
    std::vector<ClassId> classes;
    std::vector<double> warm_rt;
    for (int c = 1; c <= workload_.goal_classes; ++c) {
      classes.push_back(static_cast<ClassId>(c));
      common::RunningStats rt;
      for (size_t i = records.size() / 2; i < records.size(); ++i) {
        const core::ClassIntervalMetrics& m = records[i].ForClass(classes.back());
        if (m.ops_completed > 0) rt.Add(m.observed_rt_ms);
      }
      MEMGOAL_CHECK_MSG(rt.count() > 0,
                        "goal class completed no operation during warm-up");
      warm_rt.push_back(rt.mean());
    }
    alternating_ = std::make_unique<AlternatingGoals>(
        &system, std::move(classes), std::move(warm_rt),
        workload_.alternate_lo, workload_.alternate_hi);
  }
  return Seconds(std::chrono::steady_clock::now() - start);
}

uint64_t Episode::Digest() const {
  const core::ClusterSystem& system = *cluster_.system;
  char* text = nullptr;
  size_t size = 0;
  std::FILE* csv = open_memstream(&text, &size);
  MEMGOAL_CHECK(csv != nullptr);
  system.metrics().WriteCsv(csv);
  std::fclose(csv);
  uint64_t h = Fnv1a(kFnvOffset, text, size);
  std::free(text);
  for (const workload::ClassSpec& spec : system.classes()) {
    const core::AccessCounters& counters = system.counters(spec.id);
    for (uint64_t count : counters.by_level) h = Fnv1a(h, count);
    h = Fnv1a(h, counters.fetch_fallbacks);
  }
  const net::Network& network = cluster_.system->network();
  for (int tc = 0; tc < net::kNumTrafficClasses; ++tc) {
    h = Fnv1a(h, network.bytes_sent(static_cast<net::TrafficClass>(tc)));
  }
  return Fnv1a(h, network.total_bytes_sent());
}

EpisodeResult Episode::Measure(int intervals, int blocks,
                               const std::function<void()>& between_blocks,
                               HostSpeed* speed) {
  MEMGOAL_CHECK(intervals > 0 && blocks > 0);
  core::ClusterSystem& system = *cluster_.system;
  const int first = system.intervals_completed();
  const Totals before = Totals::Of(cluster_);

  double pending_sum = 0.0;
  system.SetIntervalCallback(
      [this, &pending_sum](const core::IntervalRecord& record) {
        OnInterval(record);
        pending_sum += static_cast<double>(
            cluster_.system->simulator().pending_events());
      });

  EpisodeResult result;
  result.first_interval = first;
  for (int c = 1; c <= workload_.goal_classes; ++c) {
    result.goal_classes.push_back(static_cast<ClassId>(c));
  }
  const double interval_s = system.config().observation_interval_ms / 1e3;
  blocks = std::min(blocks, intervals);
  int done = 0;
  for (int b = 0; b < blocks; ++b) {
    const int length = (intervals - done) / (blocks - b);
    std::optional<obs::Profiler::ScopedInstall> install;
    if (tracing_ != nullptr) {
      tracing_->profiler.Enable(true);
      install.emplace(&tracing_->profiler);
    }
    double wall = 0.0;
    const auto block = [&] {
      const auto start = std::chrono::steady_clock::now();
      system.RunIntervals(length);
      wall = Seconds(std::chrono::steady_clock::now() - start);
    };
    if (speed != nullptr) {
      result.block_factors.push_back(speed->Around(block));
    } else {
      block();
    }
    install.reset();
    result.wall_s += wall;
    result.block_rates.push_back(length * interval_s / wall);
    done += length;
    if (between_blocks) between_blocks();
  }
  const Totals after = Totals::Of(cluster_);
  result.events = after.events - before.events;
  result.frames = after.frames - before.frames;
  result.mean_pending_events = pending_sum / intervals;
  result.digest = Digest();

  // Simulated outcomes over the measured intervals.
  const std::vector<ClassId>& goal_classes = result.goal_classes;
  const auto& records = system.metrics().records();
  uint64_t goal_checks = 0, goal_met = 0;
  std::vector<double> nogoal_rt;
  std::vector<double> first_half, second_half;
  for (size_t i = static_cast<size_t>(first); i < records.size(); ++i) {
    const core::IntervalRecord& record = records[i];
    for (ClassId klass : goal_classes) {
      ++goal_checks;
      goal_met += record.ForClass(klass).satisfied ? 1 : 0;
    }
    // The no-goal response time pools every class without a goal: the
    // no-goal class, and in the grid the classes whose goals stay inert. A
    // single one of those 57 classes varies twice as much from seed to seed.
    double nogoal_ops = 0.0;
    double nogoal_rt_sum = 0.0;
    for (const core::ClassIntervalMetrics& m : record.classes) {
      result.attempted += m.ops_arrived;
      result.crash_aborted += m.ops_failed;
      if (std::find(goal_classes.begin(), goal_classes.end(), m.klass) ==
          goal_classes.end()) {
        nogoal_ops += static_cast<double>(m.ops_completed);
        nogoal_rt_sum += static_cast<double>(m.ops_completed) * m.observed_rt_ms;
      }
    }
    if (nogoal_ops == 0.0) continue;
    const double rt = nogoal_rt_sum / nogoal_ops;
    nogoal_rt.push_back(rt);
    const bool early = static_cast<int>(i) - first < intervals / 2;
    (early ? first_half : second_half).push_back(rt);
  }
  const uint64_t commits = after.commits - before.commits;
  result.retries_exhausted = after.txn_failed - before.txn_failed;
  result.attempted += commits + result.retries_exhausted;
  result.goal_met_frac =
      static_cast<double>(goal_met) / static_cast<double>(goal_checks);
  result.nogoal_rt_ms = nogoal_rt.empty() ? 0.0 : Median(nogoal_rt);
  const auto [converge, changes] =
      ConvergeIntervals(records, static_cast<size_t>(first), goal_classes);
  result.converge_intervals = converge;

  // Correctness of the run. Operations aborted by an injected crash and
  // transactions out of retries are outcomes of the simulated system, not
  // errors of the run: core.failed_op_share counts them.
  if (static_cast<int>(nogoal_rt.size()) != intervals) {
    result.errors.push_back("no-goal classes idle in a measured interval");
  }
  if (changes == 0) {
    result.errors.push_back("no goal change completed while measuring");
  }
  if (system.corrupt_served() != 0) {
    result.errors.push_back("detectably corrupt page served");
  }
  if (system.auditor() != nullptr && !auditor_.ok()) {
    result.errors.push_back("invariant auditor reported violations");
  }
  // Halves are compared by their median, as nogoal_rt_ms is: a crash or a
  // gray episode lifts single intervals to seconds, which moves a half's
  // mean by 50% without any backlog building up.
  if (workload_.max_backlog_growth > 0.0 && !first_half.empty() &&
      !second_half.empty() &&
      Median(second_half) > workload_.max_backlog_growth * Median(first_half)) {
    result.errors.push_back("no-goal backlog grows across the run");
  }
  if (tracing_ != nullptr && tracing_->attainment.max_sum_error() > 1e-6) {
    result.errors.push_back("a request's latency budget does not close");
  }

  // Per-layer counts of the measured phase.
  const auto level_delta = [&](StorageLevel level) {
    const int l = static_cast<int>(level);
    return after.by_level[l] - before.by_level[l];
  };
  result.accesses = 0;
  for (int l = 0; l < 4; ++l) {
    result.accesses += level_delta(static_cast<StorageLevel>(l));
  }
  const auto share = [&](uint64_t n) {
    return static_cast<double>(n) / static_cast<double>(result.accesses);
  };
  result.remote_fetches = level_delta(StorageLevel::kRemoteBuffer);
  result.messages = after.messages - before.messages;
  result.lock_grants = after.lock_grants - before.lock_grants;
  double disk_busy = 0.0;
  for (NodeId i = 0; i < system.num_nodes(); ++i) {
    disk_busy += system.node(i).disk().resource().UtilizationAt(
        system.simulator().Now());
  }
  const auto& controller =
      dynamic_cast<const core::GoalOrientedController&>(system.controller());
  const auto& stats = controller.stats();
  uint64_t store_resets = stats.store_resets;
  for (ClassId klass : goal_classes) {
    store_resets += controller.measure_store(klass).condition_resets();
  }
  const uint64_t lp_starts = stats.lp_warm_starts + stats.lp_cold_starts;
  const uint64_t bytes = after.bytes - before.bytes;
  const net::PageDirectory& directory = system.directory();
  uint64_t cached_pages = 0;
  for (PageId page = 0; page < system.database().num_pages(); ++page) {
    cached_pages += directory.CopyCount(page) > 0 ? 1 : 0;
  }
  result.mean_copies =
      cached_pages == 0 ? 1.0
                        : static_cast<double>(directory.total_cached_pages()) /
                              static_cast<double>(cached_pages);

  const auto count = [](uint64_t n) { return static_cast<double>(n); };
  result.counts = {
      {"sim.events", count(result.events)},
      {"cache.local_hit_share", share(level_delta(StorageLevel::kLocalBuffer))},
      {"cache.remote_hit_share", share(result.remote_fetches)},
      {"cache.disk_share", share(level_delta(StorageLevel::kLocalDisk) +
                                 level_delta(StorageLevel::kRemoteDisk))},
      {"net.messages", count(result.messages)},
      {"net.bytes", count(bytes)},
      {"net.partition_dropped",
       count(after.partition_dropped - before.partition_dropped)},
      {"net.protocol_share",
       count(after.protocol_bytes - before.protocol_bytes) / count(bytes)},
      {"storage.disk_busy_share", disk_busy / system.num_nodes()},
      {"storage.corrupt_detected", count(system.corrupt_detected())},
      {"storage.repairs_replica", count(system.repairs_replica())},
      {"storage.pages_lost", count(system.pages_lost())},
      {"storage.pages_scrubbed", count(system.pages_scrubbed())},
      {"core.ctrl_checks", count(stats.checks)},
      {"core.lp_warm_share",
       lp_starts == 0 ? 0.0 : count(stats.lp_warm_starts) / count(lp_starts)},
      {"core.store_resets", count(store_resets)},
      {"core.fetch_fallbacks",
       count(after.fetch_fallbacks - before.fetch_fallbacks)},
      {"core.crashes", count(after.crashes - before.crashes)},
      {"core.failovers", count(after.failovers - before.failovers)},
      {"core.failed_op_share",
       count(result.crash_aborted + result.retries_exhausted) /
           count(result.attempted)},
      {"txn.commits", count(commits)},
      {"txn.deaths", count(after.deaths - before.deaths)},
      {"txn.invalidations", count(after.invalidations - before.invalidations)},
      {"txn.commit_ms",
       commits == 0
           ? 0.0
           : (after.commit_ms_sum - before.commit_ms_sum) / count(commits)},
      {"obs.registry_kb_per_interval",
       RegistryBytes(system.registry()) / 1024.0 /
           count(system.registry().history().size())},
  };
  return result;
}

}  // namespace memgoal::bench::suite
