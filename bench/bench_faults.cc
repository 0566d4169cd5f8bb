// Degradation and recovery under node faults. A binding goal is installed
// and node N-1 suffers a fault at a fixed instant:
//
//  - Default (crash) mode: the node fail-stops and recovers after a swept
//    outage duration; we report goal satisfaction before / during / after
//    the outage, how many intervals the controller needs to re-satisfy the
//    goal after recovery, and the disk-fallback traffic the outage induced.
//    Duration 0 is the fault-free baseline. An optional bursty best-effort
//    loss process can be stacked on top (burst=1).
//
//  - Partition mode (partition=1): node N-1 stays up but is cut off from
//    the rest of the cluster for a swept episode length. Cross-cut
//    messages of every traffic class are dropped at the boundary, so the
//    isolated node serves from its own cache and disk while the
//    coordinator — homed on the majority side, which keeps its quorum
//    lease — optimizes over the reachable nodes. The invariant auditor
//    runs live in every trial; the gate requires the goal class to
//    re-converge after the heal with zero audit violations, so the
//    --quick run doubles as a partition-tolerance smoke gate.
//
//  - Gray mode (gray=1): the node stays up but serves everything slower by
//    a swept factor for a fixed episode. Hedged remote reads and
//    health-ranked replica selection route around its buffers, but its
//    disk partition has no replica: at 50x the victim's disk saturates and
//    operations homed there queue up for the whole episode, which no
//    memory-management policy can hide. The scenario gate therefore checks
//    the *lasting* damage: after the episode lifts and the backlog drains,
//    the goal class must re-converge into its tolerance band and the mean
//    no-goal response time over the settled tail must come back within 2x
//    of the fault-free baseline (factor 1) — i.e. the episode neither
//    poisons the fitted planes nor leaves the victim shunned forever. The
//    episode itself is reported separately (satisfied_episode,
//    nogoal_rt_episode, the victim disk's busy/wait p99). The process
//    exits nonzero if the gate fails, so the --quick run doubles as a
//    smoke gate.
//
//  - Corruption mode (corrupt=1): a continuous stochastic bit-rot process
//    (swept per-node MTTC) runs against verify-on-read, quarantine +
//    re-fetch, replica-directed repair and the idle-bandwidth scrubber.
//    The invariant auditor runs live in every trial; the gate requires
//    zero audit violations, that no detectably-corrupt page was ever
//    served, that the disk repair ledger balances at end of run, and that
//    the detection/quarantine/repair/scrub paths were all exercised at the
//    highest rate — so the --quick run doubles as an integrity smoke gate.
//
// Usage: bench_faults [key=value ...] [--quick] [--threads=N]
//        (intervals=60 seed=1 crash_at_ms=100000 burst=0 gray=0
//         degrade_at_ms=60000 degrade_duration_ms=50000 partition=0
//         partition_at_ms=100000 corrupt=0 threads=0)

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/experiment.h"
#include "common/config.h"
#include "common/stats.h"
#include "core/goal_controller.h"
#include "net/network.h"
#include "obs/attainment.h"
#include "sim/invariant_auditor.h"

namespace memgoal::bench {
namespace {

struct OutageRow {
  double satisfied_pre = 0.0;
  double satisfied_outage = 0.0;
  double satisfied_post = 0.0;
  int reconverge = -1;
  uint64_t fetch_fallbacks = 0;
  uint64_t ops_failed = 0;
  uint64_t store_resets = 0;
  uint64_t suppressed_crashes = 0;
  uint64_t miss_cards_node_down = 0;
};

// Counts the goal class's miss cards whose fault snapshot satisfies `pred`
// — the root-cause report's attribution of a goal miss to the injected
// fault, which each mode's gate requires to fire at least once.
template <typename Pred>
uint64_t CountAttributedMisses(const obs::AttainmentTracker& attainment,
                               Pred pred) {
  uint64_t count = 0;
  for (const obs::AttainmentTracker::MissCard& card : attainment.cards()) {
    if (card.klass == 1 && pred(card)) ++count;
  }
  return count;
}

struct GrayRow {
  double satisfied_pre = 0.0;
  double satisfied_episode = 0.0;
  double satisfied_post = 0.0;
  double satisfied_tail = 0.0;
  int reconverge = -1;
  double nogoal_rt_episode = 0.0;
  double nogoal_rt_tail = 0.0;
  uint64_t fetch_fallbacks = 0;
  uint64_t outlier_rejections = 0;
  uint64_t lp_relaxed_retries = 0;
  double victim_disk_busy_p99 = 0.0;
  double victim_disk_wait_p99 = 0.0;
  uint64_t miss_cards_degraded = 0;
};

/// Intervals of the settled tail the gray gate compares across trials.
constexpr int kGrayTail = 10;

// The gray-failure scenario: node N-1 serves everything `factor` times
// slower between degrade_at and degrade_at + duration; factor 1 is the
// fault-free baseline the 2x no-goal check compares against.
int RunGray(double degrade_at, double duration, const Setup& base,
            double goal, int intervals, TrialRunner* runner, bool quick,
            BenchReporter* reporter) {
  const std::vector<double> factors =
      quick ? std::vector<double>{1.0, 50.0}
            : std::vector<double>{1.0, 10.0, 50.0};

  const std::vector<GrayRow> rows = runner->Run(
      static_cast<int>(factors.size()), [&](int trial) {
        const double factor = factors[static_cast<size_t>(trial)];
        Setup setup = base;
        const uint32_t victim = setup.num_nodes - 1;
        if (factor > 1.0) {
          setup.faults.degradation_script = {
              {degrade_at, victim, /*begin=*/true, factor},
              {degrade_at + duration, victim, /*begin=*/false}};
        }
        std::unique_ptr<core::ClusterSystem> system = BuildSystem(setup);
        obs::AttainmentTracker attainment;
        attainment.Enable(true);
        system->SetAttainment(&attainment);
        system->SetGoal(1, goal);

        const double interval_ms = setup.observation_interval_ms;
        const int episode_first = static_cast<int>(degrade_at / interval_ms);
        const int episode_last =
            static_cast<int>((degrade_at + duration) / interval_ms);
        const int tail_first = intervals - kGrayTail;
        int pre_satisfied = 0, pre_counted = 0;
        int epi_satisfied = 0, epi_counted = 0;
        int post_satisfied = 0, post_counted = 0;
        int tail_satisfied = 0;
        int reconverge = -1;
        double epi_rt_sum = 0.0, tail_rt_sum = 0.0;
        int epi_rt_counted = 0, tail_rt_counted = 0;
        system->SetIntervalCallback([&](const core::IntervalRecord& record) {
          if (record.index < 5) return;  // cold-cache ramp
          const bool in_episode = record.index >= episode_first &&
                                  record.index <= episode_last;
          const auto& nogoal = record.ForClass(kNoGoalClass);
          if (nogoal.ops_completed > 0) {
            // The same interval sets accumulate in every trial, so the
            // episode/tail means are directly comparable across factors.
            if (in_episode) {
              epi_rt_sum += nogoal.observed_rt_ms;
              ++epi_rt_counted;
            }
            if (record.index >= tail_first) {
              tail_rt_sum += nogoal.observed_rt_ms;
              ++tail_rt_counted;
            }
          }
          const auto& m = record.ForClass(1);
          if (record.index >= tail_first) tail_satisfied += m.satisfied;
          if (factor > 1.0 && in_episode) {
            epi_satisfied += m.satisfied ? 1 : 0;
            ++epi_counted;
          } else if (factor > 1.0 && record.index > episode_last) {
            post_satisfied += m.satisfied ? 1 : 0;
            ++post_counted;
            if (reconverge < 0 && m.satisfied) {
              reconverge = record.index - episode_last;
            }
          } else {
            pre_satisfied += m.satisfied ? 1 : 0;
            ++pre_counted;
          }
        });
        system->Start();
        system->RunIntervals(intervals);
        reporter->AddEvents(system->simulator().events_processed(),
                            system->simulator().Now());

        const auto& controller =
            dynamic_cast<const core::GoalOrientedController&>(
                system->controller());
        auto frac = [](int num, int den) {
          return den > 0 ? static_cast<double>(num) / den : 0.0;
        };
        GrayRow row;
        row.satisfied_pre = frac(pre_satisfied, pre_counted);
        row.satisfied_episode = frac(epi_satisfied, epi_counted);
        row.satisfied_post = frac(post_satisfied, post_counted);
        row.satisfied_tail = frac(tail_satisfied, kGrayTail);
        row.reconverge = reconverge;
        row.nogoal_rt_episode =
            epi_rt_counted > 0 ? epi_rt_sum / epi_rt_counted : 0.0;
        row.nogoal_rt_tail =
            tail_rt_counted > 0 ? tail_rt_sum / tail_rt_counted : 0.0;
        row.fetch_fallbacks =
            system->counters(1).fetch_fallbacks +
            system->counters(kNoGoalClass).fetch_fallbacks;
        row.outlier_rejections =
            controller.measure_store(1).outlier_rejections();
        row.lp_relaxed_retries = controller.stats().lp_relaxed_retries;
        const sim::Resource& disk = system->node(victim).disk().resource();
        row.victim_disk_busy_p99 = disk.BusyQuantile(0.99);
        row.victim_disk_wait_p99 = disk.WaitQuantile(0.99);
        row.miss_cards_degraded = CountAttributedMisses(
            attainment, [](const obs::AttainmentTracker::MissCard& card) {
              return card.nodes_degraded > 0;
            });
        return row;
      });

  std::printf(
      "factor,satisfied_pre,satisfied_episode,satisfied_post,satisfied_tail,"
      "reconverge_intervals,nogoal_rt_episode_ms,nogoal_rt_tail_ms,"
      "fetch_fallbacks,outlier_rejections,lp_relaxed_retries,"
      "victim_disk_busy_p99_ms,victim_disk_wait_p99_ms,"
      "miss_cards_degraded\n");
  for (size_t i = 0; i < factors.size(); ++i) {
    const GrayRow& row = rows[i];
    std::printf(
        "%.0f,%.2f,%.2f,%.2f,%.2f,%d,%.3f,%.3f,%llu,%llu,%llu,%.2f,%.2f,"
        "%llu\n",
        factors[i], row.satisfied_pre, row.satisfied_episode,
        row.satisfied_post, row.satisfied_tail, row.reconverge,
        row.nogoal_rt_episode, row.nogoal_rt_tail,
        static_cast<unsigned long long>(row.fetch_fallbacks),
        static_cast<unsigned long long>(row.outlier_rejections),
        static_cast<unsigned long long>(row.lp_relaxed_retries),
        row.victim_disk_busy_p99, row.victim_disk_wait_p99,
        static_cast<unsigned long long>(row.miss_cards_degraded));
  }

  // Scenario gate, on the worst sweep factor: the goal class re-converges
  // into its tolerance band after the episode, and the settled no-goal mean
  // comes back within 2x of the fault-free baseline.
  const GrayRow& baseline = rows.front();
  const GrayRow& worst = rows.back();
  bool ok = true;
  if (worst.reconverge < 0 || worst.satisfied_tail < 0.4) {
    std::printf("# FAIL: goal class did not re-converge after the episode "
                "(reconverge=%d, satisfied_tail=%.2f)\n",
                worst.reconverge, worst.satisfied_tail);
    ok = false;
  }
  const double ratio = baseline.nogoal_rt_tail > 0.0
                           ? worst.nogoal_rt_tail / baseline.nogoal_rt_tail
                           : 0.0;
  std::printf("# settled no-goal RT ratio (worst/fault-free): %.3f\n", ratio);
  if (ratio > 2.0) {
    std::printf("# FAIL: settled no-goal mean RT more than 2x the "
                "fault-free baseline\n");
    ok = false;
  }
  // Root-cause attribution gate: at least one of the episode's goal misses
  // must carry the degraded node in its miss card's fault snapshot.
  if (worst.miss_cards_degraded == 0) {
    std::printf("# FAIL: no goal miss attributed to the degraded node "
                "(miss_cards_degraded=0)\n");
    ok = false;
  }
  std::fflush(stdout);
  reporter->AddMetric("gray_nogoal_rt_tail_ratio", ratio);
  reporter->AddMetric("gray_satisfied_tail", worst.satisfied_tail);
  reporter->AddMetric("gray_miss_cards_degraded",
                      static_cast<double>(worst.miss_cards_degraded));
  return ok ? 0 : 1;
}

struct PartitionRow {
  double satisfied_pre = 0.0;
  double satisfied_cut = 0.0;
  double satisfied_post = 0.0;
  double satisfied_tail = 0.0;
  int reconverge = -1;
  uint64_t msgs_dropped = 0;
  uint64_t reconciled_hints = 0;
  uint64_t fetch_fallbacks = 0;
  uint64_t leases_lost = 0;
  uint64_t checks_skipped = 0;
  uint64_t stale_rejected = 0;
  uint64_t audit_violations = 0;
  uint64_t miss_cards_partitioned = 0;
};

// The partition scenario: node N-1 is cut off from {0..N-2} between cut_at
// and cut_at + duration; duration 0 is the fault-free baseline. The
// coordinator keeps its quorum lease throughout (it reaches N-1 of N live
// nodes), so the interesting dynamics are the cross-cut message loss, the
// heat-hint backlog the heal has to reconcile, and whether the fitted
// planes survive the isolated node's unobservable intervals.
int RunPartition(double cut_at, const Setup& base, double goal,
                 int intervals, TrialRunner* runner, bool quick,
                 BenchReporter* reporter) {
  const std::vector<double> durations =
      quick ? std::vector<double>{0.0, 30000.0}
            : std::vector<double>{0.0, 30000.0, 60000.0, 120000.0};

  const std::vector<PartitionRow> rows = runner->Run(
      static_cast<int>(durations.size()), [&](int trial) {
        const double duration = durations[static_cast<size_t>(trial)];
        Setup setup = base;
        const uint32_t victim = setup.num_nodes - 1;
        if (duration > 0.0) {
          std::vector<uint32_t> groups(setup.num_nodes, 0);
          groups[victim] = 1;
          setup.faults.partition_script = {{cut_at, groups},
                                           {cut_at + duration, {}}};
        }
        std::unique_ptr<core::ClusterSystem> system = BuildSystem(setup);
        sim::InvariantAuditor auditor;
        system->EnableAuditor(&auditor);
        obs::AttainmentTracker attainment;
        attainment.Enable(true);
        system->SetAttainment(&attainment);
        system->SetGoal(1, goal);

        const double interval_ms = setup.observation_interval_ms;
        const int cut_first = static_cast<int>(cut_at / interval_ms);
        const int cut_last =
            static_cast<int>((cut_at + duration) / interval_ms);
        const int tail_first = intervals - kGrayTail;
        int pre_satisfied = 0, pre_counted = 0;
        int cut_satisfied = 0, cut_counted = 0;
        int post_satisfied = 0, post_counted = 0;
        int tail_satisfied = 0;
        int reconverge = -1;
        system->SetIntervalCallback([&](const core::IntervalRecord& record) {
          if (record.index < 5) return;  // cold-cache ramp
          const auto& m = record.ForClass(1);
          if (record.index >= tail_first) tail_satisfied += m.satisfied;
          if (duration > 0.0 && record.index >= cut_first &&
              record.index <= cut_last) {
            cut_satisfied += m.satisfied ? 1 : 0;
            ++cut_counted;
          } else if (duration > 0.0 && record.index > cut_last) {
            post_satisfied += m.satisfied ? 1 : 0;
            ++post_counted;
            if (reconverge < 0 && m.satisfied) {
              reconverge = record.index - cut_last;
            }
          } else {
            pre_satisfied += m.satisfied ? 1 : 0;
            ++pre_counted;
          }
        });
        system->Start();
        system->RunIntervals(intervals);
        reporter->AddEvents(system->simulator().events_processed(),
                            system->simulator().Now());

        const auto& controller =
            dynamic_cast<const core::GoalOrientedController&>(
                system->controller());
        auto frac = [](int num, int den) {
          return den > 0 ? static_cast<double>(num) / den : 0.0;
        };
        PartitionRow row;
        row.satisfied_pre = frac(pre_satisfied, pre_counted);
        row.satisfied_cut = frac(cut_satisfied, cut_counted);
        row.satisfied_post = frac(post_satisfied, post_counted);
        row.satisfied_tail = frac(tail_satisfied, kGrayTail);
        row.reconverge = reconverge;
        row.msgs_dropped =
            system->network().total_messages_partition_dropped();
        row.reconciled_hints = system->reconcile_hints_sent();
        row.fetch_fallbacks =
            system->counters(1).fetch_fallbacks +
            system->counters(kNoGoalClass).fetch_fallbacks;
        row.leases_lost = controller.stats().leases_lost;
        row.checks_skipped = controller.stats().checks_skipped_no_lease;
        row.stale_rejected = system->grants_rejected_stale_epoch();
        row.audit_violations = auditor.violations_found();
        row.miss_cards_partitioned = CountAttributedMisses(
            attainment, [](const obs::AttainmentTracker::MissCard& card) {
              return card.partitioned;
            });
        return row;
      });

  std::printf(
      "cut_ms,satisfied_pre,satisfied_cut,satisfied_post,satisfied_tail,"
      "reconverge_intervals,partition_msgs_dropped,reconciled_hints,"
      "fetch_fallbacks,leases_lost,checks_skipped_no_lease,"
      "stale_grants_rejected,audit_violations,miss_cards_partitioned\n");
  for (size_t i = 0; i < durations.size(); ++i) {
    const PartitionRow& row = rows[i];
    std::printf("%.0f,%.2f,%.2f,%.2f,%.2f,%d,%llu,%llu,%llu,%llu,%llu,%llu,"
                "%llu,%llu\n",
                durations[i], row.satisfied_pre, row.satisfied_cut,
                row.satisfied_post, row.satisfied_tail, row.reconverge,
                static_cast<unsigned long long>(row.msgs_dropped),
                static_cast<unsigned long long>(row.reconciled_hints),
                static_cast<unsigned long long>(row.fetch_fallbacks),
                static_cast<unsigned long long>(row.leases_lost),
                static_cast<unsigned long long>(row.checks_skipped),
                static_cast<unsigned long long>(row.stale_rejected),
                static_cast<unsigned long long>(row.audit_violations),
                static_cast<unsigned long long>(row.miss_cards_partitioned));
  }

  // Scenario gate, on the longest cut: the goal class re-converges after
  // the heal, the cut actually exercised the partition path, and no
  // invariant audit fired in any trial.
  const PartitionRow& worst = rows.back();
  bool ok = true;
  if (worst.reconverge < 0 || worst.satisfied_tail < 0.4) {
    std::printf("# FAIL: goal class did not re-converge after the heal "
                "(reconverge=%d, satisfied_tail=%.2f)\n",
                worst.reconverge, worst.satisfied_tail);
    ok = false;
  }
  if (worst.msgs_dropped == 0 || worst.reconciled_hints == 0) {
    std::printf("# FAIL: partition path not exercised (msgs_dropped=%llu, "
                "reconciled_hints=%llu)\n",
                static_cast<unsigned long long>(worst.msgs_dropped),
                static_cast<unsigned long long>(worst.reconciled_hints));
    ok = false;
  }
  uint64_t total_violations = 0;
  for (const PartitionRow& row : rows) total_violations += row.audit_violations;
  if (total_violations > 0) {
    std::printf("# FAIL: %llu invariant violations across trials\n",
                static_cast<unsigned long long>(total_violations));
    ok = false;
  }
  // Root-cause attribution gate: at least one goal miss during the cut
  // must carry the active partition in its miss card's fault snapshot.
  if (worst.miss_cards_partitioned == 0) {
    std::printf("# FAIL: no goal miss attributed to the partition "
                "(miss_cards_partitioned=0)\n");
    ok = false;
  }
  std::fflush(stdout);
  reporter->AddMetric("partition_satisfied_tail", worst.satisfied_tail);
  reporter->AddMetric("partition_reconverge_intervals",
                      static_cast<double>(worst.reconverge));
  reporter->AddMetric("partition_audit_violations",
                      static_cast<double>(total_violations));
  reporter->AddMetric("partition_miss_cards_partitioned",
                      static_cast<double>(worst.miss_cards_partitioned));
  return ok ? 0 : 1;
}

struct CorruptRow {
  double satisfied = 0.0;
  double satisfied_tail = 0.0;
  uint64_t injected = 0;
  uint64_t detected = 0;
  uint64_t corrupt_served = 0;
  uint64_t latent_served = 0;
  uint64_t quarantine_decisions = 0;
  uint64_t frames_quarantined = 0;
  uint64_t repairs_replica = 0;
  uint64_t pages_lost = 0;
  uint64_t pages_scrubbed = 0;
  uint64_t scrub_skipped_busy = 0;
  uint64_t disk_detections = 0;
  uint64_t ladders_open = 0;
  uint64_t audit_violations = 0;
  uint64_t miss_cards_corrupt = 0;
};

// The corruption scenario: a continuous stochastic bit-rot process (per-node
// MTTC) with verify-on-read, quarantine + re-fetch, replica-directed repair
// and the idle-bandwidth scrubber all active, swept over the corruption
// rate. MTTC 0 is the fault-free baseline. The invariant auditor runs live
// in every trial; the gate requires that no corrupt page was ever served,
// that the quarantine/repair ledgers balance (auditor-checked at every
// interval boundary), and that detection, quarantine, repair and scrub were
// all actually exercised at the highest rate.
int RunCorrupt(const Setup& base, double goal, int intervals,
               TrialRunner* runner, bool quick, BenchReporter* reporter) {
  const std::vector<double> mttcs =
      quick ? std::vector<double>{0.0, 8000.0}
            : std::vector<double>{0.0, 30000.0, 8000.0, 3000.0};

  const std::vector<CorruptRow> rows = runner->Run(
      static_cast<int>(mttcs.size()), [&](int trial) {
        const double mttc = mttcs[static_cast<size_t>(trial)];
        Setup setup = base;
        setup.faults.mttc_ms = mttc;
        setup.corrupt_latent_fraction = 0.1;
        setup.scrub_interval_ms = 500.0;
        std::unique_ptr<core::ClusterSystem> system = BuildSystem(setup);
        sim::InvariantAuditor auditor;
        system->EnableAuditor(&auditor);
        obs::AttainmentTracker attainment;
        attainment.Enable(true);
        system->SetAttainment(&attainment);
        system->SetGoal(1, goal);

        const int tail_first = intervals - kGrayTail;
        int satisfied = 0, counted = 0, tail_satisfied = 0;
        system->SetIntervalCallback([&](const core::IntervalRecord& record) {
          if (record.index < 5) return;  // cold-cache ramp
          const auto& m = record.ForClass(1);
          satisfied += m.satisfied ? 1 : 0;
          ++counted;
          if (record.index >= tail_first) tail_satisfied += m.satisfied;
        });
        system->Start();
        system->RunIntervals(intervals);
        reporter->AddEvents(system->simulator().events_processed(),
                            system->simulator().Now());

        CorruptRow row;
        row.satisfied =
            counted > 0 ? static_cast<double>(satisfied) / counted : 0.0;
        row.satisfied_tail = static_cast<double>(tail_satisfied) / kGrayTail;
        row.injected = system->fault_injector().stats().corruptions;
        const core::IntegrityService::Ledger& ledger =
            system->integrity().ledger();
        row.detected = ledger.detected;
        row.corrupt_served = ledger.served;
        row.latent_served = ledger.latent_served;
        row.quarantine_decisions = ledger.quarantine_decisions;
        row.frames_quarantined = system->integrity().frames_quarantined();
        row.repairs_replica = ledger.repairs_replica;
        row.pages_lost = ledger.pages_lost;
        row.pages_scrubbed = ledger.pages_scrubbed;
        row.scrub_skipped_busy = ledger.scrub_skipped_busy;
        row.disk_detections = ledger.disk_detections;
        row.ladders_open = ledger.ladders_open;
        row.audit_violations = auditor.violations_found();
        row.miss_cards_corrupt = CountAttributedMisses(
            attainment, [](const obs::AttainmentTracker::MissCard& card) {
              return card.corruptions > 0;
            });
        return row;
      });

  std::printf(
      "mttc_ms,satisfied,satisfied_tail,corrupt_injected,corrupt_detected,"
      "corrupt_served,latent_served,quarantine_decisions,frames_quarantined,"
      "repairs_replica,pages_lost,pages_scrubbed,scrub_skipped_busy,"
      "audit_violations,miss_cards_corrupt\n");
  for (size_t i = 0; i < mttcs.size(); ++i) {
    const CorruptRow& row = rows[i];
    std::printf(
        "%.0f,%.2f,%.2f,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,"
        "%llu,%llu\n",
        mttcs[i], row.satisfied, row.satisfied_tail,
        static_cast<unsigned long long>(row.injected),
        static_cast<unsigned long long>(row.detected),
        static_cast<unsigned long long>(row.corrupt_served),
        static_cast<unsigned long long>(row.latent_served),
        static_cast<unsigned long long>(row.quarantine_decisions),
        static_cast<unsigned long long>(row.frames_quarantined),
        static_cast<unsigned long long>(row.repairs_replica),
        static_cast<unsigned long long>(row.pages_lost),
        static_cast<unsigned long long>(row.pages_scrubbed),
        static_cast<unsigned long long>(row.scrub_skipped_busy),
        static_cast<unsigned long long>(row.audit_violations),
        static_cast<unsigned long long>(row.miss_cards_corrupt));
  }

  bool ok = true;
  uint64_t total_violations = 0, total_corrupt_served = 0;
  for (const CorruptRow& row : rows) {
    total_violations += row.audit_violations;
    total_corrupt_served += row.corrupt_served;
  }
  if (total_violations > 0) {
    std::printf("# FAIL: %llu invariant violations across trials\n",
                static_cast<unsigned long long>(total_violations));
    ok = false;
  }
  if (total_corrupt_served > 0) {
    std::printf("# FAIL: %llu detectably-corrupt pages served\n",
                static_cast<unsigned long long>(total_corrupt_served));
    ok = false;
  }
  const CorruptRow& worst = rows.back();
  if (worst.detected == 0 || worst.quarantine_decisions == 0 ||
      worst.repairs_replica + worst.pages_lost == 0 ||
      worst.pages_scrubbed == 0) {
    std::printf("# FAIL: corruption paths not exercised (detected=%llu, "
                "quarantined=%llu, repairs+lost=%llu, scrubbed=%llu)\n",
                static_cast<unsigned long long>(worst.detected),
                static_cast<unsigned long long>(worst.quarantine_decisions),
                static_cast<unsigned long long>(worst.repairs_replica +
                                                worst.pages_lost),
                static_cast<unsigned long long>(worst.pages_scrubbed));
    ok = false;
  }
  // End-of-run ledger: every disk detection was resolved by a replica
  // repair or a declared loss (no ladder still open once the run drained,
  // and no silent leak).
  if (worst.disk_detections !=
      worst.repairs_replica + worst.pages_lost + worst.ladders_open) {
    std::printf("# FAIL: disk repair ledger leaks (detections=%llu, "
                "repairs=%llu, lost=%llu, open=%llu)\n",
                static_cast<unsigned long long>(worst.disk_detections),
                static_cast<unsigned long long>(worst.repairs_replica),
                static_cast<unsigned long long>(worst.pages_lost),
                static_cast<unsigned long long>(worst.ladders_open));
    ok = false;
  }
  if (worst.satisfied_tail < 0.4) {
    std::printf("# FAIL: goal class lost its goal under corruption "
                "(satisfied_tail=%.2f)\n",
                worst.satisfied_tail);
    ok = false;
  }
  // Root-cause attribution gate: at least one goal miss must land while
  // corruptions accrued since the previous check — the miss card's fault
  // snapshot ties the miss to the active bit-rot process.
  if (worst.miss_cards_corrupt == 0) {
    std::printf("# FAIL: no goal miss attributed to the corruption process "
                "(miss_cards_corrupt=0)\n");
    ok = false;
  }
  std::fflush(stdout);
  reporter->AddMetric("corrupt_satisfied_tail", worst.satisfied_tail);
  reporter->AddMetric("corrupt_served",
                      static_cast<double>(total_corrupt_served));
  reporter->AddMetric("corrupt_audit_violations",
                      static_cast<double>(total_violations));
  reporter->AddMetric("corrupt_repairs_replica",
                      static_cast<double>(worst.repairs_replica));
  reporter->AddMetric("corrupt_pages_lost",
                      static_cast<double>(worst.pages_lost));
  reporter->AddMetric("corrupt_miss_cards",
                      static_cast<double>(worst.miss_cards_corrupt));
  return ok ? 0 : 1;
}

int Run(int argc, char** argv) {
  common::Config args;
  if (!args.ParseArgs(argc, argv)) {
    std::fprintf(stderr, "%s\n", args.error().c_str());
    return 1;
  }
  const bool quick = args.GetBool("quick", false);
  const bool gray = args.GetInt("gray", 0) != 0;
  const bool partition = args.GetInt("partition", 0) != 0;
  const bool corrupt = args.GetInt("corrupt", 0) != 0;
  // The quick gray run needs room after the episode for the victim's
  // backlog to drain before the settled tail is sampled.
  const int intervals = static_cast<int>(
      args.GetInt("intervals", quick ? (gray ? 48 : 36) : (gray ? 72 : 60)));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  const double crash_at = args.GetDouble("crash_at_ms", 100000.0);
  const double partition_at = args.GetDouble("partition_at_ms", 100000.0);
  const bool burst = args.GetInt("burst", 0) != 0;
  // Gray-mode knobs, read unconditionally so the strict flag check below
  // knows them. At 50x the victim's disk is saturated, so the whole
  // episode's arrivals pile up as backlog that drains open-loop afterwards
  // (~2.5 intervals of drain per episode interval): the episode length
  // bounds how soon the tail settles.
  const double degrade_at = args.GetDouble("degrade_at_ms", 60000.0);
  const double degrade_duration =
      args.GetDouble("degrade_duration_ms", quick ? 25000.0 : 50000.0);
  BenchReporter reporter("faults", &args);
  if (!args.RejectUnknownFlags()) {
    std::fprintf(stderr, "%s\n", args.error().c_str());
    return 1;
  }
  TrialRunner runner(static_cast<int>(args.GetInt("threads", 0)));
  runner.SetProfiler(reporter.profiler());
  reporter.AddSetup("seed", static_cast<double>(seed));
  reporter.AddSetup("intervals", intervals);
  reporter.AddSetup("gray", gray ? 1.0 : 0.0);
  reporter.AddSetup("partition", partition ? 1.0 : 0.0);
  reporter.AddSetup("corrupt", corrupt ? 1.0 : 0.0);

  Setup base;
  base.seed = seed;
  const GoalBand band =
      CalibrateGoalBand(base, 1, &runner, quick ? 12 : 18);
  const double goal = band.lo + (band.hi - band.lo) / 3.0;
  std::printf("# binding goal: %.3f ms (band [%.3f, %.3f])\n", goal, band.lo,
              band.hi);

  if (gray) {
    const int rc = RunGray(degrade_at, degrade_duration, base, goal,
                           intervals, &runner, quick, &reporter);
    reporter.Finish();
    return rc;
  }
  if (partition) {
    const int rc = RunPartition(partition_at, base, goal, intervals, &runner,
                                quick, &reporter);
    reporter.Finish();
    return rc;
  }
  if (corrupt) {
    const int rc =
        RunCorrupt(base, goal, intervals, &runner, quick, &reporter);
    reporter.Finish();
    return rc;
  }

  // Each outage duration is an independent trial on the runner's pool.
  const std::vector<double> outages =
      quick ? std::vector<double>{0.0, 30000.0}
            : std::vector<double>{0.0, 30000.0, 60000.0, 120000.0};
  const std::vector<OutageRow> rows = runner.Run(
      static_cast<int>(outages.size()), [&](int trial) {
        const double outage_ms = outages[static_cast<size_t>(trial)];
        Setup setup = base;
        const uint32_t victim = setup.num_nodes - 1;
        if (outage_ms > 0.0) {
          setup.faults.script = {
              {crash_at, victim, /*crash=*/true},
              {crash_at + outage_ms, victim, /*crash=*/false}};
        }
        if (burst) {
          setup.network.loss_model = net::LossModel::kBurst;
          setup.network.burst_good_to_bad = 0.05;
          setup.network.burst_bad_to_good = 0.5;
          setup.network.burst_loss_bad = 0.8;
        }
        std::unique_ptr<core::ClusterSystem> system = BuildSystem(setup);
        obs::AttainmentTracker attainment;
        attainment.Enable(true);
        system->SetAttainment(&attainment);
        system->SetGoal(1, goal);

        const double interval_ms = setup.observation_interval_ms;
        const int outage_first = static_cast<int>(crash_at / interval_ms);
        const int outage_last =
            static_cast<int>((crash_at + outage_ms) / interval_ms);
        int pre_satisfied = 0, pre_counted = 0;
        int out_satisfied = 0, out_counted = 0;
        int post_satisfied = 0, post_counted = 0;
        int reconverge = -1;
        uint64_t ops_failed = 0;
        system->SetIntervalCallback([&](const core::IntervalRecord& record) {
          const auto& m = record.ForClass(1);
          ops_failed += m.ops_failed;
          if (record.index < 5) return;  // cold-cache ramp
          if (outage_ms > 0.0 && record.index >= outage_first &&
              record.index <= outage_last) {
            out_satisfied += m.satisfied ? 1 : 0;
            ++out_counted;
          } else if (outage_ms > 0.0 && record.index > outage_last) {
            post_satisfied += m.satisfied ? 1 : 0;
            ++post_counted;
            if (reconverge < 0 && m.satisfied) {
              reconverge = record.index - outage_last;
            }
          } else {
            pre_satisfied += m.satisfied ? 1 : 0;
            ++pre_counted;
          }
        });
        system->Start();
        system->RunIntervals(intervals);
        reporter.AddEvents(system->simulator().events_processed(),
                           system->simulator().Now());

        const auto& controller =
            dynamic_cast<const core::GoalOrientedController&>(
                system->controller());
        auto frac = [](int num, int den) {
          return den > 0 ? static_cast<double>(num) / den : 0.0;
        };
        OutageRow row;
        row.satisfied_pre = frac(pre_satisfied, pre_counted);
        row.satisfied_outage = frac(out_satisfied, out_counted);
        row.satisfied_post = frac(post_satisfied, post_counted);
        row.reconverge = reconverge;
        row.fetch_fallbacks =
            system->counters(1).fetch_fallbacks +
            system->counters(kNoGoalClass).fetch_fallbacks;
        row.ops_failed = ops_failed;
        row.store_resets = controller.stats().store_resets;
        row.suppressed_crashes = system->fault_injector().stats().suppressed;
        row.miss_cards_node_down = CountAttributedMisses(
            attainment, [](const obs::AttainmentTracker::MissCard& card) {
              return card.nodes_down > 0;
            });
        return row;
      });

  std::printf(
      "outage_ms,satisfied_pre,satisfied_outage,satisfied_post,"
      "reconverge_intervals,fetch_fallbacks,ops_failed,store_resets,"
      "suppressed_crashes,miss_cards_node_down\n");
  uint64_t total_suppressed = 0;
  uint64_t outage_miss_cards = 0;
  for (size_t i = 0; i < outages.size(); ++i) {
    const OutageRow& row = rows[i];
    std::printf("%.0f,%.2f,%.2f,%.2f,%d,%llu,%llu,%llu,%llu,%llu\n",
                outages[i], row.satisfied_pre, row.satisfied_outage,
                row.satisfied_post, row.reconverge,
                static_cast<unsigned long long>(row.fetch_fallbacks),
                static_cast<unsigned long long>(row.ops_failed),
                static_cast<unsigned long long>(row.store_resets),
                static_cast<unsigned long long>(row.suppressed_crashes),
                static_cast<unsigned long long>(row.miss_cards_node_down));
    total_suppressed += row.suppressed_crashes;
    if (outages[i] > 0.0) outage_miss_cards += row.miss_cards_node_down;
    char metric[48];
    std::snprintf(metric, sizeof(metric), "satisfied_post_outage_%.0f",
                  outages[i]);
    reporter.AddMetric(metric, row.satisfied_post);
  }
  reporter.AddMetric("suppressed_crashes",
                     static_cast<double>(total_suppressed));
  reporter.AddMetric("crash_miss_cards_node_down",
                     static_cast<double>(outage_miss_cards));
  // Root-cause attribution gate: some goal miss during an outage must carry
  // the downed node in its miss card's fault snapshot.
  bool ok = true;
  if (outage_miss_cards == 0) {
    std::printf("# FAIL: no goal miss attributed to the downed node "
                "(miss_cards_node_down=0 across outage trials)\n");
    ok = false;
  }
  std::fflush(stdout);
  reporter.Finish();
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace memgoal::bench

int main(int argc, char** argv) { return memgoal::bench::Run(argc, argv); }
