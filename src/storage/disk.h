#ifndef MEMGOAL_STORAGE_DISK_H_
#define MEMGOAL_STORAGE_DISK_H_

#include <cstdint>
#include <string>

#include "obs/latency_budget.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace memgoal::storage {

/// Service-time model of a mid-1990s SCSI disk (the paper's per-node disk,
/// §7.1): average seek + half-rotation latency + transfer time for one
/// page. The disk serves requests FCFS with a single arm.
class Disk {
 public:
  struct Params {
    /// Average seek time in ms.
    double avg_seek_ms = 8.0;
    /// Full rotation time in ms (7200 rpm ~ 8.33 ms); average rotational
    /// latency is half of this.
    double rotation_ms = 8.33;
    /// Sustained media transfer rate in MB/s.
    double transfer_mb_per_s = 10.0;
  };

  Disk(sim::Simulator* simulator, const Params& params, uint32_t page_bytes,
       std::string name);

  /// Deterministic per-page service time implied by the parameters.
  sim::SimTime PageServiceTime() const { return page_service_ms_; }

  /// Reads one page: queues FCFS at the arm and holds it for the service
  /// time. A non-null `probe` receives the disk wait and service.
  sim::Task<void> ReadPage(obs::RequestProbe* probe = nullptr);

  /// Writes one page (same service-time model; used by the WAL force and
  /// the FORCE-at-commit policy of the transactional layer).
  sim::Task<void> WritePage();

  /// Service-time multiplier while the owning node is degraded (gray
  /// failure); 1.0 = healthy. Affects requests that start after the call.
  void SetSlowdown(double factor) { arm_.SetSlowdown(factor); }
  double slowdown() const { return arm_.slowdown(); }

  uint64_t reads_completed() const { return reads_completed_; }
  uint64_t writes_completed() const { return writes_completed_; }
  const sim::Resource& resource() const { return arm_; }

 private:
  sim::Simulator* simulator_;
  sim::SimTime page_service_ms_;
  sim::Resource arm_;
  uint64_t reads_completed_ = 0;
  uint64_t writes_completed_ = 0;
};

}  // namespace memgoal::storage

#endif  // MEMGOAL_STORAGE_DISK_H_
