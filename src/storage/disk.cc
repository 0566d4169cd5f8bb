#include "storage/disk.h"

#include <utility>

#include "common/check.h"

namespace memgoal::storage {

namespace {

double ComputeServiceTime(const Disk::Params& params, uint32_t page_bytes) {
  MEMGOAL_CHECK(params.avg_seek_ms >= 0.0);
  MEMGOAL_CHECK(params.rotation_ms >= 0.0);
  MEMGOAL_CHECK(params.transfer_mb_per_s > 0.0);
  const double transfer_ms = static_cast<double>(page_bytes) /
                             (params.transfer_mb_per_s * 1e6) * 1e3;
  return params.avg_seek_ms + params.rotation_ms / 2.0 + transfer_ms;
}

}  // namespace

Disk::Disk(sim::Simulator* simulator, const Params& params,
           uint32_t page_bytes, std::string name)
    : simulator_(simulator),
      page_service_ms_(ComputeServiceTime(params, page_bytes)),
      arm_(simulator, /*capacity=*/1, std::move(name)) {}

sim::Task<void> Disk::ReadPage(obs::RequestProbe* probe) {
  const sim::SimTime queued = simulator_->Now();
  const sim::SimTime acquired = co_await arm_.Use(page_service_ms_);
  if (probe != nullptr) {
    probe->Span(obs::BudgetPhase::kDiskWait, queued, acquired - queued);
    probe->Span(obs::BudgetPhase::kDiskService, acquired,
                simulator_->Now() - acquired);
  }
  ++reads_completed_;
}

sim::Task<void> Disk::WritePage() {
  co_await arm_.Use(page_service_ms_);
  ++writes_completed_;
}

}  // namespace memgoal::storage
