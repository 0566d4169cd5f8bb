#include "obs/latency_budget.h"

#include <cinttypes>
#include <cstdio>

namespace memgoal::obs {

const char* BudgetPhaseName(BudgetPhase phase) {
  switch (phase) {
    case BudgetPhase::kCpuWait:
      return "cpu_wait";
    case BudgetPhase::kCpuService:
      return "cpu_service";
    case BudgetPhase::kDiskWait:
      return "disk_wait";
    case BudgetPhase::kDiskService:
      return "disk_service";
    case BudgetPhase::kNetWait:
      return "net_wait";
    case BudgetPhase::kNetTransfer:
      return "net_transfer";
    case BudgetPhase::kFetchWait:
      return "fetch_wait";
    case BudgetPhase::kBackoff:
      return "backoff";
    case BudgetPhase::kLockWait:
      return "lock_wait";
    case BudgetPhase::kWalForce:
      return "wal_force";
    case BudgetPhase::kResidual:
      return "residual";
  }
  return "?";
}

void RequestProbe::Instant(const char* name, double ts_ms, const char* arg,
                           uint64_t value) {
  if (tracer_ == nullptr) return;
  char args[64];
  std::snprintf(args, sizeof(args), "{\"%s\":%" PRIu64 "}", arg, value);
  tracer_->Instant(name, "access", pid_, track_, ts_ms, args);
}

void RequestProbe::EndAccess(double now_ms, uint32_t klass, uint32_t page,
                             const char* level, bool hit) {
  // One addition per phase per access: the request budget sums per-access
  // subtotals, however many spans each access split a phase into.
  if (budget_ != nullptr) {
    for (int i = 0; i < kNumBudgetPhases; ++i) {
      budget_->phase_ms[i] += access_.phase_ms[i];
    }
  }
  if (tracer_ != nullptr) {
    char args[112];
    std::snprintf(args, sizeof(args),
                  "{\"class\":%u,\"page\":%u,\"level\":\"%s\",\"hit\":%s}",
                  static_cast<unsigned>(klass), static_cast<unsigned>(page),
                  level, hit ? "true" : "false");
    tracer_->Complete("access", "access", pid_, track_, access_begin_ms_,
                      now_ms, args);
  }
}

}  // namespace memgoal::obs
