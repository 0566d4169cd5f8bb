#ifndef MEMGOAL_OBS_LATENCY_BUDGET_H_
#define MEMGOAL_OBS_LATENCY_BUDGET_H_

#include <cstdint>

#include "obs/trace.h"

namespace memgoal::obs {

/// Phases a completed request's simulated response time is attributed to.
/// The decomposition follows the resources a request can block on in the
/// modeled NOW: CPU and disk split into queue wait vs. service, the shared
/// network medium into queue wait vs. transmission+latency, plus the
/// request-level phases the access path introduces on top — the hedged
/// remote-fetch window and the post-fetch backoff. kLockWait and kWalForce
/// read 0: transactions are not budgeted. kResidual absorbs whatever the
/// instrumented spans did not cover (e.g. inline repair work), so a budget
/// always sums to the measured response time exactly by construction.
enum class BudgetPhase : int {
  kCpuWait = 0,
  kCpuService,
  kDiskWait,
  kDiskService,
  kNetWait,
  kNetTransfer,
  kFetchWait,
  kBackoff,
  kLockWait,
  kWalForce,
  kResidual,
};

inline constexpr int kNumBudgetPhases = 11;

/// Stable export name of a phase ("cpu_wait", "fetch_wait", ...).
const char* BudgetPhaseName(BudgetPhase phase);

/// One request's latency budget: sim-milliseconds per phase. Plain
/// accumulator struct, filled through the request's RequestProbe.
struct RequestBudget {
  double phase_ms[kNumBudgetPhases] = {};

  void Add(BudgetPhase phase, double ms) {
    phase_ms[static_cast<int>(phase)] += ms;
  }

  /// Sum over every phase including the residual, in fixed phase order
  /// (deterministic float summation).
  double Sum() const {
    double total = 0.0;
    for (double v : phase_ms) total += v;
    return total;
  }

  /// Sum of the attributed phases (everything but kResidual).
  double AttributedSum() const {
    double total = 0.0;
    for (int i = 0; i < kNumBudgetPhases - 1; ++i) total += phase_ms[i];
    return total;
  }

  /// Closes the budget against the measured response time: the residual
  /// becomes total_rt_ms minus the attributed sum. A (tiny) negative
  /// residual means over-attribution and is kept as-is so the property
  /// test can see it.
  void SetResidual(double total_rt_ms) {
    phase_ms[static_cast<int>(BudgetPhase::kResidual)] =
        total_rt_ms - AttributedSum();
  }
};

/// The one instrumentation hook of a request, built by its issuer only when
/// a sink is on (a null probe costs each instrumented site one pointer
/// test). Each Span() of a page access feeds both sinks: the access's phase
/// sums, added to the request budget when the access ends, and, when
/// tracing, a span named after the phase on the access's trace track. It
/// only records times its callers read, so a probed run stays bit-identical
/// to a bare one.
class RequestProbe {
 public:
  /// Either sink may be null. A non-null `tracer` must be enabled; the
  /// probe's events land in trace process `pid` (the requesting node).
  RequestProbe(RequestBudget* budget, Tracer* tracer, uint32_t pid)
      : budget_(budget), tracer_(tracer), pid_(pid) {}

  /// Opens a page access at `now_ms` (zeroed phase sums, fresh track).
  void BeginAccess(double now_ms) {
    access_ = RequestBudget();
    access_begin_ms_ = now_ms;
    if (tracer_ != nullptr) track_ = tracer_->NextTrack();
  }

  /// Attributes `ms` of `phase`, starting at `begin_ms`, to the open access.
  void Span(BudgetPhase phase, double begin_ms, double ms) {
    access_.Add(phase, ms);
    if (tracer_ != nullptr) {
      tracer_->Complete(BudgetPhaseName(phase), "access", pid_, track_,
                        begin_ms, begin_ms + ms);
    }
  }

  /// Trace-only instant on the access's track with one numeric argument.
  void Instant(const char* name, double ts_ms, const char* arg,
               uint64_t value);

  /// Closes the open access at `now_ms`: adds its phase sums to the request
  /// budget and, when tracing, emits the `access` span with the access's
  /// class, page, serving storage level and whether the buffer probe hit.
  void EndAccess(double now_ms, uint32_t klass, uint32_t page,
                 const char* level, bool hit);

 private:
  RequestBudget* budget_;
  Tracer* tracer_;
  uint32_t pid_;
  uint64_t track_ = 0;
  double access_begin_ms_ = 0.0;
  RequestBudget access_;
};

}  // namespace memgoal::obs

#endif  // MEMGOAL_OBS_LATENCY_BUDGET_H_
