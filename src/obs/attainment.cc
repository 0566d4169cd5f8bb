#include "obs/attainment.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "obs/registry.h"

namespace memgoal::obs {

void AttainmentTracker::RecordRequest(uint32_t klass, uint32_t node,
                                      double response_ms,
                                      const RequestBudget& budget) {
  if (!enabled_) return;
  Accum& accum = current_[(static_cast<uint64_t>(klass) << 32) | node];
  ++accum.requests;
  accum.rt_sum_ms += response_ms;
  for (int i = 0; i < kNumBudgetPhases; ++i) {
    accum.phase_ms[i] += budget.phase_ms[i];
  }
  ++requests_recorded_;
  const double err = std::fabs(response_ms - budget.Sum());
  if (err > max_sum_error_) max_sum_error_ = err;
}

void AttainmentTracker::OnIntervalEnd(int interval, double sim_time_ms,
                                      const std::vector<ClassSample>& samples) {
  if (!enabled_) return;

  // Finalize budget rows (sorted by (class, node) via the map order) and
  // roll the per-class totals into the miss-card attribution source.
  last_interval_.clear();
  for (const auto& [key, accum] : current_) {
    BudgetRow row;
    row.interval = interval;
    row.sim_time_ms = sim_time_ms;
    row.klass = static_cast<uint32_t>(key >> 32);
    row.node = static_cast<uint32_t>(key & 0xffffffffu);
    row.requests = accum.requests;
    row.rt_sum_ms = accum.rt_sum_ms;
    for (int i = 0; i < kNumBudgetPhases; ++i) {
      row.phase_ms[i] = accum.phase_ms[i];
    }
    rows_.push_back(row);
    Accum& klass_total = last_interval_[row.klass];
    klass_total.requests += accum.requests;
    klass_total.rt_sum_ms += accum.rt_sum_ms;
    for (int i = 0; i < kNumBudgetPhases; ++i) {
      klass_total.phase_ms[i] += accum.phase_ms[i];
    }
  }
  current_.clear();

  // Advance the SLO windows. Only intervals with a goal and at least one
  // completed operation count against the budget — an idle interval can
  // neither meet nor miss a goal.
  for (const ClassSample& sample : samples) {
    SloState& state = slo_[sample.klass];
    // Oscillation detector runs for every class (allocation churn of the
    // no-goal class is a convergence signal too).
    if (state.has_last_bytes) {
      const int sign =
          sample.dedicated_bytes > state.last_dedicated_bytes
              ? 1
              : (sample.dedicated_bytes < state.last_dedicated_bytes ? -1 : 0);
      if (sign != 0 && state.last_delta_sign != 0 &&
          sign != state.last_delta_sign) {
        ++state.oscillations;
      }
      if (sign != 0) state.last_delta_sign = sign;
    }
    state.last_dedicated_bytes = sample.dedicated_bytes;
    state.has_last_bytes = true;

    if (!sample.has_goal || sample.ops_completed == 0) continue;
    ++state.intervals_counted;
    if (sample.satisfied) {
      ++state.intervals_satisfied;
      if (state.intervals_since_miss >= 0) ++state.intervals_since_miss;
    } else {
      ++state.misses;
      state.intervals_since_miss = 0;
    }
    state.window.push_back(sample.satisfied);
    if (state.window.size() > static_cast<size_t>(kSlowWindow)) {
      state.window.pop_front();
    }
  }
}

void AttainmentTracker::RecordCheck(const DecisionRecord& record) {
  if (!enabled_) return;
  SloState& state = slo_[static_cast<uint32_t>(record.klass)];
  // A check that measured the class (goal_rt stays 0 otherwise) and did not
  // find it too slow — the controller's own comparison — refreshes the
  // converged baseline the next miss is compared against.
  if (record.goal_rt > 0.0 &&
      !(record.observed_rt_k > record.goal_rt + record.tolerance_delta)) {
    state.baseline_rts.push_back(record.observed_rt_k);
    if (state.baseline_rts.size() > static_cast<size_t>(kBaselineWindow)) {
      state.baseline_rts.pop_front();
    }
  }
}

void AttainmentTracker::RecordMiss(DecisionRecord* record) {
  const auto klass = static_cast<uint32_t>(record->klass);
  SloState& state = slo_[klass];
  double baseline_rt = 0.0;
  if (!state.baseline_rts.empty()) {
    double sum = 0.0;
    for (double rt : state.baseline_rts) sum += rt;
    baseline_rt = sum / static_cast<double>(state.baseline_rts.size());
  }
  record->miss_baseline_rt = baseline_rt;
  record->miss_deviation_ms = record->observed_rt_k - baseline_rt;

  // Without a finalized budget for the class the card names the residual
  // phase, at 0 ms.
  record->miss_phase_ms.assign(kNumBudgetPhases, 0.0);
  int dominant = static_cast<int>(BudgetPhase::kResidual);
  const auto it = last_interval_.find(klass);
  if (it != last_interval_.end() && it->second.requests > 0) {
    const double n = static_cast<double>(it->second.requests);
    for (int i = 0; i < kNumBudgetPhases; ++i) {
      record->miss_phase_ms[i] = it->second.phase_ms[i] / n;
    }
    // Dominant phase: largest mean share; first in enum order wins ties so
    // the card is deterministic.
    dominant = 0;
    for (int i = 1; i < kNumBudgetPhases; ++i) {
      if (record->miss_phase_ms[i] > record->miss_phase_ms[dominant]) {
        dominant = i;
      }
    }
  }
  record->miss_card = true;
  record->miss_dominant_phase =
      BudgetPhaseName(static_cast<BudgetPhase>(dominant));
  record->miss_dominant_ms = record->miss_phase_ms[dominant];
  ++state.miss_phases[dominant];
  ++misses_recorded_;
}

double AttainmentTracker::BurnRate(const SloState& state, int window) {
  const size_t n = std::min(state.window.size(), static_cast<size_t>(window));
  if (n == 0) return 0.0;
  size_t missed = 0;
  for (size_t i = state.window.size() - n; i < state.window.size(); ++i) {
    if (!state.window[i]) ++missed;
  }
  const double miss_fraction = static_cast<double>(missed) / static_cast<double>(n);
  return miss_fraction / kErrorBudgetFraction;
}

void AttainmentTracker::PublishTo(Registry* registry) const {
  if (!enabled_ || registry == nullptr) return;
  char name[96];
  for (const auto& [klass, accum] : last_interval_) {
    for (int i = 0; i < kNumBudgetPhases; ++i) {
      std::snprintf(name, sizeof(name), "class%u.budget.%s_ms", klass,
                    BudgetPhaseName(static_cast<BudgetPhase>(i)));
      registry->GetGauge(name)->Set(accum.phase_ms[i]);
    }
    std::snprintf(name, sizeof(name), "class%u.budget.requests", klass);
    registry->GetGauge(name)->Set(static_cast<double>(accum.requests));
  }
  for (const auto& [klass, state] : slo_) {
    if (state.intervals_counted > 0) {
      std::snprintf(name, sizeof(name), "class%u.slo.attainment", klass);
      registry->GetGauge(name)->Set(
          static_cast<double>(state.intervals_satisfied) /
          static_cast<double>(state.intervals_counted));
      std::snprintf(name, sizeof(name), "class%u.slo.error_budget_used",
                    klass);
      registry->GetGauge(name)->Set(
          static_cast<double>(state.misses) /
          (kErrorBudgetFraction *
           static_cast<double>(state.intervals_counted)));
      std::snprintf(name, sizeof(name), "class%u.slo.burn_fast", klass);
      registry->GetGauge(name)->Set(BurnRate(state, kFastWindow));
      std::snprintf(name, sizeof(name), "class%u.slo.burn_slow", klass);
      registry->GetGauge(name)->Set(BurnRate(state, kSlowWindow));
      std::snprintf(name, sizeof(name), "class%u.slo.misses", klass);
      registry->GetCounter(name)->Set(state.misses);
      std::snprintf(name, sizeof(name), "class%u.slo.intervals_since_miss",
                    klass);
      registry->GetGauge(name)->Set(
          static_cast<double>(state.intervals_since_miss));
    }
    std::snprintf(name, sizeof(name), "class%u.slo.oscillations", klass);
    registry->GetCounter(name)->Set(state.oscillations);
  }
  registry->GetCounter("attainment.miss_cards")->Set(misses_recorded_);
  registry->GetCounter("attainment.requests")->Set(requests_recorded_);
}

namespace {

void AppendDouble(std::string* out, double v) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  *out += buffer;
}

void AppendKey(std::string* out, const char* key) {
  *out += ",\"";
  *out += key;
  *out += "\":";
}

}  // namespace

void AttainmentTracker::WriteJsonl(std::FILE* out) const {
  std::string line;
  for (const BudgetRow& row : rows_) {
    line.clear();
    char head[128];
    std::snprintf(head, sizeof(head),
                  "{\"type\":\"budget\",\"interval\":%d,\"class\":%u,"
                  "\"node\":%u,\"requests\":%" PRIu64,
                  row.interval, row.klass, row.node, row.requests);
    line += head;
    AppendKey(&line, "sim_time_ms");
    AppendDouble(&line, row.sim_time_ms);
    AppendKey(&line, "rt_sum_ms");
    AppendDouble(&line, row.rt_sum_ms);
    for (int i = 0; i < kNumBudgetPhases; ++i) {
      char key[48];
      std::snprintf(key, sizeof(key), "%s_ms",
                    BudgetPhaseName(static_cast<BudgetPhase>(i)));
      AppendKey(&line, key);
      AppendDouble(&line, row.phase_ms[i]);
    }
    line += "}\n";
    std::fwrite(line.data(), 1, line.size(), out);
  }
}

void AttainmentTracker::WriteCsv(std::FILE* out) const {
  std::fprintf(out, "interval,sim_time_ms,class,node,requests,rt_sum_ms");
  for (int i = 0; i < kNumBudgetPhases; ++i) {
    std::fprintf(out, ",%s_ms", BudgetPhaseName(static_cast<BudgetPhase>(i)));
  }
  std::fputc('\n', out);
  for (const BudgetRow& row : rows_) {
    std::fprintf(out, "%d,%.3f,%u,%u,%" PRIu64 ",%.17g", row.interval,
                 row.sim_time_ms, row.klass, row.node, row.requests,
                 row.rt_sum_ms);
    for (int i = 0; i < kNumBudgetPhases; ++i) {
      std::fprintf(out, ",%.17g", row.phase_ms[i]);
    }
    std::fputc('\n', out);
  }
}

void AttainmentTracker::WriteSummary(std::FILE* out) const {
  for (const auto& [klass, state] : slo_) {
    if (state.intervals_counted == 0) continue;
    std::fprintf(out,
                 "# attainment class %u: %" PRIu64 "/%" PRIu64
                 " intervals satisfied (%.1f%%), misses=%" PRIu64
                 ", budget_used=%.2f, burn_fast=%.2f, burn_slow=%.2f, "
                 "oscillations=%" PRIu64 "\n",
                 klass, state.intervals_satisfied, state.intervals_counted,
                 100.0 * static_cast<double>(state.intervals_satisfied) /
                     static_cast<double>(state.intervals_counted),
                 state.misses,
                 static_cast<double>(state.misses) /
                     (kErrorBudgetFraction *
                      static_cast<double>(state.intervals_counted)),
                 BurnRate(state, kFastWindow), BurnRate(state, kSlowWindow),
                 state.oscillations);
  }
  // Miss-card digest: dominant phase histogram per class.
  for (const auto& [klass, state] : slo_) {
    if (std::none_of(state.miss_phases, state.miss_phases + kNumBudgetPhases,
                     [](uint64_t count) { return count > 0; })) {
      continue;
    }
    std::fprintf(out, "# miss cards class %u:", klass);
    for (int i = 0; i < kNumBudgetPhases; ++i) {
      if (state.miss_phases[i] == 0) continue;
      std::fprintf(out, " %s=%" PRIu64,
                   BudgetPhaseName(static_cast<BudgetPhase>(i)),
                   state.miss_phases[i]);
    }
    std::fputc('\n', out);
  }
}

}  // namespace memgoal::obs
