#include "obs/decision_log.h"

#include <cinttypes>
#include <cstdio>

namespace memgoal::obs {

namespace {

void AppendDouble(std::string* out, double v) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  *out += buffer;
}

void AppendField(std::string* out, const char* key, double v) {
  *out += ",\"";
  *out += key;
  *out += "\":";
  AppendDouble(out, v);
}

void AppendField(std::string* out, const char* key, int v) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), ",\"%s\":%d", key, v);
  *out += buffer;
}

void AppendField(std::string* out, const char* key, uint64_t v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), ",\"%s\":%" PRIu64, key, v);
  *out += buffer;
}

void AppendField(std::string* out, const char* key, bool v) {
  *out += ",\"";
  *out += key;
  *out += v ? "\":true" : "\":false";
}

/// Values are controlled enum-ish strings ("accepted", "goal_relaxed", ...),
/// never free text, so no escaping is needed.
void AppendField(std::string* out, const char* key, const std::string& v) {
  *out += ",\"";
  *out += key;
  *out += "\":\"";
  *out += v;
  *out += '"';
}

void AppendField(std::string* out, const char* key,
                 const std::vector<double>& v) {
  *out += ",\"";
  *out += key;
  *out += "\":[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) *out += ',';
    AppendDouble(out, v[i]);
  }
  *out += ']';
}

}  // namespace

std::string DecisionRecord::ToJson() const {
  std::string out;
  out.reserve(1024);
  out += "{\"interval\":";
  {
    char buffer[16];
    std::snprintf(buffer, sizeof(buffer), "%d", interval);
    out += buffer;
  }
  AppendField(&out, "sim_time_ms", sim_time_ms);
  AppendField(&out, "class", klass);
  AppendField(&out, "home", home);
  AppendField(&out, "epoch", epoch);
  AppendField(&out, "lease_held", lease_held);
  AppendField(&out, "observed_rt_k", observed_rt_k);
  AppendField(&out, "has_observed_rt_0", has_observed_rt_0);
  AppendField(&out, "observed_rt_0", observed_rt_0);
  AppendField(&out, "goal_rt", goal_rt);
  AppendField(&out, "tolerance_delta", tolerance_delta);
  AppendField(&out, "measure_outcome", measure_outcome);
  AppendField(&out, "measured_allocation", measured_allocation);
  AppendField(&out, "condition_estimate", condition_estimate);
  AppendField(&out, "store_ready", store_ready);
  AppendField(&out, "store_size", store_size);
  AppendField(&out, "has_planes", has_planes);
  AppendField(&out, "grad_k", grad_k);
  AppendField(&out, "intercept_k", intercept_k);
  AppendField(&out, "grad_0", grad_0);
  AppendField(&out, "intercept_0", intercept_0);
  AppendField(&out, "upper_bounds", upper_bounds);
  AppendField(&out, "lp_run", lp_run);
  AppendField(&out, "lp_mode", lp_mode);
  AppendField(&out, "relaxed_rung", relaxed_rung);
  AppendField(&out, "relaxed_goal_rt", relaxed_goal_rt);
  AppendField(&out, "lp_optimal", lp.optimal);
  AppendField(&out, "lp_infeasible", lp.infeasible);
  AppendField(&out, "lp_unbounded", lp.unbounded);
  AppendField(&out, "lp_iteration_limit", lp.iteration_limit);
  AppendField(&out, "lp_relaxed_retries", lp.relaxed_retries);
  AppendField(&out, "lp_warm", lp_warm);
  AppendField(&out, "lp_warm_basis", lp_warm_basis);
  AppendField(&out, "lp_allocation", lp_allocation);
  AppendField(&out, "shipped_allocation", shipped_allocation);
  AppendField(&out, "granted_allocation", granted_allocation);
  if (miss_card) {
    AppendField(&out, "miss_card", miss_card);
    AppendField(&out, "miss_dominant_phase", miss_dominant_phase);
    AppendField(&out, "miss_dominant_ms", miss_dominant_ms);
    AppendField(&out, "miss_phase_ms", miss_phase_ms);
    AppendField(&out, "miss_baseline_rt", miss_baseline_rt);
    AppendField(&out, "miss_deviation_ms", miss_deviation_ms);
    AppendField(&out, "miss_nodes_down", miss_nodes_down);
    AppendField(&out, "miss_nodes_degraded", miss_nodes_degraded);
    AppendField(&out, "miss_partitioned", miss_partitioned);
    AppendField(&out, "miss_corruptions", miss_corruptions);
  }
  out += '}';
  return out;
}

void DecisionLog::WriteJsonl(std::FILE* out) const {
  for (const DecisionRecord& record : records_) {
    const std::string line = record.ToJson();
    std::fwrite(line.data(), 1, line.size(), out);
    std::fputc('\n', out);
  }
}

}  // namespace memgoal::obs
