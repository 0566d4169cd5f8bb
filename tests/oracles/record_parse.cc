#include "oracles/record_parse.h"

#include <cstdint>
#include <cstdlib>
#include <utility>
#include <vector>

namespace memgoal::obs {

namespace {

/// Returns the position just past `"key":`, or npos.
size_t FindValue(const std::string& json, const char* key) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  const size_t pos = json.find(needle);
  if (pos == std::string::npos) return std::string::npos;
  return pos + needle.size();
}

bool ParseDouble(const std::string& json, const char* key, double* out) {
  const size_t pos = FindValue(json, key);
  if (pos == std::string::npos) return false;
  char* end = nullptr;
  *out = std::strtod(json.c_str() + pos, &end);
  return end != json.c_str() + pos;
}

bool ParseInt(const std::string& json, const char* key, int* out) {
  double v = 0.0;
  if (!ParseDouble(json, key, &v)) return false;
  *out = static_cast<int>(v);
  return true;
}

bool ParseU64(const std::string& json, const char* key, uint64_t* out) {
  const size_t pos = FindValue(json, key);
  if (pos == std::string::npos) return false;
  char* end = nullptr;
  *out = std::strtoull(json.c_str() + pos, &end, 10);
  return end != json.c_str() + pos;
}

bool ParseBool(const std::string& json, const char* key, bool* out) {
  const size_t pos = FindValue(json, key);
  if (pos == std::string::npos) return false;
  if (json.compare(pos, 4, "true") == 0) {
    *out = true;
    return true;
  }
  if (json.compare(pos, 5, "false") == 0) {
    *out = false;
    return true;
  }
  return false;
}

bool ParseString(const std::string& json, const char* key, std::string* out) {
  size_t pos = FindValue(json, key);
  if (pos == std::string::npos || pos >= json.size() || json[pos] != '"') {
    return false;
  }
  ++pos;
  const size_t close = json.find('"', pos);
  if (close == std::string::npos) return false;
  *out = json.substr(pos, close - pos);
  return true;
}

bool ParseArray(const std::string& json, const char* key,
                std::vector<double>* out) {
  size_t pos = FindValue(json, key);
  if (pos == std::string::npos || pos >= json.size() || json[pos] != '[') {
    return false;
  }
  out->clear();
  ++pos;
  while (pos < json.size() && json[pos] != ']') {
    char* end = nullptr;
    const double v = std::strtod(json.c_str() + pos, &end);
    if (end == json.c_str() + pos) return false;
    out->push_back(v);
    pos = static_cast<size_t>(end - json.c_str());
    if (pos < json.size() && json[pos] == ',') ++pos;
  }
  return pos < json.size();
}

}  // namespace

bool ParseDecisionRecord(const std::string& json, DecisionRecord* out) {
  DecisionRecord rec;
  if (!ParseInt(json, "interval", &rec.interval)) return false;
  if (!ParseDouble(json, "sim_time_ms", &rec.sim_time_ms)) return false;
  if (!ParseInt(json, "class", &rec.klass)) return false;
  if (!ParseInt(json, "home", &rec.home)) return false;
  if (!ParseU64(json, "epoch", &rec.epoch)) return false;
  if (!ParseBool(json, "lease_held", &rec.lease_held)) return false;
  if (!ParseDouble(json, "observed_rt_k", &rec.observed_rt_k)) return false;
  if (!ParseBool(json, "has_observed_rt_0", &rec.has_observed_rt_0)) {
    return false;
  }
  if (!ParseDouble(json, "observed_rt_0", &rec.observed_rt_0)) return false;
  if (!ParseDouble(json, "goal_rt", &rec.goal_rt)) return false;
  if (!ParseDouble(json, "tolerance_delta", &rec.tolerance_delta)) {
    return false;
  }
  if (!ParseString(json, "measure_outcome", &rec.measure_outcome)) {
    return false;
  }
  if (!ParseArray(json, "measured_allocation", &rec.measured_allocation)) {
    return false;
  }
  if (!ParseDouble(json, "condition_estimate", &rec.condition_estimate)) {
    return false;
  }
  if (!ParseBool(json, "store_ready", &rec.store_ready)) return false;
  if (!ParseInt(json, "store_size", &rec.store_size)) return false;
  if (!ParseBool(json, "has_planes", &rec.has_planes)) return false;
  if (!ParseArray(json, "grad_k", &rec.grad_k)) return false;
  if (!ParseDouble(json, "intercept_k", &rec.intercept_k)) return false;
  if (!ParseArray(json, "grad_0", &rec.grad_0)) return false;
  if (!ParseDouble(json, "intercept_0", &rec.intercept_0)) return false;
  if (!ParseArray(json, "upper_bounds", &rec.upper_bounds)) return false;
  if (!ParseBool(json, "lp_run", &rec.lp_run)) return false;
  if (!ParseString(json, "lp_mode", &rec.lp_mode)) return false;
  if (!ParseInt(json, "relaxed_rung", &rec.relaxed_rung)) return false;
  if (!ParseDouble(json, "relaxed_goal_rt", &rec.relaxed_goal_rt)) {
    return false;
  }
  if (!ParseU64(json, "lp_optimal", &rec.lp.optimal)) return false;
  if (!ParseU64(json, "lp_infeasible", &rec.lp.infeasible)) return false;
  if (!ParseU64(json, "lp_unbounded", &rec.lp.unbounded)) return false;
  // Optional (absent from records written before the revised simplex):
  // defaults stand in when the keys are missing.
  ParseU64(json, "lp_iteration_limit", &rec.lp.iteration_limit);
  if (!ParseU64(json, "lp_relaxed_retries", &rec.lp.relaxed_retries)) {
    return false;
  }
  ParseBool(json, "lp_warm", &rec.lp_warm);
  ParseString(json, "lp_warm_basis", &rec.lp_warm_basis);
  if (!ParseArray(json, "lp_allocation", &rec.lp_allocation)) return false;
  if (!ParseArray(json, "shipped_allocation", &rec.shipped_allocation)) {
    return false;
  }
  if (!ParseArray(json, "granted_allocation", &rec.granted_allocation)) {
    return false;
  }
  // Optional miss card (absent from pre-attainment records and from every
  // check that met its goal): the ignore-return idiom leaves defaults.
  ParseBool(json, "miss_card", &rec.miss_card);
  if (rec.miss_card) {
    ParseString(json, "miss_dominant_phase", &rec.miss_dominant_phase);
    ParseDouble(json, "miss_dominant_ms", &rec.miss_dominant_ms);
    ParseArray(json, "miss_phase_ms", &rec.miss_phase_ms);
    ParseDouble(json, "miss_baseline_rt", &rec.miss_baseline_rt);
    ParseDouble(json, "miss_deviation_ms", &rec.miss_deviation_ms);
    ParseU64(json, "miss_nodes_down", &rec.miss_nodes_down);
    ParseU64(json, "miss_nodes_degraded", &rec.miss_nodes_degraded);
    ParseBool(json, "miss_partitioned", &rec.miss_partitioned);
    ParseU64(json, "miss_corruptions", &rec.miss_corruptions);
  }
  *out = std::move(rec);
  return true;
}

}  // namespace memgoal::obs

namespace memgoal::la {

bool ParseSimplexBasis(const std::string& text, SimplexBasis* out) {
  out->status.clear();
  out->status.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case 'L':
        out->status.push_back(SimplexBasis::VarStatus::kAtLower);
        break;
      case 'U':
        out->status.push_back(SimplexBasis::VarStatus::kAtUpper);
        break;
      case 'B':
        out->status.push_back(SimplexBasis::VarStatus::kBasic);
        break;
      default:
        out->status.clear();
        return false;
    }
  }
  return true;
}

}  // namespace memgoal::la
