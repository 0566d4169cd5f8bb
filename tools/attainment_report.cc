// attainment_report — renders a memgoal_sim --attainment-out JSONL file,
// and optionally the same run's --decision-log, as a per-class markdown
// summary (CI uploads the result as a workflow artifact next to the raw
// JSONL).
//
//   attainment_report attainment.jsonl [decisions.jsonl] > attainment.md
//
// Input: one JSON object per line. The attainment file's "type":"budget"
// rows carry the per-(class, node, interval) response-time budget
// decomposition; the decision log's records with "miss_card":true carry
// the goal-miss root-cause cards, counted per class and dominant phase
// (without a decision log every class reads 0 misses). The parser here is
// deliberately minimal — it only consumes what AttainmentTracker and
// DecisionRecord emit.

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/latency_budget.h"

namespace {

using memgoal::obs::BudgetPhase;
using memgoal::obs::BudgetPhaseName;
using memgoal::obs::kNumBudgetPhases;

// Finds `"key":` in `line` and parses the value as a double. Returns false
// when the key is absent. Sufficient for the flat objects both inputs hold
// (no nested objects, and string values are enum-like names that never
// contain a quoted key).
bool FindNumber(const std::string& line, const char* key, double* out) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  const size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  *out = std::strtod(line.c_str() + pos + needle.size(), nullptr);
  return true;
}

bool FindString(const std::string& line, const char* key, std::string* out) {
  std::string needle = "\"";
  needle += key;
  needle += "\":\"";
  const size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  const size_t begin = pos + needle.size();
  const size_t end = line.find('"', begin);
  if (end == std::string::npos) return false;
  out->assign(line, begin, end - begin);
  return true;
}

struct ClassTotals {
  uint64_t requests = 0;
  double rt_sum_ms = 0.0;
  double phase_ms[kNumBudgetPhases] = {};
  uint64_t miss_cards = 0;
  std::map<std::string, uint64_t> miss_dominants;
};

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2 && argc != 3) {
    std::fprintf(stderr, "usage: %s <attainment.jsonl> [decisions.jsonl]\n",
                 argv[0]);
    return 1;
  }

  std::map<uint32_t, ClassTotals> classes;
  int intervals = 0;
  // argv[1] holds the budget rows, argv[2] (a decision log) the miss cards.
  for (int arg = 1; arg < argc; ++arg) {
    const bool decisions = arg == 2;
    std::ifstream in(argv[arg]);
    if (!in) {
      std::fprintf(stderr, "error: cannot open %s\n", argv[arg]);
      return 1;
    }
    std::string line;
    int line_no = 0;
    // Integer fields are read as doubles and cast: a value the cast cannot
    // represent is an input error, not undefined behaviour.
    const auto count = [&](const char* key, double max,
                           std::optional<uint64_t>* out) {
      double value = 0.0;
      if (!FindNumber(line, key, &value)) return true;
      if (!std::isfinite(value) || value < 0.0 || value > max) {
        std::fprintf(stderr,
                     "error: %s:%d: \"%s\" is not a number in [0, %.0f]\n",
                     argv[arg], line_no, key, max);
        return false;
      }
      *out = static_cast<uint64_t>(value);
      return true;
    };
    while (std::getline(in, line)) {
      ++line_no;
      std::optional<uint64_t> klass, interval, requests;
      // The interval bound leaves room for the count of intervals below; up
      // to 2^53 every request count is exact in the double it was read as.
      if (!count("class", UINT32_MAX, &klass) ||
          !count("interval", INT32_MAX - 1, &interval) ||
          !count("requests", 0x1p53, &requests)) {
        return 1;
      }
      if (!klass.has_value()) continue;
      if (decisions && line.find("\"miss_card\":true") == std::string::npos) {
        continue;  // a record without a card adds no class row
      }
      ClassTotals& totals = classes[static_cast<uint32_t>(*klass)];
      if (decisions) {
        ++totals.miss_cards;
        std::string dominant;
        if (FindString(line, "miss_dominant_phase", &dominant)) {
          ++totals.miss_dominants[dominant];
        }
      } else if (line.find("\"type\":\"budget\"") != std::string::npos) {
        if (interval.has_value() &&
            static_cast<int>(*interval) + 1 > intervals) {
          intervals = static_cast<int>(*interval) + 1;
        }
        if (requests.has_value()) totals.requests += *requests;
        double value = 0.0;
        if (FindNumber(line, "rt_sum_ms", &value)) totals.rt_sum_ms += value;
        for (int i = 0; i < kNumBudgetPhases; ++i) {
          char key[48];
          std::snprintf(key, sizeof(key), "%s_ms",
                        BudgetPhaseName(static_cast<BudgetPhase>(i)));
          if (FindNumber(line, key, &value)) totals.phase_ms[i] += value;
        }
      }
    }
  }

  std::printf("# Goal-attainment report\n\n");
  std::printf("%d observation intervals, %zu classes with budget data.\n\n",
              intervals, classes.size());
  std::printf("| class | requests | mean rt (ms) |");
  for (int i = 0; i < kNumBudgetPhases; ++i) {
    std::printf(" %s %% |", BudgetPhaseName(static_cast<BudgetPhase>(i)));
  }
  std::printf(" miss cards |\n");
  std::printf("|---|---|---|");
  for (int i = 0; i < kNumBudgetPhases; ++i) std::printf("---|");
  std::printf("---|\n");
  for (const auto& [klass, totals] : classes) {
    const double mean_rt =
        totals.requests > 0
            ? totals.rt_sum_ms / static_cast<double>(totals.requests)
            : 0.0;
    std::printf("| %u | %" PRIu64 " | %.3f |", klass, totals.requests,
                mean_rt);
    for (int i = 0; i < kNumBudgetPhases; ++i) {
      const double share = totals.rt_sum_ms > 0.0
                               ? 100.0 * totals.phase_ms[i] / totals.rt_sum_ms
                               : 0.0;
      std::printf(" %.1f |", share);
    }
    std::printf(" %" PRIu64 " |\n", totals.miss_cards);
  }
  bool any_misses = false;
  for (const auto& [klass, totals] : classes) {
    if (totals.miss_cards == 0) continue;
    if (!any_misses) {
      std::printf("\n## Goal misses by dominant phase\n\n");
      any_misses = true;
    }
    std::printf("- class %u:", klass);
    for (const auto& [phase, count] : totals.miss_dominants) {
      std::printf(" %s=%" PRIu64, phase.c_str(), count);
    }
    std::printf("\n");
  }
  return 0;
}
