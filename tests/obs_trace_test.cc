#include "obs/trace.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/system.h"
#include "obs/latency_budget.h"
#include "workload/spec.h"

namespace memgoal::obs {
namespace {

std::vector<std::string> EventLines(const Tracer& tracer) {
  std::string json;
  tracer.AppendJson(&json);
  std::vector<std::string> lines;
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  EXPECT_GE(lines.size(), 2u);
  EXPECT_EQ(lines.front(), "{\"traceEvents\":[");
  EXPECT_EQ(lines.back(), "]}");
  return std::vector<std::string>(lines.begin() + 1, lines.end() - 1);
}

std::string StripTrailingComma(std::string line) {
  if (!line.empty() && line.back() == ',') line.pop_back();
  return line;
}

// Extracts the numeric value following `"key":` on a trace-event line;
// returns false when the key is absent.
bool EventNumber(const std::string& line, const char* key, double* out) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  const size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  *out = std::strtod(line.c_str() + pos + needle.size(), nullptr);
  return true;
}

// One page access's track: its `access` span and the phase spans under it,
// in trace microseconds.
struct AccessTrack {
  bool has_access = false;  // false when the access was cut short
  double access_us = 0.0;
  double phase_us = 0.0;
  int phases = 0;
};

std::map<std::pair<uint64_t, uint64_t>, AccessTrack> AccessTracks(
    const Tracer& tracer) {
  std::set<std::string> phase_names;
  for (int i = 0; i < kNumBudgetPhases; ++i) {
    phase_names.insert(BudgetPhaseName(static_cast<BudgetPhase>(i)));
  }
  std::map<std::pair<uint64_t, uint64_t>, AccessTrack> tracks;
  for (const std::string& raw : EventLines(tracer)) {
    const std::string line = StripTrailingComma(raw);
    if (line.find("\"cat\":\"access\"") == std::string::npos) continue;
    double dur = 0.0, pid = 0.0, tid = 0.0;
    if (!EventNumber(line, "dur", &dur)) continue;  // instants
    EXPECT_TRUE(EventNumber(line, "pid", &pid)) << line;
    EXPECT_TRUE(EventNumber(line, "tid", &tid)) << line;
    const size_t begin = line.find("\"name\":\"") + 8;
    const std::string name = line.substr(begin, line.find('"', begin) - begin);
    AccessTrack& track =
        tracks[{static_cast<uint64_t>(pid), static_cast<uint64_t>(tid)}];
    if (name == "access") {
      for (const char* arg : {"\"class\":", "\"page\":", "\"level\":",
                              "\"hit\":"}) {
        EXPECT_NE(line.find(arg), std::string::npos) << line;
      }
      track.has_access = true;
      track.access_us = dur;
    } else {
      EXPECT_TRUE(phase_names.count(name) == 1) << line;
      track.phase_us += dur;
      ++track.phases;
    }
  }
  return tracks;
}

// Printed durations round to 1e-3 μs, so a sum over a track's spans may be
// off by that much per span.
double PrintTolerance(const AccessTrack& track) {
  return 1e-3 * (track.phases + 1);
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer;
  tracer.Complete("x", "access", 0, 1, 0.0, 1.0);
  tracer.Instant("y", "access", 0, 1, 0.5);
  tracer.SetProcessName(0, "node0");
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(TracerTest, EmitsChromeTraceEventFields) {
  Tracer tracer;
  tracer.Enable(true);
  tracer.SetProcessName(0, "node0");
  const uint64_t track = tracer.NextTrack();
  tracer.Complete("fetch", "access", 0, track, 1.5, 3.5,
                  "{\"target\":2}");
  tracer.Instant("timeout", "access", 0, track, 2.0);

  const std::vector<std::string> events = EventLines(tracer);
  ASSERT_EQ(events.size(), 3u);
  // Complete event: sim-ms exported as trace microseconds, with duration.
  EXPECT_NE(events[1].find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(events[1].find("\"ts\":1500.000"), std::string::npos);
  EXPECT_NE(events[1].find("\"dur\":2000.000"), std::string::npos);
  EXPECT_NE(events[1].find("\"args\":{\"target\":2}"), std::string::npos);
  // Instant events need the scope field or the viewers drop them.
  EXPECT_NE(events[2].find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(events[2].find("\"s\":\"t\""), std::string::npos);
}

// The ISSUE's schema gate: every event of a real traced simulation must
// carry ph/ts/pid/tid/name, and every line must be valid on its own (the
// line-per-event layout is the contract the CI artifact check scans).
TEST(TracerTest, SimulationTraceSatisfiesEventSchema) {
  core::SystemConfig config;
  config.num_nodes = 2;
  config.cache_bytes_per_node = 1u << 20;
  config.db_pages = 500;
  config.observation_interval_ms = 1000.0;
  config.seed = 3;
  core::ClusterSystem system(config);
  workload::ClassSpec goal;
  goal.id = 1;
  goal.goal_rt_ms = 8.0;
  goal.pages = {0, 250};
  goal.mean_interarrival_ms = 30.0;
  workload::ClassSpec nogoal;
  nogoal.id = 0;
  nogoal.pages = {250, 500};
  nogoal.mean_interarrival_ms = 30.0;
  system.AddClass(goal);
  system.AddClass(nogoal);

  Tracer tracer;
  tracer.Enable(true);
  system.SetTracer(&tracer);
  system.Start();
  system.RunIntervals(3);
  ASSERT_GT(tracer.size(), 100u);  // access + net spans from a real run

  bool saw_access = false;
  bool saw_net = false;
  for (const std::string& raw : EventLines(tracer)) {
    const std::string line = StripTrailingComma(raw);
    ASSERT_FALSE(line.empty());
    // Each line is one complete JSON object.
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    for (const char* key : {"\"ph\":", "\"ts\":", "\"pid\":", "\"tid\":",
                            "\"name\":"}) {
      EXPECT_NE(line.find(key), std::string::npos) << line;
    }
    if (line.find("\"cat\":\"access\"") != std::string::npos) {
      saw_access = true;
    }
    if (line.find("\"cat\":\"net\"") != std::string::npos) saw_net = true;
  }
  EXPECT_TRUE(saw_access);
  EXPECT_TRUE(saw_net);

  // The trace explains the budget: with no fault, every instant of an
  // access lies in one of its phase spans.
  int accesses = 0;
  for (const auto& [key, track] : AccessTracks(tracer)) {
    if (!track.has_access) continue;
    ++accesses;
    EXPECT_NEAR(track.phase_us, track.access_us, PrintTolerance(track))
        << "track (" << key.first << "," << key.second << ")";
  }
  EXPECT_GT(accesses, 0);
}

// Composed faults: a gray episode that forces hedged remote reads, plus a
// partition cut landing mid-request. The span contract under that overlap:
// every complete span is balanced (non-negative duration) and spans sharing
// a track are properly nested — a request whose fetch was cut off mid-
// flight must still close its access span and its phase spans (cpu, fetch
// wait, backoff, disk and net wait/service) in LIFO order, never leaving a
// dangling or interleaved span — and an access's phases never claim more
// time than the access took.
TEST(TracerTest, ComposedFaultSpansStayBalancedAndNested) {
  core::SystemConfig config;
  config.num_nodes = 3;
  config.cache_bytes_per_node = 1u << 20;
  config.db_pages = 600;
  config.observation_interval_ms = 1000.0;
  config.seed = 11;
  // Node 1 serves everything 30x slower for 2s..6s: remote fetches homed
  // there blow their deadline and hedge to the next replica.
  config.faults.degradation_script = {{2000.0, 1, /*begin=*/true, 30.0},
                                      {6000.0, 1, /*begin=*/false}};
  // Node 2 is cut off 4s..5s, inside the gray episode, so in-flight
  // requests lose their fetch partner mid-request.
  config.faults.partition_script = {{4000.0, {0, 0, 1}}, {5000.0, {}}};
  core::ClusterSystem system(config);
  workload::ClassSpec goal;
  goal.id = 1;
  goal.goal_rt_ms = 8.0;
  goal.pages = {0, 300};
  goal.mean_interarrival_ms = 30.0;
  workload::ClassSpec nogoal;
  nogoal.id = 0;
  nogoal.pages = {300, 600};
  nogoal.mean_interarrival_ms = 30.0;
  system.AddClass(goal);
  system.AddClass(nogoal);

  Tracer tracer;
  tracer.Enable(true);
  system.SetTracer(&tracer);
  system.Start();
  system.RunIntervals(8);
  ASSERT_GT(tracer.size(), 100u);

  struct Span {
    double begin = 0.0;
    double end = 0.0;
  };
  std::map<std::pair<uint64_t, uint64_t>, std::vector<Span>> tracks;
  bool hedged_in_episode = false;
  bool straddled_cut = false;
  constexpr double kCutUs = 4000.0 * 1000.0;  // cut instant in trace μs
  for (const std::string& raw : EventLines(tracer)) {
    const std::string line = StripTrailingComma(raw);
    double ts = 0.0;
    if (!EventNumber(line, "ts", &ts)) continue;  // metadata events
    if (line.find("\"name\":\"hedge\"") != std::string::npos &&
        ts >= 2000.0 * 1000.0 && ts <= 6000.0 * 1000.0) {
      hedged_in_episode = true;
    }
    double dur = 0.0;
    if (!EventNumber(line, "dur", &dur)) continue;  // instants have none
    // Balanced: a complete span never closes before it opened.
    EXPECT_GE(dur, 0.0) << line;
    double pid = 0.0, tid = 0.0;
    ASSERT_TRUE(EventNumber(line, "pid", &pid)) << line;
    ASSERT_TRUE(EventNumber(line, "tid", &tid)) << line;
    if (line.find("\"name\":\"access\"") != std::string::npos &&
        ts < kCutUs && ts + dur > kCutUs) {
      straddled_cut = true;  // a request in flight when the cut landed
    }
    tracks[{static_cast<uint64_t>(pid), static_cast<uint64_t>(tid)}]
        .push_back({ts, ts + dur});
  }
  EXPECT_TRUE(hedged_in_episode);
  EXPECT_TRUE(straddled_cut);

  // Nesting: spans sharing a track are pairwise disjoint or contained.
  // The ts/dur fields print at fixed precision, so allow their rounding.
  constexpr double kEps = 2e-3;
  for (auto& [key, spans] : tracks) {
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.begin != b.begin ? a.begin < b.begin : a.end > b.end;
    });
    for (size_t i = 1; i < spans.size(); ++i) {
      const Span& prev = spans[i - 1];
      const Span& cur = spans[i];
      const bool disjoint = cur.begin >= prev.end - kEps;
      const bool nested = cur.end <= prev.end + kEps;
      EXPECT_TRUE(disjoint || nested)
          << "partially overlapping spans on track (" << key.first << ","
          << key.second << "): [" << prev.begin << "," << prev.end
          << ") vs [" << cur.begin << "," << cur.end << ")";
    }
  }

  int accesses = 0;
  for (const auto& [key, track] : AccessTracks(tracer)) {
    if (!track.has_access) continue;
    ++accesses;
    EXPECT_LE(track.phase_us, track.access_us + PrintTolerance(track))
        << "track (" << key.first << "," << key.second << ")";
  }
  EXPECT_GT(accesses, 0);
}

TEST(TracerTest, DisabledTracerOnSystemLeavesRunUntouched) {
  // Two identical runs, one with a disabled tracer attached: the access
  // counters must match exactly (the branch-on-bool path is a pure no-op).
  auto run = [](bool attach) {
    core::SystemConfig config;
    config.num_nodes = 2;
    config.cache_bytes_per_node = 1u << 20;
    config.db_pages = 500;
    config.observation_interval_ms = 1000.0;
    config.seed = 5;
    auto system = std::make_unique<core::ClusterSystem>(config);
    workload::ClassSpec goal;
    goal.id = 1;
    goal.goal_rt_ms = 8.0;
    goal.pages = {0, 250};
    goal.mean_interarrival_ms = 30.0;
    workload::ClassSpec nogoal;
    nogoal.id = 0;
    nogoal.pages = {250, 500};
    nogoal.mean_interarrival_ms = 30.0;
    system->AddClass(goal);
    system->AddClass(nogoal);
    Tracer tracer;
    if (attach) system->SetTracer(&tracer);
    system->Start();
    system->RunIntervals(2);
    std::array<uint64_t, 4> levels = system->counters(1).by_level;
    EXPECT_EQ(tracer.size(), 0u);
    return levels;
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace memgoal::obs
