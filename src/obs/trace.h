#ifndef MEMGOAL_OBS_TRACE_H_
#define MEMGOAL_OBS_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace memgoal::obs {

/// Sim-time request tracer producing Chrome trace-event JSON, so a
/// simulation run opens directly in Perfetto (ui.perfetto.dev) or
/// chrome://tracing.
///
/// Instrumented call sites hold a `Tracer*` that is null by default; when a
/// tracer is attached but disabled, every emit reduces to one branch on a
/// bool, so tracing stays compiled in at negligible cost (the overhead gate
/// in bench_table1_overhead enforces this). Timestamps are *simulated* time:
/// callers pass sim-time milliseconds, which are exported as the trace
/// format's microseconds, so one trace tick equals one simulated nanosecond
/// of the modeled NOW and the viewer's zoom levels stay meaningful.
///
/// Span taxonomy (see DESIGN.md):
///   cat "access": access, and one span per latency-budget phase named
///                 after it (cpu_wait, cpu_service, disk_wait, disk_service,
///                 net_wait, net_transfer, fetch_wait, backoff), emitted by
///                 obs::RequestProbe (complete events), plus dir_lookup,
///                 hedge, fetch_timeout (instants), all on one track per
///                 page access;
///   cat "net":    net_transfer complete events, one track per transfer.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Allocates a fresh logical track (trace "tid"). Each page access / each
  /// network transfer gets its own track so its phase spans nest cleanly.
  uint64_t NextTrack() { return next_track_++; }

  /// Complete event ("ph":"X") covering [start_ms, end_ms] of simulated
  /// time. `args_json` is either empty or a JSON object literal ("{...}")
  /// rendered verbatim into the event's "args".
  void Complete(const char* name, const char* category, uint32_t pid,
                uint64_t tid, double start_ms, double end_ms,
                std::string args_json = std::string());

  /// Thread-scoped instant event ("ph":"i").
  void Instant(const char* name, const char* category, uint32_t pid,
               uint64_t tid, double ts_ms,
               std::string args_json = std::string());

  /// Process-name metadata record ("ph":"M"), e.g. naming pid 2 "node2".
  void SetProcessName(uint32_t pid, const std::string& name);

  size_t size() const { return events_.size(); }

  /// Serializes as {"traceEvents":[...]}, one event per line (the
  /// line-per-event layout is what the schema-validation test scans).
  void AppendJson(std::string* out) const;
  void WriteJson(std::FILE* out) const;

 private:
  struct TraceEvent {
    std::string name;
    std::string category;
    char ph = 'X';
    uint32_t pid = 0;
    uint64_t tid = 0;
    double ts_us = 0.0;
    double dur_us = 0.0;  // complete events only
    std::string args_json;
  };

  bool enabled_ = false;
  uint64_t next_track_ = 1;
  std::vector<TraceEvent> events_;
};

}  // namespace memgoal::obs

#endif  // MEMGOAL_OBS_TRACE_H_
