#include "core/system_audits.h"

#include <cstdarg>
#include <cstdio>
#include <optional>
#include <string>

#include "core/system.h"

namespace memgoal::core {

namespace {

std::string Describe(const char* format, ...) {
  char buffer[192];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  return buffer;
}

std::optional<std::string> CheckResource(const sim::Resource& resource) {
  if (resource.in_use() < 0 || resource.in_use() > resource.capacity()) {
    return Describe("%s: in_use=%d outside [0, %d]", resource.name().c_str(),
                    resource.in_use(), resource.capacity());
  }
  // Release() hands units directly to the oldest waiter, so at every event
  // boundary a non-empty queue implies a fully busy resource: a waiter in
  // front of an idle unit means a lost wakeup.
  if (resource.queue_length() > 0 &&
      resource.in_use() != resource.capacity()) {
    return Describe("%s: %zu waiting while %d/%d units busy",
                    resource.name().c_str(), resource.queue_length(),
                    resource.in_use(), resource.capacity());
  }
  return std::nullopt;
}

}  // namespace

void RegisterSystemAudits(sim::InvariantAuditor* auditor,
                          ClusterSystem* system) {
  auditor->AddCheck("directory_copy_accounting",
                    [system]() -> std::optional<std::string> {
    const uint32_t pages = system->database().num_pages();
    for (NodeId node = 0; node < system->num_nodes(); ++node) {
      const cache::NodeCache& cache = system->node(node).node_cache();
      for (PageId page = 0; page < pages; ++page) {
        const bool resident = cache.IsCached(page);
        const bool registered = system->directory().IsCachedAt(node, page);
        if (resident != registered) {
          return Describe("node %u page %u: cache=%d directory=%d", node,
                          page, resident ? 1 : 0, registered ? 1 : 0);
        }
      }
    }
    return std::nullopt;
  });

  auditor->AddCheck("allocation_capacity",
                    [system]() -> std::optional<std::string> {
    for (NodeId node = 0; node < system->num_nodes(); ++node) {
      const cache::NodeCache& cache = system->node(node).node_cache();
      if (cache.total_dedicated_bytes() > cache.total_bytes()) {
        return Describe("node %u: dedicated %llu > cache %llu bytes", node,
                        static_cast<unsigned long long>(
                            cache.total_dedicated_bytes()),
                        static_cast<unsigned long long>(cache.total_bytes()));
      }
    }
    return std::nullopt;
  });

  auditor->AddCheck("epoch_fence", [system]() -> std::optional<std::string> {
    if (system->stale_grants_applied() > 0) {
      return Describe("%llu grant(s) with a stale epoch were applied",
                      static_cast<unsigned long long>(
                          system->stale_grants_applied()));
    }
    return std::nullopt;
  });

  auditor->AddCheck("resource_conservation",
                    [system]() -> std::optional<std::string> {
    for (NodeId node = 0; node < system->num_nodes(); ++node) {
      if (auto v = CheckResource(system->node(node).cpu())) return v;
      if (auto v = CheckResource(system->node(node).disk().resource())) {
        return v;
      }
    }
    return CheckResource(system->network().medium());
  });

  auditor->AddCheck("controller_invariants",
                    [system]() -> std::optional<std::string> {
    return system->controller().AuditInvariants();
  });

  auditor->AddCheck("stale_hints_after_heal",
                    [system]() -> std::optional<std::string> {
    if (system->Partitioned()) return std::nullopt;  // debts legal mid-cut
    for (NodeId node = 0; node < system->num_nodes(); ++node) {
      const size_t owed = system->node(node).unsynced_hint_count();
      if (owed > 0) {
        return Describe("node %u still owes %zu hint(s) while whole", node,
                        owed);
      }
    }
    return std::nullopt;
  });

  auditor->AddCheck("directory_heat_accounting",
                    [system]() -> std::optional<std::string> {
    return system->directory().AuditInternalConsistency();
  });

  const IntegrityService* integrity = &system->integrity();
  auditor->AddCheck("no_corrupt_page_served",
                    [integrity]() -> std::optional<std::string> {
    const uint64_t served = integrity->ledger().served;
    if (served > 0) {
      return Describe("%llu detectably corrupt page(s) were served",
                      static_cast<unsigned long long>(served));
    }
    return std::nullopt;
  });

  auditor->AddCheck("quarantine_accounting",
                    [integrity]() -> std::optional<std::string> {
    // Pure counter equalities — no scans. Every quarantine decision must
    // have been executed by a buffer pool (the quarantine has no await
    // between the two, so at event boundaries they agree exactly), and
    // every detected-corrupt disk read must have ended its repair ladder
    // as a replica repair or a counted lost page (ladders still running a
    // transfer are carried in ladders_open).
    const IntegrityService::Ledger& ledger = integrity->ledger();
    const uint64_t executed = integrity->frames_quarantined();
    if (ledger.quarantine_decisions != executed) {
      return Describe("%llu quarantine decision(s) vs %llu executed",
                      static_cast<unsigned long long>(
                          ledger.quarantine_decisions),
                      static_cast<unsigned long long>(executed));
    }
    const uint64_t closed =
        ledger.repairs_replica + ledger.pages_lost + ledger.ladders_open;
    if (ledger.disk_detections != closed) {
      return Describe(
          "%llu disk detection(s) vs %llu repaired+lost+open",
          static_cast<unsigned long long>(ledger.disk_detections),
          static_cast<unsigned long long>(closed));
    }
    return std::nullopt;
  });

  auditor->AddCheck(
      "scrub_progress",
      [system, integrity, last_ticks = uint64_t{0},
       last_scrubbed = uint64_t{0},
       last_time = -1.0]() mutable -> std::optional<std::string> {
    const uint64_t ticks = integrity->ledger().scrub_ticks;
    const uint64_t scrubbed = integrity->ledger().pages_scrubbed;
    const uint64_t skipped = integrity->ledger().scrub_skipped_busy;
    if (ticks < last_ticks || scrubbed < last_scrubbed) {
      return Describe("scrub counters moved backwards (%llu/%llu -> "
                      "%llu/%llu)",
                      static_cast<unsigned long long>(last_ticks),
                      static_cast<unsigned long long>(last_scrubbed),
                      static_cast<unsigned long long>(ticks),
                      static_cast<unsigned long long>(scrubbed));
    }
    // Each tick ends as a completed scrub read, a busy/down skip, or an
    // in-flight read — never more scrubs than wakeups.
    if (scrubbed + skipped > ticks) {
      return Describe("%llu scrub(s) + %llu skip(s) exceed %llu tick(s)",
                      static_cast<unsigned long long>(scrubbed),
                      static_cast<unsigned long long>(skipped),
                      static_cast<unsigned long long>(ticks));
    }
    // Liveness: an enabled scrubber ticks unconditionally (even with the
    // node down). Tick spacing is one interval plus the service time of
    // whatever the tick did (read, repair transfers), so only flag a
    // window generously longer than the interval.
    const double now = system->simulator().Now();
    const double interval = system->config().scrub_interval_ms;
    if (interval > 0.0 && last_time >= 0.0 &&
        now - last_time >= 8.0 * interval + 10000.0 && ticks == last_ticks) {
      return Describe("scrubber stalled: no tick in %.1f ms",
                      now - last_time);
    }
    last_ticks = ticks;
    last_scrubbed = scrubbed;
    last_time = now;
    return std::nullopt;
  });
}

}  // namespace memgoal::core
