#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "cache/heat.h"
#include "cache/indexed_heap.h"
#include "common/rng.h"
#include "core/optimizer.h"
#include "la/matrix.h"
#include "la/row_replace_inverse.h"
#include "net/directory.h"
#include "net/network.h"
#include "sim/event_queue.h"
#include "sim/frame_pool.h"
#include "sim/simulator.h"
#include "storage/database.h"
#include "txn/lock_manager.h"
#include "workload/page_selector.h"

namespace memgoal::bench::suite {
namespace {

constexpr int kReps = 5;
// Inputs are drawn up front and cycled, so the timed loops pay for the
// layer and not for the random number generator.
constexpr size_t kInputs = 4096;

// Defeats dead-code elimination of the timed loops' results.
volatile uint64_t g_sink = 0;

// Median over kReps repetitions of host nanoseconds per operation of
// `body(ops)`, after one untimed warm-up repetition.
template <typename Body>
double NsPerOp(int64_t ops, Body&& body) {
  body(std::max<int64_t>(1, ops / 4));
  std::vector<double> samples;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    body(ops);
    const std::chrono::duration<double, std::nano> elapsed =
        std::chrono::steady_clock::now() - start;
    samples.push_back(elapsed.count() / static_cast<double>(ops));
  }
  std::nth_element(samples.begin(), samples.begin() + kReps / 2,
                   samples.end());
  return samples[kReps / 2];
}

std::vector<double> Exponentials(common::Rng* rng, double mean) {
  std::vector<double> values(kInputs);
  for (double& v : values) v = rng->Exponential(mean);
  return values;
}

// Calendar-queue hold model: pop the earliest event, re-file it one
// exponential step later, at a constant population.
double QueueHoldNs(size_t population, common::Rng* rng) {
  std::vector<sim::EventNode> nodes(population);
  sim::CalendarQueue queue;
  const std::vector<double> steps =
      Exponentials(rng, static_cast<double>(population));
  uint64_t seq = 0;
  for (sim::EventNode& node : nodes) {
    node.time = rng->Uniform(0.0, static_cast<double>(population));
    node.seq = seq++;
    queue.Insert(&node);
  }
  return NsPerOp(2'000'000, [&](int64_t ops) {
    for (int64_t k = 0; k < ops; ++k) {
      sim::EventNode* node = queue.PopMin();
      node->time += steps[static_cast<size_t>(k) % kInputs];
      node->seq = seq++;
      queue.Insert(node);
    }
  });
}

// Coroutine frame recycling: a burst of frame-sized allocations freed in
// reverse, per allocate+free pair.
double FramePoolNs() {
  constexpr size_t kBurst = 8;
  constexpr size_t kSizes[kBurst] = {96, 160, 224, 288, 96, 352, 160, 416};
  return NsPerOp(4'000'000, [&](int64_t ops) {
    void* frames[kBurst];
    for (int64_t k = 0; k < ops; k += kBurst) {
      for (size_t i = 0; i < kBurst; ++i) {
        frames[i] = sim::FramePool::Allocate(kSizes[i]);
      }
      for (size_t i = kBurst; i-- > 0;) sim::FramePool::Free(frames[i]);
    }
  });
}

sim::Task<void> Ticker(sim::Simulator* simulator, int64_t ticks,
                       double gap) {
  for (int64_t i = 0; i < ticks; ++i) co_await simulator->Delay(gap);
}

// Event dispatch: processes that sleep and resume through the simulator,
// per resumed event (schedule + pop + coroutine resume).
double ResumeNs() {
  constexpr int kProcesses = 64;
  return NsPerOp(2'000'000, [&](int64_t ops) {
    sim::Simulator simulator;
    for (int p = 0; p < kProcesses; ++p) {
      simulator.Spawn(Ticker(&simulator, ops / kProcesses, 1.0 + 0.01 * p));
    }
    g_sink = g_sink + simulator.Run();
  });
}

// Replacement heap at one node's frame population: pop the victim, insert
// a new page.
double HeapInsertPopNs(size_t population, common::Rng* rng) {
  cache::IndexedMinHeap<PageId> heap;
  const std::vector<double> keys = Exponentials(rng, 1.0);
  PageId next = 0;
  for (size_t i = 0; i < population; ++i) {
    heap.Insert(next, keys[next % kInputs]);
    ++next;
  }
  return NsPerOp(2'000'000, [&](int64_t ops) {
    for (int64_t k = 0; k < ops; ++k) {
      const double key = heap.Peek().second;
      heap.Pop();
      heap.Insert(next, key + keys[next % kInputs]);
      ++next;
    }
  });
}

// Lazy key maintenance: mark a batch of entries dirty and flush, per entry.
double HeapDirtyFlushNs(size_t population, common::Rng* rng) {
  constexpr int64_t kBatch = 64;
  cache::IndexedMinHeap<PageId> heap;
  const std::vector<double> keys = Exponentials(rng, 1.0);
  std::vector<PageId> marks(kInputs);
  for (PageId& id : marks) {
    id = static_cast<PageId>(rng->UniformInt(0, population - 1));
  }
  for (PageId id = 0; id < population; ++id) heap.Insert(id, keys[id % kInputs]);
  uint64_t round = 0;
  return NsPerOp(2'000'000, [&](int64_t ops) {
    for (int64_t k = 0; k < ops; k += kBatch) {
      for (int64_t j = 0; j < kBatch; ++j) {
        heap.MarkDirty(marks[static_cast<size_t>(k + j) % kInputs]);
      }
      ++round;
      g_sink = g_sink + heap.FlushDirty([&](PageId id) {
        return keys[(id + round) % kInputs];
      });
    }
  });
}

std::vector<PageId> SampledPages(const workload::ClassSpec& spec,
                                 common::Rng* rng) {
  const workload::PageSelector selector(spec);
  std::vector<PageId> pages(kInputs);
  for (PageId& page : pages) page = selector.Sample(rng);
  return pages;
}

// LRU-K heat: record an access and read the page's heat back (the fused
// per-access call of the cost-based policy).
double HeatRecordNs(const std::vector<PageId>& pages) {
  cache::HeatTracker tracker(2);
  double now = 0.0;
  return NsPerOp(2'000'000, [&](int64_t ops) {
    double heat = 0.0;
    for (int64_t k = 0; k < ops; ++k) {
      now += 0.05;
      heat += tracker.RecordAndHeat(pages[static_cast<size_t>(k) % kInputs],
                                    now);
    }
    g_sink = g_sink + static_cast<uint64_t>(heat);
  });
}

double SampleNs(const workload::ClassSpec& spec, common::Rng* rng) {
  const workload::PageSelector selector(spec);
  return NsPerOp(4'000'000, [&](int64_t ops) {
    uint64_t sum = 0;
    for (int64_t k = 0; k < ops; ++k) sum += selector.Sample(rng);
    g_sink = g_sink + sum;
  });
}

// Replica ranking of one page among its cached copies, from a random
// requester.
double RankedCopiesNs(const LayerShape& shape, common::Rng* rng) {
  const storage::Database database(shape.db_pages, 4096, shape.nodes);
  net::PageDirectory directory(&database);
  const auto copies = static_cast<uint32_t>(std::clamp(
      std::lround(shape.copies), 1l, static_cast<long>(shape.nodes)));
  const uint32_t stride = std::max(1u, shape.nodes / copies);
  for (PageId page = 0; page < shape.db_pages; ++page) {
    for (uint32_t j = 0; j < copies; ++j) {
      directory.OnPageCached((page + j * stride) % shape.nodes, page);
    }
  }
  std::vector<std::pair<PageId, NodeId>> queries(kInputs);
  for (auto& [page, requester] : queries) {
    page = static_cast<PageId>(rng->UniformInt(0, shape.db_pages - 1));
    requester = static_cast<NodeId>(rng->UniformInt(0, shape.nodes - 1));
  }
  net::PageDirectory::CopyList out;
  return NsPerOp(2'000'000, [&](int64_t ops) {
    uint64_t found = 0;
    for (int64_t k = 0; k < ops; ++k) {
      const auto& [page, requester] = queries[static_cast<size_t>(k) % kInputs];
      directory.RankedCopies(page, requester, &out);
      found += out.size();
    }
    g_sink = g_sink + found;
  });
}

sim::Task<void> Sender(net::Network* network, NodeId from, NodeId to,
                       int64_t count) {
  for (int64_t i = 0; i < count; ++i) {
    const bool delivered = co_await network->Transfer(
        from, to, 4096 + 64, net::TrafficClass::kPage);
    g_sink = g_sink + (delivered ? 1 : 0);
  }
}

// Page transfers over the shared medium, per transfer (host cost of the
// coroutine, the medium's queueing and the counters).
double TransferNs(const LayerShape& shape) {
  constexpr int kSenders = 8;
  net::Network::Params params;
  params.bandwidth_mbit_per_s = shape.bandwidth_mbit_per_s;
  return NsPerOp(400'000, [&](int64_t ops) {
    sim::Simulator simulator;
    net::Network network(&simulator, params);
    for (int s = 0; s < kSenders; ++s) {
      simulator.Spawn(Sender(&network, s % shape.nodes,
                             (s + 1) % std::max(2u, shape.nodes),
                             ops / kSenders));
    }
    simulator.Run();
  });
}

// Incremental-Gauss row replacement in the (n+1)x(n+1) measure-point
// matrix, amortized over the periodic refresh.
double RowReplaceNs(size_t n, common::Rng* rng) {
  const size_t dim = n + 1;
  std::vector<la::Vector> rows(256, la::Vector(dim, 1.0));
  for (la::Vector& row : rows) {
    for (size_t j = 0; j < n; ++j) row[j] = rng->Uniform(0.0, 2 << 20);
  }
  la::Matrix a(dim, dim);
  for (size_t i = 0; i < dim; ++i) {
    for (size_t j = 0; j < dim; ++j) a(i, j) = rows[i % rows.size()][j];
  }
  la::RowReplaceInverse inverse;
  if (!inverse.Reset(a)) return 0.0;
  const int64_t ops = std::max<int64_t>(200, 20'000'000 / (dim * dim));
  return NsPerOp(ops, [&](int64_t count) {
    uint64_t replaced = 0;
    for (int64_t k = 0; k < count; ++k) {
      replaced += inverse.ReplaceRow(static_cast<size_t>(k) % dim,
                                     rows[static_cast<size_t>(k) % rows.size()])
                      ? 1
                      : 0;
    }
    g_sink = g_sink + replaced;
  });
}

core::OptimizerInput RandomLp(common::Rng* rng, size_t n) {
  core::OptimizerInput input;
  input.planes.grad_k.resize(n);
  input.planes.grad_0.resize(n);
  input.upper_bounds.assign(n, 2.0 * 1024 * 1024);
  for (size_t i = 0; i < n; ++i) {
    input.planes.grad_k[i] = -rng->Uniform(1e-7, 5e-6);
    input.planes.grad_0[i] = rng->Uniform(1e-8, 1e-6);
  }
  input.planes.intercept_k = rng->Uniform(5.0, 30.0);
  input.planes.intercept_0 = rng->Uniform(1.0, 5.0);
  input.goal_rt = rng->Uniform(0.5, 25.0);
  return input;
}

// The partitioning LP at n nodes: cold solves of random instances, and
// warm solves of a 2%-perturbed twin from the original's final basis (the
// interval-to-interval re-solve).
std::pair<double, double> SimplexUs(size_t n, common::Rng* rng) {
  constexpr size_t kInstances = 16;
  std::vector<core::OptimizerInput> cold, warm;
  std::vector<la::SimplexBasis> bases(kInstances);
  for (size_t i = 0; i < kInstances; ++i) {
    cold.push_back(RandomLp(rng, n));
    bases[i] = core::SolvePartitioning(cold.back()).basis;
    core::OptimizerInput twin = cold.back();
    for (double& g : twin.planes.grad_k) g *= rng->Uniform(0.98, 1.02);
    for (double& g : twin.planes.grad_0) g *= rng->Uniform(0.98, 1.02);
    twin.goal_rt *= rng->Uniform(0.98, 1.02);
    warm.push_back(std::move(twin));
    warm.back().warm = &bases[i];
  }
  const int64_t ops = std::max<int64_t>(32, 2'000'000 / (n * n + 64));
  const auto solve_all = [&](std::vector<core::OptimizerInput>& inputs) {
    return [&inputs](int64_t count) {
      uint64_t modes = 0;
      for (int64_t k = 0; k < count; ++k) {
        modes += static_cast<uint64_t>(
            core::SolvePartitioning(inputs[static_cast<size_t>(k) % kInstances])
                .mode);
      }
      g_sink = g_sink + modes;
    };
  };
  return {NsPerOp(ops, solve_all(cold)) / 1e3,
          NsPerOp(ops, solve_all(warm)) / 1e3};
}

sim::Task<void> Locker(txn::LockManager* locks, int64_t begin, int64_t end,
                       PageId pages) {
  for (int64_t i = begin; i < end; ++i) {
    const auto txn = static_cast<txn::TxnId>(i + 1);
    const bool granted = co_await locks->Acquire(
        txn, static_cast<PageId>(i % pages), txn::LockMode::kShared);
    g_sink = g_sink + (granted ? 1 : 0);
    locks->ReleaseAll(txn);
  }
}

// Uncontended 2PL: acquire a shared page lock and release it. An
// uncontended Acquire completes without suspending, so every pair nests one
// more symmetric transfer on the stack unless the compiler turns it into a
// tail call (optimized builds do, sanitizer builds do not); each process
// therefore takes a bounded run of pairs.
double LockPairNs(uint32_t pages) {
  constexpr int64_t kPairsPerProcess = 64;
  return NsPerOp(1'000'000, [&](int64_t ops) {
    sim::Simulator simulator;
    txn::LockManager locks(&simulator);
    for (int64_t begin = 0; begin < ops; begin += kPairsPerProcess) {
      simulator.Spawn(Locker(&locks, begin,
                             std::min(ops, begin + kPairsPerProcess), pages));
    }
    simulator.Run();
  });
}

}  // namespace

std::vector<std::pair<std::string, double>> MeasureLayers(
    const LayerShape& shape, uint64_t seed) {
  common::Rng rng(common::DeriveStreamSeed(seed, 4ull << 32));
  const std::vector<PageId> pages = SampledPages(shape.goal_class, &rng);
  const auto population = static_cast<size_t>(
      std::max(16.0, std::round(shape.pending_events)));
  const auto [simplex_cold, simplex_warm] = SimplexUs(shape.nodes, &rng);
  return {
      {"sim.queue_hold_ns", QueueHoldNs(population, &rng)},
      {"sim.frame_pool_ns", FramePoolNs()},
      {"sim.resume_ns", ResumeNs()},
      {"cache.heap_insert_pop_ns", HeapInsertPopNs(shape.frames_per_node, &rng)},
      {"cache.heap_dirty_flush_ns",
       HeapDirtyFlushNs(shape.frames_per_node, &rng)},
      {"cache.heat_record_ns", HeatRecordNs(pages)},
      {"net.ranked_copies_ns", RankedCopiesNs(shape, &rng)},
      {"net.transfer_ns", TransferNs(shape)},
      {"workload.sample_ns", SampleNs(shape.goal_class, &rng)},
      {"la.row_replace_ns", RowReplaceNs(shape.nodes, &rng)},
      {"la.simplex_us.cold", simplex_cold},
      {"la.simplex_us.warm", simplex_warm},
      {"txn.lock_pair_ns", LockPairNs(shape.db_pages)},
  };
}

}  // namespace memgoal::bench::suite
