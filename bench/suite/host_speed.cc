#include "host_speed.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>

#include "bench_util.h"

namespace memgoal::bench::suite {
namespace {

// Two kernels: sorting small arrays (branchy integer code) and 16x16 matrix
// products (floating-point throughput). On the calibration host, over 15 s
// spans of a six-minute run, their geometric mean tracked the host-speed
// phases of the simulator's blocks and of the coordinator checks at 3 and
// 64 nodes to within 2-4%, where each kernel alone left 6-9% and pointer
// chasing 13-20%. Each kernel counts at the mean of kRepetitions runs: the
// slowdown comes in bursts shorter than a run, and the mean sees them at
// the share of the time they take.
constexpr int kSortArrays = 40;
constexpr int kSortLength = 256;
constexpr int kMatmuls = 40;
constexpr int kDim = 16;
constexpr int kRepetitions = 3;
// The kernels' geometric-mean time, in seconds, on the calibration host (a
// 4-vCPU Xeon at 2.1 GHz under KVM) in its fastest phase. A constant: it
// sets the scale of every reported host timing, so changing it rescales
// them all.
constexpr double kNominalSeconds = 115e-6;

using Clock = std::chrono::steady_clock;

// The kernels' data, page-aligned in the library's own storage.
struct alignas(4096) KernelData {
  uint32_t keys[kSortArrays * kSortLength];
  uint32_t sorted[kSortLength];
  double a[kDim * kDim];
  double b[kDim * kDim];
  double c[kDim * kDim];
  bool ready;
};
KernelData data;
// The kernels' results end here, so no kernel can be optimized away.
volatile double sink;

void Prepare() {
  if (data.ready) return;
  uint64_t state = 0x9e3779b97f4a7c15ull;
  for (uint32_t& key : data.keys) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    key = static_cast<uint32_t>(state >> 32);
  }
  for (int i = 0; i < kDim; ++i) {
    for (int j = 0; j < kDim; ++j) data.b[i * kDim + j] = 1.0 / (1 + i + j);
  }
  data.ready = true;
}

double SortSeconds() {
  const Clock::time_point start = Clock::now();
  uint64_t sum = 0;
  for (int r = 0; r < kSortArrays; ++r) {
    const uint32_t* first = data.keys + r * kSortLength;
    std::copy(first, first + kSortLength, data.sorted);
    std::sort(data.sorted, data.sorted + kSortLength);
    sum += data.sorted[r];
  }
  const double seconds = Seconds(Clock::now() - start);
  sink = static_cast<double>(sum);
  return seconds;
}

double MatmulSeconds() {
  // The same inputs every time, so the values never drift into subnormals.
  std::copy(data.b, data.b + kDim * kDim, data.a);
  const Clock::time_point start = Clock::now();
  for (int r = 0; r < kMatmuls; ++r) {
    for (int i = 0; i < kDim; ++i) {
      for (int j = 0; j < kDim; ++j) {
        double sum = 0.0;
        for (int k = 0; k < kDim; ++k) {
          sum += data.a[i * kDim + k] * data.b[k * kDim + j];
        }
        data.c[i * kDim + j] = sum;
      }
    }
    // Each product feeds the next, so none can be skipped.
    data.a[r % kDim] = data.c[(r * 7) % (kDim * kDim)] * 1e-3;
  }
  const double seconds = Seconds(Clock::now() - start);
  sink = data.c[0];
  return seconds;
}

}  // namespace

double HostSpeed::Factor() {
  Prepare();
  double sort_s = 0.0;
  double matmul_s = 0.0;
  for (int r = 0; r < kRepetitions; ++r) {
    sort_s += SortSeconds() / kRepetitions;
    matmul_s += MatmulSeconds() / kRepetitions;
  }
  factors_.push_back(std::sqrt(sort_s * matmul_s) / kNominalSeconds);
  return factors_.back();
}

double HostSpeed::Combine(double before, double after) {
  return std::sqrt(before * after);
}

double HostSpeed::MedianFactor() const {
  return factors_.empty() ? 1.0 : Median(factors_);
}

}  // namespace memgoal::bench::suite
