// Small helpers shared by the benchmark's translation units.

#ifndef MEMGOAL_BENCH_SUITE_BENCH_UTIL_H_
#define MEMGOAL_BENCH_SUITE_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace memgoal::bench::suite {

inline constexpr uint64_t kFnvOffset = 1469598103934665603ull;

/// FNV-1a over `size` bytes, continuing from `h`.
inline uint64_t Fnv1a(uint64_t h, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

template <typename T>
uint64_t Fnv1a(uint64_t h, T value) {
  return Fnv1a(h, &value, sizeof(value));
}

inline double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// The sample at rank q * (n - 1) of `values` (non-empty).
inline double Quantile(std::vector<double> values, double q) {
  const auto k =
      static_cast<size_t>(q * static_cast<double>(values.size() - 1));
  std::nth_element(values.begin(), values.begin() + k, values.end());
  return values[k];
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

}  // namespace memgoal::bench::suite

#endif  // MEMGOAL_BENCH_SUITE_BENCH_UTIL_H_
