#ifndef MEMGOAL_COMMON_RNG_H_
#define MEMGOAL_COMMON_RNG_H_

#include <cstdint>
#include <random>

namespace memgoal::common {

/// SplitMix64 output mix (Steele, Lea & Flood; also xorshift-family seeding).
/// Bijective on uint64_t, so distinct inputs never collide.
inline constexpr uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// Stable seed for stream `stream_index` of the experiment keyed by
/// `master_seed`. Unlike `Rng::Fork()`, which advances the parent engine and
/// therefore depends on how many forks happened before, this is a pure
/// function of the pair: stream k of seed s is the same value no matter
/// which streams were derived earlier, from which thread, or in what order.
/// Parallel trial harnesses use it so that trial k's randomness is
/// identical for any thread count and any scheduling.
inline constexpr uint64_t DeriveStreamSeed(uint64_t master_seed,
                                           uint64_t stream_index) {
  // Two chained splitmix rounds keyed by the golden-ratio increment: the
  // first decorrelates the (typically small, sequential) master seeds, the
  // second folds in the (equally small) stream index.
  constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ull;
  return Mix64(Mix64(master_seed + kGolden) + kGolden * (stream_index + 1));
}

/// Seeded pseudo-random number generator used throughout the simulator.
///
/// All stochastic behaviour in a simulation run flows through explicitly
/// seeded `Rng` instances so that runs are bit-for-bit reproducible. Each
/// independent stochastic stream (one per node/class operation source, one
/// for goal selection, ...) should own a dedicated `Rng`, typically derived
/// from a master seed via `Fork()`, so adding a stream never perturbs the
/// draws of existing streams.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Derives an independent child generator. Deterministic: forking the same
  /// parent state twice yields two different children, but re-running the
  /// program yields the same children again.
  Rng Fork() { return Rng(engine_()); }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Exponentially distributed value with the given mean (> 0).
  double Exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  /// Raw 64-bit draw.
  uint64_t NextUint64() { return engine_(); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace memgoal::common

#endif  // MEMGOAL_COMMON_RNG_H_
