// Property tests for the stable stream derivation used by the parallel
// trial harness: distinct (master_seed, stream_index) pairs must yield
// non-colliding streams, and a stream must depend only on its pair — never
// on how many other streams were derived first (the property `Rng::Fork()`
// does NOT have, and the reason TrialRunner forbids it across trials).

#include "common/rng.h"

#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace memgoal::common {
namespace {

std::vector<uint64_t> FirstDraws(Rng rng, int n) {
  std::vector<uint64_t> draws;
  draws.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) draws.push_back(rng.NextUint64());
  return draws;
}

TEST(RngStreamTest, DistinctPairsYieldDistinctSeeds) {
  // A 64x64 grid of small sequential seeds and stream indices — exactly the
  // values experiments use — produces 4096 distinct derived seeds.
  std::set<uint64_t> seen;
  for (uint64_t seed = 0; seed < 64; ++seed) {
    for (uint64_t stream = 0; stream < 64; ++stream) {
      seen.insert(DeriveStreamSeed(seed, stream));
    }
  }
  EXPECT_EQ(seen.size(), 64u * 64u);
}

TEST(RngStreamTest, AuxiliaryStreamBandsDoNotCollide) {
  // The bench harness keys trials at [0, 2^32) and auxiliary streams at
  // k * 2^32 + i; a grid spanning several bands stays collision-free.
  std::set<uint64_t> seen;
  size_t inserted = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    for (uint64_t band = 0; band < 4; ++band) {
      for (uint64_t i = 0; i < 64; ++i) {
        seen.insert(DeriveStreamSeed(seed, (band << 32) + i));
        ++inserted;
      }
    }
  }
  EXPECT_EQ(seen.size(), inserted);
}

TEST(RngStreamTest, StreamsAreDecorrelated) {
  // Neighbouring pairs must not share a draw prefix.
  const auto base = FirstDraws(Rng(DeriveStreamSeed(1, 0)), 16);
  EXPECT_NE(base, FirstDraws(Rng(DeriveStreamSeed(1, 1)), 16));
  EXPECT_NE(base, FirstDraws(Rng(DeriveStreamSeed(2, 0)), 16));
  EXPECT_NE(base, FirstDraws(Rng(1), 16));  // and not the master itself
}

TEST(RngStreamTest, DerivationIsOrderIndependent) {
  // Stream 5 of seed 9 is the same generator whether it is derived cold or
  // after many other streams — DeriveStreamSeed is a pure function, with no
  // hidden parent state advancing between calls.
  const auto cold = FirstDraws(Rng(DeriveStreamSeed(9, 5)), 16);
  for (uint64_t stream = 0; stream < 5; ++stream) {
    (void)Rng(DeriveStreamSeed(9, stream)).NextUint64();
  }
  EXPECT_EQ(cold, FirstDraws(Rng(DeriveStreamSeed(9, 5)), 16));

  // Fork(), by contrast, is order-dependent: the second fork of the same
  // parent differs from the first. This is the trap the trial harness's
  // derivation exists to avoid.
  Rng parent(9);
  const auto first_fork = FirstDraws(parent.Fork(), 16);
  const auto second_fork = FirstDraws(parent.Fork(), 16);
  EXPECT_NE(first_fork, second_fork);
}

TEST(RngStreamTest, Mix64IsBijectiveOnSamples) {
  // Mix64 is algebraically bijective; spot-check injectivity over a dense
  // low range plus scattered large values.
  std::set<uint64_t> seen;
  size_t inserted = 0;
  for (uint64_t x = 0; x < 4096; ++x) {
    seen.insert(Mix64(x));
    ++inserted;
  }
  for (uint64_t x = 1; x != 0; x <<= 1) {
    seen.insert(Mix64(x ^ 0x5a5a5a5a5a5a5a5aull));
    ++inserted;
  }
  EXPECT_EQ(seen.size(), inserted);
}

}  // namespace
}  // namespace memgoal::common
