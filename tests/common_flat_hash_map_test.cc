// Differential test of common::FlatHashMap against std::unordered_map:
// seeded random operation sequences, with lookups, sizes and full
// iterations compared to the reference, plus the table's own edge cases
// (erase during iteration, tombstone churn, moves, reserve and clear).

#include "common/flat_hash_map.h"

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace memgoal::common {
namespace {

using Map = FlatHashMap<uint32_t, uint64_t>;
using Reference = std::unordered_map<uint32_t, uint64_t>;

// Iteration visits every live key exactly once, with its value, and
// nothing else.
void ExpectSame(Map& map, const Reference& reference) {
  ASSERT_EQ(map.size(), reference.size());
  ASSERT_EQ(map.empty(), reference.empty());
  Reference seen;
  for (auto it = map.begin(); it != map.end(); ++it) {
    ASSERT_TRUE(seen.emplace(it.key(), it.value()).second)
        << "key " << it.key() << " visited twice";
  }
  ASSERT_EQ(seen, reference);
}

// Erases, through Erase(iterator) in the middle of the iteration, every
// entry whose value is odd; each key must still be visited exactly once.
void EraseOddValues(Map* map, Reference* reference) {
  const Reference before = *reference;
  Reference visited;
  for (auto it = map->begin(); it != map->end();) {
    ASSERT_TRUE(visited.emplace(it.key(), it.value()).second);
    if (it.value() % 2 == 1) {
      reference->erase(it.key());
      it = map->Erase(it);
    } else {
      ++it;
    }
  }
  ASSERT_EQ(visited, before);
}

// Small key range (many hits, overwrites and re-inserts of erased keys)
// mixed with keys near the top of the range.
uint32_t RandomKey(Rng* rng) {
  const auto key = static_cast<uint32_t>(rng->UniformInt(0, 511));
  return rng->UniformInt(0, 7) == 0 ? key + 0xFFFFFC00u : key;
}

class FlatHashMapDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(FlatHashMapDifferentialTest, MatchesUnorderedMap) {
  Rng rng(0xF1A7u + static_cast<uint64_t>(GetParam()));
  Map map;
  Reference reference;
  for (int step = 0; step < 20000; ++step) {
    const uint32_t key = RandomKey(&rng);
    switch (rng.UniformInt(0, 5)) {
      case 0: {  // insert or overwrite
        const uint64_t value = rng.NextUint64();
        map[key] = value;
        reference[key] = value;
        break;
      }
      case 1: {
        const uint64_t* found = map.Find(key);
        const auto it = reference.find(key);
        ASSERT_EQ(found != nullptr, it != reference.end()) << "step " << step;
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second);
        }
        break;
      }
      case 2:
        ASSERT_EQ(map.Erase(key), reference.erase(key)) << "step " << step;
        break;
      case 3: {
        const std::optional<uint64_t> extracted = map.Extract(key);
        const auto it = reference.find(key);
        ASSERT_EQ(extracted.has_value(), it != reference.end());
        if (extracted) {
          ASSERT_EQ(*extracted, it->second);
          reference.erase(it);
        }
        break;
      }
      case 4:
        ASSERT_EQ(map.Contains(key), reference.count(key) == 1);
        break;
      case 5:
        if (rng.UniformInt(0, 99) == 0) {
          EraseOddValues(&map, &reference);
        }
        break;
    }
    ASSERT_EQ(map.size(), reference.size()) << "step " << step;
    if (step % 997 == 0) ExpectSame(map, reference);
  }
  ExpectSame(map, reference);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatHashMapDifferentialTest,
                         ::testing::Range(1, 9));

TEST(FlatHashMapTest, ReserveKeepsContentsAndClearEmpties) {
  Map map;
  Reference reference;
  for (uint32_t key = 0; key < 40; ++key) {
    map[key * 3] = key;
    reference[key * 3] = key;
  }
  map.reserve(5000);
  ExpectSame(map, reference);
  for (uint32_t key = 0; key < 5000; ++key) {
    map[key] = key + 1;
    reference[key] = key + 1;
  }
  ExpectSame(map, reference);

  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(3), nullptr);
  EXPECT_FALSE(map.Extract(3).has_value());
  EXPECT_EQ(map.Erase(3), 0u);
  EXPECT_TRUE(map.begin() == map.end());
  // Usable again after clear.
  map[7] = 70;
  ExpectSame(map, {{7, 70}});
}

TEST(FlatHashMapTest, MoveConstructionAndAssignment) {
  Map source;
  Reference reference;
  for (uint32_t key = 0; key < 300; ++key) {
    source[key * 11] = key;
    reference[key * 11] = key;
  }
  Map moved(std::move(source));
  ExpectSame(moved, reference);
  // The moved-from map is empty and usable.
  ExpectSame(source, {});
  EXPECT_EQ(source.Find(0), nullptr);
  source[1] = 2;
  ExpectSame(source, {{1, 2}});

  // Assignment over a non-empty map replaces its contents.
  Map target;
  for (uint32_t key = 0; key < 50; ++key) target[key] = 99;
  target = std::move(moved);
  ExpectSame(target, reference);
  ExpectSame(moved, {});
}

// Erase-and-insert at a stable live size leaves a tombstone per erase. The
// table must reclaim them (rehash in place) before they fill it: a probe
// for an absent key ends only at an empty slot.
TEST(FlatHashMapTest, ChurnAtStableSizeReclaimsTombstones) {
  Map map;
  Reference reference;
  constexpr uint32_t kLive = 100;
  for (uint32_t key = 0; key < kLive; ++key) {
    map[key] = key;
    reference[key] = key;
  }
  for (uint32_t next = kLive; next < 200000; ++next) {
    const uint32_t victim = next - kLive;
    ASSERT_EQ(map.Erase(victim), 1u);
    reference.erase(victim);
    map[next] = next;
    reference[next] = next;
    ASSERT_EQ(map.Find(victim), nullptr);  // absent: must terminate
    ASSERT_EQ(map.size(), kLive);
  }
  ExpectSame(map, reference);
}

// IndexedMinHeap's one-probe insert: operator[] on an absent key grows the
// map by one and yields a value-initialised slot; on a present key it
// leaves the size and the value alone. The size change alone tells the
// two apart, through growth rehashes and re-inserts over tombstones.
TEST(FlatHashMapTest, SizeChangeTellsNewKeysApart) {
  Map map;
  for (uint32_t key = 0; key < 1000; ++key) {
    const size_t before = map.size();
    uint64_t& value = map[key];
    ASSERT_EQ(map.size(), before + 1);
    ASSERT_EQ(value, 0u);
    value = key * 7;
  }
  for (uint32_t key = 0; key < 1000; ++key) {
    const size_t before = map.size();
    ASSERT_EQ(map[key], key * 7);
    ASSERT_EQ(map.size(), before);
  }
  for (uint32_t key = 0; key < 1000; key += 2) ASSERT_EQ(map.Erase(key), 1u);
  for (uint32_t key = 0; key < 1000; ++key) {
    const size_t before = map.size();
    const uint64_t value = map[key];
    const bool inserted = map.size() != before;
    ASSERT_EQ(inserted, key % 2 == 0) << "key " << key;
    ASSERT_EQ(value, inserted ? 0u : key * 7);
  }
}

}  // namespace
}  // namespace memgoal::common
