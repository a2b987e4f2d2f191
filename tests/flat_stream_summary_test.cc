// Copyright (c) the CoTS reproduction authors.
//
// Coverage for the flat (array-backed) summary layout, in three layers:
// the SIMD scan wrappers against their scalar reference at every boundary
// shape, FlatStreamSummary's Space Saving semantics (including victim
// selection at SIMD group boundaries), and the layout selected through
// SpaceSaving / merges against exact_counter ground truth — mirroring
// stream_summary_test.cc so both layouts carry the same proof obligations.

#include "core/flat_stream_summary.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "core/slot_index.h"
#include "core/space_saving.h"
#include "core/summary_merge.h"
#include "stream/exact_counter.h"
#include "stream/zipf_generator.h"
#include "util/random.h"
#include "util/simd.h"

namespace cots {
namespace {

// ---- util/simd.h: vector paths must match the scalar reference ----

TEST(SimdTest, FindEqualAtEveryPositionAndCount) {
  // Sweep counts across group boundaries (0..3 groups plus tails) and the
  // needle across every position, so both the vector body and the scalar
  // tail are exercised, including hits in the last lane of a group.
  for (size_t count = 0; count <= 3 * simd::kGroupWidth + 3; ++count) {
    std::vector<uint64_t> data(count);
    for (size_t i = 0; i < count; ++i) data[i] = 1000 + i;
    for (size_t pos = 0; pos < count; ++pos) {
      EXPECT_EQ(simd::FindEqualU64(data.data(), count, data[pos]), pos)
          << "count=" << count << " pos=" << pos;
    }
    EXPECT_EQ(simd::FindEqualU64(data.data(), count, 7), count)
        << "absent needle, count=" << count;
  }
}

TEST(SimdTest, FindEqualReturnsFirstOfDuplicates) {
  std::vector<uint64_t> data(20, 5);
  EXPECT_EQ(simd::FindEqualU64(data.data(), data.size(), 5), 0u);
  data.assign(20, 9);
  data[3] = 5;
  data[17] = 5;
  EXPECT_EQ(simd::FindEqualU64(data.data(), data.size(), 5), 3u);
}

TEST(SimdTest, FindEqualHalfLaneValuesDoNotFalsePositive) {
  // Adversarial for the SSE2 path, which builds 64-bit equality from two
  // 32-bit compares: values sharing exactly one 32-bit half with the
  // needle must not match.
  const uint64_t needle = (uint64_t{0xAAAAAAAA} << 32) | 0x55555555;
  std::vector<uint64_t> data(16, (uint64_t{0xAAAAAAAA} << 32) | 0x11111111);
  for (size_t i = 0; i < 8; ++i) {
    data[2 * i + 1] = (uint64_t{0x22222222} << 32) | 0x55555555;
  }
  EXPECT_EQ(simd::FindEqualU64(data.data(), data.size(), needle),
            data.size());
  data[13] = needle;
  EXPECT_EQ(simd::FindEqualU64(data.data(), data.size(), needle), 13u);
}

TEST(SimdTest, MinValueMatchesScalarOnRandomArrays) {
  Xoshiro256 rng(2024);
  for (size_t count = 0; count <= 40; ++count) {
    std::vector<uint64_t> data(count);
    for (auto& v : data) v = rng.Next();
    // Include values with the top bit set: the SSE4.2 path biases by 2^63
    // to get unsigned order out of signed compares.
    if (count > 2) data[count / 2] |= (uint64_t{1} << 63);
    uint64_t expected = ~uint64_t{0};
    for (uint64_t v : data) expected = std::min(expected, v);
    EXPECT_EQ(simd::MinValueU64(data.data(), count), expected)
        << "count=" << count;
  }
}

TEST(SimdTest, MinValueEmptyIsMax) {
  EXPECT_EQ(simd::MinValueU64(nullptr, 0), ~uint64_t{0});
}

// ---- FlatStreamSummary semantics ----

TEST(FlatStreamSummaryTest, AdmissionAndLookup) {
  FlatStreamSummary s(4);
  s.Offer(10, 3);
  s.Offer(20);
  s.Offer(10);
  EXPECT_EQ(s.stream_length(), 5u);
  EXPECT_EQ(s.size(), 2u);
  ASSERT_TRUE(s.Lookup(10).has_value());
  EXPECT_EQ(s.Lookup(10)->count, 4u);
  EXPECT_EQ(s.Lookup(10)->error, 0u);
  EXPECT_EQ(s.Lookup(20)->count, 1u);
  EXPECT_FALSE(s.Lookup(99).has_value());
  EXPECT_TRUE(s.CheckInvariants());
}

TEST(FlatStreamSummaryTest, CountersDescendingBreaksTiesByKey) {
  FlatStreamSummary s(8);
  s.Offer(5, 2);
  s.Offer(3, 2);
  s.Offer(9, 7);
  s.Offer(1, 2);
  std::vector<Counter> c = s.CountersDescending();
  ASSERT_EQ(c.size(), 4u);
  EXPECT_EQ(c[0].key, 9u);
  EXPECT_EQ(c[1].key, 1u);  // ties (count 2) ascend by key: 1, 3, 5
  EXPECT_EQ(c[2].key, 3u);
  EXPECT_EQ(c[3].key, 5u);
}

TEST(FlatStreamSummaryTest, EvictionInheritsVictimCountAsError) {
  FlatStreamSummary s(2);
  s.Offer(1, 10);
  s.Offer(2, 3);
  s.Offer(3);  // full: overwrites the minimum (key 2, freq 3)
  EXPECT_FALSE(s.Lookup(2).has_value());
  ASSERT_TRUE(s.Lookup(3).has_value());
  EXPECT_EQ(s.Lookup(3)->count, 4u);  // victim freq 3 + weight 1
  EXPECT_EQ(s.Lookup(3)->error, 3u);
  EXPECT_EQ(s.stream_length(), 14u);
  EXPECT_TRUE(s.CheckInvariants());
}

TEST(FlatStreamSummaryTest, MinFreqTracksMinimumThroughEvictions) {
  FlatStreamSummary s(3);
  EXPECT_EQ(s.MinFreq(), 0u);
  s.Offer(1, 5);
  EXPECT_EQ(s.MinFreq(), 5u);
  s.Offer(2, 2);
  s.Offer(3, 9);
  EXPECT_EQ(s.MinFreq(), 2u);
  s.Offer(4);  // evicts key 2 → freq 3
  EXPECT_EQ(s.MinFreq(), 3u);
  s.Offer(4, 10);  // mins move: 5 (key 1) is now the minimum
  EXPECT_EQ(s.MinFreq(), 5u);
  EXPECT_TRUE(s.CheckInvariants());
}

// Victim correctness at SIMD group boundaries. Admission fills slots in
// arrival order, so weighted offers place a unique minimum at any chosen
// slot; the scan must find it wherever it sits relative to the
// group-of-8 structure — first lane, last lane of a group, first lane of
// the next group, last slot (wrap), and ahead of the rotating cursor.
TEST(FlatStreamSummaryTest, EvictsUniqueMinimumAtEveryGroupBoundarySlot) {
  constexpr size_t kCapacity = 2 * simd::kGroupWidth;  // two full groups
  const size_t boundary_slots[] = {0,
                                   simd::kGroupWidth - 1,
                                   simd::kGroupWidth,
                                   2 * simd::kGroupWidth - 1,
                                   3,
                                   simd::kGroupWidth + 5};
  for (size_t min_slot : boundary_slots) {
    FlatStreamSummary s(kCapacity);
    // Slot i gets key 100+i; the chosen slot gets weight 1, all others 10.
    for (size_t i = 0; i < kCapacity; ++i) {
      s.Offer(100 + i, i == min_slot ? 1 : 10);
    }
    s.Offer(555);  // must evict the unique minimum
    EXPECT_FALSE(s.Lookup(100 + min_slot).has_value())
        << "min at slot " << min_slot << " not evicted";
    ASSERT_TRUE(s.Lookup(555).has_value());
    EXPECT_EQ(s.Lookup(555)->count, 2u) << "min at slot " << min_slot;
    EXPECT_EQ(s.Lookup(555)->error, 1u);
    EXPECT_TRUE(s.CheckInvariants());
  }
}

// The stale-min recompute path: raise every slot that held the cached
// minimum, then force an eviction — the scan misses, the minimum must be
// recomputed (not scanned for at its stale value) and the new true minimum
// evicted.
TEST(FlatStreamSummaryTest, StaleCachedMinimumIsRecomputed) {
  constexpr size_t kCapacity = 8;
  FlatStreamSummary s(kCapacity);
  for (size_t i = 0; i < kCapacity; ++i) s.Offer(100 + i, 5);
  s.Offer(200);  // evict some freq-5 slot; cached min stays 5
  // Raise everything still at the old minimum well above it.
  for (size_t i = 0; i < kCapacity; ++i) {
    if (auto c = s.Lookup(100 + i); c.has_value() && c->count == 5) {
      s.Offer(100 + i, 10);
    }
  }
  // The new minimum is key 200 at freq 6; the cache still says 5.
  s.Offer(300);
  EXPECT_FALSE(s.Lookup(200).has_value()) << "stale min masked true victim";
  ASSERT_TRUE(s.Lookup(300).has_value());
  EXPECT_EQ(s.Lookup(300)->error, 6u);
  EXPECT_TRUE(s.CheckInvariants());
}

// Index erase correctness: churn far more distinct keys than capacity so
// backward-shift deletion runs constantly, then verify every monitored key
// is still findable and the structure is consistent. Capacities sit on
// both sides of an index-size power of two, and half the offers draw from
// keys that home on the table's last two entries, so probe runs wrap the
// table's end and erases shift entries back across it.
TEST(FlatStreamSummaryTest, IndexSurvivesHeavyEvictionChurn) {
  for (size_t capacity : {1, 2, 7, 8, 9, 1000, 1024, 1025}) {
    SCOPED_TRACE(testing::Message() << "capacity=" << capacity);
    const size_t table = SlotIndex::TableSizeFor(capacity);
    std::vector<ElementId> wrapping;
    for (ElementId k = 1; wrapping.size() < 64; ++k) {
      if ((SlotIndex::Hash(k) & (table - 1)) >= table - 2) {
        wrapping.push_back(k);
      }
    }
    FlatStreamSummary s(capacity);
    Xoshiro256 rng(7 + capacity);
    for (int i = 0; i < 50000; ++i) {
      const ElementId e =
          rng.NextBounded(2) == 0
              ? wrapping[rng.NextBounded(wrapping.size())]
              : 1 + rng.NextBounded(5000 + 20 * capacity);
      s.Offer(e, 1 + rng.NextBounded(3));
      if (i % 5000 == 0) {
        ASSERT_TRUE(s.CheckInvariants()) << "offer " << i;
      }
    }
    ASSERT_TRUE(s.CheckInvariants());
    for (const Counter& c : s.CountersDescending()) {
      ASSERT_TRUE(s.Lookup(c.key).has_value()) << "key " << c.key;
      EXPECT_EQ(s.Lookup(c.key)->count, c.count);
    }
  }
}

// ---- Space Saving contract via SpaceSaving(kFlat) vs exact ground truth,
// mirroring the linked layout's property tests ----

TEST(FlatLayoutPropertyTest, SpaceSavingGuaranteesOnRandomizedStreams) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull);
    ZipfOptions zo;
    zo.alphabet_size = 100 + rng() % 2000;
    zo.alpha = 1.1 + static_cast<double>(rng() % 100) / 50.0;
    zo.seed = seed;
    const uint64_t n = 10000 + rng() % 20000;
    Stream stream = MakeZipfStream(n, zo);
    ExactCounter exact(stream);

    const size_t capacity = 8 + static_cast<size_t>(rng() % 120);
    SpaceSavingOptions opt;
    opt.capacity = capacity;
    opt.layout = SummaryLayout::kFlat;
    ASSERT_TRUE(opt.Validate().ok());
    SpaceSaving ss(opt);
    ss.Process(stream);

    SCOPED_TRACE(testing::Message() << "seed=" << seed << " capacity="
                                    << capacity << " n=" << n);
    ASSERT_TRUE(ss.CheckInvariants());
    EXPECT_EQ(ss.stream_length(), n);

    // Count conservation.
    uint64_t sum = 0;
    for (const Counter& c : ss.CountersDescending()) sum += c.count;
    EXPECT_EQ(sum, n);

    // Per-key bounds: true <= est <= true + error, error <= N/m.
    for (const Counter& c : ss.CountersDescending()) {
      const uint64_t truth = exact.Count(c.key);
      EXPECT_LE(truth, c.count) << "key " << c.key;
      EXPECT_LE(c.count, truth + c.error) << "key " << c.key;
      EXPECT_LE(c.error, n / capacity) << "key " << c.key;
    }

    // Frequent elements (true > N/m) are monitored; unmonitored keys are
    // bounded by MinFreq.
    const uint64_t min_freq = ss.MinFreq();
    for (const auto& [key, truth] : exact.counts()) {
      if (!ss.Lookup(key).has_value()) {
        EXPECT_LE(truth, n / capacity) << "frequent key " << key << " lost";
        EXPECT_LE(truth, min_freq) << "key " << key;
      }
    }
  }
}

// Both layouts run the same algorithm; on a stream whose frequencies are
// unique at eviction time (no tie-breaking freedom), they must produce
// identical counters.
TEST(FlatLayoutPropertyTest, LayoutsAgreeWhenEvictionIsUnambiguous) {
  SpaceSavingOptions linked_opt;
  linked_opt.capacity = 8;
  ASSERT_TRUE(linked_opt.Validate().ok());
  SpaceSavingOptions flat_opt = linked_opt;
  flat_opt.layout = SummaryLayout::kFlat;
  SpaceSaving linked(linked_opt), flat(flat_opt);

  Xoshiro256 rng(42);
  // Distinct geometric weights keep all frequencies unique.
  for (int i = 0; i < 2000; ++i) {
    const ElementId e = 1 + rng.NextBounded(64);
    const uint64_t w = 1 + 2 * rng.NextBounded(5);
    // Same offers to both, with a per-offer unique tweak avoided: identical
    // inputs are the point.
    linked.Offer(e, w);
    flat.Offer(e, w);
    if (i % 97 == 0) {
      // Periodically compare full snapshots where frequencies are unique.
      std::vector<Counter> lc = linked.CountersDescending();
      std::vector<Counter> fc = flat.CountersDescending();
      ASSERT_EQ(lc.size(), fc.size());
      bool unique = true;
      for (size_t k = 1; k < lc.size(); ++k) {
        if (lc[k].count == lc[k - 1].count) unique = false;
      }
      if (unique) {
        for (size_t k = 0; k < lc.size(); ++k) {
          EXPECT_EQ(lc[k].key, fc[k].key) << "i=" << i << " k=" << k;
          EXPECT_EQ(lc[k].count, fc[k].count) << "i=" << i << " k=" << k;
        }
      }
    }
  }
  EXPECT_EQ(linked.stream_length(), flat.stream_length());
}

// ---- Merges (both modes) over flat parts vs exact ground truth ----

TEST(FlatLayoutPropertyTest, MergesPreserveBoundsInBothModes) {
  ZipfOptions zo;
  zo.alphabet_size = 1500;
  zo.alpha = 1.6;
  const uint64_t n = 30000;
  Stream stream = MakeZipfStream(n, zo);
  ExactCounter exact(stream);

  constexpr uint64_t kParts = 4;
  constexpr size_t kCapacity = 48;
  for (MergeMode mode : {MergeMode::kOverlapping, MergeMode::kDisjoint}) {
    std::vector<std::unique_ptr<SpaceSaving>> parts;
    for (uint64_t p = 0; p < kParts; ++p) {
      SpaceSavingOptions opt;
      opt.capacity = kCapacity;
      opt.layout = SummaryLayout::kFlat;
      EXPECT_TRUE(opt.Validate().ok());
      parts.push_back(std::make_unique<SpaceSaving>(opt));
    }
    std::mt19937_64 assign(99);
    for (size_t i = 0; i < stream.size(); ++i) {
      const uint64_t p = mode == MergeMode::kDisjoint ? stream[i] % kParts
                                                      : assign() % kParts;
      parts[p]->Offer(stream[i]);
    }
    std::vector<const FrequencySummary*> views;
    std::vector<uint64_t> mins;
    for (const auto& part : parts) {
      views.push_back(part.get());
      mins.push_back(part->MinFreq());
    }
    for (bool hierarchical : {false, true}) {
      CounterSet merged =
          hierarchical ? MergeHierarchical(views, mins, kCapacity, mode)
                       : MergeSerial(views, mins, kCapacity, mode);
      SCOPED_TRACE(testing::Message()
                   << (mode == MergeMode::kDisjoint ? "disjoint"
                                                    : "overlapping")
                   << (hierarchical ? " hierarchical" : " serial"));
      EXPECT_EQ(merged.stream_length(), n);
      for (const Counter& c : merged.counters()) {
        const uint64_t truth = exact.Count(c.key);
        EXPECT_GE(c.count, truth) << "key " << c.key;
        EXPECT_LE(c.GuaranteedCount(), truth) << "key " << c.key;
      }
      for (const auto& [key, truth] : exact.counts()) {
        if (!merged.Lookup(key).has_value()) {
          EXPECT_LE(truth, merged.min_freq()) << "key " << key;
        }
      }
    }
  }
}

}  // namespace
}  // namespace cots
