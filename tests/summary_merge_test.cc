#include "core/summary_merge.h"

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <vector>

#include "core/flat_stream_summary.h"
#include "core/space_saving.h"
#include "stream/exact_counter.h"
#include "stream/zipf_generator.h"

namespace cots {
namespace {

SpaceSaving MakeWithCapacity(size_t capacity) {
  SpaceSavingOptions opt;
  opt.capacity = capacity;
  EXPECT_TRUE(opt.Validate().ok());
  return SpaceSaving(opt);
}

TEST(CounterSetTest, FromSummarySnapshot) {
  SpaceSaving ss = MakeWithCapacity(10);
  ss.Process({1, 1, 2});
  CounterSet set = CounterSet::FromSummary(ss, ss.MinFreq());
  EXPECT_EQ(set.num_counters(), 2u);
  EXPECT_EQ(set.stream_length(), 3u);
  EXPECT_EQ(set.Lookup(1)->count, 2u);
  EXPECT_FALSE(set.Lookup(9).has_value());
  EXPECT_EQ(set.min_freq(), 0u);  // not full
}

TEST(CounterSetTest, FromShedSummaryWidensEveryError) {
  SpaceSaving ss = MakeWithCapacity(10);
  ss.Process({1, 1, 2});
  // min_freq must arrive already shed-folded (engine MinFreq() does it);
  // FromShedSummary only widens the per-counter errors.
  CounterSet set = CounterSet::FromShedSummary(ss, ss.MinFreq() + 5, 5);
  EXPECT_EQ(set.stream_length(), 3u);
  EXPECT_EQ(set.shed_weight(), 5u);
  EXPECT_EQ(set.Lookup(1)->count, 2u);
  EXPECT_EQ(set.Lookup(1)->error, 5u);
  EXPECT_EQ(set.Lookup(2)->error, 5u);
  EXPECT_EQ(set.min_freq(), 5u);
  // Zero shed degenerates to the plain snapshot.
  CounterSet plain = CounterSet::FromShedSummary(ss, ss.MinFreq(), 0);
  EXPECT_EQ(plain.Lookup(1)->error, 0u);
  EXPECT_EQ(plain.shed_weight(), 0u);
}

TEST(CombineTest, ShedWeightSumsAndRaisesTruncationBound) {
  // Disjoint shards with per-shard shed already folded into errors/mins.
  CounterSet a({{1, 10, 3}, {3, 2, 3}}, /*min_freq=*/3, /*n=*/12,
               /*shed_weight=*/3);
  CounterSet b({{2, 8, 0}}, /*min_freq=*/0, /*n=*/8, /*shed_weight=*/0);
  CounterSet m = CombineCounterSets(a, b, 2, MergeMode::kDisjoint);
  EXPECT_EQ(m.shed_weight(), 3u);
  EXPECT_EQ(m.stream_length(), 20u);
  // Truncation dropped key 3 (estimate 2): a key dropped at estimate e may
  // truly have up to e + total shed occurrences, so the raised bound must
  // include the shed weight.
  EXPECT_FALSE(m.Lookup(3).has_value());
  EXPECT_GE(m.min_freq(), 2u + 3u);
}

TEST(MergeTest, SerialMergeFoldsPerPartShedWeights) {
  SpaceSaving p0 = MakeWithCapacity(4);
  SpaceSaving p1 = MakeWithCapacity(4);
  p0.Process({1, 1, 1, 2});
  p1.Process({3, 3, 4});
  const std::vector<const FrequencySummary*> parts = {&p0, &p1};
  // Shard 0 shed 2 occurrences; min_freqs arrive pre-folded as the engine
  // publishes them.
  const std::vector<uint64_t> sheds = {2, 0};
  const std::vector<uint64_t> mins = {p0.MinFreq() + 2, p1.MinFreq()};
  const CounterSet merged =
      MergeSerial(parts, mins, 0, MergeMode::kDisjoint, &sheds);
  EXPECT_EQ(merged.shed_weight(), 2u);
  // Shard-0 keys carry shard-0's shed in their error; shard-1 keys don't.
  EXPECT_EQ(merged.Lookup(1)->count, 3u);
  EXPECT_EQ(merged.Lookup(1)->error, 2u);
  EXPECT_EQ(merged.Lookup(3)->error, 0u);
  const CounterSet hier =
      MergeHierarchical(parts, mins, 0, MergeMode::kDisjoint, &sheds);
  EXPECT_EQ(hier.shed_weight(), 2u);
  EXPECT_EQ(hier.Lookup(1)->error, 2u);
  EXPECT_EQ(hier.Lookup(3)->error, 0u);
}

TEST(CombineTest, DisjointKeysAddMinFreqBounds) {
  CounterSet a({{1, 10, 0}}, /*min_freq=*/2, /*n=*/12);
  CounterSet b({{2, 8, 0}}, /*min_freq=*/3, /*n=*/11);
  CounterSet m = CombineCounterSets(a, b, 0);
  EXPECT_EQ(m.stream_length(), 23u);
  // Key 1 absent from b: b may have counted it up to 3.
  EXPECT_EQ(m.Lookup(1)->count, 13u);
  EXPECT_EQ(m.Lookup(1)->error, 3u);
  EXPECT_EQ(m.Lookup(2)->count, 10u);
  EXPECT_EQ(m.Lookup(2)->error, 2u);
  EXPECT_EQ(m.min_freq(), 5u);
}

TEST(CombineTest, DisjointModeSkipsAbsentSideInflation) {
  CounterSet a({{1, 10, 1}}, /*min_freq=*/2, /*n=*/12);
  CounterSet b({{2, 8, 0}}, /*min_freq=*/3, /*n=*/11);
  CounterSet m = CombineCounterSets(a, b, 0, MergeMode::kDisjoint);
  EXPECT_EQ(m.stream_length(), 23u);
  // Hash-partitioned shards never see each other's keys: the absent side
  // contributes nothing, so per-shard counts and errors pass through.
  EXPECT_EQ(m.Lookup(1)->count, 10u);
  EXPECT_EQ(m.Lookup(1)->error, 1u);
  EXPECT_EQ(m.Lookup(2)->count, 8u);
  EXPECT_EQ(m.Lookup(2)->error, 0u);
  // An unmonitored key lives in exactly one shard, so the global bound is
  // the max of the per-shard bounds, not the sum.
  EXPECT_EQ(m.min_freq(), 3u);
}

TEST(CombineTest, SharedKeysSumCountsAndErrors) {
  CounterSet a({{7, 10, 1}}, 0, 10);
  CounterSet b({{7, 20, 2}}, 0, 20);
  CounterSet m = CombineCounterSets(a, b, 0);
  EXPECT_EQ(m.Lookup(7)->count, 30u);
  EXPECT_EQ(m.Lookup(7)->error, 3u);
}

TEST(CombineTest, TruncationRaisesMinFreq) {
  CounterSet a({{1, 10, 0}, {2, 6, 0}, {3, 2, 0}}, 1, 18);
  CounterSet b({}, 0, 0);
  CounterSet m = CombineCounterSets(a, b, 2);
  EXPECT_EQ(m.num_counters(), 2u);
  // Dropped key 3 had estimate 2 > min_a + min_b = 1: bound must cover it.
  EXPECT_GE(m.min_freq(), 2u);
  EXPECT_TRUE(m.Lookup(1).has_value());
  EXPECT_TRUE(m.Lookup(2).has_value());
  EXPECT_FALSE(m.Lookup(3).has_value());
}

// Merged partitioned stream preserves the Space Saving guarantees.
TEST(MergeTest, PartitionedStreamBoundsHold) {
  ZipfOptions opt;
  opt.alphabet_size = 2000;
  opt.alpha = 2.0;
  const uint64_t n = 40000;
  Stream s = MakeZipfStream(n, opt);
  ExactCounter exact(s);

  const int kParts = 4;
  const size_t kCapacity = 64;
  std::vector<std::unique_ptr<SpaceSaving>> parts;
  for (int p = 0; p < kParts; ++p) {
    SpaceSavingOptions sso;
    sso.capacity = kCapacity;
    ASSERT_TRUE(sso.Validate().ok());
    parts.push_back(std::make_unique<SpaceSaving>(sso));
  }
  for (size_t i = 0; i < s.size(); ++i) {
    parts[i % kParts]->Offer(s[i]);
  }

  std::vector<const FrequencySummary*> views;
  std::vector<uint64_t> mins;
  for (const auto& p : parts) {
    views.push_back(p.get());
    mins.push_back(p->MinFreq());
  }
  CounterSet merged = MergeSerial(views, mins, kCapacity);

  EXPECT_EQ(merged.stream_length(), n);
  // Upper-bound property: est >= true for all monitored keys.
  for (const Counter& c : merged.counters()) {
    EXPECT_GE(c.count, exact.Count(c.key)) << "key " << c.key;
    // est - err <= true.
    EXPECT_LE(c.GuaranteedCount(), exact.Count(c.key));
  }
  // Unmonitored keys are bounded by merged min_freq.
  for (const auto& [key, truth] : exact.counts()) {
    if (!merged.Lookup(key).has_value()) {
      EXPECT_LE(truth, merged.min_freq()) << "key " << key;
    }
  }
}

TEST(MergeTest, HierarchicalMatchesSerialForPowerOfTwo) {
  ZipfOptions opt;
  opt.alphabet_size = 500;
  opt.alpha = 2.5;
  Stream s = MakeZipfStream(20000, opt);

  const int kParts = 4;
  std::vector<std::unique_ptr<SpaceSaving>> parts;
  for (int p = 0; p < kParts; ++p) {
    SpaceSavingOptions sso;
    sso.capacity = 32;
    ASSERT_TRUE(sso.Validate().ok());
    parts.push_back(std::make_unique<SpaceSaving>(sso));
  }
  for (size_t i = 0; i < s.size(); ++i) parts[i % kParts]->Offer(s[i]);

  std::vector<const FrequencySummary*> views;
  std::vector<uint64_t> mins;
  for (const auto& p : parts) {
    views.push_back(p.get());
    mins.push_back(p->MinFreq());
  }
  CounterSet serial = MergeSerial(views, mins, 32);
  CounterSet hier = MergeHierarchical(views, mins, 32);

  EXPECT_EQ(serial.stream_length(), hier.stream_length());
  // Strategies may order ties differently but the heavy hitters agree: the
  // top 10 keys of each appear in the other with identical estimates only
  // when associativity holds exactly; with truncation the bounds can differ,
  // so assert set-level agreement on the top of the distribution.
  std::vector<Counter> st = serial.CountersDescending();
  std::vector<Counter> ht = hier.CountersDescending();
  ASSERT_GE(st.size(), 5u);
  ASSERT_GE(ht.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(hier.Lookup(st[i].key).has_value())
        << "serial top key " << st[i].key << " missing from hierarchical";
  }
}

// Property test: under any randomized split of a stream into parts — an
// occurrence-level random split merged with kOverlapping, and a
// key-partitioned split merged with kDisjoint — the merged CounterSet keeps
// the Space Saving contract versus ground truth even after truncation back
// down to `capacity`:
//   est >= true and est - err <= true for monitored keys;
//   true <= min_freq for unmonitored keys.
// This is the guarantee CotsFleet's global view rests on, so it is checked
// across randomized part counts, capacities, and skews rather than one
// hand-picked split.
TEST(MergeTest, RandomSplitsPreserveBoundsAfterTruncation) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull);
    ZipfOptions opt;
    opt.alphabet_size = 200 + rng() % 1800;
    opt.alpha = 1.2 + static_cast<double>(rng() % 100) / 80.0;
    opt.seed = seed;
    const uint64_t n = 15000 + rng() % 15000;
    Stream s = MakeZipfStream(n, opt);
    ExactCounter exact(s);

    const uint64_t parts_count = 2 + rng() % 6;
    const size_t capacity = 16 + static_cast<size_t>(rng() % 48);
    // Both physical layouts feed the same merge machinery: linked
    // SpaceSaving parts directly, FlatStreamSummary parts as CounterSet
    // snapshots. The contract may not depend on which one produced the
    // parts (tie-breaking during eviction differs, the bounds may not).
    for (MergeMode mode : {MergeMode::kOverlapping, MergeMode::kDisjoint}) {
      std::vector<std::unique_ptr<SpaceSaving>> linked;
      std::vector<std::unique_ptr<FlatStreamSummary>> flat;
      for (uint64_t p = 0; p < parts_count; ++p) {
        SpaceSavingOptions sso;
        sso.capacity = capacity;
        ASSERT_TRUE(sso.Validate().ok());
        linked.push_back(std::make_unique<SpaceSaving>(sso));
        flat.push_back(std::make_unique<FlatStreamSummary>(capacity));
      }
      std::mt19937_64 assign(seed);
      for (size_t i = 0; i < s.size(); ++i) {
        // kDisjoint requires every occurrence of a key to land on one part
        // (as CotsFleet's hash partitioning does); kOverlapping permits any
        // occurrence-level split.
        const uint64_t p = mode == MergeMode::kDisjoint
                               ? s[i] % parts_count
                               : assign() % parts_count;
        linked[p]->Offer(s[i]);
        flat[p]->Offer(s[i]);
      }

      std::vector<CounterSet> flat_snapshots;
      std::vector<const FrequencySummary*> linked_views, flat_views;
      std::vector<uint64_t> linked_mins, flat_mins;
      for (uint64_t p = 0; p < parts_count; ++p) {
        linked_views.push_back(linked[p].get());
        linked_mins.push_back(linked[p]->MinFreq());
        // The Space Saving bound on unmonitored keys: 0 while not full.
        const uint64_t bound =
            flat[p]->size() < capacity ? 0 : flat[p]->MinFreq();
        flat_snapshots.emplace_back(flat[p]->CountersDescending(), bound,
                                    flat[p]->stream_length());
        flat_mins.push_back(bound);
      }
      for (const CounterSet& c : flat_snapshots) flat_views.push_back(&c);

      for (const bool use_flat : {false, true})
      for (bool hierarchical : {false, true}) {
        const auto& views = use_flat ? flat_views : linked_views;
        const auto& mins = use_flat ? flat_mins : linked_mins;
        CounterSet merged =
            hierarchical ? MergeHierarchical(views, mins, capacity, mode)
                         : MergeSerial(views, mins, capacity, mode);
        SCOPED_TRACE(testing::Message()
                     << "seed=" << seed << " parts=" << parts_count
                     << " capacity=" << capacity << " layout="
                     << (use_flat ? "flat" : "linked") << " mode="
                     << (mode == MergeMode::kDisjoint ? "disjoint"
                                                      : "overlapping")
                     << (hierarchical ? " hierarchical" : " serial"));
        EXPECT_EQ(merged.stream_length(), n);
        EXPECT_LE(merged.num_counters(), capacity);
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
}

TEST(MergeTest, OddNumberOfParts) {
  std::vector<std::unique_ptr<SpaceSaving>> parts;
  for (int p = 0; p < 3; ++p) {
    SpaceSavingOptions sso;
    sso.capacity = 8;
    ASSERT_TRUE(sso.Validate().ok());
    parts.push_back(std::make_unique<SpaceSaving>(sso));
    parts.back()->Offer(static_cast<ElementId>(p + 1), 5);
  }
  std::vector<const FrequencySummary*> views;
  std::vector<uint64_t> mins;
  for (const auto& p : parts) {
    views.push_back(p.get());
    mins.push_back(p->MinFreq());
  }
  CounterSet merged = MergeHierarchical(views, mins, 8);
  EXPECT_EQ(merged.stream_length(), 15u);
  EXPECT_EQ(merged.num_counters(), 3u);
  EXPECT_EQ(merged.Lookup(1)->count, 5u);
}

TEST(MergeTest, EmptyInput) {
  CounterSet merged = MergeSerial({}, {}, 8);
  EXPECT_EQ(merged.num_counters(), 0u);
  EXPECT_EQ(merged.stream_length(), 0u);
}

TEST(MergeTest, SingleInputIsIdentity) {
  SpaceSaving ss = MakeWithCapacity(8);
  ss.Process({1, 1, 2});
  CounterSet merged = MergeSerial({&ss}, {ss.MinFreq()}, 8);
  EXPECT_EQ(merged.Lookup(1)->count, 2u);
  EXPECT_EQ(merged.Lookup(2)->count, 1u);
}

}  // namespace
}  // namespace cots
