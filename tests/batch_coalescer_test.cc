// BatchCoalescer tests: Merge and CoalesceIfRepeated against a reference
// count in first-occurrence order, over keys that collide in the
// coalescer's Fibonacci hash (including a probe run that wraps past the
// last slot), dense keys 0..63, the extreme keys 0 and UINT64_MAX, and many
// batches through one coalescer (stamped reset, index growth). The 64-key
// sample rule is pinned at its threshold.

#include "cots/batch_coalescer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "util/random.h"

namespace cots {
namespace {

constexpr ElementId kMaxKey = std::numeric_limits<ElementId>::max();
constexpr uint64_t kFibonacci = 0x9e3779b97f4a7c15ULL;

// Each distinct key once, in first-occurrence order, with its count.
std::vector<WeightedKey> Reference(const std::vector<ElementId>& batch) {
  std::unordered_map<ElementId, size_t> index;
  std::vector<WeightedKey> out;
  for (ElementId e : batch) {
    const auto [it, fresh] = index.try_emplace(e, out.size());
    if (fresh) out.push_back(WeightedKey{e, 0});
    ++out[it->second].weight;
  }
  return out;
}

void ExpectMatches(const std::vector<WeightedKey>& got,
                   const std::vector<ElementId>& batch) {
  const std::vector<WeightedKey> want = Reference(batch);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key) << "entry " << i;
    EXPECT_EQ(got[i].weight, want[i].weight) << "entry " << i;
  }
}

// n keys whose Fibonacci products are top16 << 48 plus 0..n-1: they agree in
// their top 16 bits, so they share one home slot in every index of up to
// 2^16 slots and probe past each other. The keys are the products times the
// multiplier's inverse mod 2^64 (Newton's iteration; 3 correct bits double
// to 96 in five steps).
std::vector<ElementId> CollidingKeys(uint64_t top16, size_t n) {
  uint64_t inverse = kFibonacci;
  for (int i = 0; i < 5; ++i) inverse *= 2 - kFibonacci * inverse;
  std::vector<ElementId> keys;
  for (size_t j = 0; j < n; ++j) {
    keys.push_back(inverse * ((top16 << 48) + j));
    EXPECT_EQ((keys.back() * kFibonacci) >> 48, top16);
  }
  return keys;
}

TEST(BatchCoalescerTest, MergeCountsCollidingDenseAndExtremeKeys) {
  // Home slot 0 and the last slot: the second run's probes wrap to slot 0.
  std::vector<ElementId> pool = CollidingKeys(0, 12);
  for (ElementId e : CollidingKeys(0xffff, 12)) pool.push_back(e);
  for (ElementId e = 0; e < 64; ++e) pool.push_back(e);
  pool.push_back(kMaxKey);
  pool.push_back(kMaxKey - 1);
  Xoshiro256 rng(7);
  for (size_t len : {1u, 2u, 63u, 64u, 65u, 512u, 2000u}) {
    SCOPED_TRACE(len);
    std::vector<ElementId> batch(len);
    for (ElementId& e : batch) e = pool[rng.NextBounded(pool.size())];
    BatchCoalescer coalescer;
    coalescer.Merge(batch.data(), batch.size());
    ExpectMatches(coalescer.weighted(), batch);
  }
}

TEST(BatchCoalescerTest, DenseKeysEachKeepTheirCount) {
  // 0..63, eight times over in a shuffled order: 64 entries of weight 8,
  // ordered by each key's first appearance.
  std::vector<ElementId> batch;
  for (int round = 0; round < 8; ++round) {
    for (ElementId e = 0; e < 64; ++e) batch.push_back(e);
  }
  Xoshiro256 rng(11);
  for (size_t i = batch.size() - 1; i > 0; --i) {
    std::swap(batch[i], batch[rng.NextBounded(i + 1)]);
  }
  BatchCoalescer coalescer;
  ASSERT_TRUE(coalescer.CoalesceIfRepeated(batch.data(), batch.size()));
  ASSERT_EQ(coalescer.weighted().size(), 64u);
  for (const WeightedKey& k : coalescer.weighted()) EXPECT_EQ(k.weight, 8u);
  ExpectMatches(coalescer.weighted(), batch);
}

TEST(BatchCoalescerTest, SampleRuleMergesFromSixteenRepeatsInTheFirst64) {
  BatchCoalescer coalescer;
  for (size_t repeats : {BatchCoalescer::kMinRepeats - 1,
                         BatchCoalescer::kMinRepeats}) {
    SCOPED_TRACE(repeats);
    // The first 64 keys: 64 - repeats distinct keys (0 and UINT64_MAX
    // among them), then `repeats` copies of key 0. After the sample,
    // only repeats: they must not count towards the rule.
    std::vector<ElementId> batch = {0, kMaxKey};
    for (ElementId e = 1; batch.size() < BatchCoalescer::kSample - repeats;
         ++e) {
      batch.push_back(e * 1000);
    }
    while (batch.size() < BatchCoalescer::kSample) batch.push_back(0);
    for (int i = 0; i < 448; ++i) batch.push_back(kMaxKey);
    const bool merged =
        coalescer.CoalesceIfRepeated(batch.data(), batch.size());
    EXPECT_EQ(merged, repeats >= BatchCoalescer::kMinRepeats);
    if (merged) ExpectMatches(coalescer.weighted(), batch);
  }
  // A batch shorter than the sample is judged on all of its keys.
  const std::vector<ElementId> short_batch(20, 5);
  ASSERT_TRUE(coalescer.CoalesceIfRepeated(short_batch.data(),
                                           short_batch.size()));
  ExpectMatches(coalescer.weighted(), short_batch);
}

TEST(BatchCoalescerTest, OneCoalescerServesManyBatches) {
  // Stamps reset the index between batches, and it grows with the batch:
  // each batch must match its own reference, with nothing carried over.
  const std::vector<ElementId> colliding = CollidingKeys(0x8000, 40);
  BatchCoalescer coalescer;
  Xoshiro256 rng(23);
  for (int b = 0; b < 300; ++b) {
    SCOPED_TRACE(b);
    std::vector<ElementId> batch(1 + rng.NextBounded(b < 150 ? 128 : 1024));
    for (ElementId& e : batch) {
      switch (rng.NextBounded(4)) {
        case 0: e = colliding[rng.NextBounded(colliding.size())]; break;
        case 1: e = rng.NextBounded(64); break;
        case 2: e = rng.NextBounded(2) == 0 ? 0 : kMaxKey; break;
        default: e = rng.Next(); break;
      }
    }
    if (b % 2 == 0) {
      coalescer.Merge(batch.data(), batch.size());
      ExpectMatches(coalescer.weighted(), batch);
    } else if (coalescer.CoalesceIfRepeated(batch.data(), batch.size())) {
      ExpectMatches(coalescer.weighted(), batch);
    }
  }
}

}  // namespace
}  // namespace cots
