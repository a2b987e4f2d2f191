#include "core/published_view.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/counter.h"

namespace cots {
namespace {

// Owns a Build() result for the duration of a test.
std::unique_ptr<const PublishedView> MakeView(std::vector<Counter> counters,
                                              uint64_t n, uint64_t min_freq,
                                              uint64_t seq) {
  return std::unique_ptr<const PublishedView>(
      PublishedView::Build(std::move(counters), n, min_freq, seq));
}

TEST(PublishedViewTest, EmptyView) {
  auto view = MakeView({}, 0, 0, 1);
  EXPECT_EQ(view->size(), 0u);
  EXPECT_EQ(view->stream_length(), 0u);
  EXPECT_EQ(view->Rank(42), PublishedView::kNotFound);
  EXPECT_FALSE(view->Find(42).has_value());
  EXPECT_EQ(view->KthFrequency(1), 0u);
  EXPECT_TRUE(view->TopK(5).empty());
}

TEST(PublishedViewTest, SortsInputAndProbesEveryKey) {
  // Unsorted on purpose: Build must order by (count desc, key asc).
  std::vector<Counter> in = {
      {5, 10, 1}, {1, 50, 0}, {9, 10, 2}, {3, 30, 3}, {7, 20, 0}};
  auto view = MakeView(in, 120, 4, 7);
  ASSERT_EQ(view->size(), 5u);
  EXPECT_EQ(view->stream_length(), 120u);
  EXPECT_EQ(view->min_freq(), 4u);
  EXPECT_EQ(view->sequence(), 7u);

  // Descending order with the key-ascending tie-break (keys 5 and 9 both
  // count 10).
  const std::vector<Counter> desc = view->CountersDescending();
  ASSERT_EQ(desc.size(), 5u);
  EXPECT_EQ(desc[0].key, 1u);
  EXPECT_EQ(desc[1].key, 3u);
  EXPECT_EQ(desc[2].key, 7u);
  EXPECT_EQ(desc[3].key, 5u);
  EXPECT_EQ(desc[4].key, 9u);

  for (const Counter& c : in) {
    const auto found = view->Find(c.key);
    ASSERT_TRUE(found.has_value()) << "key " << c.key;
    EXPECT_EQ(*found, c);
  }
  EXPECT_FALSE(view->Find(1000).has_value());
}

TEST(PublishedViewTest, KthFrequencyLadder) {
  auto view = MakeView({{1, 50, 0}, {2, 30, 0}, {3, 30, 0}, {4, 10, 0}},
                       120, 0, 1);
  EXPECT_EQ(view->KthFrequency(0), 0u);  // k == 0 is out of domain
  EXPECT_EQ(view->KthFrequency(1), 50u);
  EXPECT_EQ(view->KthFrequency(2), 30u);
  EXPECT_EQ(view->KthFrequency(3), 30u);
  EXPECT_EQ(view->KthFrequency(4), 10u);
  EXPECT_EQ(view->KthFrequency(5), 0u);  // fewer than k monitored
}

TEST(PublishedViewTest, TopKPrefix) {
  auto view = MakeView({{1, 50, 0}, {2, 30, 0}, {3, 20, 0}}, 100, 0, 1);
  const std::vector<Counter> top2 = view->TopK(2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0].key, 1u);
  EXPECT_EQ(top2[1].key, 2u);
  // k beyond size clamps.
  EXPECT_EQ(view->TopK(10).size(), 3u);
}

TEST(PublishedViewTest, RankIsDescendingPosition) {
  auto view = MakeView({{10, 5, 0}, {20, 9, 0}, {30, 1, 0}}, 15, 0, 1);
  EXPECT_EQ(view->Rank(20), 0u);
  EXPECT_EQ(view->Rank(10), 1u);
  EXPECT_EQ(view->Rank(30), 2u);
}

TEST(PublishedViewTest, ManyKeysProbeCleanly) {
  // Exercise the index from empty and single-key views to well past one
  // cache line of entries, on both sides of an index-size power of two
  // (1024 keys fill 8192 entries to 1/8; 1025 take 16384), with adjacent
  // keys (worst case for a weak mix).
  for (uint64_t keys : {0, 1, 2, 1000, 1024, 1025}) {
    SCOPED_TRACE(testing::Message() << "keys=" << keys);
    std::vector<Counter> in;
    for (uint64_t k = 0; k < keys; ++k) {
      in.push_back(Counter{k, keys - k, 0});
    }
    auto view = MakeView(in, keys * (keys + 1) / 2, 0, 3);
    ASSERT_EQ(view->size(), keys);
    for (uint64_t k = 0; k < keys; ++k) {
      const auto found = view->Find(k);
      ASSERT_TRUE(found.has_value()) << "key " << k;
      EXPECT_EQ(found->count, keys - k);
      EXPECT_EQ(view->Rank(k), k);  // count = keys - k is already descending
    }
    for (uint64_t k = keys; k < keys + 100; ++k) {
      EXPECT_FALSE(view->Find(k).has_value());
      EXPECT_EQ(view->Rank(k), PublishedView::kNotFound);
    }
  }
}

}  // namespace
}  // namespace cots
