#include "cots/cots_space_saving.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <tuple>
#include <vector>

#include "stream/exact_counter.h"
#include "stream/zipf_generator.h"

namespace cots {
namespace {

CotsSpaceSavingOptions MakeOptions(size_t capacity) {
  CotsSpaceSavingOptions opt;
  opt.capacity = capacity;
  EXPECT_TRUE(opt.Validate().ok());
  return opt;
}

TEST(CotsOptionsTest, Validate) {
  CotsSpaceSavingOptions opt;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt.epsilon = 0.01;
  ASSERT_TRUE(opt.Validate().ok());
  EXPECT_EQ(opt.capacity, 100u);
  EXPECT_EQ(opt.hash_buckets, 400u);
  opt = CotsSpaceSavingOptions{};
  opt.capacity = 10;
  opt.max_threads = 1;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
}

TEST(CotsSpaceSavingTest, SingleThreadBasicCounting) {
  CotsSpaceSaving engine(MakeOptions(10));
  auto handle = engine.RegisterThread();
  ASSERT_NE(handle, nullptr);
  for (ElementId e : Stream{1, 2, 2, 3, 3, 3}) handle->Offer(e);
  EXPECT_EQ(engine.stream_length(), 6u);
  EXPECT_EQ(engine.num_counters(), 3u);
  EXPECT_EQ(handle->Lookup(3)->count, 3u);
  EXPECT_EQ(handle->Lookup(2)->count, 2u);
  EXPECT_EQ(handle->Lookup(1)->count, 1u);
  EXPECT_EQ(handle->Lookup(1)->error, 0u);
  EXPECT_FALSE(handle->Lookup(99).has_value());
  EXPECT_TRUE(engine.CheckInvariantsQuiescent());
}

TEST(CotsSpaceSavingTest, OverwriteEvictsAndCarriesError) {
  CotsSpaceSaving engine(MakeOptions(2));
  auto handle = engine.RegisterThread();
  handle->Offer(1);
  handle->Offer(2);
  handle->Offer(2);
  handle->Offer(3);  // capacity 2: must overwrite element 1 (freq 1)
  EXPECT_FALSE(handle->Lookup(1).has_value());
  ASSERT_TRUE(handle->Lookup(3).has_value());
  EXPECT_EQ(handle->Lookup(3)->count, 2u);
  EXPECT_EQ(handle->Lookup(3)->error, 1u);
  EXPECT_EQ(engine.num_counters(), 2u);
  EXPECT_TRUE(engine.CheckInvariantsQuiescent());
}

TEST(CotsSpaceSavingTest, CountersDescendingSorted) {
  CotsSpaceSaving engine(MakeOptions(50));
  auto handle = engine.RegisterThread();
  ZipfOptions zopt;
  zopt.alphabet_size = 40;
  zopt.alpha = 1.5;
  for (ElementId e : MakeZipfStream(5000, zopt)) handle->Offer(e);
  std::vector<Counter> counters = handle->CountersDescending();
  ASSERT_FALSE(counters.empty());
  uint64_t total = 0;
  for (size_t i = 0; i < counters.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(counters[i - 1].count, counters[i].count);
    }
    total += counters[i].count;
  }
  EXPECT_EQ(total, 5000u);
  EXPECT_TRUE(engine.CheckInvariantsQuiescent());
}

TEST(CotsSpaceSavingTest, WeightedOffersConserve) {
  CotsSpaceSaving engine(MakeOptions(4));
  auto handle = engine.RegisterThread();
  handle->Offer(1, 10);
  handle->Offer(2, 5);
  handle->Offer(1, 3);
  EXPECT_EQ(engine.stream_length(), 18u);
  EXPECT_EQ(handle->Lookup(1)->count, 13u);
  EXPECT_EQ(handle->Lookup(2)->count, 5u);
  EXPECT_TRUE(engine.CheckInvariantsQuiescent());
}

TEST(CotsSpaceSavingTest, SharedQueryInterface) {
  CotsSpaceSaving engine(MakeOptions(8));
  auto handle = engine.RegisterThread();
  handle->Offer(5);
  handle->Offer(5);
  // Unregistered-thread path through the FrequencySummary interface.
  EXPECT_EQ(engine.Lookup(5)->count, 2u);
  EXPECT_EQ(engine.CountersDescending().size(), 1u);
  EXPECT_EQ(engine.MinFreq(), 0u);  // not full
}

TEST(CotsSpaceSavingTest, MinFreqBoundsUnmonitored) {
  CotsSpaceSaving engine(MakeOptions(8));
  auto handle = engine.RegisterThread();
  ZipfOptions zopt;
  zopt.alphabet_size = 1000;
  zopt.alpha = 1.5;
  Stream s = MakeZipfStream(20000, zopt);
  for (ElementId e : s) handle->Offer(e);
  ExactCounter exact(s);
  const uint64_t bound = engine.MinFreq();
  EXPECT_GT(bound, 0u);
  for (const auto& [key, truth] : exact.counts()) {
    if (!handle->Lookup(key).has_value()) {
      EXPECT_LE(truth, bound) << "key " << key;
    }
  }
}

TEST(CotsSpaceSavingTest, RegisterThreadExhaustsSlots) {
  CotsSpaceSavingOptions opt;
  opt.capacity = 4;
  opt.max_threads = 3;  // one slot goes to the shared query participant
  ASSERT_TRUE(opt.Validate().ok());
  CotsSpaceSaving engine(opt);
  auto a = engine.RegisterThread();
  auto b = engine.RegisterThread();
  EXPECT_NE(a, nullptr);
  EXPECT_NE(b, nullptr);
  EXPECT_EQ(engine.RegisterThread(), nullptr);
  a.reset();
  EXPECT_NE(engine.RegisterThread(), nullptr);
}

// The central correctness sweep: for every (threads, alpha, capacity), the
// Space Saving guarantees hold at quiescence no matter how the stream was
// interleaved across threads.
class CotsStressTest
    : public ::testing::TestWithParam<std::tuple<int, double, size_t>> {};

TEST_P(CotsStressTest, GuaranteesHoldUnderConcurrency) {
  const int threads = std::get<0>(GetParam());
  const double alpha = std::get<1>(GetParam());
  const size_t capacity = std::get<2>(GetParam());

  CotsSpaceSaving engine(MakeOptions(capacity));
  ZipfOptions zopt;
  zopt.alphabet_size = 4000;  // >> capacity: exercises overwrite/GC heavily
  zopt.alpha = alpha;
  zopt.seed = 1234;
  const uint64_t n = 40000;
  Stream s = MakeZipfStream(n, zopt);

  std::vector<std::thread> workers;
  const uint64_t slice = n / static_cast<uint64_t>(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      auto handle = engine.RegisterThread();
      ASSERT_NE(handle, nullptr);
      const uint64_t begin = slice * static_cast<uint64_t>(t);
      const uint64_t end = t == threads - 1 ? n : begin + slice;
      for (uint64_t i = begin; i < end; ++i) handle->Offer(s[i]);
    });
  }
  for (std::thread& w : workers) w.join();

  // P1 + structural: conservation and full internal consistency.
  std::string why;
  ASSERT_TRUE(engine.CheckInvariantsQuiescent(&why)) << why;
  EXPECT_EQ(engine.stream_length(), n);

  // P2: per-element bounds vs ground truth.
  ExactCounter exact(s);
  for (const Counter& c : engine.CountersDescending()) {
    const uint64_t truth = exact.Count(c.key);
    EXPECT_LE(truth, c.count) << "key " << c.key;
    EXPECT_LE(c.count, truth + c.error) << "key " << c.key;
  }

  // P3/P4: frequent elements above N/m are monitored.
  for (const auto& [key, truth] : exact.counts()) {
    if (truth > n / capacity) {
      EXPECT_TRUE(engine.Lookup(key).has_value())
          << "key " << key << " freq " << truth;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsByAlphaByCapacity, CotsStressTest,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(1.1, 2.0, 3.0),
                       ::testing::Values(size_t{8}, size_t{64}, size_t{512})));

TEST(CotsSpaceSavingTest, ConstantStreamBulkIncrements) {
  // Every thread hammers one element: the delegation model should collapse
  // most occurrences into bulk increments instead of serializing threads.
  CotsSpaceSaving engine(MakeOptions(4));
  const int kThreads = 4;
  const uint64_t kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      auto handle = engine.RegisterThread();
      ASSERT_NE(handle, nullptr);
      for (uint64_t i = 0; i < kPerThread; ++i) handle->Offer(42);
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(engine.Lookup(42)->count, kThreads * kPerThread);
  EXPECT_EQ(engine.num_counters(), 1u);
  EXPECT_TRUE(engine.CheckInvariantsQuiescent());
}

TEST(CotsSpaceSavingTest, RoundRobinChurnTinyCapacity) {
  // Worst case for overwrite/defer/GC: alphabet >> capacity, uniform-ish.
  CotsSpaceSaving engine(MakeOptions(2));
  const int kThreads = 4;
  Stream s = MakeRoundRobinStream(20000, 500);
  std::vector<std::thread> workers;
  const size_t slice = s.size() / kThreads;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      auto handle = engine.RegisterThread();
      ASSERT_NE(handle, nullptr);
      const size_t begin = slice * static_cast<size_t>(t);
      const size_t end = t == kThreads - 1 ? s.size() : begin + slice;
      for (size_t i = begin; i < end; ++i) handle->Offer(s[i]);
    });
  }
  for (std::thread& w : workers) w.join();
  std::string why;
  EXPECT_TRUE(engine.CheckInvariantsQuiescent(&why)) << why;
  EXPECT_EQ(engine.stream_length(), 20000u);
  EXPECT_EQ(engine.num_counters(), 2u);
}

TEST(CotsSpaceSavingTest, SkewFlipAdaptsHotSet) {
  CotsSpaceSaving engine(MakeOptions(32));
  ZipfOptions zopt;
  zopt.alphabet_size = 2000;
  zopt.alpha = 2.5;
  Stream s = MakeSkewFlipStream(30000, zopt);
  const int kThreads = 2;
  std::vector<std::thread> workers;
  const size_t slice = s.size() / kThreads;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      auto handle = engine.RegisterThread();
      const size_t begin = slice * static_cast<size_t>(t);
      const size_t end = t == kThreads - 1 ? s.size() : begin + slice;
      for (size_t i = begin; i < end; ++i) handle->Offer(s[i]);
    });
  }
  for (std::thread& w : workers) w.join();
  ASSERT_TRUE(engine.CheckInvariantsQuiescent());
  // The flipped second-half heavy hitter must now be monitored.
  ExactCounter exact(s);
  std::vector<ElementId> top = exact.TopK(3);
  for (ElementId e : top) {
    EXPECT_TRUE(engine.Lookup(e).has_value()) << "hot key " << e;
  }
}

TEST(CotsSpaceSavingTest, ConcurrentQueriesDuringWrites) {
  CotsSpaceSaving engine(MakeOptions(64));
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    auto handle = engine.RegisterThread();
    ASSERT_NE(handle, nullptr);
    while (!stop.load()) {
      std::vector<Counter> counters = handle->CountersDescending();
      EXPECT_LE(counters.size(), 64u * 2 + 64);  // defensive bound holds
      handle->Lookup(1);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&, t] {
      auto handle = engine.RegisterThread();
      ASSERT_NE(handle, nullptr);
      ZipfOptions zopt;
      zopt.alphabet_size = 1000;
      zopt.alpha = 2.0;
      zopt.seed = 55 + static_cast<uint64_t>(t);
      for (ElementId e : MakeZipfStream(30000, zopt)) handle->Offer(e);
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true);
  reader.join();
  EXPECT_TRUE(engine.CheckInvariantsQuiescent());
}

// A snapshot taken mid-ingest never holds more mass than the stream
// length read after it. Overwrites reuse the victim's node for the new key
// and move it up the bucket list, so a walk that read the victim early
// must not also report the node again under its new key.
TEST(CotsSpaceSavingTest, SnapshotMassNeverExceedsLaterStreamLength) {
  CotsSpaceSaving engine(MakeOptions(64));
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&, t] {
      auto handle = engine.RegisterThread();
      ASSERT_NE(handle, nullptr);
      // Half the stream is 8 hot keys, half churns over 4096 keys, so
      // nearly every cold offer overwrites the minimum.
      uint64_t x = 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(t + 1);
      std::vector<ElementId> batch(256);
      while (!stop.load(std::memory_order_relaxed)) {
        for (ElementId& e : batch) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
          e = (x & 1) ? x % 8 : x % 4096;
        }
        ASSERT_TRUE(handle->OfferBatch(batch.data(), batch.size()));
      }
    });
  }
  auto reader = engine.RegisterThread();
  ASSERT_NE(reader, nullptr);
  // Snapshot only once the summary is full and every cold offer evicts.
  while (engine.stream_length() < (uint64_t{1} << 16)) {
    std::this_thread::yield();
  }
  for (int i = 0; i < 5000; ++i) {
    uint64_t mass = 0;
    for (const Counter& c : reader->CountersDescending()) mass += c.count;
    const uint64_t n = engine.stream_length();
    if (mass > n) {
      ADD_FAILURE() << "snapshot " << i << " mass " << mass << " > " << n;
      break;
    }
  }
  stop.store(true);
  for (std::thread& w : writers) w.join();
}

TEST(CotsSpaceSavingTest, StatsReflectDelegation) {
  CotsSpaceSaving engine(MakeOptions(16));
  const int kThreads = 4;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      auto handle = engine.RegisterThread();
      for (uint64_t i = 0; i < 20000; ++i) handle->Offer(7);  // one hot key
    });
  }
  for (std::thread& w : workers) w.join();
  // With one core this can degenerate to near-serial execution, but any
  // overlap at all shows up as bulk increments; buckets were created as the
  // counter climbed.
  EXPECT_GT(engine.stats().buckets_created.load(), 0u);
  EXPECT_TRUE(engine.CheckInvariantsQuiescent());
}

// ---- OfferBatch equivalence ------------------------------------------------
//
// Coalescing applies a window's duplicate occurrences at the key's first
// position, which reorders *within* a batch window. Below capacity no
// eviction ever happens and counting is order-independent, so batch ingest
// must match element-at-a-time ingest EXACTLY for any pipeline knobs. Above
// capacity, eviction choices are order-sensitive, so equivalence is the
// Space Saving epsilon guarantee, which holds for every arrival order.

void IngestBatched(CotsSpaceSaving* engine, const Stream& s, size_t batch,
                   const BatchIngestOptions& options) {
  auto handle = engine->RegisterThread();
  for (size_t i = 0; i < s.size(); i += batch) {
    handle->OfferBatch(s.data() + i, std::min(batch, s.size() - i), options);
  }
}

void IngestLooped(CotsSpaceSaving* engine, const Stream& s) {
  auto handle = engine->RegisterThread();
  for (ElementId e : s) handle->Offer(e);
}

// A window stuffed with duplicate runs: the worst case for coalescing (one
// weighted offer replaces hundreds) and for the in-batch index (adjacent
// and strided repeats).
Stream MakeAdversarialDuplicateStream(uint64_t n) {
  Stream s;
  s.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    if (i % 7 < 4) {
      s.push_back(1 + (i / 512) % 3);  // long runs of a few hot keys
    } else if (i % 7 < 6) {
      s.push_back(100 + i % 5);  // strided repeats within one window
    } else {
      s.push_back(1000 + i);  // singletons
    }
  }
  return s;
}

void ExpectExactMatch(const CotsSpaceSaving& batched,
                      const CotsSpaceSaving& looped) {
  EXPECT_EQ(batched.stream_length(), looped.stream_length());
  std::vector<Counter> a = batched.CountersDescending();
  std::vector<Counter> b = looped.CountersDescending();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key) << i;
    EXPECT_EQ(a[i].count, b[i].count) << i;
    EXPECT_EQ(a[i].error, b[i].error) << i;
  }
  EXPECT_TRUE(batched.CheckInvariantsQuiescent());
}

TEST(CotsSpaceSavingTest, OfferBatchMatchesLoopNoEviction) {
  ZipfOptions zopt;
  zopt.alphabet_size = 400;
  zopt.alpha = 1.5;
  const std::vector<std::pair<const char*, Stream>> streams = {
      {"zipf", MakeZipfStream(20000, zopt)},
      {"uniform", MakeUniformStream(20000, 400, 99)},
      {"adversarial-dup", MakeAdversarialDuplicateStream(20000)},
  };
  // Sweep the pipeline knobs: default, coalescing off, prefetch off, both
  // off (plain loop), and an oversized distance.
  const BatchIngestOptions kKnobs[] = {
      {},
      {.prefetch_distance = 0, .coalesce = true},
      {.prefetch_distance = 8, .coalesce = false},
      {.prefetch_distance = 0, .coalesce = false},
      {.prefetch_distance = 64, .coalesce = true},
  };
  for (const auto& [name, s] : streams) {
    CotsSpaceSaving looped(MakeOptions(2048));  // capacity > alphabet
    IngestLooped(&looped, s);
    for (const BatchIngestOptions& knobs : kKnobs) {
      SCOPED_TRACE(testing::Message()
                   << name << " dist=" << knobs.prefetch_distance
                   << " coalesce=" << knobs.coalesce);
      CotsSpaceSaving batched(MakeOptions(2048));
      IngestBatched(&batched, s, 256, knobs);
      ExpectExactMatch(batched, looped);
    }
  }
}

TEST(CotsSpaceSavingTest, OfferBatchKeepsSpaceSavingBoundsUnderEviction) {
  ZipfOptions zopt;
  zopt.alphabet_size = 500;
  zopt.alpha = 2.0;
  const std::vector<std::pair<const char*, Stream>> streams = {
      {"zipf", MakeZipfStream(20000, zopt)},
      {"uniform", MakeUniformStream(20000, 500, 7)},
      {"adversarial-dup", MakeAdversarialDuplicateStream(20000)},
  };
  constexpr size_t kCapacity = 32;
  for (const auto& [name, s] : streams) {
    SCOPED_TRACE(name);
    ExactCounter exact(s);
    CotsSpaceSaving batched(MakeOptions(kCapacity));
    IngestBatched(&batched, s, 256, BatchIngestOptions{});
    std::string why;
    ASSERT_TRUE(batched.CheckInvariantsQuiescent(&why)) << why;
    EXPECT_EQ(batched.stream_length(), s.size());
    // Space Saving guarantees, independent of arrival order: estimates
    // overcount by at most `error`, and error <= N / m.
    const uint64_t eps_bound = s.size() / kCapacity;
    for (const Counter& c : batched.CountersDescending()) {
      const uint64_t truth = exact.Count(c.key);
      EXPECT_GE(c.count, truth) << "undercount for key " << c.key;
      EXPECT_LE(c.count - c.error, truth) << "bad lower bound " << c.key;
      EXPECT_LE(c.error, eps_bound) << "error above N/m for key " << c.key;
    }
    // Every true heavy hitter (count > N/m) must be monitored.
    for (ElementId hh : exact.FrequentElements(eps_bound)) {
      EXPECT_TRUE(batched.Lookup(hh).has_value())
          << "missing heavy hitter " << hh;
    }
  }
}

TEST(CotsSpaceSavingTest, OfferBatchConcurrent) {
  CotsSpaceSaving engine(MakeOptions(64));
  ZipfOptions zopt;
  zopt.alphabet_size = 2000;
  zopt.alpha = 2.0;
  Stream s = MakeZipfStream(40000, zopt);
  const int kThreads = 4;
  std::vector<std::thread> workers;
  const size_t slice = s.size() / kThreads;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      auto handle = engine.RegisterThread();
      const size_t begin = slice * static_cast<size_t>(t);
      const size_t end = t == kThreads - 1 ? s.size() : begin + slice;
      constexpr size_t kBatch = 128;
      for (size_t i = begin; i < end; i += kBatch) {
        handle->OfferBatch(s.data() + i, std::min(kBatch, end - i));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  std::string why;
  ASSERT_TRUE(engine.CheckInvariantsQuiescent(&why)) << why;
  EXPECT_EQ(engine.stream_length(), s.size());
}

TEST(CotsSpaceSavingTest, CapacityOneDegenerate) {
  CotsSpaceSaving engine(MakeOptions(1));
  auto handle = engine.RegisterThread();
  for (ElementId e : Stream{1, 2, 3, 4, 5}) handle->Offer(e);
  EXPECT_EQ(engine.num_counters(), 1u);
  EXPECT_EQ(handle->Lookup(5)->count, 5u);
  EXPECT_EQ(handle->Lookup(5)->error, 4u);
  EXPECT_TRUE(engine.CheckInvariantsQuiescent());
}

}  // namespace
}  // namespace cots
