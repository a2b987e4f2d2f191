// Seeded randomized fuzzing of the CoTS engine: random mixtures of hot
// keys, churn keys, weighted offers, and concurrent snapshot queries across
// randomized thread counts and capacities. Every round must end with the
// full structural audit green and the Space Saving bounds intact. The seeds
// are fixed, so a failure reproduces deterministically (up to thread
// interleaving).

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "cots/cots_space_saving.h"
#include "stream/exact_counter.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace cots {
namespace {

struct FuzzPlan {
  uint64_t seed;
  size_t capacity;
  int threads;
  uint64_t ops_per_thread;
  uint64_t hot_keys;    // small id range hammered frequently
  uint64_t churn_keys;  // wide id range forcing overwrites
  uint32_t max_weight;
  bool concurrent_reader;
};

class CotsFuzzTest : public ::testing::TestWithParam<FuzzPlan> {};

TEST_P(CotsFuzzTest, RandomizedMixedWorkload) {
  const FuzzPlan plan = GetParam();

  CotsSpaceSavingOptions opt;
  opt.capacity = plan.capacity;
  ASSERT_TRUE(opt.Validate().ok());
  CotsSpaceSaving engine(opt);

  // Ground truth accumulated per thread then merged (exact and lock-free).
  std::vector<std::unordered_map<ElementId, uint64_t>> truths(
      static_cast<size_t>(plan.threads));

  std::atomic<bool> stop_reader{false};
  std::thread reader;
  if (plan.concurrent_reader) {
    reader = std::thread([&] {
      auto handle = engine.RegisterThread();
      while (!stop_reader.load(std::memory_order_relaxed)) {
        std::vector<Counter> snapshot = handle->CountersDescending();
        // Snapshots stay sorted even mid-flight.
        for (size_t i = 1; i < snapshot.size(); ++i) {
          ASSERT_LE(snapshot[i].count, snapshot[i - 1].count);
        }
      }
    });
  }

  std::vector<std::thread> workers;
  for (int t = 0; t < plan.threads; ++t) {
    workers.emplace_back([&, t] {
      auto handle = engine.RegisterThread();
      ASSERT_NE(handle, nullptr);
      Xoshiro256 rng(plan.seed * 1000003 + static_cast<uint64_t>(t));
      auto& truth = truths[static_cast<size_t>(t)];
      for (uint64_t i = 0; i < plan.ops_per_thread; ++i) {
        // 60% hot traffic, 40% churn.
        const bool hot = rng.NextBounded(10) < 6;
        const ElementId e = hot
                                ? 1 + rng.NextBounded(plan.hot_keys)
                                : 1'000'000 + rng.NextBounded(plan.churn_keys);
        const uint64_t weight = 1 + rng.NextBounded(plan.max_weight);
        handle->Offer(e, weight);
        truth[e] += weight;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  stop_reader.store(true);
  if (reader.joinable()) reader.join();

  std::string why;
  ASSERT_TRUE(engine.CheckInvariantsQuiescent(&why)) << why;

  // Merge per-thread truth and validate the bounds.
  std::unordered_map<ElementId, uint64_t> truth;
  uint64_t n = 0;
  for (const auto& partial : truths) {
    for (const auto& [key, count] : partial) {
      truth[key] += count;
      n += count;
    }
  }
  EXPECT_EQ(engine.stream_length(), n);
  // Zero-loss conservation law: every offered unit of weight lands on
  // exactly one monitored counter and eviction inherits it, so the counter
  // sum equals the stream length — no path (overflow fallback, parked or
  // deferred overwrite) may ever drop a count.
  uint64_t conserved = 0;
  for (const Counter& c : engine.CountersDescending()) conserved += c.count;
  EXPECT_EQ(conserved, n);
  for (const Counter& c : engine.CountersDescending()) {
    const uint64_t exact = truth.count(c.key) != 0 ? truth[c.key] : 0;
    EXPECT_LE(exact, c.count) << "key " << c.key;
    EXPECT_LE(c.count, exact + c.error) << "key " << c.key;
  }
  const uint64_t min_bound = engine.MinFreq();
  for (const auto& [key, exact] : truth) {
    if (!engine.Lookup(key).has_value()) {
      EXPECT_LE(exact, min_bound) << "key " << key;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Plans, CotsFuzzTest,
    ::testing::Values(
        FuzzPlan{1, 4, 2, 8000, 4, 5000, 1, false},
        FuzzPlan{2, 64, 4, 6000, 16, 10000, 4, false},
        FuzzPlan{3, 2, 4, 6000, 2, 50000, 2, true},
        FuzzPlan{4, 512, 8, 3000, 64, 2000, 8, true},
        FuzzPlan{5, 16, 3, 8000, 1, 100000, 3, false},
        FuzzPlan{6, 1, 4, 5000, 8, 8000, 5, true},
        FuzzPlan{7, 128, 6, 4000, 32, 500, 1, true},
        FuzzPlan{8, 8, 2, 10000, 4, 4, 16, false}),
    [](const ::testing::TestParamInfo<FuzzPlan>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

// 100 short rounds with every failure branch forced and the schedule
// perturbed: ring overflow fallbacks, forced overwrite deferral (the
// minimum bucket treated as busy, parking the request at the sentinel),
// and yields in the dispatch/close paths. Each round must preserve the
// zero-loss invariant exactly — deferral may delay a count but never drop
// it.
TEST(CotsFailpointStressTest, ZeroLossAcrossHundredPerturbedRounds) {
  if (!COTS_FAILPOINTS_ENABLED) {
    GTEST_SKIP() << "build with -DCOTS_FAILPOINTS=ON to run injection";
  }

  constexpr int kRounds = 100;
  constexpr int kThreads = 2;
  constexpr uint64_t kOpsPerThread = 1200;

  for (int round = 0; round < kRounds; ++round) {
    const uint64_t round_seed = 0x9e3779b9u * static_cast<uint64_t>(round) + 1;

    FailpointSpec yield;
    yield.action = FailpointSpec::Action::kYield;
    yield.num = 1;
    yield.den = 4;
    yield.seed = round_seed;
    Failpoints::Global().Enable("summary.dispatch", yield);
    Failpoints::Global().Enable("summary.bucket_close", yield);
    Failpoints::Global().Enable("summary.orphan_forward", yield);

    FailpointSpec overflow;
    overflow.action = FailpointSpec::Action::kTrigger;
    overflow.num = 1;
    overflow.den = 4;
    overflow.seed = round_seed ^ 0xdeadbeef;
    Failpoints::Global().Enable("request_queue.force_overflow", overflow);

    FailpointSpec defer;
    defer.action = FailpointSpec::Action::kTrigger;
    defer.num = 1;
    defer.den = 2;
    defer.seed = round_seed ^ 0xc0ffee;
    Failpoints::Global().Enable("summary.force_overwrite_defer", defer);

    CotsSpaceSavingOptions opt;
    opt.capacity = 8;
    ASSERT_TRUE(opt.Validate().ok());
    CotsSpaceSaving engine(opt);

    std::vector<std::unordered_map<ElementId, uint64_t>> truths(kThreads);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        auto handle = engine.RegisterThread();
        ASSERT_NE(handle, nullptr);
        Xoshiro256 rng(round_seed * 31 + static_cast<uint64_t>(t));
        auto& truth = truths[static_cast<size_t>(t)];
        for (uint64_t i = 0; i < kOpsPerThread; ++i) {
          const bool hot = rng.NextBounded(10) < 6;
          const ElementId e = hot ? 1 + rng.NextBounded(4)
                                  : 1'000'000 + rng.NextBounded(600);
          const uint64_t weight = 1 + rng.NextBounded(3);
          ASSERT_TRUE(handle->Offer(e, weight));
          truth[e] += weight;
        }
      });
    }
    for (std::thread& w : workers) w.join();
    engine.Stop();  // shutdown drain must flush relayed/parked requests too

    std::unordered_map<ElementId, uint64_t> truth;
    uint64_t n = 0;
    for (const auto& partial : truths) {
      for (const auto& [key, count] : partial) {
        truth[key] += count;
        n += count;
      }
    }
    ASSERT_EQ(engine.stream_length(), n) << "round " << round;
    uint64_t conserved = 0;
    for (const Counter& c : engine.CountersDescending()) {
      conserved += c.count;
      const uint64_t exact = truth.count(c.key) != 0 ? truth[c.key] : 0;
      ASSERT_LE(exact, c.count) << "round " << round << " key " << c.key;
      ASSERT_LE(c.count, exact + c.error)
          << "round " << round << " key " << c.key;
    }
    ASSERT_EQ(conserved, n) << "round " << round;
    std::string why;
    ASSERT_TRUE(engine.CheckInvariantsQuiescent(&why))
        << "round " << round << ": " << why;

    Failpoints::Global().DisableAll();
  }
}

}  // namespace
}  // namespace cots
