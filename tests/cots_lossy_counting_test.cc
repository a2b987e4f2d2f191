#include "cots/cots_lossy_counting.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/lossy_counting.h"
#include "stream/exact_counter.h"
#include "stream/zipf_generator.h"
#include "util/failpoint.h"

namespace cots {
namespace {

TEST(CotsLossyCountingOptionsTest, Validate) {
  CotsLossyCountingOptions opt;
  EXPECT_TRUE(opt.Validate().ok());
  opt.epsilon = 0.0;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt = CotsLossyCountingOptions{};
  opt.max_threads = 1;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
}

TEST(CotsLossyCountingTest, CountsWithoutEviction) {
  CotsLossyCountingOptions opt;
  opt.epsilon = 0.001;  // width 1000: no boundary in this test
  CotsLossyCounting engine(opt);
  auto handle = engine.RegisterThread();
  ASSERT_NE(handle, nullptr);
  for (ElementId e : Stream{1, 2, 2, 3, 3, 3}) handle->Offer(e);
  EXPECT_EQ(engine.stream_length(), 6u);
  EXPECT_EQ(handle->Lookup(3)->count, 3u);
  EXPECT_EQ(handle->Lookup(1)->count, 1u);
  EXPECT_EQ(engine.rounds_completed(), 0u);
  EXPECT_TRUE(engine.CheckInvariantsQuiescent());
}

TEST(CotsLossyCountingTest, RoundBoundaryEvicts) {
  CotsLossyCountingOptions opt;
  opt.epsilon = 0.25;  // width 4
  CotsLossyCounting engine(opt);
  auto handle = engine.RegisterThread();
  // Round 1: {1,1,1,2} — at the boundary, 2 (estimate 1 <= 1) is evicted.
  for (ElementId e : Stream{1, 1, 1, 2}) handle->Offer(e);
  EXPECT_EQ(engine.rounds_completed(), 1u);
  EXPECT_TRUE(handle->Lookup(1).has_value());
  EXPECT_FALSE(handle->Lookup(2).has_value());
  EXPECT_TRUE(engine.CheckInvariantsQuiescent());
}

TEST(CotsLossyCountingTest, ReadmissionCarriesDelta) {
  CotsLossyCountingOptions opt;
  opt.epsilon = 0.25;  // width 4
  CotsLossyCounting engine(opt);
  auto handle = engine.RegisterThread();
  for (ElementId e : Stream{1, 1, 1, 2}) handle->Offer(e);  // 2 evicted
  for (ElementId e : Stream{2, 2, 1}) handle->Offer(e);     // 2 re-enters
  ASSERT_TRUE(handle->Lookup(2).has_value());
  // Estimate = 2 observed + delta 1; error = 1. True count is 3.
  EXPECT_EQ(handle->Lookup(2)->count, 3u);
  EXPECT_EQ(handle->Lookup(2)->error, 1u);
}

// Offers a 30k-key zipf stream from `threads` threads and checks the
// Lossy Counting guarantees against exact counts.
void ExpectEpsilonGuaranteeUnderConcurrency(int threads, double alpha) {
  CotsLossyCountingOptions opt;
  opt.epsilon = 0.005;  // width 200: many rounds over 30k elements
  CotsLossyCounting engine(opt);

  ZipfOptions zopt;
  zopt.alphabet_size = 2000;
  zopt.alpha = alpha;
  zopt.seed = 77;
  const uint64_t n = 30000;
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

  std::string why;
  ASSERT_TRUE(engine.CheckInvariantsQuiescent(&why)) << why;
  EXPECT_EQ(engine.stream_length(), n);
  EXPECT_GE(engine.rounds_completed(), n / 200 - 1);

  ExactCounter exact(s);
  const uint64_t eps_n = static_cast<uint64_t>(0.005 * static_cast<double>(n));
  for (const Counter& c : engine.CountersDescending()) {
    const uint64_t truth = exact.Count(c.key);
    // Over-estimate by at most epsilon * N (delta bound).
    EXPECT_LE(truth, c.count) << "key " << c.key;
    EXPECT_LE(c.count, truth + eps_n + 1) << "key " << c.key;
  }
  // Every element with true frequency > epsilon*N must be monitored.
  for (const auto& [key, truth] : exact.counts()) {
    if (truth > eps_n) {
      EXPECT_TRUE(engine.Lookup(key).has_value())
          << "key " << key << " freq " << truth;
    }
  }
}

class CotsLossyCountingStressTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(CotsLossyCountingStressTest, EpsilonGuaranteeUnderConcurrency) {
  ExpectEpsilonGuaranteeUnderConcurrency(std::get<0>(GetParam()),
                                         std::get<1>(GetParam()));
}

// The race behind a one-short bound: between an offer's read of the
// stream position and its re-insert of an element, the offer completing a
// round may sweep the element's earlier entry. Stalling inside that window
// makes the race common (with the re-insert's delta taken from the stream
// position alone, this fails within a few runs, one short: 537 vs 536);
// the re-inserted entry's delta must still cover the sweep.
TEST(CotsLossyCountingSweepRaceTest, SweepInsideTheDeltaWindowKeepsBounds) {
  if (!COTS_FAILPOINTS_ENABLED) {
    GTEST_SKIP() << "build with -DCOTS_FAILPOINTS=ON to run injection";
  }
  FailpointSpec stall;
  stall.action = FailpointSpec::Action::kSpin;
  stall.num = 1;
  stall.den = 2;
  stall.spin_iters = 4000;
  Failpoints::Global().Enable("lossy.delta_window", stall);
  for (int round = 0; round < 4; ++round) {
    for (const double alpha : {1.1, 2.0, 3.0}) {
      SCOPED_TRACE(::testing::Message()
                   << "round " << round << " alpha " << alpha);
      ExpectEpsilonGuaranteeUnderConcurrency(/*threads=*/4, alpha);
    }
  }
  Failpoints::Global().DisableAll();
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsByAlpha, CotsLossyCountingStressTest,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(1.1, 2.0, 3.0)));

TEST(CotsLossyCountingTest, SpaceStaysBoundedUnderChurn) {
  CotsLossyCountingOptions opt;
  opt.epsilon = 0.01;  // width 100
  CotsLossyCounting engine(opt);
  auto handle = engine.RegisterThread();
  // Adversarial churn: round-robin over a large alphabet. Lossy Counting
  // space is O((1/eps) log(eps N)) ~ 100 * ln(1000) ~ 690.
  for (ElementId e : MakeRoundRobinStream(100000, 5000)) handle->Offer(e);
  EXPECT_LE(engine.num_counters(), 1200u);
  EXPECT_TRUE(engine.CheckInvariantsQuiescent());
}

TEST(CotsLossyCountingTest, MatchesSequentialRecall) {
  // Parallel and sequential Lossy Counting agree on which heavy hitters
  // survive (estimates may differ by interleaving).
  CotsLossyCountingOptions copt;
  copt.epsilon = 0.01;
  CotsLossyCounting parallel(copt);
  LossyCountingOptions sopt;
  sopt.epsilon = 0.01;
  LossyCounting sequential(sopt);

  ZipfOptions zopt;
  zopt.alphabet_size = 1000;
  zopt.alpha = 2.0;
  const uint64_t n = 20000;
  Stream s = MakeZipfStream(n, zopt);
  auto handle = parallel.RegisterThread();
  for (ElementId e : s) {
    handle->Offer(e);
    sequential.Offer(e);
  }
  ExactCounter exact(s);
  const uint64_t eps_n = n / 100;
  for (const auto& [key, truth] : exact.counts()) {
    if (truth > eps_n) {
      EXPECT_TRUE(parallel.Lookup(key).has_value());
      EXPECT_TRUE(sequential.Lookup(key).has_value());
    }
  }
}

}  // namespace
}  // namespace cots
