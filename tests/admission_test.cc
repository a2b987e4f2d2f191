// AdmissionController state machine (DESIGN.md §13.2), driven through
// Update() with its fixed thresholds: baseline on the first sample,
// immediate escalation, and the calm-streak hysteresis on the way down.

#include "cots/admission.h"

#include <gtest/gtest.h>

namespace cots {
namespace {

constexpr size_t kPressureDepth = AdmissionController::kBackpressureQueueDepth;

// A calm sample: queue depth below half the Backpressure threshold and no
// new overloaded offers.
AdmissionSignals Calm(uint64_t overloaded_total = 0) {
  AdmissionSignals s;
  s.queue_depth = kPressureDepth / 2 - 1;
  s.overloaded_offers = overloaded_total;
  return s;
}

AdmissionSignals Depth(size_t depth) {
  AdmissionSignals s;
  s.queue_depth = depth;
  return s;
}

// Drives a fresh controller into `state` through Update() alone.
void EscalateTo(AdmissionController* c, AdmissionState state) {
  c->Update(Calm());  // baseline
  const size_t depth = state == AdmissionState::kShedding
                           ? AdmissionController::kSheddingQueueDepth
                           : kPressureDepth;
  ASSERT_EQ(c->Update(Depth(depth)), state);
}

TEST(AdmissionControllerTest, FirstSampleOnlySetsTheBaseline) {
  AdmissionController c;
  // A controller attached to a long-running process sees a large
  // cumulative count on its first sample; that is history, not a burst.
  EXPECT_EQ(c.Update(Calm(/*overloaded_total=*/1'000'000)),
            AdmissionState::kHealthy);
  EXPECT_EQ(c.Update(Calm(1'000'000)), AdmissionState::kHealthy);
  EXPECT_EQ(c.transitions(), 0u);
}

TEST(AdmissionControllerTest, OneBadSampleEscalatesAtOnce) {
  AdmissionController overloaded;
  overloaded.Update(Calm(100));
  // The first overloaded offer of an interval is already a missed deadline.
  EXPECT_EQ(overloaded.Update(Calm(101)), AdmissionState::kBackpressure);

  AdmissionController storm;
  storm.Update(Calm(100));
  // A steady stream of them jumps Healthy -> Shedding in one sample.
  EXPECT_EQ(
      storm.Update(Calm(100 + AdmissionController::kSheddingOverloadedOffers)),
      AdmissionState::kShedding);
  EXPECT_EQ(storm.transitions(), 1u);

  AdmissionController deep;
  deep.Update(Calm());
  EXPECT_EQ(deep.Update(Depth(AdmissionController::kSheddingQueueDepth)),
            AdmissionState::kShedding);
  EXPECT_TRUE(deep.ShouldShed());
}

TEST(AdmissionControllerTest, SteppingDownTakesThreeCalmSamplesPerLevel) {
  static_assert(AdmissionController::kCalmSamplesToStepDown == 3);
  AdmissionController c;
  EscalateTo(&c, AdmissionState::kShedding);
  EXPECT_EQ(c.Update(Calm()), AdmissionState::kShedding);
  EXPECT_EQ(c.Update(Calm()), AdmissionState::kShedding);
  EXPECT_EQ(c.Update(Calm()), AdmissionState::kBackpressure);
  // One level per streak: the next step needs three fresh calm samples.
  EXPECT_EQ(c.Update(Calm()), AdmissionState::kBackpressure);
  EXPECT_EQ(c.Update(Calm()), AdmissionState::kBackpressure);
  EXPECT_EQ(c.Update(Calm()), AdmissionState::kHealthy);
  EXPECT_EQ(c.transitions(), 3u);
}

TEST(AdmissionControllerTest, SampleThatIsNotCalmResetsTheStreak) {
  AdmissionController c;
  EscalateTo(&c, AdmissionState::kBackpressure);
  EXPECT_EQ(c.Update(Calm()), AdmissionState::kBackpressure);
  EXPECT_EQ(c.Update(Calm()), AdmissionState::kBackpressure);
  // Below the Backpressure threshold, so no escalation, but not calm.
  EXPECT_EQ(c.Update(Depth(kPressureDepth / 2)),
            AdmissionState::kBackpressure);
  // The two earlier calm samples no longer count.
  EXPECT_EQ(c.Update(Calm()), AdmissionState::kBackpressure);
  EXPECT_EQ(c.Update(Calm()), AdmissionState::kBackpressure);
  EXPECT_EQ(c.Update(Calm()), AdmissionState::kHealthy);
}

TEST(AdmissionControllerTest, DepthBetweenHalfAndFullThresholdIsNotCalm) {
  AdmissionController c;
  EscalateTo(&c, AdmissionState::kBackpressure);
  for (const size_t depth :
       {kPressureDepth / 2, kPressureDepth * 3 / 4, kPressureDepth - 1}) {
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(c.Update(Depth(depth)), AdmissionState::kBackpressure)
          << "depth " << depth;
    }
  }
  EXPECT_EQ(c.transitions(), 1u);
}

TEST(AdmissionControllerTest, ForceStateCountsATransitionAndResetsTheStreak) {
  AdmissionController c;
  EscalateTo(&c, AdmissionState::kBackpressure);
  EXPECT_EQ(c.Update(Calm()), AdmissionState::kBackpressure);
  EXPECT_EQ(c.Update(Calm()), AdmissionState::kBackpressure);
  ASSERT_EQ(c.transitions(), 1u);

  c.ForceState(AdmissionState::kShedding);
  EXPECT_EQ(c.state(), AdmissionState::kShedding);
  EXPECT_EQ(c.transitions(), 2u);
  // Forcing the current state is not a transition.
  c.ForceState(AdmissionState::kShedding);
  EXPECT_EQ(c.transitions(), 2u);

  // The streak restarted at the force: two calm samples are not enough.
  EXPECT_EQ(c.Update(Calm()), AdmissionState::kShedding);
  EXPECT_EQ(c.Update(Calm()), AdmissionState::kShedding);
  EXPECT_EQ(c.Update(Calm()), AdmissionState::kBackpressure);
  EXPECT_EQ(c.transitions(), 3u);
}

}  // namespace
}  // namespace cots
