// Copyright (c) the CoTS reproduction authors.

#include "cots/admission.h"

#include "util/metrics.h"
#include "util/trace.h"

namespace cots {

const char* AdmissionStateName(AdmissionState state) {
  switch (state) {
    case AdmissionState::kHealthy:
      return "healthy";
    case AdmissionState::kBackpressure:
      return "backpressure";
    case AdmissionState::kShedding:
      return "shedding";
  }
  return "unknown";
}

AdmissionController::AdmissionController() {
  COTS_GAUGE_SET("overload.state",
                 static_cast<uint64_t>(AdmissionState::kHealthy));
}

AdmissionState AdmissionController::Severity(const AdmissionSignals& signals,
                                             uint64_t overloaded_delta) const {
  if (signals.queue_depth >= kSheddingQueueDepth ||
      overloaded_delta >= kSheddingOverloadedOffers) {
    return AdmissionState::kShedding;
  }
  if (signals.queue_depth >= kBackpressureQueueDepth ||
      overloaded_delta >= kBackpressureOverloadedOffers) {
    return AdmissionState::kBackpressure;
  }
  return AdmissionState::kHealthy;
}

AdmissionState AdmissionController::Update(const AdmissionSignals& signals) {
  // Cumulative input -> per-sample delta. The first sample establishes
  // the baseline so a controller attached to a long-running process does
  // not read the whole history as one catastrophic interval.
  uint64_t overloaded_delta = 0;
  if (have_baseline_) {
    overloaded_delta = signals.overloaded_offers - last_overloaded_;
  }
  last_overloaded_ = signals.overloaded_offers;
  have_baseline_ = true;

  const AdmissionState current = state_.load(std::memory_order_relaxed);
  const AdmissionState severity = Severity(signals, overloaded_delta);

  AdmissionState next = current;
  if (severity > current) {
    // Escalate immediately — overload hurts now, hysteresis only guards
    // the way back down.
    next = severity;
    calm_streak_ = 0;
  } else if (severity < current) {
    // A calm sample is one comfortably below the pressure thresholds
    // (half of each), so hovering just under an enter threshold does not
    // count as recovery.
    const bool calm =
        signals.queue_depth < kBackpressureQueueDepth / 2 &&
        overloaded_delta == 0;
    if (calm) {
      if (++calm_streak_ >= kCalmSamplesToStepDown) {
        next = static_cast<AdmissionState>(static_cast<uint8_t>(current) - 1);
        calm_streak_ = 0;
      }
    } else {
      calm_streak_ = 0;
    }
  } else {
    calm_streak_ = 0;
  }

  if (next != current) {
    state_.store(next, std::memory_order_relaxed);
    transitions_.fetch_add(1, std::memory_order_relaxed);
    COTS_COUNTER_INC("admission.transitions");
    COTS_TRACE_INSTANT_ARG("overload.state_change",
                           static_cast<uint64_t>(next));
  }
  COTS_GAUGE_SET("overload.state", static_cast<uint64_t>(next));
  return next;
}

void AdmissionController::ForceState(AdmissionState state) {
  const AdmissionState current = state_.load(std::memory_order_relaxed);
  calm_streak_ = 0;
  if (state != current) {
    state_.store(state, std::memory_order_relaxed);
    transitions_.fetch_add(1, std::memory_order_relaxed);
    COTS_COUNTER_INC("admission.transitions");
    COTS_TRACE_INSTANT_ARG("overload.state_change",
                           static_cast<uint64_t>(state));
  }
  COTS_GAUGE_SET("overload.state", static_cast<uint64_t>(state));
}

}  // namespace cots
