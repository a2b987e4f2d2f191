// Copyright (c) the CoTS reproduction authors.
//
// Overload admission control (DESIGN.md §13).
//
// The fleet itself never blocks and never lies: a shard so far behind that
// a producer's ring into it is full makes CotsFleet's OfferBatchBounded
// report OfferOutcome::kOverloaded (the batch is still fully counted), and
// shed traffic is absorbed into a per-shard shed_weight that widens every
// published bound. What the fleet does NOT decide is *when* to stop
// admitting traffic — that policy lives here.
//
// AdmissionController is a three-state machine:
//
//   Healthy ──► Backpressure ──► Shedding
//      ▲              ▲              │
//      └──────────────┴──────────────┘  (after N consecutive calm samples)
//
// driven by sampled signals: the queue-depth watermark and the rate of
// kOverloaded offer outcomes. Escalation is immediate (one bad sample can
// jump Healthy→Shedding); de-escalation requires kCalmSamplesToStepDown
// consecutive calm samples per step, so the state does not flap at the
// threshold. Update() is meant to run on a sampling cadence (the ingest
// server uses its 50 ms tick) — never on the per-offer hot path. state()
// is a single relaxed atomic load, safe to consult from any thread.

#ifndef COTS_COTS_ADMISSION_H_
#define COTS_COTS_ADMISSION_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace cots {

/// Result of a bounded (deadline-aware) batch offer.
enum class OfferOutcome : uint8_t {
  /// The batch was fully counted and the shard kept up.
  kAccepted = 0,
  /// The batch was STILL fully counted (all-or-nothing is preserved, so
  /// conservation needs no special case), but it found its ring into a
  /// shard full — the shard is not keeping up and the caller should back
  /// off or start shedding.
  kOverloaded = 1,
  /// The fleet is draining or stopped; nothing was counted.
  kRefused = 2,
};

/// Engine and fleet lifecycle (DESIGN.md §8). Running: normal ingest and
/// queries. Draining: Stop() is quiescing — offers already in flight
/// finish and their handed-off work drains. Stopped: the structure is
/// frozen; offering is illegal, queries stay valid until destruction.
enum class EngineState : uint8_t { kRunning, kDraining, kStopped };

enum class AdmissionState : uint8_t {
  kHealthy = 0,
  kBackpressure = 1,
  kShedding = 2,
};

/// Returns "healthy" / "backpressure" / "shedding".
const char* AdmissionStateName(AdmissionState state);

/// One sample of the overload signals. `queue_depth` is a live reading;
/// `overloaded_offers` is a cumulative count — Update() works with deltas
/// between consecutive samples.
struct AdmissionSignals {
  size_t queue_depth = 0;
  uint64_t overloaded_offers = 0;
};

class AdmissionController {
 public:
  /// Queue-depth (hot-spot backlog) thresholds. Crossing the first enters
  /// Backpressure, the second Shedding. Both are multiples of the dispatch
  /// batch (CotsFleet::kBatchDepth, 512): pressure means "several full
  /// batches behind", shedding means "tens of batches behind".
  static constexpr size_t kBackpressureQueueDepth = 8 * 512;
  static constexpr size_t kSheddingQueueDepth = 32 * 512;

  /// kOverloaded offer outcomes per sample interval. Any overloaded offer
  /// is already a missed deadline, so the first one escalates to
  /// Backpressure and a steady stream to Shedding.
  static constexpr uint64_t kBackpressureOverloadedOffers = 1;
  static constexpr uint64_t kSheddingOverloadedOffers = 8;

  /// Consecutive calm samples (queue depth below half its Backpressure
  /// threshold and no overloaded offers) required to step DOWN one state.
  /// Escalation never waits.
  static constexpr int kCalmSamplesToStepDown = 3;

  /// Retry hint handed to shed clients (the ingest server's
  /// "busy <retry-after-ms>" wire reply).
  static constexpr uint32_t kRetryAfterMs = 50;

  AdmissionController();

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Feeds one sample and returns the (possibly changed) state. Call from
  /// a single sampler thread on a steady cadence; not hot-path safe by
  /// design (it publishes gauges and trace events on transition).
  AdmissionState Update(const AdmissionSignals& signals);

  /// Jumps straight to `state` with the same transition bookkeeping as
  /// Update (transition counter, gauge, trace instant) and resets the
  /// hysteresis streak. Deterministic-test and operator-override hook —
  /// e.g. the ingest server's --force-shed-at window; sampler thread only.
  void ForceState(AdmissionState state);

  /// Current state; one relaxed atomic load, callable from any thread.
  AdmissionState state() const {
    return state_.load(std::memory_order_relaxed);
  }

  bool ShouldShed() const { return state() == AdmissionState::kShedding; }

  /// Total state transitions observed (for stats/tests).
  uint64_t transitions() const {
    return transitions_.load(std::memory_order_relaxed);
  }

 private:
  // Severity the raw signals map to, ignoring hysteresis.
  AdmissionState Severity(const AdmissionSignals& signals,
                          uint64_t overloaded_delta) const;

  std::atomic<AdmissionState> state_{AdmissionState::kHealthy};
  std::atomic<uint64_t> transitions_{0};

  // Sampler-thread-only bookkeeping (Update is single-caller).
  uint64_t last_overloaded_ = 0;
  bool have_baseline_ = false;
  int calm_streak_ = 0;
};

}  // namespace cots

#endif  // COTS_COTS_ADMISSION_H_
