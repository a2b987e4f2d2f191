// Copyright (c) the CoTS reproduction authors.
//
// Lossy Counting adapted into the CoTS framework (paper Section 5.3): "for
// adaptation into the CoTS framework, only the Overwrite request in Space
// Saving has to be replaced by a request that removes the minimum frequency
// bucket at round boundaries, everything else remains unchanged."
//
// Concretely: every element is admitted (no overwrites); a newly admitted
// element in round r carries delta = r - 1 as its error (it may have been
// seen and evicted before); the thread whose offer completes round r
// delegates kEvict requests that drop quiescent elements with estimate
// <= r from the low-frequency buckets. Mid-flight elements survive the
// round — keeping extra counters never weakens the Lossy Counting bounds.

#ifndef COTS_COTS_COTS_LOSSY_COUNTING_H_
#define COTS_COTS_COTS_LOSSY_COUNTING_H_

#include <atomic>
#include <memory>
#include <mutex>

#include "core/counter.h"
#include "cots/concurrent_stream_summary.h"
#include "cots/delegation_hash_table.h"
#include "util/ebr.h"
#include "util/macros.h"
#include "util/status.h"

namespace cots {

struct CotsLossyCountingOptions {
  /// Error bound; round width w = ceil(1/epsilon).
  double epsilon = 0.001;
  /// Hash buckets; 0 = sized from the Manku-Motwani space bound.
  size_t hash_buckets = 0;
  int max_threads = 256;

  Status Validate() const;
};

class CotsLossyCounting : public FrequencySummary {
 public:
  class ThreadHandle {
   public:
    ~ThreadHandle();
    COTS_DISALLOW_COPY_AND_ASSIGN(ThreadHandle);

    void Offer(ElementId e);

    std::optional<Counter> Lookup(ElementId e) const;
    std::vector<Counter> CountersDescending() const;

   private:
    friend class CotsLossyCounting;
    ThreadHandle(CotsLossyCounting* engine, EpochParticipant* participant)
        : engine_(engine), participant_(participant) {}

    CotsLossyCounting* engine_;
    EpochParticipant* participant_;
  };

  explicit CotsLossyCounting(const CotsLossyCountingOptions& options);
  ~CotsLossyCounting() override;

  COTS_DISALLOW_COPY_AND_ASSIGN(CotsLossyCounting);

  std::unique_ptr<ThreadHandle> RegisterThread();

  // FrequencySummary (shared mutex-guarded query slot):
  std::optional<Counter> Lookup(ElementId e) const override;
  std::vector<Counter> CountersDescending() const override;
  uint64_t stream_length() const override {
    return n_.load(std::memory_order_relaxed);
  }
  size_t num_counters() const override { return summary_.num_monitored(); }

  uint64_t bucket_width() const { return width_; }
  /// Rounds completed so far (eviction sweeps triggered).
  uint64_t rounds_completed() const {
    return rounds_completed_.load(std::memory_order_relaxed);
  }

  bool CheckInvariantsQuiescent(std::string* why = nullptr) const {
    // Lossy Counting evicts, so count conservation does not apply; audit
    // structure only.
    return summary_.CheckInvariantsQuiescent(~uint64_t{0}, why);
  }

 private:
  std::optional<Counter> LookupWith(EpochParticipant* participant,
                                    ElementId e) const;

  uint64_t width_;
  mutable EpochManager epochs_;
  DelegationHashTable table_;
  ConcurrentStreamSummary summary_;
  std::atomic<uint64_t> n_{0};
  std::atomic<uint64_t> rounds_completed_{0};
  // Highest round whose sweep has started; published before the sweep
  // enqueues its evictions.
  std::atomic<uint64_t> swept_round_{0};

  mutable std::mutex query_mu_;
  mutable EpochParticipant* query_participant_ = nullptr;
};

}  // namespace cots

#endif  // COTS_COTS_COTS_LOSSY_COUNTING_H_
