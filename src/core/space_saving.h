// Copyright (c) the CoTS reproduction authors.
//
// Sequential Space Saving (Metwally, Agrawal, El Abbadi; paper Section 3.3,
// Algorithm 1, Table 1). Monitors at most m = ceil(1/epsilon) counters:
// a monitored element's counter is incremented; a new element is added while
// space remains, and otherwise overwrites the current minimum-frequency
// element, inheriting its count as error. Guarantees, with N = stream
// length and m counters:
//
//   * sum of all counts == N                  (count conservation)
//   * true(e) <= est(e) <= true(e) + err(e)   for every monitored e
//   * err(e)  <= floor(N / m)                 (min counter <= N/m)
//   * every e with true(e) > N/m is monitored (frequent elements are kept)
//
// This implementation runs on the paper's linked Stream Summary (Fig 2). It
// is the sequential reference the parallel designs are compared against
// (Table 2), and is the building block of the Independent Structures
// baseline. The array-backed layout is FlatStreamSummary
// (core/flat_stream_summary.h), which callers construct directly.

#ifndef COTS_CORE_SPACE_SAVING_H_
#define COTS_CORE_SPACE_SAVING_H_

#include <cstdint>
#include <unordered_map>

#include "core/counter.h"
#include "core/stream_summary.h"
#include "util/macros.h"
#include "util/status.h"

namespace cots {

struct SpaceSavingOptions {
  /// Maximum number of monitored counters (m). When 0, derived from epsilon.
  size_t capacity = 0;
  /// Error bound; used only when capacity == 0, as m = ceil(1 / epsilon).
  double epsilon = 0.0;

  /// Resolves capacity/epsilon and rejects unusable combinations.
  Status Validate();
};

class SpaceSaving : public FrequencySummary {
 public:
  /// Options must have been Validate()d; an invalid capacity of 0 after
  /// validation is rejected by assert.
  explicit SpaceSaving(const SpaceSavingOptions& options);

  COTS_DISALLOW_COPY_AND_ASSIGN(SpaceSaving);

  /// Processes one stream element occurrence (weight > 1 processes a batch
  /// of identical occurrences at once — used by merges and bulk updates).
  void Offer(ElementId e, uint64_t weight = 1);

  /// Processes a whole stream prefix.
  void Process(const Stream& stream) {
    for (ElementId e : stream) Offer(e);
  }

  // FrequencySummary:
  std::optional<Counter> Lookup(ElementId e) const override;
  std::vector<Counter> CountersDescending() const override;
  uint64_t stream_length() const override { return n_; }
  size_t num_counters() const override { return summary_.size(); }

  size_t capacity() const { return capacity_; }
  /// Frequency of the minimum counter; 0 while the structure is not full.
  /// Any unmonitored element has true frequency <= this.
  uint64_t MinFreq() const {
    return summary_.size() < capacity_ ? 0 : summary_.MinFreq();
  }

  /// Structural self-check; test helper.
  bool CheckInvariants() const;

 private:
  size_t capacity_;
  uint64_t n_ = 0;
  StreamSummary summary_;
  std::unordered_map<ElementId, StreamSummary::Node*> index_;
};

}  // namespace cots

#endif  // COTS_CORE_SPACE_SAVING_H_
