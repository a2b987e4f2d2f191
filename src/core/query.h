// Copyright (c) the CoTS reproduction authors.
//
// The paper's query model (Section 3.2) over any FrequencySummary:
//
//   Query 1 (point):    IsElementFrequent(e), IsElementInTopK(e)
//   Query 2 (set):      FrequentElements(phi), TopK(k)
//   Query 3 (interval): the same queries fired every q updates — driven by
//                       IntervalQuerySchedule from the processing loop.
//   Query 4 (continuous): per the paper, "every update" is ill-defined under
//                       parallel processing; it degenerates to an interval
//                       query with q == 1 and is supported as exactly that.
//
// Set answers distinguish guaranteed hits (count - error already above the
// threshold) from potential hits (count above, guaranteed count below) —
// the standard Space Saving reporting discipline.
//
// Every query first tries the summary's epoch-published view
// (FrequencySummary::AcquireQueryView, core/published_view.h): point
// queries become one wait-free hash probe, set queries a prefix copy, all
// answered from the same immutable snapshot (staleness <= one refresh
// interval, DESIGN.md §11). Summaries without a view fall back to the live
// structure, where KthFrequency/TopK select (std::nth_element/partial_sort)
// over CountersDescending.

#ifndef COTS_CORE_QUERY_H_
#define COTS_CORE_QUERY_H_

#include <cstdint>
#include <vector>

#include "core/counter.h"

namespace cots {

struct FrequentSetResult {
  /// count - error > threshold: certainly frequent.
  std::vector<Counter> guaranteed;
  /// count > threshold but count - error <= threshold: possibly frequent.
  std::vector<Counter> potential;

  size_t TotalReported() const { return guaranteed.size() + potential.size(); }
};

class QueryEngine {
 public:
  explicit QueryEngine(const FrequencySummary* summary) : summary_(summary) {}

  /// Query 1. Is e's estimated frequency above phi * N? (phi in (0,1)).
  bool IsElementFrequent(ElementId e, double phi) const;

  /// Query 1. Is e among the k most frequent monitored elements? Resolved
  /// per the paper by finding the k-th monitored frequency and comparing.
  bool IsElementInTopK(ElementId e, size_t k) const;

  /// Query 2. All monitored elements with estimate above phi * N.
  FrequentSetResult FrequentElements(double phi) const;

  /// Query 2. The k elements with the highest estimates, descending.
  std::vector<Counter> TopK(size_t k) const;

  /// TopK plus the Metwally-style membership guarantee: `guaranteed` is
  /// true when every reported element's count-minus-error is at least the
  /// estimate of the first element left out — the reported set is then
  /// certainly the true top-k regardless of estimation error.
  struct GuaranteedTopK {
    std::vector<Counter> elements;
    bool guaranteed = false;
  };
  GuaranteedTopK TopKWithGuarantee(size_t k) const;

  /// Estimated frequency of the k-th most frequent monitored element
  /// (0 when fewer than k are monitored).
  uint64_t KthFrequency(size_t k) const;

 private:
  const FrequencySummary* summary_;
};

/// Drives Query 3 (interval/discrete): fires after every `every_n_updates`
/// processed elements. Time-spaced queries ("Every 0.001s") are handled by
/// the benches directly with a wall-clock check.
class IntervalQuerySchedule {
 public:
  explicit IntervalQuerySchedule(uint64_t every_n_updates)
      : every_(every_n_updates == 0 ? 1 : every_n_updates) {}

  /// True exactly when `processed` crosses a multiple of the interval.
  bool ShouldFire(uint64_t processed) const { return processed % every_ == 0; }

  uint64_t interval() const { return every_; }

 private:
  uint64_t every_;
};

}  // namespace cots

#endif  // COTS_CORE_QUERY_H_
