// Copyright (c) the CoTS reproduction authors.
//
// The common read interface over frequency summaries. Every algorithm in
// this repository — sequential Space Saving / Lossy Counting / Misra-Gries,
// the naive parallel baselines, and the CoTS engines — exposes its monitored
// counters through this interface, and the query layer (core/query.h) is
// written against it. This mirrors the paper's layering: frequency counting
// is the operator, frequent-elements and top-k queries are consumers of the
// counted state (Section 1).

#ifndef COTS_CORE_COUNTER_H_
#define COTS_CORE_COUNTER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "stream/stream.h"

namespace cots {

class PublishedView;

/// Physical layout of a sequential Space Saving summary
/// (SpaceSavingOptions::layout). Both layouts implement identical
/// algorithmic guarantees; the choice is purely a memory-layout/performance
/// knob:
///
///   * kLinked — the paper-faithful Stream Summary bucket list (Fig 2):
///     doubly-linked frequency buckets, O(1) amortized updates, elements
///     readable in frequency order for free. Pointer-chasing.
///   * kFlat — contiguous counter arrays with an open-addressing key
///     index and SIMD min-victim scans (core/flat_stream_summary.h):
///     cache-dense, allocation-free after construction, faster ingest at
///     practical capacities. Frequency order is recovered by sorting at
///     query time.
enum class SummaryLayout : uint8_t { kLinked = 0, kFlat = 1 };

inline const char* SummaryLayoutName(SummaryLayout layout) {
  return layout == SummaryLayout::kFlat ? "flat" : "linked";
}

/// One monitored element. `count` is the estimated frequency and is always
/// an over-estimate for counter-based algorithms with eviction (Space
/// Saving): true_count <= count <= true_count + error.
struct Counter {
  ElementId key = 0;
  uint64_t count = 0;
  /// Maximum possible over-estimation (Space Saving: the minimum frequency
  /// at the time the element was drafted into the monitored set).
  uint64_t error = 0;

  /// The element's frequency is certainly at least this much (saturating:
  /// under-estimating algorithms like Misra-Gries report error relative to
  /// the whole stream, which can exceed the count).
  uint64_t GuaranteedCount() const { return count >= error ? count - error : 0; }

  friend bool operator==(const Counter&, const Counter&) = default;
};

/// Read-only view of a frequency summary. Implementations must tolerate
/// concurrent readers if the underlying algorithm is concurrent.
class FrequencySummary {
 public:
  virtual ~FrequencySummary() = default;

  /// Point lookup: the counter currently monitoring e, if any.
  virtual std::optional<Counter> Lookup(ElementId e) const = 0;

  /// All monitored counters, most frequent first (ties broken by key).
  virtual std::vector<Counter> CountersDescending() const = 0;

  /// Total number of stream elements processed so far (N). For Space Saving
  /// derivatives the invariant sum(count) == N holds (every processed
  /// element increments exactly one counter).
  virtual uint64_t stream_length() const = 0;

  /// Number of counters currently monitored.
  virtual size_t num_counters() const = 0;

  /// All monitored counters in no particular order. Implementations whose
  /// storage is unordered (flat layouts, hash-partitioned fleets) override
  /// this to skip the frequency sort; selection-based consumers
  /// (QueryEngine::KthFrequency via nth_element) only need the multiset.
  virtual std::vector<Counter> CountersUnordered() const {
    return CountersDescending();
  }

  /// Epoch-published query view support. A non-null return is an immutable
  /// PublishedView whose memory stays valid until the matching
  /// ReleaseQueryView() — implementations pin their reclamation scheme
  /// (EBR epoch, lock, or nothing for static summaries) across the pair.
  /// The default (no published view) returns nullptr and pins nothing;
  /// callers must fall back to the live Lookup/CountersDescending path.
  virtual const PublishedView* AcquireQueryView() const { return nullptr; }

  /// Releases the pin taken by a non-null AcquireQueryView(). Must not be
  /// called when AcquireQueryView() returned nullptr.
  virtual void ReleaseQueryView() const {}
};

}  // namespace cots

#endif  // COTS_CORE_COUNTER_H_
