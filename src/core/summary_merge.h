// Copyright (c) the CoTS reproduction authors.
//
// Merging of Space Saving summaries (paper Section 4.1). The Independent
// Structures baseline runs one private summary per thread and must merge
// them whenever a query fires. Two strategies, both from the paper:
//
//   * Serial Merge       — one thread folds all summaries left to right.
//   * Hierarchical Merge — pairwise tree reduction, pairs merged in
//                          parallel like the merge phase of merge sort.
//
// The pairwise combine preserves Space Saving's over-estimate guarantee:
// for a key absent from one side, that side can still have counted it up to
// its minimum frequency, so the merged estimate adds min_freq (and the same
// amount of error) for the absent side. After truncation to capacity the
// merged min_freq is raised to bound keys that were dropped.
//
// A second combine mode serves hash-partitioned summaries (the CoTS fleet):
// when every key lives in exactly one part, an absent side has provably
// counted the key zero times, so no min_freq inflation is added and the
// bound on a fully unmonitored key composes by max (the key hashes to SOME
// shard, and that shard's min_freq bounds it) instead of by sum. Disjoint
// merges are therefore exact unions of the per-shard estimates — each key
// keeps its home shard's error — and only truncation loosens them.

#ifndef COTS_CORE_SUMMARY_MERGE_H_
#define COTS_CORE_SUMMARY_MERGE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/counter.h"

namespace cots {

/// How the key spaces of the parts being merged relate (see file comment).
enum class MergeMode : uint8_t {
  /// Every part may have seen every key (the Independent Structures
  /// baseline): an absent side inflates estimate and error by its min_freq,
  /// and unmonitored-key bounds compose by sum.
  kOverlapping,
  /// Keys are hash-partitioned so each key was routed to exactly one part
  /// (the CoTS fleet): absent sides contribute nothing and unmonitored-key
  /// bounds compose by max.
  kDisjoint,
};

/// A self-contained merged summary: counters sorted by descending estimate.
/// Also usable as a FrequencySummary for the query layer.
class CounterSet : public FrequencySummary {
 public:
  CounterSet() = default;
  CounterSet(std::vector<Counter> counters, uint64_t min_freq, uint64_t n,
             uint64_t shed_weight = 0);

  /// Snapshot of any summary. `min_freq` must be the bound on unmonitored
  /// keys (SpaceSaving::MinFreq()).
  static CounterSet FromSummary(const FrequencySummary& summary,
                                uint64_t min_freq);

  /// Snapshot of a summary that shed `shed_weight` occurrences under
  /// overload (DESIGN.md §13). Every counter's error is widened by
  /// `shed_weight` — a shed occurrence of a monitored key is at most one
  /// missing increment, so [count - error', count + error'] stays a valid
  /// two-sided bound. `min_freq` must ALREADY include the shed weight
  /// (the fleet's Shard::MinFreq() folds it); it is not inflated again.
  static CounterSet FromShedSummary(const FrequencySummary& summary,
                                    uint64_t min_freq, uint64_t shed_weight);

  // FrequencySummary:
  std::optional<Counter> Lookup(ElementId e) const override;
  std::vector<Counter> CountersDescending() const override {
    return counters_;
  }
  uint64_t stream_length() const override { return n_; }
  size_t num_counters() const override { return counters_.size(); }

  uint64_t min_freq() const { return min_freq_; }
  /// Total shed weight absorbed across the parts this set was merged from
  /// (already folded into per-counter errors and min_freq). Accounting:
  /// offered = stream_length() + shed_weight().
  uint64_t shed_weight() const { return shed_weight_; }
  const std::vector<Counter>& counters() const { return counters_; }

 private:
  void BuildIndex();

  std::vector<Counter> counters_;  // descending by count
  std::unordered_map<ElementId, size_t> index_;
  uint64_t min_freq_ = 0;
  uint64_t n_ = 0;
  uint64_t shed_weight_ = 0;
};

/// Pairwise combine, truncated to `capacity` counters (0 = unbounded).
CounterSet CombineCounterSets(const CounterSet& a, const CounterSet& b,
                              size_t capacity,
                              MergeMode mode = MergeMode::kOverlapping);

/// Left-to-right fold by a single thread. `shed_weights`, when non-null,
/// gives each part's cumulative shed weight (same indexing as parts); each
/// part is snapshotted via CounterSet::FromShedSummary so the merged
/// bounds stay sound under load shedding. min_freqs must already include
/// the shed weights (the fleet's Shard::MinFreq() folds them).
CounterSet MergeSerial(const std::vector<const FrequencySummary*>& parts,
                       const std::vector<uint64_t>& min_freqs, size_t capacity,
                       MergeMode mode = MergeMode::kOverlapping,
                       const std::vector<uint64_t>* shed_weights = nullptr);

/// Tree reduction; each level merges pairs concurrently using std::thread.
/// With p parts this spawns ceil(p/2) threads per level over ceil(log2 p)
/// levels — exactly the synchronization pattern whose per-level barrier cost
/// the paper blames for hierarchical merge not beating serial merge.
CounterSet MergeHierarchical(const std::vector<const FrequencySummary*>& parts,
                             const std::vector<uint64_t>& min_freqs,
                             size_t capacity,
                             MergeMode mode = MergeMode::kOverlapping,
                             const std::vector<uint64_t>* shed_weights =
                                 nullptr);

}  // namespace cots

#endif  // COTS_CORE_SUMMARY_MERGE_H_
