// Copyright (c) the CoTS reproduction authors.
//
// PublishedView: the immutable, read-optimized query view CotsFleet
// publishes for point queries (QPOPSS direction, ROADMAP item 1).
//
// A full-walk snapshot per query (seqlock leases, gather, sort) is correct
// but cannot survive heavy point-query traffic: every IsElementInTopK probe
// paid an O(m log m) CountersDescending. Instead, ingest (or an explicit
// refresh hook) periodically builds one of these — a compact
// structure-of-arrays copy of the monitored counters in descending
// frequency order, plus a key->rank SlotIndex (core/slot_index.h), the
// index FlatStreamSummary uses — and publishes it with a release store.
// Point queries then execute:
//
//   IsElementFrequent(e)  = one hash probe + one compare against the
//                           view's cached stream_length (no per-query
//                           atomic folds — the fleet's O(shards) sum is
//                           paid once per refresh).
//   IsElementInTopK(e, k) = one hash probe + counts_[k-1] (the descending
//                           counts array IS the kth-frequency ladder).
//   TopK(k) / FrequentElements(phi) = a prefix copy, no re-sort.
//
// All of it wait-free: the view is immutable, the probe is bounded by the
// index's load factor (at most 1/8), and there are no locks, retries, or
// sorts on the read path. Readers pin reclamation (the fleet's view epochs, EBR)
// around the pointer load; the superseded view is retired and freed only
// after a full grace period.
//
// Staleness contract (DESIGN.md §11): a view reflects a state no older
// than the instant its refresh began — every offer fully applied to the
// summary before that instant is included, and `stream_length` was read at
// that instant. Queries served from the view are therefore at most one
// refresh interval behind the live structure.

#ifndef COTS_CORE_PUBLISHED_VIEW_H_
#define COTS_CORE_PUBLISHED_VIEW_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/counter.h"
#include "core/slot_index.h"
#include "util/macros.h"

namespace cots {

// Cache-line aligned: the header is read by every query, and the
// publisher's neighbouring allocations must not share its lines.
class COTS_CACHE_ALIGNED PublishedView {
 public:
  /// Builds a view from any counter snapshot (sorted or not; Build sorts by
  /// count descending, ties by key ascending — the FrequencySummary order).
  /// `stream_length` and `min_freq` come from the refresh that produced
  /// `counters`, with `stream_length` covering their mass; `sequence` is
  /// the publisher's monotone refresh number (used by tests to order
  /// observations). `shed_weight` is the cumulative load-shed weight
  /// absorbed by the fleet (DESIGN.md §13); the fleet folds it into every
  /// counter's error and into `min_freq` BEFORE calling Build — the field
  /// here is pure accounting so callers can reconstruct offered = counted
  /// + shed.
  static const PublishedView* Build(std::vector<Counter> counters,
                                    uint64_t stream_length, uint64_t min_freq,
                                    uint64_t sequence,
                                    uint64_t shed_weight = 0);

  COTS_DISALLOW_COPY_AND_ASSIGN(PublishedView);

  /// Wait-free point probe: the counter monitoring e in this view, if any.
  std::optional<Counter> Find(ElementId e) const {
    const size_t rank = Rank(e);
    if (rank == kNotFound) return std::nullopt;
    return Counter{keys_[rank], counts_[rank], errors_[rank]};
  }

  /// Rank of e in descending frequency order (0 = most frequent), or
  /// kNotFound. Bounded linear probe over the immutable index.
  size_t Rank(ElementId e) const { return index_.Find(keys_.data(), e); }

  /// The kth-frequency ladder: estimate of the k-th most frequent monitored
  /// element (0 when fewer than k are monitored). O(1) — counts_ is sorted.
  uint64_t KthFrequency(size_t k) const {
    if (k == 0 || k > counts_.size()) return 0;
    return counts_[k - 1];
  }

  /// Counter at `rank` (must be < size()).
  Counter At(size_t rank) const {
    return Counter{keys_[rank], counts_[rank], errors_[rank]};
  }

  /// First `k` counters, most frequent first — a straight prefix copy.
  std::vector<Counter> TopK(size_t k) const;

  /// Every counter, most frequent first (the whole view, materialized).
  std::vector<Counter> CountersDescending() const { return TopK(size()); }

  size_t size() const { return keys_.size(); }
  /// Stream length N at the instant the refresh began (the fleet's
  /// O(shards) atomic fold is paid here once, not per point query).
  uint64_t stream_length() const { return stream_length_; }
  /// Bound on any unmonitored element's frequency at refresh time.
  uint64_t min_freq() const { return min_freq_; }
  /// Publisher's refresh number; strictly increasing across publications.
  uint64_t sequence() const { return sequence_; }
  /// Cumulative shed weight at refresh time — occurrences the publisher
  /// admitted into its error bounds instead of its counters. Zero unless
  /// the overload layer shed load. stream_length() excludes these.
  uint64_t shed_weight() const { return shed_weight_; }

  /// Hints the CPU to move the view's cache lines out of this core's
  /// private caches into the shared last-level cache (x86 CLDEMOTE), so
  /// readers on other cores fetch a freshly built view from there instead
  /// of snooping the builder's core. A no-op where the instruction or the
  /// architecture is missing (CLDEMOTE decodes as a NOP on older x86).
  void DemoteCacheLines() const;

  static constexpr size_t kNotFound = SlotIndex::kNotFound;

 private:
  // An empty view whose index has room for `size` counters.
  explicit PublishedView(size_t size) : index_(size) {}

  uint64_t stream_length_ = 0;
  uint64_t min_freq_ = 0;
  uint64_t sequence_ = 0;
  uint64_t shed_weight_ = 0;

  // Structure-of-arrays counter storage sorted by (count desc, key asc) —
  // the FlatStreamSummary memory discipline applied to a read-only copy.
  std::vector<ElementId> keys_;
  std::vector<uint64_t> counts_;
  std::vector<uint64_t> errors_;

  // key -> rank, probed against keys_. Immutable after Build, so probes
  // never retry.
  SlotIndex index_;
};

}  // namespace cots

#endif  // COTS_CORE_PUBLISHED_VIEW_H_
