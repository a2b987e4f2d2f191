// Copyright (c) the CoTS reproduction authors.
//
// FlatStreamSummary: an array-backed Space Saving summary — the flat
// sibling of the linked StreamSummary bucket list (core/stream_summary.h)
// that sequential SpaceSaving runs, in the spirit of "One Table to Count
// Them All"'s single flat counter table. Callers that want this layout
// construct it directly, as the fleet's shards do.
//
// Layout. Three parallel arrays of exactly m entries (keys / frequencies /
// errors: structure-of-arrays, so the victim scan touches only the
// frequency array — 8 counters per cache line) plus a SlotIndex
// (core/slot_index.h): 4-byte slot numbers in a power-of-two table at load
// factor <= 1/8, probed against keys_, with backward-shift deletion (no
// tombstones, so probes never degrade over the stream). The whole
// structure is four allocations at construction and zero per element.
//
// Updates. A monitored increment is one index probe and one array add — no
// bucket relocation, which is where the linked layout spends its time.
// Admission fills slots 0..m-1 in arrival order (tests rely on this to
// place victims deterministically). Once full, an unmonitored arrival
// overwrites a minimum-frequency victim, inheriting its count as error
// (Space Saving Algorithm 1); all four Space Saving guarantees (count
// conservation, truth <= est <= truth + err, err <= N/m, frequent elements
// monitored) hold exactly as in the linked layout.
//
// Victim selection — the SIMD discipline. Frequencies only ever increase,
// so a cached minimum `min_freq_` is a permanent lower bound on the true
// minimum, and ANY slot whose frequency equals the cached value is a true
// minimum. The common case is therefore one group-of-8 SIMD equality scan
// (util/simd.h) that stops at the first hit; only when every slot that
// held the cached minimum has since been incremented (scan misses) is the
// true minimum recomputed with a full SIMD min reduction, after which the
// equality scan cannot miss. A rotating cursor starts each scan after the
// previous victim so clustered minima don't rescan the same prefix.
//
// Frequency order is not maintained incrementally; CountersDescending
// gathers and sorts (O(m log m) per query). That is the layout trade: the
// linked list pays pointers on every update to make ordered reads free,
// the flat layout pays a sort on reads to make updates cache-dense.

#ifndef COTS_CORE_FLAT_STREAM_SUMMARY_H_
#define COTS_CORE_FLAT_STREAM_SUMMARY_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/counter.h"
#include "core/slot_index.h"
#include "util/macros.h"

namespace cots {

class FlatStreamSummary {
 public:
  /// `capacity` is m, the number of monitored counters; must be > 0.
  explicit FlatStreamSummary(size_t capacity);

  COTS_DISALLOW_COPY_AND_ASSIGN(FlatStreamSummary);

  /// Processes `weight` occurrences of e (Space Saving Algorithm 1).
  void Offer(ElementId e, uint64_t weight = 1);

  /// The counter currently monitoring e, if any.
  std::optional<Counter> Lookup(ElementId e) const;

  /// All monitored counters, most frequent first (ties by key ascending —
  /// the FrequencySummary contract).
  std::vector<Counter> CountersDescending() const;

  /// Appends every monitored counter to *out in slot order, no sort — the
  /// copy a fleet shard makes under its owner flag when a view is folded.
  void AppendCounters(std::vector<Counter>* out) const;

  uint64_t stream_length() const { return n_; }
  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }

  /// Exact minimum monitored frequency (0 when empty). Callers that need
  /// the Space Saving bound semantics ("0 while not full") check size()
  /// against capacity() themselves, as the fleet's shards do.
  uint64_t MinFreq() const;

  /// Structural self-check (index <-> arrays consistency and the index's
  /// load-factor bound, count conservation, cached-min soundness). Test
  /// helper.
  bool CheckInvariants() const;

 private:
  // Slot of a true minimum-frequency counter; refreshes min_freq_ when the
  // cached value went stale. Requires size_ == capacity_.
  size_t FindVictimSlot();

  size_t capacity_;
  uint64_t n_ = 0;
  size_t size_ = 0;

  // Cached lower bound on the minimum frequency (sound because
  // frequencies are monotone); min_valid_ is false until the first
  // eviction needs it. Mutable so MinFreq() can refresh the cache.
  mutable uint64_t min_freq_ = 0;
  mutable bool min_valid_ = false;
  size_t cursor_ = 0;

  // Structure-of-arrays counter storage, all sized capacity_.
  std::vector<ElementId> keys_;
  std::vector<uint64_t> freqs_;
  std::vector<uint64_t> errors_;

  // key -> slot, probed against keys_.
  SlotIndex index_;
};

}  // namespace cots

#endif  // COTS_CORE_FLAT_STREAM_SUMMARY_H_
