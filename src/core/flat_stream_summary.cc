// Copyright (c) the CoTS reproduction authors.

#include "core/flat_stream_summary.h"

#include <algorithm>
#include <cassert>

#include "util/simd.h"

namespace cots {
namespace {

// SplitMix64 finalizer: full-avalanche so sequential ElementIds (and the
// zipf generator's already-mixed keys) spread over the index evenly.
inline uint64_t MixKey(ElementId e) {
  uint64_t x = e;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline size_t IndexSizeFor(size_t capacity) {
  // Power of two with load factor <= 0.5 so linear probes stay short.
  size_t size = 8;
  while (size < capacity * 2) size <<= 1;
  return size;
}

}  // namespace

FlatStreamSummary::FlatStreamSummary(size_t capacity)
    : capacity_(capacity),
      keys_(capacity),
      freqs_(capacity, 0),
      errors_(capacity, 0),
      index_mask_(IndexSizeFor(capacity) - 1),
      index_keys_(IndexSizeFor(capacity), 0),
      index_slots_(IndexSizeFor(capacity), kEmptySlot) {
  assert(capacity > 0 && "FlatStreamSummary requires capacity > 0");
}

size_t FlatStreamSummary::IndexFind(ElementId key) const {
  size_t p = static_cast<size_t>(MixKey(key)) & index_mask_;
  while (index_slots_[p] != kEmptySlot) {
    if (index_keys_[p] == key) return p;
    p = (p + 1) & index_mask_;
  }
  return kNotFound;
}

void FlatStreamSummary::IndexInsert(ElementId key, uint32_t slot) {
  size_t p = static_cast<size_t>(MixKey(key)) & index_mask_;
  while (index_slots_[p] != kEmptySlot) p = (p + 1) & index_mask_;
  index_keys_[p] = key;
  index_slots_[p] = slot;
}

void FlatStreamSummary::IndexErase(ElementId key) {
  size_t hole = IndexFind(key);
  assert(hole != kNotFound && "IndexErase of absent key");
  // Backward-shift deletion: walk the probe chain after the hole and move
  // back any entry whose home position means it may only be reachable
  // through the hole. Leaves no tombstones.
  size_t p = (hole + 1) & index_mask_;
  while (index_slots_[p] != kEmptySlot) {
    const size_t home = static_cast<size_t>(MixKey(index_keys_[p])) & index_mask_;
    // Probe distance comparison in modular arithmetic: the entry at p can
    // move into the hole iff the hole lies within its probe path.
    if (((p - home) & index_mask_) >= ((p - hole) & index_mask_)) {
      index_keys_[hole] = index_keys_[p];
      index_slots_[hole] = index_slots_[p];
      hole = p;
    }
    p = (p + 1) & index_mask_;
  }
  index_slots_[hole] = kEmptySlot;
}

size_t FlatStreamSummary::FindVictimSlot() {
  assert(size_ == capacity_);
  if (!min_valid_) {
    min_freq_ = simd::MinValueU64(freqs_.data(), capacity_);
    min_valid_ = true;
  }
  // Two-segment equality scan from the rotating cursor: slots that held
  // the minimum cluster after the previous victim, so starting there makes
  // the common case a one-group scan.
  if (cursor_ >= capacity_) cursor_ = 0;
  size_t hit = simd::FindEqualU64(freqs_.data() + cursor_,
                                  capacity_ - cursor_, min_freq_);
  if (hit != capacity_ - cursor_) return cursor_ + hit;
  hit = simd::FindEqualU64(freqs_.data(), cursor_, min_freq_);
  if (hit != cursor_) return hit;
  // Every slot that held the cached minimum has since been incremented:
  // the cache is stale (still a sound lower bound, just not attained).
  // Recompute and rescan — this time a hit is guaranteed.
  min_freq_ = simd::MinValueU64(freqs_.data(), capacity_);
  hit = simd::FindEqualU64(freqs_.data() + cursor_, capacity_ - cursor_,
                           min_freq_);
  if (hit != capacity_ - cursor_) return cursor_ + hit;
  hit = simd::FindEqualU64(freqs_.data(), cursor_, min_freq_);
  assert(hit != cursor_ && "fresh minimum must be attained by some slot");
  return hit;
}

void FlatStreamSummary::Offer(ElementId e, uint64_t weight) {
  if (weight == 0) return;
  n_ += weight;
  const size_t p = IndexFind(e);
  if (p != kNotFound) {
    // Monitored hit: pure array add. Frequencies are monotone, so the
    // cached minimum stays a sound lower bound untouched.
    freqs_[index_slots_[p]] += weight;
    return;
  }
  if (size_ < capacity_) {
    // Room left: admit into the next sequential slot with zero error.
    const uint32_t slot = static_cast<uint32_t>(size_++);
    keys_[slot] = e;
    freqs_[slot] = weight;
    errors_[slot] = 0;
    IndexInsert(e, slot);
    min_valid_ = false;
    return;
  }
  // Full: overwrite a minimum-frequency victim. The newcomer inherits the
  // victim's count as its error bound (Space Saving Algorithm 1).
  const size_t victim = FindVictimSlot();
  const uint64_t victim_freq = freqs_[victim];
  IndexErase(keys_[victim]);
  keys_[victim] = e;
  freqs_[victim] = victim_freq + weight;
  errors_[victim] = victim_freq;
  IndexInsert(e, static_cast<uint32_t>(victim));
  cursor_ = victim + 1;
  // min_freq_ is unchanged: the new frequency is strictly larger, and any
  // other slot still at the old minimum remains a true minimum.
}

std::optional<Counter> FlatStreamSummary::Lookup(ElementId e) const {
  const size_t p = IndexFind(e);
  if (p == kNotFound) return std::nullopt;
  const uint32_t slot = index_slots_[p];
  return Counter{keys_[slot], freqs_[slot], errors_[slot]};
}

std::vector<Counter> FlatStreamSummary::CountersUnordered() const {
  std::vector<Counter> out;
  AppendCounters(&out);
  return out;
}

void FlatStreamSummary::AppendCounters(std::vector<Counter>* out) const {
  out->reserve(out->size() + size_);
  for (size_t i = 0; i < size_; ++i) {
    out->push_back(Counter{keys_[i], freqs_[i], errors_[i]});
  }
}

std::vector<Counter> FlatStreamSummary::CountersDescending() const {
  std::vector<Counter> out = CountersUnordered();
  std::sort(out.begin(), out.end(), [](const Counter& a, const Counter& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.key < b.key;
  });
  return out;
}

uint64_t FlatStreamSummary::MinFreq() const {
  if (size_ == 0) return 0;
  if (size_ < capacity_ || !min_valid_) {
    // Partial fills can't use the cache (unused slots hold zero); compute
    // over the live prefix. Full summaries refresh and keep the cache.
    const uint64_t min = simd::MinValueU64(freqs_.data(), size_);
    if (size_ == capacity_) {
      min_freq_ = min;
      min_valid_ = true;
    }
    return min;
  }
  // The cache is a lower bound that may be stale; verify it is attained.
  if (simd::FindEqualU64(freqs_.data(), capacity_, min_freq_) == capacity_) {
    min_freq_ = simd::MinValueU64(freqs_.data(), capacity_);
  }
  return min_freq_;
}

bool FlatStreamSummary::CheckInvariants() const {
  if (size_ > capacity_) return false;
  // Count conservation: every processed element incremented exactly one
  // counter, so the monitored frequencies sum to N (exact while not full;
  // still exact after evictions because victims donate their counts).
  uint64_t sum = 0;
  for (size_t i = 0; i < size_; ++i) {
    if (freqs_[i] == 0) return false;
    if (errors_[i] > freqs_[i]) return false;
    sum += freqs_[i];
  }
  if (sum != n_) return false;
  // Index <-> array bijection.
  size_t indexed = 0;
  for (size_t p = 0; p <= index_mask_; ++p) {
    if (index_slots_[p] == kEmptySlot) continue;
    ++indexed;
    const uint32_t slot = index_slots_[p];
    if (slot >= size_) return false;
    if (keys_[slot] != index_keys_[p]) return false;
    if (IndexFind(index_keys_[p]) != p) return false;
  }
  if (indexed != size_) return false;
  // Cached-min soundness: a lower bound on every live frequency.
  if (min_valid_) {
    for (size_t i = 0; i < size_; ++i) {
      if (freqs_[i] < min_freq_) return false;
    }
  }
  return true;
}

}  // namespace cots
