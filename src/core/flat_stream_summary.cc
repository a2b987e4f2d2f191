// Copyright (c) the CoTS reproduction authors.

#include "core/flat_stream_summary.h"

#include <algorithm>
#include <cassert>

#include "util/simd.h"

namespace cots {

FlatStreamSummary::FlatStreamSummary(size_t capacity)
    : capacity_(capacity),
      keys_(capacity),
      freqs_(capacity, 0),
      errors_(capacity, 0),
      index_(capacity) {
  assert(capacity > 0 && "FlatStreamSummary requires capacity > 0");
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
  const size_t slot = index_.Find(keys_.data(), e);
  if (slot != SlotIndex::kNotFound) {
    // Monitored hit: pure array add. Frequencies are monotone, so the
    // cached minimum stays a sound lower bound untouched.
    freqs_[slot] += weight;
    return;
  }
  if (size_ < capacity_) {
    // Room left: admit into the next sequential slot with zero error.
    const uint32_t admit = static_cast<uint32_t>(size_++);
    keys_[admit] = e;
    freqs_[admit] = weight;
    errors_[admit] = 0;
    index_.Insert(keys_.data(), admit);
    min_valid_ = false;
    return;
  }
  // Full: overwrite a minimum-frequency victim. The newcomer inherits the
  // victim's count as its error bound (Space Saving Algorithm 1).
  const uint32_t victim = static_cast<uint32_t>(FindVictimSlot());
  const uint64_t victim_freq = freqs_[victim];
  index_.Erase(keys_.data(), victim);  // before keys_[victim] changes
  keys_[victim] = e;
  freqs_[victim] = victim_freq + weight;
  errors_[victim] = victim_freq;
  index_.Insert(keys_.data(), victim);
  cursor_ = victim + 1;
  // min_freq_ is unchanged: the new frequency is strictly larger, and any
  // other slot still at the old minimum remains a true minimum.
}

std::optional<Counter> FlatStreamSummary::Lookup(ElementId e) const {
  const size_t slot = index_.Find(keys_.data(), e);
  if (slot == SlotIndex::kNotFound) return std::nullopt;
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
  // Index <-> array bijection over the live slots, at load <= 1/8.
  if (!index_.CheckInvariants(keys_.data(), size_)) return false;
  // Cached-min soundness: a lower bound on every live frequency.
  if (min_valid_) {
    for (size_t i = 0; i < size_; ++i) {
      if (freqs_[i] < min_freq_) return false;
    }
  }
  return true;
}

}  // namespace cots
