// Copyright (c) the CoTS reproduction authors.
//
// In-batch coalescing: a batch's repeated keys merged into weighted offers
// (key, occurrences), in first-occurrence order. Skewed batches shrink by
// several times (a 512-key zipf 1.5 batch holds about 88 distinct keys),
// and a summary applies a weighted offer at the cost of a single one. The
// CoTS engine coalesces every batch; CotsFleet coalesces only the batches
// whose leading keys show enough repeats to pay for the merge
// (DESIGN.md §9.1).

#ifndef COTS_COTS_BATCH_COALESCER_H_
#define COTS_COTS_BATCH_COALESCER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/counter.h"

namespace cots {

/// `weight` occurrences of `key`.
struct WeightedKey {
  ElementId key = 0;
  uint64_t weight = 0;
};

/// Reusable coalescing scratch: a stamped open-addressing index over the
/// current batch plus the merged (key, weight) list, kept across batches so
/// steady-state coalescing never allocates. Single-threaded.
class BatchCoalescer {
 public:
  /// Keys sampled from the front of a batch, and the repeats among them at
  /// which CoalesceIfRepeated merges the batch. At zipf 1.5 over a million
  /// keys the first 64 keys of a batch hold 31-55 repeats; at zipf 0.8,
  /// 0-7.
  static constexpr size_t kSample = 64;
  static constexpr size_t kMinRepeats = 16;

  /// Merges elements[0, count) into weighted() and records
  /// ingest.coalesce_hits and ingest.batch_distinct.
  void Merge(const ElementId* elements, size_t count);

  /// Merge, but only when the first min(count, kSample) elements hold at
  /// least kMinRepeats repeats; returns whether it merged. A false return
  /// leaves weighted() unspecified and records nothing: the batch is to be
  /// offered key by key.
  bool CoalesceIfRepeated(const ElementId* elements, size_t count);

  /// The merged batch, in first-occurrence order.
  const std::vector<WeightedKey>& weighted() const { return weighted_; }

 private:
  // Starts a batch of `count` keys: sizes the index and bumps the stamp.
  void Reset(size_t count);
  // Merges elements[begin, end) into the index.
  void Add(const ElementId* elements, size_t begin, size_t end);
  // Writes the index out to weighted_, in first-occurrence order.
  void Emit();

  // One distinct key of the current batch (stamp == stamp_) with its
  // occurrences so far. A batch holds fewer than 2^32 keys.
  struct Slot {
    ElementId key = 0;
    uint32_t stamp = 0;
    uint32_t weight = 0;
  };
  std::vector<Slot> slots_;
  int shift_ = 64;  // 64 - log2(slots_.size())
  std::vector<uint32_t> order_;  // slots in first-occurrence order
  size_t distinct_ = 0;          // order_ entries in use
  std::vector<WeightedKey> weighted_;
  uint32_t stamp_ = 0;
};

}  // namespace cots

#endif  // COTS_COTS_BATCH_COALESCER_H_
