// Copyright (c) the CoTS reproduction authors.
//
// SlotIndex: the key->position hash index behind FlatStreamSummary (key ->
// counter slot) and PublishedView (key -> rank).
//
// The table stores positions, not keys: each entry is a uint32_t index into
// a key array the caller owns, and a probe compares keys[entry] with the
// wanted key. An entry is therefore 4 bytes, which is what makes a sparse
// table affordable. The table is a power of two with at least
// kEntriesPerKey entries per key the caller may store (load factor <= 1/8).
// At that load nearly every miss ends on its home entry, nearly every hit
// is its first probe and erase chains are short, which is what low-skew
// streams need: there almost every offer evicts, costing a miss probe, an
// erase and an insert.
//
// Linear probing with backward-shift erase: no tombstones, so probes never
// lengthen over the stream. Homes are the LOW bits of the SplitMix64
// finalizer. CotsFleet routes keys to shards on the HIGH bits of a murmur3
// finalizer, so a shard's keys still spread over its whole table.

#ifndef COTS_CORE_SLOT_INDEX_H_
#define COTS_CORE_SLOT_INDEX_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "core/counter.h"

namespace cots {

class SlotIndex {
 public:
  /// Table entries per storable key: the load factor is at most 1/8.
  static constexpr size_t kEntriesPerKey = 8;
  static constexpr size_t kNotFound = ~size_t{0};

  /// An index for up to `max_keys` keys (positions 0..max_keys-1).
  explicit SlotIndex(size_t max_keys)
      : mask_(TableSizeFor(max_keys) - 1),
        table_(TableSizeFor(max_keys), kEmpty) {}

  /// Smallest power of two holding kEntriesPerKey entries per key (at
  /// least kEntriesPerKey, so an empty index still probes a real table).
  static size_t TableSizeFor(size_t max_keys) {
    size_t size = kEntriesPerKey;
    while (size < max_keys * kEntriesPerKey) size <<= 1;
    return size;
  }

  /// SplitMix64 finalizer; the index uses its low bits.
  static uint64_t Hash(ElementId e) {
    uint64_t x = e;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  /// Position of `e` in `keys`, or kNotFound.
  size_t Find(const ElementId* keys, ElementId e) const {
    for (size_t p = Home(e);; p = (p + 1) & mask_) {
      const uint32_t pos = table_[p];
      if (pos == kEmpty) return kNotFound;
      if (keys[pos] == e) return pos;
    }
  }

  /// Indexes position `pos`, whose key keys[pos] must not be indexed yet.
  void Insert(const ElementId* keys, uint32_t pos) {
    size_t p = Home(keys[pos]);
    while (table_[p] != kEmpty) p = (p + 1) & mask_;
    table_[p] = pos;
  }

  /// Removes position `pos` (must be indexed). keys[pos] must still hold
  /// the key it was indexed under: the caller overwrites it afterwards.
  void Erase(const ElementId* keys, uint32_t pos) {
    size_t hole = Home(keys[pos]);
    while (table_[hole] != pos) {
      assert(table_[hole] != kEmpty && "SlotIndex::Erase of absent position");
      hole = (hole + 1) & mask_;
    }
    // Backward shift: pull back every later entry of the run whose probe
    // path passes through the hole, so no tombstone is left behind.
    for (size_t p = (hole + 1) & mask_; table_[p] != kEmpty;
         p = (p + 1) & mask_) {
      if (((p - Home(keys[table_[p]])) & mask_) >= ((p - hole) & mask_)) {
        table_[hole] = table_[p];
        hole = p;
      }
    }
    table_[hole] = kEmpty;
  }

  size_t table_size() const { return table_.size(); }
  const uint32_t* data() const { return table_.data(); }

  /// Structural self-check for an index over keys[0..count): exactly
  /// `count` entries, each a distinct position below `count` whose key
  /// Find resolves to that same position, and the load-factor bound.
  bool CheckInvariants(const ElementId* keys, size_t count) const {
    if (count * kEntriesPerKey > table_.size()) return false;
    std::vector<bool> seen(count, false);
    size_t entries = 0;
    for (const uint32_t pos : table_) {
      if (pos == kEmpty) continue;
      ++entries;
      if (pos >= count || seen[pos]) return false;
      seen[pos] = true;
      if (Find(keys, keys[pos]) != pos) return false;
    }
    return entries == count;
  }

 private:
  static constexpr uint32_t kEmpty = ~uint32_t{0};

  size_t Home(ElementId e) const {
    return static_cast<size_t>(Hash(e)) & mask_;
  }

  size_t mask_;
  std::vector<uint32_t> table_;
};

}  // namespace cots

#endif  // COTS_CORE_SLOT_INDEX_H_
