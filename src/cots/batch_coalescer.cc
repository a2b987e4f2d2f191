#include "cots/batch_coalescer.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "util/metrics.h"

namespace cots {

void BatchCoalescer::Reset(size_t count) {
  assert(count < (size_t{1} << 32));
  // At most half full, so probe runs stay short.
  const size_t want = std::bit_ceil(std::max<size_t>(2, 2 * count));
  if (slots_.size() < want) {
    slots_.assign(want, Slot{});
    shift_ = 64 - std::countr_zero(want);
  }
  if (order_.size() < count) order_.resize(count);
  // Stamps make the per-batch reset O(1); a wrapped stamp clears for real.
  if (++stamp_ == 0) {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    stamp_ = 1;
  }
  distinct_ = 0;
}

void BatchCoalescer::Add(const ElementId* elements, size_t begin,
                         size_t end) {
  // Locals, so the stores into the index cannot force reloads of them.
  Slot* const slots = slots_.data();
  uint32_t* const order = order_.data();
  const size_t mask = slots_.size() - 1;
  const uint32_t stamp = stamp_;
  const int shift = shift_;
  size_t distinct = distinct_;
  for (size_t i = begin; i < end; ++i) {
    const ElementId e = elements[i];
    // Fibonacci hashing: the product's high bits spread even dense keys.
    size_t slot = static_cast<size_t>((e * 0x9e3779b97f4a7c15ULL) >> shift);
    // Linear probe past slots holding another key of this batch. The two
    // tests are combined without short-circuit, so the only branch is the
    // rarely taken one of a collision.
    while ((slots[slot].stamp == stamp) & (slots[slot].key != e)) {
      slot = (slot + 1) & mask;
    }
    // The slot is e's or free. New versus repeat is arithmetic, not a
    // branch: a repeat keeps its weight and leaves `distinct` alone, and
    // the order entry written past the end is overwritten by the next new
    // key.
    const Slot before = slots[slot];
    const uint32_t repeat = before.stamp == stamp;
    slots[slot] = Slot{e, stamp, (before.weight & (0u - repeat)) + 1};
    order[distinct] = static_cast<uint32_t>(slot);
    distinct += 1 - repeat;
  }
  distinct_ = distinct;
}

void BatchCoalescer::Emit() {
  weighted_.resize(distinct_);
  for (size_t i = 0; i < distinct_; ++i) {
    const Slot& s = slots_[order_[i]];
    weighted_[i] = WeightedKey{s.key, s.weight};
  }
}

void BatchCoalescer::Merge(const ElementId* elements, size_t count) {
  Reset(count);
  Add(elements, 0, count);
  Emit();
  COTS_COUNTER_ADD("ingest.coalesce_hits",
                   static_cast<uint64_t>(count - weighted_.size()));
  COTS_HISTOGRAM_RECORD("ingest.batch_distinct", weighted_.size());
}

bool BatchCoalescer::CoalesceIfRepeated(const ElementId* elements,
                                        size_t count) {
  Reset(count);
  const size_t sample = std::min(count, kSample);
  Add(elements, 0, sample);
  if (sample - distinct_ < kMinRepeats) return false;
  Add(elements, sample, count);
  Emit();
  COTS_COUNTER_ADD("ingest.coalesce_hits",
                   static_cast<uint64_t>(count - weighted_.size()));
  COTS_HISTOGRAM_RECORD("ingest.batch_distinct", weighted_.size());
  return true;
}

}  // namespace cots
