// Copyright (c) the CoTS reproduction authors.

#include "core/published_view.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define COTS_HAVE_CLDEMOTE 1
#endif

namespace cots {
namespace {

#ifdef COTS_HAVE_CLDEMOTE
// Compiled for CLDEMOTE regardless of -march: the encoding sits in the
// hint-NOP space, so CPUs without the feature execute it as a NOP.
__attribute__((target("cldemote"))) void DemoteRange(const void* data,
                                                     size_t bytes) {
  if (bytes == 0) return;
  constexpr uintptr_t kLine = 64;
  const uintptr_t begin = reinterpret_cast<uintptr_t>(data) & ~(kLine - 1);
  const uintptr_t end = reinterpret_cast<uintptr_t>(data) + bytes;
  for (uintptr_t line = begin; line < end; line += kLine) {
    _cldemote(reinterpret_cast<void*>(line));
  }
}
#else
void DemoteRange(const void*, size_t) {}
#endif

template <typename T>
void DemoteVector(const std::vector<T>& v) {
  DemoteRange(v.data(), v.size() * sizeof(T));
}

}  // namespace

const PublishedView* PublishedView::Build(std::vector<Counter> counters,
                                          uint64_t stream_length,
                                          uint64_t min_freq,
                                          uint64_t sequence,
                                          uint64_t shed_weight) {
  // Sort defensively: callers typically hand over CountersDescending output
  // (already ordered), which std::sort handles in near-linear time, but the
  // ladder and prefix queries are only correct on sorted input.
  std::sort(counters.begin(), counters.end(),
            [](const Counter& a, const Counter& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.key < b.key;
            });

  const size_t n = counters.size();
  auto* view = new PublishedView(n);
  view->stream_length_ = stream_length;
  view->min_freq_ = min_freq;
  view->sequence_ = sequence;
  view->shed_weight_ = shed_weight;

  view->keys_.reserve(n);
  view->counts_.reserve(n);
  view->errors_.reserve(n);
  for (const Counter& c : counters) {
    view->keys_.push_back(c.key);
    view->counts_.push_back(c.count);
    view->errors_.push_back(c.error);
  }

  for (size_t rank = 0; rank < n; ++rank) {
    // A key can appear at most once in a summary snapshot; duplicates
    // would corrupt Rank(), so the merge/dedup must happen upstream.
    assert(view->Rank(view->keys_[rank]) == kNotFound);
    view->index_.Insert(view->keys_.data(), static_cast<uint32_t>(rank));
  }
  return view;
}

void PublishedView::DemoteCacheLines() const {
  DemoteRange(this, sizeof(*this));
  DemoteVector(keys_);
  DemoteVector(counts_);
  DemoteVector(errors_);
  DemoteRange(index_.data(), index_.table_size() * sizeof(uint32_t));
}

std::vector<Counter> PublishedView::TopK(size_t k) const {
  const size_t n = std::min(k, size());
  std::vector<Counter> out;
  out.reserve(n);
  for (size_t rank = 0; rank < n; ++rank) out.push_back(At(rank));
  return out;
}

}  // namespace cots
