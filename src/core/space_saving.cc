#include "core/space_saving.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace cots {

Status SpaceSavingOptions::Validate() {
  if (capacity == 0) {
    if (epsilon <= 0.0 || epsilon >= 1.0) {
      return Status::InvalidArgument(
          "either capacity > 0 or epsilon in (0, 1) is required");
    }
    capacity = static_cast<size_t>(std::ceil(1.0 / epsilon));
  }
  return Status::OK();
}

SpaceSaving::SpaceSaving(const SpaceSavingOptions& options)
    : capacity_(options.capacity) {
  assert(capacity_ > 0 && "call SpaceSavingOptions::Validate() first");
  index_.reserve(capacity_ * 2);
}

void SpaceSaving::Offer(ElementId e, uint64_t weight) {
  assert(weight > 0);
  n_ += weight;
  auto it = index_.find(e);
  if (it != index_.end()) {
    summary_.Increment(it->second, weight);
    return;
  }
  if (summary_.size() < capacity_) {
    index_.emplace(e, summary_.Insert(e, weight, 0));
    return;
  }
  // Overwrite the minimum-frequency element (Algorithm 1): the newcomer
  // inherits the victim's count as its error bound.
  StreamSummary::Node* victim = summary_.MinNode();
  const uint64_t min_freq = StreamSummary::FreqOf(victim);
  index_.erase(victim->key);
  summary_.Reassign(victim, e, min_freq);
  summary_.Increment(victim, weight);
  index_.emplace(e, victim);
}

std::optional<Counter> SpaceSaving::Lookup(ElementId e) const {
  auto it = index_.find(e);
  if (it == index_.end()) return std::nullopt;
  const StreamSummary::Node* node = it->second;
  return Counter{e, StreamSummary::FreqOf(node), node->error};
}

std::vector<Counter> SpaceSaving::CountersDescending() const {
  std::vector<Counter> out;
  out.reserve(summary_.size());
  for (const StreamSummary::Bucket* b = summary_.MaxBucket(); b != nullptr;
       b = b->prev) {
    const size_t bucket_start = out.size();
    for (const StreamSummary::Node* n = b->head; n != nullptr; n = n->next) {
      out.push_back(Counter{n->key, b->freq, n->error});
    }
    std::sort(out.begin() + static_cast<long>(bucket_start), out.end(),
              [](const Counter& a, const Counter& b2) { return a.key < b2.key; });
  }
  return out;
}

bool SpaceSaving::CheckInvariants() const {
  if (!summary_.CheckInvariants()) return false;
  if (summary_.size() > capacity_) return false;
  if (index_.size() != summary_.size()) return false;
  uint64_t total = 0;
  for (const auto& [key, node] : index_) {
    if (node->key != key) return false;
    if (node->error > StreamSummary::FreqOf(node)) return false;
    total += StreamSummary::FreqOf(node);
  }
  // Count conservation: every processed element incremented exactly one
  // counter, and overwrite preserves the victim's count.
  return total == n_;
}

}  // namespace cots
