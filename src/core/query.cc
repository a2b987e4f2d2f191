#include "core/query.h"

#include <algorithm>
#include <cmath>

#include "core/published_view.h"

namespace cots {
namespace {

uint64_t Threshold(double phi, uint64_t n) {
  return static_cast<uint64_t>(std::floor(phi * static_cast<double>(n)));
}

bool CountDescKeyAsc(const Counter& a, const Counter& b) {
  if (a.count != b.count) return a.count > b.count;
  return a.key < b.key;
}

// RAII pin on the summary's published view. `view()` is nullptr when the
// summary has none (sequential summaries, the CoTS engine, or a fleet
// before its first refresh) — callers then take the live-structure path.
class QueryViewLease {
 public:
  explicit QueryViewLease(const FrequencySummary* summary)
      : summary_(summary), view_(summary->AcquireQueryView()) {}
  ~QueryViewLease() {
    if (view_ != nullptr) summary_->ReleaseQueryView();
  }
  QueryViewLease(const QueryViewLease&) = delete;
  QueryViewLease& operator=(const QueryViewLease&) = delete;

  const PublishedView* view() const { return view_; }

 private:
  const FrequencySummary* summary_;
  const PublishedView* view_;
};

// Fallback selection for summaries without a published view: the k highest
// counters in FrequencySummary order without sorting the whole multiset.
std::vector<Counter> SelectTopK(std::vector<Counter> all, size_t k) {
  if (all.size() > k) {
    std::partial_sort(all.begin(), all.begin() + static_cast<ptrdiff_t>(k),
                      all.end(), CountDescKeyAsc);
    all.resize(k);
  } else {
    std::sort(all.begin(), all.end(), CountDescKeyAsc);
  }
  return all;
}

}  // namespace

bool QueryEngine::IsElementFrequent(ElementId e, double phi) const {
  QueryViewLease lease(summary_);
  if (const PublishedView* v = lease.view()) {
    // One wait-free probe; N is cached in the view, so fleets stop folding
    // per-shard atomics on every call.
    std::optional<Counter> c = v->Find(e);
    if (!c.has_value()) return false;
    return c->count > Threshold(phi, v->stream_length());
  }
  std::optional<Counter> c = summary_->Lookup(e);
  if (!c.has_value()) return false;
  return c->count > Threshold(phi, summary_->stream_length());
}

bool QueryEngine::IsElementInTopK(ElementId e, size_t k) const {
  QueryViewLease lease(summary_);
  if (const PublishedView* v = lease.view()) {
    // Probe + ladder read against the same immutable view, so the element's
    // count and the k-th frequency are mutually consistent.
    std::optional<Counter> c = v->Find(e);
    if (!c.has_value()) return false;
    return c->count >= v->KthFrequency(k);
  }
  std::optional<Counter> c = summary_->Lookup(e);
  if (!c.has_value()) return false;
  return c->count >= KthFrequency(k);
}

FrequentSetResult QueryEngine::FrequentElements(double phi) const {
  QueryViewLease lease(summary_);
  FrequentSetResult result;
  if (const PublishedView* v = lease.view()) {
    const uint64_t threshold = Threshold(phi, v->stream_length());
    for (size_t rank = 0; rank < v->size(); ++rank) {
      const Counter c = v->At(rank);
      if (c.count <= threshold) break;  // descending order: done
      if (c.GuaranteedCount() > threshold) {
        result.guaranteed.push_back(c);
      } else {
        result.potential.push_back(c);
      }
    }
    return result;
  }
  const uint64_t threshold = Threshold(phi, summary_->stream_length());
  for (const Counter& c : summary_->CountersDescending()) {
    if (c.count <= threshold) break;  // descending order: done
    if (c.GuaranteedCount() > threshold) {
      result.guaranteed.push_back(c);
    } else {
      result.potential.push_back(c);
    }
  }
  return result;
}

std::vector<Counter> QueryEngine::TopK(size_t k) const {
  QueryViewLease lease(summary_);
  if (const PublishedView* v = lease.view()) return v->TopK(k);
  return SelectTopK(summary_->CountersDescending(), k);
}

QueryEngine::GuaranteedTopK QueryEngine::TopKWithGuarantee(size_t k) const {
  QueryViewLease lease(summary_);
  GuaranteedTopK result;
  // The guarantee needs the first element left out (rank k), so select k+1.
  std::vector<Counter> all;
  if (const PublishedView* v = lease.view()) {
    all = v->TopK(k + 1);
  } else {
    all = SelectTopK(summary_->CountersDescending(), k + 1);
  }
  const uint64_t next_best = all.size() > k ? all[k].count : 0;
  if (all.size() > k) all.resize(k);
  result.guaranteed = true;
  for (const Counter& c : all) {
    if (c.GuaranteedCount() < next_best) {
      result.guaranteed = false;
      break;
    }
  }
  result.elements = std::move(all);
  return result;
}

uint64_t QueryEngine::KthFrequency(size_t k) const {
  if (k == 0) return 0;
  QueryViewLease lease(summary_);
  if (const PublishedView* v = lease.view()) return v->KthFrequency(k);
  // Selection, not a sort: the k-th order statistic of the counter counts.
  std::vector<Counter> all = summary_->CountersDescending();
  if (all.size() < k) return 0;
  auto kth = all.begin() + static_cast<ptrdiff_t>(k - 1);
  std::nth_element(all.begin(), kth, all.end(), CountDescKeyAsc);
  return kth->count;
}

}  // namespace cots
