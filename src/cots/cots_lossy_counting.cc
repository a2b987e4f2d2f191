#include "cots/cots_lossy_counting.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/failpoint.h"

namespace cots {

Status CotsLossyCountingOptions::Validate() const {
  if (epsilon <= 0.0 || epsilon >= 1.0) {
    return Status::InvalidArgument("epsilon must be in (0, 1)");
  }
  if (max_threads <= 1) {
    return Status::InvalidArgument("max_threads must be at least 2");
  }
  return Status::OK();
}

namespace {

uint64_t WidthOf(const CotsLossyCountingOptions& opt) {
  return static_cast<uint64_t>(std::ceil(1.0 / opt.epsilon));
}

DelegationHashTableOptions TableOptions(const CotsLossyCountingOptions& opt) {
  DelegationHashTableOptions topt;
  // Manku-Motwani space is O((1/eps) log(eps N)); 32/eps buckets keeps
  // chains short across any realistic stream length.
  topt.buckets =
      opt.hash_buckets != 0 ? opt.hash_buckets : WidthOf(opt) * 32;
  return topt;
}

ConcurrentStreamSummaryOptions SummaryOptions(
    const CotsLossyCountingOptions& opt) {
  ConcurrentStreamSummaryOptions sopt;
  sopt.capacity = WidthOf(opt) * 32;  // sizing hint only
  sopt.always_admit = true;
  return sopt;
}

}  // namespace

CotsLossyCounting::CotsLossyCounting(const CotsLossyCountingOptions& options)
    : width_(WidthOf(options)),
      epochs_(options.max_threads),
      table_(TableOptions(options), &epochs_),
      summary_(SummaryOptions(options), &table_, &epochs_) {
  assert(options.Validate().ok());
  query_participant_ = epochs_.Register();
  assert(query_participant_ != nullptr);
}

CotsLossyCounting::~CotsLossyCounting() {
  if (query_participant_ != nullptr) epochs_.Unregister(query_participant_);
  // Retired hash slots and buckets carry deleters that touch table_ and
  // summary_ memory; run them while that memory is still alive.
  epochs_.DrainAll();
}

std::unique_ptr<CotsLossyCounting::ThreadHandle>
CotsLossyCounting::RegisterThread() {
  EpochParticipant* participant = epochs_.Register();
  if (participant == nullptr) return nullptr;
  return std::unique_ptr<ThreadHandle>(new ThreadHandle(this, participant));
}

CotsLossyCounting::ThreadHandle::~ThreadHandle() {
  engine_->summary_.SweepStranded(participant_);
  engine_->epochs_.Unregister(participant_);
}

void CotsLossyCounting::ThreadHandle::Offer(ElementId e) {
  // Position in the stream BEFORE this occurrence: bounds how much of e's
  // history can have been evicted (Lossy Counting's delta).
  const uint64_t before =
      engine_->n_.fetch_add(1, std::memory_order_acq_rel);

  EpochGuard guard(participant_);
  // Between the read above and the re-insert below, the offer completing
  // a round may sweep e's earlier entry.
  COTS_FAILPOINT("lossy.delta_window");
  DelegationHashTable::DelegateResult r = engine_->table_.Delegate(e);
  if (r.owner) {
    // A sweep that evicted e's earlier entry published its threshold
    // before enqueuing the eviction, so a re-inserted entry's delta covers
    // it even when it started after `before` was read.
    const uint64_t delta_bound =
        std::max(before / engine_->width_,
                 engine_->swept_round_.load(std::memory_order_acquire));
    engine_->summary_.CrossBoundary(r.entry, r.newly_inserted, 1,
                                    /*token=*/1, participant_,
                                    /*initial_error=*/delta_bound);
  }

  // Round boundary: the offer that completes round r sweeps out entries
  // whose estimate cannot exceed epsilon * N (Section 5.3's replacement
  // for the Overwrite request).
  const uint64_t after = before + 1;
  if (after % engine_->width_ == 0) {
    const uint64_t round = after / engine_->width_;
    uint64_t swept = engine_->swept_round_.load(std::memory_order_relaxed);
    while (swept < round && !engine_->swept_round_.compare_exchange_weak(
                                swept, round, std::memory_order_seq_cst)) {
    }
    engine_->summary_.EvictUpTo(round, participant_);
    engine_->rounds_completed_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::optional<Counter> CotsLossyCounting::LookupWith(
    EpochParticipant* participant, ElementId e) const {
  EpochGuard guard(participant);
  DelegationHashTable::Entry* entry = table_.Find(e);
  if (entry == nullptr) return std::nullopt;
  SummaryNode* node = entry->node.load(std::memory_order_acquire);
  if (node == nullptr) return std::nullopt;
  return Counter{e, node->freq, node->error};
}

std::optional<Counter> CotsLossyCounting::ThreadHandle::Lookup(
    ElementId e) const {
  return engine_->LookupWith(participant_, e);
}

std::vector<Counter> CotsLossyCounting::ThreadHandle::CountersDescending()
    const {
  return engine_->summary_.CountersDescending(participant_);
}

std::optional<Counter> CotsLossyCounting::Lookup(ElementId e) const {
  std::lock_guard<std::mutex> lock(query_mu_);
  return LookupWith(query_participant_, e);
}

std::vector<Counter> CotsLossyCounting::CountersDescending() const {
  std::lock_guard<std::mutex> lock(query_mu_);
  return summary_.CountersDescending(query_participant_);
}

}  // namespace cots
