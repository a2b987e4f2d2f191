#include "cots/cots_space_saving.h"

#include <cassert>
#include <cmath>
#include <thread>

#include "util/failpoint.h"
#include "util/trace.h"

namespace cots {

namespace {

/// Brackets one offer for Stop()'s quiescence protocol. The entry increment
/// is seq_cst: paired with the offer's subsequent state check and Stop()'s
/// seq_cst Draining-store / inflight-load, it forms a Dekker handshake —
/// either the offer observes Draining and refuses without mutating, or
/// Stop() observes the increment and waits the offer out. The release on
/// exit pairs with Stop()'s acquire load so every effect of completed
/// offers is visible to its sweep.
class InflightScope {
 public:
  explicit InflightScope(std::atomic<uint64_t>* counter) : counter_(counter) {
    counter_->fetch_add(1, std::memory_order_seq_cst);
  }
  ~InflightScope() { counter_->fetch_sub(1, std::memory_order_release); }

 private:
  std::atomic<uint64_t>* counter_;
};

}  // namespace

Status CotsSpaceSavingOptions::Validate() {
  if (capacity == 0) {
    if (epsilon <= 0.0 || epsilon >= 1.0) {
      return Status::InvalidArgument(
          "either capacity > 0 or epsilon in (0, 1) is required");
    }
    capacity = static_cast<size_t>(std::ceil(1.0 / epsilon));
  }
  if (hash_buckets == 0) hash_buckets = capacity * 4;
  if (hash_block_entries == 0 || hash_block_entries > 64) {
    return Status::InvalidArgument("hash_block_entries must be in [1, 64]");
  }
  if (max_threads <= 1) {
    return Status::InvalidArgument("max_threads must be at least 2");
  }
  if (request_ring_capacity == 0) {
    request_ring_capacity = BatchIngestOptions::kDefaultBatchDepth / 4;
  }
  return Status::OK();
}

namespace {

DelegationHashTableOptions TableOptions(const CotsSpaceSavingOptions& opt) {
  DelegationHashTableOptions topt;
  topt.buckets = opt.hash_buckets;
  topt.block_entries = opt.hash_block_entries;
  return topt;
}

ConcurrentStreamSummaryOptions SummaryOptions(
    const CotsSpaceSavingOptions& opt) {
  ConcurrentStreamSummaryOptions sopt;
  sopt.capacity = opt.capacity;
  sopt.request_ring_capacity = opt.request_ring_capacity;
  return sopt;
}

// The engine must never be built from a raw, unvalidated options struct: a
// zero capacity (assert compiled out) means TryAdmit never succeeds, every
// new element becomes an overwrite with no bucket to evict from, and the
// unserviceable parked request spins Stop() — and the destructor — forever.
// Validate on a copy so epsilon-only configs work without the explicit
// call; if validation still fails (debug builds assert first), clamp to
// the smallest functional engine rather than hang teardown.
CotsSpaceSavingOptions ValidatedOptions(CotsSpaceSavingOptions options) {
  const Status status = options.Validate();
  assert(status.ok() && "invalid CotsSpaceSavingOptions");
  (void)status;
  if (options.capacity == 0) options.capacity = 1;
  if (options.hash_buckets == 0) options.hash_buckets = options.capacity * 4;
  if (options.hash_block_entries == 0 || options.hash_block_entries > 64) {
    options.hash_block_entries = 2;
  }
  if (options.max_threads <= 1) options.max_threads = 2;
  if (options.request_ring_capacity == 0) {
    options.request_ring_capacity = BatchIngestOptions::kDefaultBatchDepth / 4;
  }
  return options;
}

}  // namespace

CotsSpaceSaving::CotsSpaceSaving(const CotsSpaceSavingOptions& options)
    : CotsSpaceSaving(ValidatedOptions(options), ValidatedTag{}) {}

CotsSpaceSaving::CotsSpaceSaving(const CotsSpaceSavingOptions& options,
                                 ValidatedTag)
    : epochs_(options.max_threads),
      table_(TableOptions(options), &epochs_),
      summary_(SummaryOptions(options), &table_, &epochs_) {
  assert(options.capacity > 0);
  query_participant_ = epochs_.Register();
  assert(query_participant_ != nullptr);
}

CotsSpaceSaving::~CotsSpaceSaving() {
  // Quiesce before any member is torn down: no delegated work may be in a
  // queue, parked, or mid-processing while the structures destruct.
  Stop();
  if (query_participant_ != nullptr) epochs_.Unregister(query_participant_);
  // Retired hash slots and buckets carry deleters that touch table_ and
  // summary_ memory; run them while that memory is still alive.
  epochs_.DrainAll();
}

void CotsSpaceSaving::Stop() {
  EngineState expected = EngineState::kRunning;
  // seq_cst: the Draining store must be globally ordered against every
  // offer's InflightScope increment + state check (Dekker handshake; see
  // InflightScope).
  if (!state_.compare_exchange_strong(expected, EngineState::kDraining,
                                      std::memory_order_seq_cst)) {
    // Another thread won the transition (or Stop already completed): wait
    // until the structure is frozen so every caller returns post-quiesce.
    while (state_.load(std::memory_order_acquire) != EngineState::kStopped) {
      std::this_thread::yield();
    }
    return;
  }
  COTS_FAILPOINT("engine.teardown");
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(query_mu_);
      summary_.SweepStranded(query_participant_);
    }
    // Order matters: only after in-flight offers reach zero can a clean
    // quiescence scan be trusted — an offer that has Delegated but not yet
    // enqueued is invisible to the scan. seq_cst pairs with InflightScope:
    // an offer we miss here is one that will observe Draining and refuse.
    if (inflight_offers_.load(std::memory_order_seq_cst) == 0) {
      std::lock_guard<std::mutex> lock(query_mu_);
      if (summary_.Quiescent(query_participant_)) break;
    }
    std::this_thread::yield();
  }
  state_.store(EngineState::kStopped, std::memory_order_release);
}

std::unique_ptr<CotsSpaceSaving::ThreadHandle> CotsSpaceSaving::RegisterThread() {
  EpochParticipant* participant = epochs_.Register();
  if (participant == nullptr) return nullptr;
  return std::unique_ptr<ThreadHandle>(new ThreadHandle(this, participant));
}

CotsSpaceSaving::ThreadHandle::~ThreadHandle() {
  // Drain any work stranded by end-of-stream timing before this worker's
  // epoch slot goes away (see ConcurrentStreamSummary::SweepStranded).
  engine_->summary_.SweepStranded(participant_);
  engine_->epochs_.Unregister(participant_);
}

bool CotsSpaceSaving::ThreadHandle::Offer(ElementId e, uint64_t weight) {
  assert(weight > 0);
  InflightScope inflight(&engine_->inflight_offers_);
  // Checked only after the inflight increment (Dekker): seeing kRunning
  // here guarantees Stop()'s inflight wait sees us and blocks until this
  // offer fully lands.
  if (engine_->state_.load(std::memory_order_seq_cst) !=
      EngineState::kRunning) {
    return false;
  }
  engine_->n_.fetch_add(weight, std::memory_order_relaxed);
  EpochGuard guard(participant_);
  OfferGuarded(e, weight);
  return true;
}

bool CotsSpaceSaving::ThreadHandle::OfferBatch(
    const ElementId* elements, size_t count,
    const BatchIngestOptions& options) {
  if (count == 0) return true;
  COTS_TRACE_SPAN(span, "engine.offer_batch");
  span.SetArg(count);
  InflightScope inflight(&engine_->inflight_offers_);
  // Same Dekker handshake as Offer: the whole batch is refused atomically
  // once Stop() has begun, so a batch is never half-counted.
  if (engine_->state_.load(std::memory_order_seq_cst) !=
      EngineState::kRunning) {
    span.Cancel();
    return false;
  }
  engine_->n_.fetch_add(count, std::memory_order_relaxed);
  {
    EpochGuard guard(participant_);

    if (!options.coalesce) {
      // Uncoalesced pipeline: prefetch hash buckets a fixed distance ahead
      // so Delegate's dependent-load walk overlaps across elements.
      const size_t dist = options.prefetch_distance;
      for (size_t i = 0; i < count; ++i) {
        if (dist != 0 && i + dist < count) {
          engine_->table_.PrefetchBucket(elements[i + dist]);
        }
        OfferGuarded(elements[i], 1);
      }
    } else {
      // Coalesce duplicate keys inside the batch window into (key, weight)
      // lumps, preserving first-occurrence order.
      coalescer_.Merge(elements, count);
      const std::vector<WeightedKey>& coalesced = coalescer_.weighted();
      const size_t dist = options.prefetch_distance;
      const size_t distinct = coalesced.size();
      for (size_t i = 0; i < distinct; ++i) {
        if (dist != 0 && i + dist < distinct) {
          engine_->table_.PrefetchBucket(coalesced[i + dist].key);
        }
        OfferGuarded(coalesced[i].key, coalesced[i].weight);
      }
    }
  }
  return true;
}

void CotsSpaceSaving::ThreadHandle::OfferGuarded(ElementId e,
                                                 uint64_t weight) {
  // Algorithm 2: log the occurrence; the thread that takes the count from
  // 0 owns the element and crosses the boundary, everyone else has
  // delegated and simply moves to its next stream element.
  uint64_t remaining = weight;
  while (remaining > 0) {
    DelegationHashTable::DelegateResult r = engine_->table_.Delegate(e);
    if (r.owner) {
      // We hold one unit of the state word and apply the whole batch: the
      // other remaining-1 occurrences were never logged, so they are ours
      // to carry as part of delta.
      engine_->summary_.CrossBoundary(r.entry, r.newly_inserted, remaining,
                                      /*token=*/1, participant_,
                                      /*initial_error=*/0, &scratch_);
      return;
    }
    --remaining;              // the current owner applies the 1 we logged
    if (remaining == 0) return;
    // Weighted non-owner: log the rest as one lump. If the owner
    // relinquished first, the lump seizes ownership (token == remaining);
    // if the entry was evicted first, the lump landed on a dead slot (a
    // harmless stray) and we retry it from scratch.
    const uint64_t old =
        r.entry->state.fetch_add(remaining, std::memory_order_acq_rel);
    if (old & (DelegationHashTable::Entry::kDead |
               DelegationHashTable::Entry::kFree)) {
      continue;
    }
    if (old == 0) {
      engine_->summary_.CrossBoundary(r.entry, /*newly_inserted=*/false,
                                      remaining, /*token=*/remaining,
                                      participant_, /*initial_error=*/0,
                                      &scratch_);
    }
    return;
  }
}

std::optional<Counter> CotsSpaceSaving::LookupWith(
    EpochParticipant* participant, ElementId e) const {
  EpochGuard guard(participant);
  DelegationHashTable::Entry* entry = table_.Find(e);
  if (entry == nullptr) return std::nullopt;
  SummaryNode* node = entry->node.load(std::memory_order_acquire);
  if (node == nullptr) return std::nullopt;  // first placement in flight
  // Atomic field reads: the node may be mid-relocation. The pair can be a
  // step stale (count and error from adjacent states of an in-flight
  // operation), but each value is one the node genuinely held.
  return Counter{e, RelaxedFieldLoad(node->freq), RelaxedFieldLoad(node->error)};
}

std::optional<Counter> CotsSpaceSaving::ThreadHandle::Lookup(
    ElementId e) const {
  return engine_->LookupWith(participant_, e);
}

std::vector<Counter> CotsSpaceSaving::ThreadHandle::CountersDescending()
    const {
  return engine_->summary_.CountersDescending(participant_);
}

uint64_t CotsSpaceSaving::ThreadHandle::stream_length() const {
  return engine_->stream_length();
}

size_t CotsSpaceSaving::ThreadHandle::num_counters() const {
  return engine_->num_counters();
}

std::optional<Counter> CotsSpaceSaving::Lookup(ElementId e) const {
  std::lock_guard<std::mutex> lock(query_mu_);
  return LookupWith(query_participant_, e);
}

std::vector<Counter> CotsSpaceSaving::CountersDescending() const {
  std::lock_guard<std::mutex> lock(query_mu_);
  return summary_.CountersDescending(query_participant_);
}

uint64_t CotsSpaceSaving::MinFreq() const {
  std::lock_guard<std::mutex> lock(query_mu_);
  return summary_.MinFreq(query_participant_);
}

}  // namespace cots
