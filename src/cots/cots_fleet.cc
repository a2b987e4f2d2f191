#include "cots/cots_fleet.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <new>
#include <thread>

#include "core/published_view.h"
#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/spinlock.h"
#include "util/stopwatch.h"
#include "util/thread_utils.h"
#include "util/trace.h"

namespace cots {

namespace {

/// Fleet-level offer bracket: seq_cst entry increment + state check versus
/// Stop()'s seq_cst Draining CAS + inflight wait form a Dekker handshake,
/// the engine's (cots_space_saving.cc) lifted one level.
class InflightScope {
 public:
  explicit InflightScope(std::atomic<uint64_t>* counter) : counter_(counter) {
    counter_->fetch_add(1, std::memory_order_seq_cst);
  }
  ~InflightScope() { counter_->fetch_sub(1, std::memory_order_release); }

 private:
  std::atomic<uint64_t>* counter_;
};

// Full murmur3 finalizer (both multiplies). ShardOf takes the product's
// HIGH bits (Lemire reduction), and after a single multiply those are
// still nearly linear in the key — a dense small-key space (0..63) then
// routes almost everything to the last shard. The second multiply
// diffuses the high bits; the shard summaries index by their own SplitMix
// mix, so the two splits stay effectively independent.
inline uint64_t MixKey(ElementId e) {
  uint64_t h = e;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

bool ByCountDescending(const Counter& a, const Counter& b) {
  if (a.count != b.count) return a.count > b.count;
  return a.key < b.key;
}

// An automatic refresh may start once this many publish durations have
// passed since the previous one ended, so publishing costs a producer at
// most 1/(kPublishPacing + 1) of its time.
constexpr uint64_t kPublishPacing = 8;

// Superseded views a thread may hold unfreed before each further retire
// forces an epoch advance (EpochManager's forced-advance backlog). A view
// is retired once per publish, so the default cadence (one advance attempt
// per 64 retires) would keep 64-128 views waiting for reclamation, most of
// the fleet's heap. With 2, a view is freed within a few publishes.
constexpr size_t kViewRetireBacklog = 2;

// A holder that keeps a shard's flag this long is treated as stalled
// (preempted or wedged): a producer waiting to help a backlogged shard
// hands its run off instead, and an automatic refresh gives up and stays
// due for the next offer. Producers therefore never wait on a stalled
// shard for longer than this.
constexpr uint64_t kStallPatienceNs = 200'000;

CotsFleetOptions ValidatedOptions(CotsFleetOptions options) {
  const Status status = options.Validate();
  assert(status.ok() && "invalid CotsFleetOptions");
  (void)status;
  // Release-build clamps: a fleet must never be constructed in a shape
  // that cannot count or cannot register its own query slot.
  if (options.num_shards == 0) options.num_shards = 1;
  if (options.engine.capacity == 0) options.engine.capacity = 1;
  if (options.engine.max_threads < 2) options.engine.max_threads = 2;
  if (options.merge_capacity == 0) {
    options.merge_capacity = options.engine.capacity;
  }
  return options;
}

}  // namespace

Status CotsFleetOptions::Validate() {
  if (num_shards == 0) {
    num_shards = static_cast<size_t>(HardwareConcurrency());
    if (num_shards == 0) num_shards = 1;
  }
  if (num_shards > 4096) {
    return Status::InvalidArgument("num_shards must be at most 4096");
  }
  if (engine.capacity == 0) {
    if (engine.epsilon <= 0.0 || engine.epsilon >= 1.0) {
      return Status::InvalidArgument(
          "either engine.capacity > 0 or engine.epsilon in (0, 1) is "
          "required");
    }
    engine.capacity = static_cast<size_t>(std::ceil(1.0 / engine.epsilon));
  }
  if (engine.max_threads <= 1) {
    return Status::InvalidArgument("engine.max_threads must be at least 2");
  }
  if (merge_capacity == 0) merge_capacity = engine.capacity;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Shard

// A handed-off run: `count` elements, each offered with `weight`, stored
// inline after the header (one allocation per hand-off; the uncontended
// path never allocates).
struct CotsFleet::Shard::Run {
  Run* next;
  uint64_t weight;
  size_t count;

  ElementId* elements() { return reinterpret_cast<ElementId*>(this + 1); }

  static Run* Make(const ElementId* elements, size_t count, uint64_t weight) {
    static_assert(sizeof(Run) % alignof(ElementId) == 0);
    void* mem = ::operator new(sizeof(Run) + count * sizeof(ElementId));
    Run* run = new (mem) Run{nullptr, weight, count};
    std::memcpy(run->elements(), elements, count * sizeof(ElementId));
    return run;
  }
  static void Free(Run* run) {
    run->~Run();
    ::operator delete(run);
  }
};

CotsFleet::Shard::Shard(size_t capacity) : summary_(capacity) {}

CotsFleet::Shard::~Shard() {
  // The fleet's destructor stops it first, which empties every inbox; this
  // only guards a shard destroyed some other way.
  for (Run* run = inbox_.load(std::memory_order_acquire); run != nullptr;) {
    Run* next = run->next;
    Run::Free(run);
    run = next;
  }
}

bool CotsFleet::Shard::Acquire(uint64_t deadline_ns) const {
  if (!TryAcquire()) {
    // Announce the wait: a releasing holder then leaves a non-empty inbox
    // to us instead of re-taking the flag to drain it, so a busy shard's
    // holder cannot starve a reader or publisher by chaining drains.
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    bool acquired = false;
    for (uint32_t spins = 1; !(acquired = TryAcquire()); ++spins) {
      CpuRelax();
      if (deadline_ns != 0 && spins % 64 == 0 && NowNanos() > deadline_ns) {
        break;
      }
    }
    waiters_.fetch_sub(1, std::memory_order_seq_cst);
    if (!acquired) {
      // Holders may have skipped their inbox re-check on our account;
      // take that duty back before giving up.
      if (TryAcquire()) Release();
      return false;
    }
  }
  // Runs handed off before this call are applied before the caller reads.
  DrainInbox();
  return true;
}

void CotsFleet::Shard::Apply(const ElementId* elements, size_t count,
                             uint64_t weight) const {
  for (size_t i = 0; i < count; ++i) summary_.Offer(elements[i], weight);
}

void CotsFleet::Shard::DrainInbox() const {
  if (inbox_.load(std::memory_order_relaxed) == nullptr) return;
  Run* run = inbox_.exchange(nullptr, std::memory_order_acquire);
  // The inbox is a LIFO push list; reverse it so runs apply in hand-off
  // order (each producer's runs into this shard stay in arrival order).
  Run* fifo = nullptr;
  uint64_t drained = 0;
  while (run != nullptr) {
    Run* next = run->next;
    run->next = fifo;
    fifo = run;
    run = next;
  }
  while (fifo != nullptr) {
    Run* next = fifo->next;
    Apply(fifo->elements(), fifo->count, fifo->weight);
    drained += fifo->count;
    Run::Free(fifo);
    fifo = next;
  }
  inbox_depth_.fetch_sub(drained, std::memory_order_relaxed);
}

void CotsFleet::Shard::Release() const {
  for (;;) {
    DrainInbox();
    n_.store(summary_.stream_length(), std::memory_order_relaxed);
    size_.store(summary_.size(), std::memory_order_relaxed);
    // Still inside the critical section: a wedge here holds the flag, and
    // a yield here widens the window in which a run is pushed after the
    // last drain.
    COTS_FAILPOINT("fleet.shard_hold");
    // Dekker pairing with Push: release the flag, then look at the inbox
    // (both seq_cst); a pusher pushes, then looks at the flag. At least
    // one side sees the other, so a run pushed while we held the flag is
    // drained either here or by the pusher's own retry.
    owner_.store(false, std::memory_order_seq_cst);
    if (inbox_.load(std::memory_order_seq_cst) == nullptr) return;
    // A waiter takes the flag next and drains on acquiring (or, giving
    // up, re-checks as we would); someone else holding the flag now
    // drains it on their release.
    if (waiters_.load(std::memory_order_seq_cst) != 0) return;
    if (!TryAcquire()) return;
  }
}

uint64_t CotsFleet::Shard::Push(Run* run) {
  // Depth first, so a concurrent drain can never subtract a run's count
  // before it was added.
  const uint64_t queued =
      inbox_depth_.fetch_add(run->count, std::memory_order_relaxed);
  Run* head = inbox_.load(std::memory_order_relaxed);
  do {
    run->next = head;
  } while (!inbox_.compare_exchange_weak(head, run, std::memory_order_seq_cst,
                                         std::memory_order_relaxed));
  return queued;
}

std::optional<Counter> CotsFleet::Shard::Lookup(ElementId e) const {
  Acquire();
  std::optional<Counter> c = summary_.Lookup(e);
  Release();
  return c;
}

std::vector<Counter> CotsFleet::Shard::CountersDescending() const {
  Acquire();
  std::vector<Counter> out = summary_.CountersDescending();
  Release();
  return out;
}

uint64_t CotsFleet::Shard::MinFreq() const {
  const uint64_t shed = shed_weight();
  Acquire();
  const uint64_t structural =
      summary_.size() < summary_.capacity() ? 0 : summary_.MinFreq();
  Release();
  return structural + shed;
}

bool CotsFleet::Shard::CheckInvariants() const {
  // Read before Acquire, which would drain it: a stopped fleet must have
  // left nothing behind.
  const bool inbox_empty =
      inbox_.load(std::memory_order_acquire) == nullptr &&
      inbox_depth_.load(std::memory_order_relaxed) == 0;
  Acquire();
  const bool ok = summary_.CheckInvariants() &&
                  n_.load(std::memory_order_relaxed) ==
                      summary_.stream_length() &&
                  size_.load(std::memory_order_relaxed) == summary_.size();
  Release();
  return ok && inbox_empty;
}

// ---------------------------------------------------------------------------
// Fleet

CotsFleet::CotsFleet(const CotsFleetOptions& options)
    : options_(ValidatedOptions(options)),
      view_refresh_interval_(options_.view_refresh_interval),
      view_epochs_(options_.engine.max_threads, kViewRetireBacklog) {
  shards_.reserve(options_.num_shards);
  for (size_t s = 0; s < options_.num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(options_.engine.capacity));
  }
  view_query_participant_ = view_epochs_.Register();
  assert(view_query_participant_ != nullptr);
}

CotsFleet::~CotsFleet() {
  Stop();
  // All handles are destroyed before the fleet (API contract), so no view
  // pin can be live; the current view is freed directly and retired
  // predecessors drain with the epoch domain.
  delete published_view_.exchange(nullptr, std::memory_order_acq_rel);
  if (view_query_participant_ != nullptr) {
    view_epochs_.Unregister(view_query_participant_);
  }
  view_epochs_.DrainAll();
}

size_t CotsFleet::ShardOf(ElementId e) const {
  // Lemire reduction: high bits of mix * num_shards, uniform without a
  // division and without requiring a power-of-two shard count.
  return static_cast<size_t>(
      (static_cast<unsigned __int128>(MixKey(e)) * shards_.size()) >> 64);
}

std::unique_ptr<CotsFleet::ThreadHandle> CotsFleet::RegisterThread() {
  EpochParticipant* participant = view_epochs_.Register();
  if (participant == nullptr) return nullptr;
  return std::unique_ptr<ThreadHandle>(new ThreadHandle(this, participant));
}

void CotsFleet::Stop() {
  EngineState expected = EngineState::kRunning;
  if (!state_.compare_exchange_strong(expected, EngineState::kDraining,
                                      std::memory_order_seq_cst)) {
    while (state_.load(std::memory_order_acquire) != EngineState::kStopped) {
      std::this_thread::yield();
    }
    return;
  }
  COTS_TRACE_SPAN(span, "fleet.stop_drain");
  // Every offer that won the handshake before the CAS above is visible in
  // inflight_offers_; every later offer observes Draining and refuses
  // before touching any shard.
  while (inflight_offers_.load(std::memory_order_seq_cst) != 0) {
    COTS_FAILPOINT("fleet.drain_wait");
    std::this_thread::yield();
  }
  // No offer is in flight, so no run can be pushed any more; whatever a
  // holder's Dekker check left behind is applied here.
  for (const auto& shard : shards_) {
    shard->Acquire();
    COTS_FAILPOINT("fleet.stop_drain");
    shard->Release();
  }
  state_.store(EngineState::kStopped, std::memory_order_release);
}

bool CotsFleet::TryApply(size_t s, const ElementId* elements, size_t count,
                         uint64_t weight) {
  Shard& shard = *shards_[s];
  if (!shard.TryAcquire()) return false;
  // Runs handed off before ours go first (per-producer order).
  shard.DrainInbox();
  ApplyHeld(shard, elements, count, weight);
  return true;
}

void CotsFleet::ApplyHeld(Shard& shard, const ElementId* elements,
                          size_t count, uint64_t weight) {
  COTS_TRACE_SPAN(span, "fleet.shard_run");
  span.SetArg(count);
  shard.Apply(elements, count, weight);
  shard.Release();
}

bool CotsFleet::HandOff(Shard& shard, const ElementId* elements,
                        size_t count, uint64_t weight) {
  const uint64_t queued =
      shard.Push(Shard::Run::Make(elements, count, weight));
  COTS_TRACE_INSTANT_ARG("fleet.handoff", count);
  COTS_COUNTER_INC("fleet.handoffs");
  COTS_FAILPOINT("fleet.handoff_retry");
  // The holder may have released before our push landed; if the flag is
  // free now, the run is ours to apply.
  if (shard.TryAcquire()) shard.Release();
  return queued > kBatchDepth;
}

bool CotsFleet::Dispatch(size_t s, const ElementId* elements, size_t count,
                         uint64_t weight) {
  Shard& shard = *shards_[s];
  if (shard.queue_depth() <= kBatchDepth) {
    if (TryApply(s, elements, count, weight)) return false;
    return HandOff(shard, elements, count, weight);  // delegate, move on
  }
  // More than a batch is already waiting: the shard is not keeping up, and
  // piling on would only grow its backlog. Wait to take the flag (draining
  // the backlog on the way in) — unless the holder looks stalled, in which
  // case hand off after all. Either way the batch reports the overload.
  if (shard.Acquire(NowNanos() + kStallPatienceNs)) {
    ApplyHeld(shard, elements, count, weight);
  } else {
    HandOff(shard, elements, count, weight);
  }
  return true;
}

CotsFleet::ThreadHandle::ThreadHandle(CotsFleet* fleet,
                                      EpochParticipant* participant)
    : fleet_(fleet), view_participant_(participant),
      route_(fleet->num_shards()) {}

CotsFleet::ThreadHandle::~ThreadHandle() {
  fleet_->view_epochs_.Unregister(view_participant_);
}

bool CotsFleet::ThreadHandle::Offer(ElementId e, uint64_t weight) {
  InflightScope inflight(&fleet_->inflight_offers_);
  if (fleet_->state_.load(std::memory_order_seq_cst) !=
      EngineState::kRunning) {
    return false;
  }
  COTS_FAILPOINT("fleet.dispatch_shard");
  fleet_->Dispatch(fleet_->ShardOf(e), &e, 1, weight);
  fleet_->MaybeAutoRefresh(view_participant_, weight);
  return true;
}

OfferOutcome CotsFleet::ThreadHandle::OfferBatchBounded(
    const ElementId* elements, size_t count) {
  if (count == 0) return OfferOutcome::kAccepted;
  COTS_TRACE_SPAN(span, "fleet.offer_batch");
  span.SetArg(count);
  InflightScope inflight(&fleet_->inflight_offers_);
  if (fleet_->state_.load(std::memory_order_seq_cst) !=
      EngineState::kRunning) {
    span.Cancel();
    return OfferOutcome::kRefused;
  }
  // One pass partitions the batch while keeping per-shard arrival order;
  // buffers are cleared on entry so nothing leaks across calls.
  for (std::vector<ElementId>& r : route_) r.clear();
  for (size_t i = 0; i < count; ++i) {
    route_[fleet_->ShardOf(elements[i])].push_back(elements[i]);
  }
  // First pass: apply every run whose shard is free and skip the held
  // ones. Second pass: a shard still held after the others were served
  // gets its run through Dispatch (hand-off, or help a backlogged shard).
  held_.clear();
  uint64_t touched = 0;
  for (size_t s = 0; s < route_.size(); ++s) {
    if (route_[s].empty()) continue;
    ++touched;
    // Perturbation point between per-shard dispatches: a batch that is
    // half-landed across shards is exactly the state Stop() must wait out.
    COTS_FAILPOINT("fleet.dispatch_shard");
    if (!fleet_->TryApply(s, route_[s].data(), route_[s].size(), 1)) {
      held_.push_back(s);
    }
  }
  bool overloaded = false;
  for (const size_t s : held_) {
    overloaded |= fleet_->Dispatch(s, route_[s].data(), route_[s].size(), 1);
  }
  COTS_HISTOGRAM_RECORD("fleet.batch_shards_touched", touched);
  fleet_->MaybeAutoRefresh(view_participant_, count);
  if (!overloaded) return OfferOutcome::kAccepted;
  fleet_->deadline_misses_.fetch_add(1, std::memory_order_relaxed);
  COTS_COUNTER_INC("overload.deadline_misses");
  return OfferOutcome::kOverloaded;
}

std::optional<Counter> CotsFleet::ThreadHandle::Lookup(ElementId e) const {
  return fleet_->Lookup(e);
}

std::vector<Counter> CotsFleet::ThreadHandle::CountersDescending() const {
  return fleet_->CountersDescending();
}

uint64_t CotsFleet::ThreadHandle::stream_length() const {
  return fleet_->stream_length();
}

size_t CotsFleet::ThreadHandle::num_counters() const {
  return fleet_->num_counters();
}

const PublishedView* CotsFleet::ThreadHandle::AcquireQueryView() const {
  // The pin must precede the load so a view retired after our Enter cannot
  // be freed until we release.
  view_participant_->Enter();
  const PublishedView* view =
      fleet_->published_view_.load(std::memory_order_acquire);
  if (view == nullptr) view_participant_->Exit();
  return view;
}

void CotsFleet::ThreadHandle::ReleaseQueryView() const {
  view_participant_->Exit();
}

bool CotsFleet::FoldShards(uint64_t deadline_ns, Fold* out) const {
  const size_t capacity = options_.merge_capacity;
  out->counters.clear();
  out->counters.reserve(capacity + options_.engine.capacity);
  for (size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    // Shed weight before the copy: a concurrent Shed can then only make
    // the widening below larger than the shed the copy reflects, never
    // smaller (DESIGN.md §13.3).
    const uint64_t shed = shard.shed_weight();
    const size_t first = out->counters.size();
    if (!shard.Acquire(deadline_ns)) return false;
    const uint64_t n = shard.summary_.stream_length();
    const uint64_t structural =
        shard.summary_.size() < shard.summary_.capacity()
            ? 0
            : shard.summary_.MinFreq();
    shard.summary_.AppendCounters(&out->counters);
    shard.Release();
    // The fold below is MergeSerial(..., kDisjoint) without the per-part
    // CounterSets: widen this part's errors by its shed weight
    // (CounterSet::FromShedSummary), take the max of the bounds, and on
    // truncation raise the bound by the first dropped count plus the shed
    // folded so far (CombineCounterSets). The first part is never
    // truncated, as in MergeSerial.
    if (shed != 0) {
      for (size_t i = first; i < out->counters.size(); ++i) {
        out->counters[i].error += shed;
      }
    }
    out->stream_length += n;
    out->shed_weight += shed;
    out->min_freq = std::max(out->min_freq, structural + shed);
    if (s > 0 && out->counters.size() > capacity) {
      std::nth_element(out->counters.begin(),
                       out->counters.begin() + static_cast<ptrdiff_t>(capacity),
                       out->counters.end(), ByCountDescending);
      out->min_freq = std::max(
          out->min_freq, out->counters[capacity].count + out->shed_weight);
      out->counters.resize(capacity);
    }
  }
  return true;
}

CounterSet CotsFleet::GlobalView() const {
  Fold fold;
  FoldShards(/*deadline_ns=*/0, &fold);
  return CounterSet(std::move(fold.counters), fold.min_freq,
                    fold.stream_length, fold.shed_weight);
}

bool CotsFleet::Shed(const ElementId* elements, size_t count) {
  if (count == 0) return true;
  InflightScope inflight(&inflight_offers_);
  if (state_.load(std::memory_order_seq_cst) != EngineState::kRunning) {
    return false;
  }
  // Route each shed occurrence to the shard an offer would have landed on:
  // the disjoint-merge bound composition relies on every key's shed weight
  // widening its HOME shard's bounds (DESIGN.md §13).
  for (size_t i = 0; i < count; ++i) {
    shards_[ShardOf(elements[i])]->shed_weight_.fetch_add(
        1, std::memory_order_relaxed);
  }
  COTS_TRACE_INSTANT_ARG("overload.shed", count);
  COTS_GAUGE_SET("overload.shed_weight", shed_weight());
  return true;
}

uint64_t CotsFleet::shed_weight() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->shed_weight();
  return total;
}

uint64_t CotsFleet::MinFreq() const {
  uint64_t bound = 0;
  for (const auto& shard : shards_) bound = std::max(bound, shard->MinFreq());
  return bound;
}

std::optional<Counter> CotsFleet::Lookup(ElementId e) const {
  return shards_[ShardOf(e)]->Lookup(e);
}

std::vector<Counter> CotsFleet::CountersDescending() const {
  return GlobalView().CountersDescending();
}

uint64_t CotsFleet::stream_length() const {
  uint64_t n = 0;
  for (const auto& shard : shards_) n += shard->stream_length();
  return n;
}

size_t CotsFleet::num_counters() const {
  size_t monitored = 0;
  for (const auto& shard : shards_) monitored += shard->num_counters();
  return monitored;
}

bool CotsFleet::PublishView(EpochParticipant* participant,
                            uint64_t deadline_ns) {
  COTS_TRACE_SPAN(span, "view.publish");
  Fold fold;
  if (!FoldShards(deadline_ns, &fold)) {
    span.Cancel();
    return false;
  }
  const uint64_t seq = view_sequence_.load(std::memory_order_relaxed) + 1;
  span.SetArg(seq);
  const PublishedView* next =
      PublishedView::Build(std::move(fold.counters), fold.stream_length,
                           fold.min_freq, seq, fold.shed_weight);
  // The view was just written on this core; readers on other cores would
  // otherwise fetch every line from this core's private cache.
  next->DemoteCacheLines();
  COTS_FAILPOINT("view.publish");
  const PublishedView* prev =
      published_view_.exchange(next, std::memory_order_acq_rel);
  view_sequence_.store(seq, std::memory_order_release);
  COTS_COUNTER_INC("view.refreshes");
  if (prev != nullptr) {
    EpochGuard guard(participant);
    participant->Retire(const_cast<PublishedView*>(prev));
  }
  return true;
}

void CotsFleet::MaybeAutoRefresh(EpochParticipant* participant,
                                 uint64_t weight) {
  if (view_refresh_interval_ == 0) return;
  const uint64_t before =
      offers_since_refresh_.fetch_add(weight, std::memory_order_relaxed);
  // View staleness in offers as observed by this thread; the metrics
  // snapshot reports the worst thread.
  COTS_GAUGE_SET("view.staleness_offers", before + weight);
  if (before + weight < view_refresh_interval_) return;
  const uint64_t now = NowNanos();
  if (now < next_auto_refresh_ns_.load(std::memory_order_relaxed)) return;
  bool expected = false;
  if (!view_refresh_claim_.compare_exchange_strong(
          expected, true, std::memory_order_acquire)) {
    return;  // a concurrent refresher is already publishing a fresher view
  }
  offers_since_refresh_.store(0, std::memory_order_relaxed);
  if (PublishView(participant, now + kStallPatienceNs)) {
    const uint64_t end = NowNanos();
    next_auto_refresh_ns_.store(end + kPublishPacing * (end - now),
                                std::memory_order_relaxed);
  } else {
    // A shard stayed held: leave the refresh due for the next offer.
    offers_since_refresh_.fetch_add(view_refresh_interval_,
                                    std::memory_order_relaxed);
    COTS_COUNTER_INC("view.refresh_abandoned");
  }
  view_refresh_claim_.store(false, std::memory_order_release);
}

void CotsFleet::RefreshQueryView() {
  bool expected = false;
  while (!view_refresh_claim_.compare_exchange_weak(
      expected, true, std::memory_order_acquire)) {
    expected = false;
    std::this_thread::yield();
  }
  offers_since_refresh_.store(0, std::memory_order_relaxed);
  PublishView(view_query_participant_, /*deadline_ns=*/0);
  view_refresh_claim_.store(false, std::memory_order_release);
}

}  // namespace cots
