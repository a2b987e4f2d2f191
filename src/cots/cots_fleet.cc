#include "cots/cots_fleet.h"

#include <algorithm>
#include <cassert>
#include <new>
#include <thread>
#include <type_traits>

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

// Lemire reduction: the high bits of mix * shards, uniform without a
// division and without requiring a power-of-two shard count.
inline size_t HomeShard(ElementId e, size_t shards) {
  return static_cast<size_t>(
      (static_cast<unsigned __int128>(MixKey(e)) * shards) >> 64);
}

// A batch's entries: keys with unit weight, or coalesced (key, weight)
// pairs. Ring segments carry the weights only for the second kind.
inline ElementId KeyOf(ElementId e) { return e; }
inline ElementId KeyOf(const WeightedKey& k) { return k.key; }
inline uint64_t WeightOf(ElementId) { return 1; }
inline uint64_t WeightOf(const WeightedKey& k) { return k.weight; }
template <typename Entry>
constexpr uint64_t kEntryWords = std::is_same_v<Entry, WeightedKey> ? 2 : 1;

// Writes chunk[run[0]], ..., chunk[run[n - 1]] as one segment at word `at`
// of `words` (indexes taken modulo mask + 1): a header word holding
// n << 1 | weighted, then each key, followed by its weight when weighted.
// Returns the word after the segment.
template <typename Entry>
uint64_t WriteSegment(uint64_t* words, uint64_t mask, uint64_t at,
                      const Entry* chunk, const uint16_t* run, size_t n) {
  constexpr uint64_t kWeighted = kEntryWords<Entry> - 1;
  words[at++ & mask] = uint64_t{n} << 1 | kWeighted;
  for (size_t j = 0; j < n; ++j) {
    const Entry& entry = chunk[run[j]];
    words[at++ & mask] = KeyOf(entry);
    if constexpr (kWeighted != 0) words[at++ & mask] = WeightOf(entry);
  }
  return at;
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
// (preempted or wedged): a producer whose ring into the shard is full stops
// waiting and overflows its run instead, and an automatic refresh gives up
// and stays due for the next offer. Producers therefore never wait on a
// stalled shard for longer than this.
constexpr uint64_t kStallPatienceNs = 200'000;

CotsFleetOptions ValidatedOptions(CotsFleetOptions options) {
  const Status status = options.Validate();
  assert(status.ok() && "invalid CotsFleetOptions");
  (void)status;
  // Release-build clamps: a fleet must never be constructed in a shape
  // that cannot count.
  if (options.num_shards == 0) options.num_shards = 1;
  if (options.engine.capacity == 0) options.engine.capacity = 1;
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
    return Status::InvalidArgument("engine.capacity must be > 0");
  }
  if (merge_capacity == 0) merge_capacity = engine.capacity;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Shard

// One producer slot's hand-offs into one shard: a single-producer ring of
// words holding segments (WriteSegment). The producer writes segments past
// `tail` and publishes them with one store, always at a segment boundary;
// whoever holds the shard's flag applies them and advances `head`. The two
// indexes sit on separate lines.
struct CotsFleet::Shard::Ring {
  COTS_CACHE_ALIGNED std::atomic<uint64_t> tail{0};
  COTS_CACHE_ALIGNED std::atomic<uint64_t> head{0};
  COTS_CACHE_ALIGNED uint64_t words[kRingWords];
};
static_assert((CotsFleet::kRingWords & (CotsFleet::kRingWords - 1)) == 0);

// A run a stalled holder left no ring room for: one segment of `words`
// words stored inline after the header. Only the overflow path allocates.
struct CotsFleet::Shard::Run {
  Run* next;
  uint64_t words;

  uint64_t* data() { return reinterpret_cast<uint64_t*>(this + 1); }

  static Run* Make(uint64_t words) {
    static_assert(sizeof(Run) % alignof(uint64_t) == 0);
    void* mem = ::operator new(sizeof(Run) + words * sizeof(uint64_t));
    return new (mem) Run{nullptr, words};
  }
  static void Free(Run* run) {
    run->~Run();
    ::operator delete(run);
  }
};

CotsFleet::Shard::Shard(size_t capacity)
    : summary_(capacity),
      rings_(new std::atomic<Ring*>[kMaxHandles]) {
  for (int p = 0; p < kMaxHandles; ++p) {
    rings_[p].store(nullptr, std::memory_order_relaxed);
  }
}

CotsFleet::Shard::~Shard() {
  // The fleet's destructor stops it first, which drains everything; the
  // overflow walk only guards a shard destroyed some other way.
  for (Run* run = overflow_.load(std::memory_order_acquire); run != nullptr;) {
    Run* next = run->next;
    Run::Free(run);
    run = next;
  }
  for (int p = 0; p < kMaxHandles; ++p) {
    delete rings_[p].load(std::memory_order_acquire);
  }
}

CotsFleet::Shard::Ring* CotsFleet::Shard::RingOf(int slot) {
  Ring* ring = rings_[slot].load(std::memory_order_acquire);
  if (ring != nullptr) return ring;
  ring = new Ring();
  rings_[slot].store(ring, std::memory_order_release);
  // Drainers scan slots below ring_span_. The span only grows, so a ring
  // left non-empty by a departed producer is still drained.
  int span = ring_span_.load(std::memory_order_relaxed);
  while (span <= slot && !ring_span_.compare_exchange_weak(
                             span, slot + 1, std::memory_order_seq_cst)) {
  }
  return ring;
}

size_t CotsFleet::Shard::queue_depth() const {
  uint64_t depth = overflow_depth_.load(std::memory_order_relaxed);
  const int span = ring_span_.load(std::memory_order_acquire);
  for (int p = 0; p < span; ++p) {
    const Ring* ring = rings_[p].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    const uint64_t head = ring->head.load(std::memory_order_acquire);
    const uint64_t tail = ring->tail.load(std::memory_order_acquire);
    if (tail > head) depth += tail - head;
  }
  return static_cast<size_t>(depth);
}

bool CotsFleet::Shard::Acquire(uint64_t deadline_ns) const {
  if (!TryAcquire()) {
    // Announce the wait: a releasing holder then leaves what is pending to
    // us instead of re-taking the flag to drain it, and an owner leaves the
    // shard out of its next offer, so a busy shard cannot starve a reader
    // or publisher.
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
      // Holders may have skipped their re-check on our account; take that
      // duty back before giving up.
      if (TryAcquire()) Release();
      return false;
    }
  }
  // Entries handed off before this call are applied before the caller
  // reads.
  Drain();
  return true;
}

template <typename HandBack>
void CotsFleet::Shard::ApplySegments(const uint64_t* words, uint64_t mask,
                                     uint64_t head, uint64_t end,
                                     HandBack hand_back) const {
  while (head != end) {
    const uint64_t header = words[head++ & mask];
    const uint64_t stride = 1 + (header & 1);
    // Producers publish whole segments, so one never runs past `end`; the
    // clamp keeps a damaged ring from running the drain past it.
    assert((header >> 1) * stride <= end - head);
    const uint64_t count = std::min(header >> 1, (end - head) / stride);
    for (uint64_t j = 0; j < count; ++j, head += stride) {
      summary_.Offer(words[head & mask],
                     stride == 1 ? 1 : words[(head + 1) & mask]);
      if (j % 64 == 63) hand_back(head + stride);
    }
  }
}

void CotsFleet::Shard::Drain() const {
  const int span = ring_span_.load(std::memory_order_acquire);
  for (int p = 0; p < span; ++p) {
    Ring* ring = rings_[p].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    const uint64_t tail = ring->tail.load(std::memory_order_acquire);
    const uint64_t head = ring->head.load(std::memory_order_relaxed);
    if (head == tail) continue;
    // Hand room back as we go: a producer waiting on a full ring resumes
    // after 64 entries, not after the whole backlog.
    ApplySegments(ring->words, kRingWords - 1, head, tail, [ring](uint64_t h) {
      ring->head.store(h, std::memory_order_release);
    });
    ring->head.store(tail, std::memory_order_release);
  }
  if (overflow_.load(std::memory_order_relaxed) == nullptr) return;
  Run* run = overflow_.exchange(nullptr, std::memory_order_acquire);
  // The overflow is a LIFO push list; reverse it so runs apply in hand-off
  // order.
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
    ApplySegments(fifo->data(), ~uint64_t{0}, 0, fifo->words, [](uint64_t) {});
    drained += fifo->words;
    Run::Free(fifo);
    fifo = next;
  }
  overflow_depth_.fetch_sub(drained, std::memory_order_relaxed);
}

bool CotsFleet::Shard::Pending() const {
  if (overflow_.load(std::memory_order_seq_cst) != nullptr) return true;
  const int span = ring_span_.load(std::memory_order_seq_cst);
  for (int p = 0; p < span; ++p) {
    const Ring* ring = rings_[p].load(std::memory_order_acquire);
    if (ring != nullptr && ring->tail.load(std::memory_order_seq_cst) !=
                               ring->head.load(std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

void CotsFleet::Shard::Release() const {
  for (;;) {
    Drain();
    n_.store(summary_.stream_length(), std::memory_order_relaxed);
    size_.store(summary_.size(), std::memory_order_relaxed);
    // Still inside the critical section: a wedge here holds the flag, and
    // a yield here widens the window in which an entry is published after
    // the last drain.
    COTS_FAILPOINT("fleet.shard_hold");
    // Dekker pairing with a producer's publish: release the flag, then
    // look at the rings (both seq_cst); a producer publishes its ring,
    // then looks at the flag. At least one side sees the other, so an
    // entry published while we held the flag is drained either here or by
    // the producer itself.
    owner_.store(false, std::memory_order_seq_cst);
    if (!Pending()) return;
    // A waiter takes the flag next and drains on acquiring (or, giving
    // up, re-checks as we would); someone else holding the flag now
    // drains on their release.
    if (waiters_.load(std::memory_order_seq_cst) != 0) return;
    if (!TryAcquire()) return;
  }
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
  // Read before Acquire, which would drain: a stopped fleet must have left
  // nothing behind.
  const bool drained = queue_depth() == 0 &&
                       overflow_.load(std::memory_order_acquire) == nullptr;
  Acquire();
  const bool ok = summary_.CheckInvariants() &&
                  n_.load(std::memory_order_relaxed) ==
                      summary_.stream_length() &&
                  size_.load(std::memory_order_relaxed) == summary_.size();
  Release();
  return ok && drained;
}

// ---------------------------------------------------------------------------
// Fleet

CotsFleet::CotsFleet(const CotsFleetOptions& options)
    : options_(ValidatedOptions(options)),
      view_refresh_interval_(options_.view_refresh_interval),
      slot_taken_(kMaxHandles, false),
      view_epochs_(kMaxHandles + 1, kViewRetireBacklog) {
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
  return HomeShard(e, shards_.size());
}

std::unique_ptr<CotsFleet::ThreadHandle> CotsFleet::RegisterThread() {
  EpochParticipant* participant = view_epochs_.Register();
  if (participant == nullptr) return nullptr;
  return std::unique_ptr<ThreadHandle>(new ThreadHandle(this, participant));
}

int CotsFleet::TakeProducerSlot() {
  std::lock_guard<std::mutex> lock(slots_mu_);
  // Handles are limited to kMaxHandles, so a free slot always exists.
  const int slot = static_cast<int>(
      std::find(slot_taken_.begin(), slot_taken_.end(), false) -
      slot_taken_.begin());
  slot_taken_[static_cast<size_t>(slot)] = true;
  producer_span_.store(std::max(slot + 1, producer_span_.load()),
                       std::memory_order_relaxed);
  return slot;
}

void CotsFleet::ReturnProducerSlot(int slot) {
  std::lock_guard<std::mutex> lock(slots_mu_);
  slot_taken_[static_cast<size_t>(slot)] = false;
  int span = producer_span_.load(std::memory_order_relaxed);
  while (span > 0 && !slot_taken_[static_cast<size_t>(span - 1)]) --span;
  producer_span_.store(span, std::memory_order_relaxed);
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
  // No offer is in flight, so nothing can be handed off any more; whatever
  // a holder's Dekker check left behind is applied here.
  for (const auto& shard : shards_) {
    shard->Acquire();
    COTS_FAILPOINT("fleet.stop_drain");
    shard->Release();
  }
  state_.store(EngineState::kStopped, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Ingest

CotsFleet::ThreadHandle::ThreadHandle(CotsFleet* fleet,
                                      EpochParticipant* participant)
    : fleet_(fleet), view_participant_(participant) {}

CotsFleet::ThreadHandle::~ThreadHandle() {
  // Entries this slot left in its rings stay owned by the shards' Dekker
  // pairings, and the rings stay scanned; the next holder of the slot
  // writes on after them.
  if (slot_ >= 0) fleet_->ReturnProducerSlot(slot_);
  fleet_->view_epochs_.Unregister(view_participant_);
}

void CotsFleet::ThreadHandle::TakeSlot() {
  slot_ = fleet_->TakeProducerSlot();
  const size_t shards = fleet_->num_shards();
  lanes_.assign(shards, Lane::kRing);
  runs_.resize(shards * kBatchDepth);
  run_len_.assign(shards, 0);
  rings_.assign(shards, RingCursor{});
  for (size_t s = 0; s < shards; ++s) {
    // A ring left by the slot's previous holder: continue after its
    // segments (the slot lock ordered its last publish before us).
    RingCursor& c = rings_[s];
    c.ring = fleet_->shards_[s]->rings_[slot_].load(std::memory_order_acquire);
    if (c.ring != nullptr) {
      c.tail = c.published = c.checked = c.limit =
          c.ring->tail.load(std::memory_order_relaxed);
    }
  }
}

bool CotsFleet::ThreadHandle::Owns(size_t s) const {
  const size_t span = static_cast<size_t>(
      std::max(1, fleet_->producer_span_.load(std::memory_order_relaxed)));
  return s % span == static_cast<size_t>(slot_);
}

void CotsFleet::ThreadHandle::Claim(size_t s) {
  Shard& shard = *fleet_->shards_[s];
  if (shard.waiters_.load(std::memory_order_relaxed) == 0 &&
      shard.TryAcquire()) {
    lanes_[s] = Lane::kHeld;
  }
}

template <typename Entry>
void CotsFleet::ThreadHandle::Dispatch(const Entry* entries, size_t count) {
  static_assert(kBatchDepth <= 65536, "runs_ holds 16-bit chunk indexes");
  const size_t shards = lanes_.size();
  for (size_t base = 0; base < count; base += kBatchDepth) {
    const Entry* chunk = entries + base;
    const size_t n = std::min(kBatchDepth, count - base);
    // 1. Partition: each entry's index into its home shard's run. The only
    // per-entry decision is the home shard itself.
    uint16_t* const runs = runs_.data();
    uint32_t* const len = run_len_.data();
    for (size_t i = 0; i < n; ++i) {
      const size_t s = HomeShard(KeyOf(chunk[i]), shards);
      runs[s * kBatchDepth + len[s]++] = static_cast<uint16_t>(i);
    }
    // 2. Hand off: the foreign runs first, so their owners apply them at
    // the end of the offers they are in now.
    uint64_t touched = 0;
    for (size_t s = 0; s < shards; ++s) {
      if (len[s] == 0) {
        touched += lanes_[s] == Lane::kHeld;
        continue;
      }
      ++touched;
      if (lanes_[s] == Lane::kHeld) continue;
      // Perturbation point between per-shard dispatches: a batch that is
      // half-landed across shards is exactly the state Stop() must wait out.
      COTS_FAILPOINT("fleet.dispatch_shard");
      HandOff(s, chunk);
      len[s] = 0;
    }
    COTS_HISTOGRAM_RECORD("fleet.batch_shards_touched", touched);
    // 3. Apply the own runs, each under its held flag.
    for (size_t s = 0; s < shards; ++s) {
      if (len[s] == 0) continue;
      COTS_FAILPOINT("fleet.dispatch_shard");
      const Shard& shard = *fleet_->shards_[s];
      COTS_TRACE_SPAN(span, "fleet.shard_run");
      span.SetArg(len[s]);
      // Our own entries still waiting in our ring go first (per-producer
      // order); everyone else's are drained on release.
      const RingCursor& c = rings_[s];
      if (c.ring != nullptr &&
          c.ring->head.load(std::memory_order_acquire) != c.tail) {
        shard.Drain();
      }
      const uint16_t* run = runs + s * kBatchDepth;
      for (size_t j = 0; j < len[s]; ++j) {
        const Entry& entry = chunk[run[j]];
        shard.summary_.Offer(KeyOf(entry), WeightOf(entry));
      }
      len[s] = 0;
    }
  }
}

template <typename Entry>
void CotsFleet::ThreadHandle::HandOff(size_t s, const Entry* chunk) {
  constexpr uint64_t kWords = kEntryWords<Entry>;
  const size_t len = run_len_[s];
  const uint16_t* run = runs_.data() + s * kBatchDepth;
  RingCursor& c = rings_[s];
  size_t done = 0;
  Lane lane = lanes_[s];
  while (lane == Lane::kRing && done < len) {
    // Room for a header and at least one entry, or wait for it.
    if (c.limit - c.tail < 1 + kWords) {
      lane = MakeRoom(s, 1 + kWords);
      if (lane != Lane::kRing) break;
    }
    const size_t take =
        std::min<size_t>(len - done, (c.limit - c.tail - 1) / kWords);
    c.tail = WriteSegment(c.ring->words, kRingWords - 1, c.tail, chunk,
                          run + done, take);
    done += take;
  }
  if (c.tail != c.published) {
    // Dekker pairing with Release: publish now, look at the flag in
    // Finish.
    c.ring->tail.store(c.tail, std::memory_order_seq_cst);
    c.published = c.tail;
  }
  if (done == len) return;
  if (lane == Lane::kHeld) {
    // MakeRoom took the flag and drained our ring: the rest applies here.
    const Shard& shard = *fleet_->shards_[s];
    for (size_t j = done; j < len; ++j) {
      const Entry& entry = chunk[run[j]];
      shard.summary_.Offer(KeyOf(entry), WeightOf(entry));
    }
  } else {
    Overflow(s, chunk, done, len);
  }
}

template <typename Entry>
void CotsFleet::ThreadHandle::Overflow(size_t s, const Entry* chunk,
                                       size_t begin, size_t end) {
  Shard& shard = *fleet_->shards_[s];
  const uint64_t words = 1 + (end - begin) * kEntryWords<Entry>;
  Shard::Run* node = Shard::Run::Make(words);
  WriteSegment(node->data(), ~uint64_t{0}, 0, chunk,
               runs_.data() + s * kBatchDepth + begin, end - begin);
  shard.overflow_depth_.fetch_add(words, std::memory_order_relaxed);
  Shard::Run* head = shard.overflow_.load(std::memory_order_relaxed);
  do {
    node->next = head;
  } while (!shard.overflow_.compare_exchange_weak(
      head, node, std::memory_order_seq_cst, std::memory_order_relaxed));
  CheckFlag(s, words);
}

void CotsFleet::ThreadHandle::CheckFlag(size_t s, uint64_t words) {
  COTS_FAILPOINT("fleet.handoff_retry");
  Shard& shard = *fleet_->shards_[s];
  if (shard.TryAcquire()) {
    // Nobody held the shard: drain it ourselves, on this core.
    COTS_COUNTER_INC("fleet.self_drains");
    shard.Release();
  } else {
    COTS_TRACE_INSTANT_ARG("fleet.handoff", words);
    COTS_COUNTER_INC("fleet.handoffs");
  }
}

CotsFleet::ThreadHandle::Lane CotsFleet::ThreadHandle::MakeRoom(
    size_t s, uint64_t words) {
  Shard& shard = *fleet_->shards_[s];
  RingCursor& c = rings_[s];
  if (c.ring == nullptr) c.ring = shard.RingOf(slot_);  // first push
  c.limit = c.ring->head.load(std::memory_order_acquire) + kRingWords;
  if (c.limit - c.tail >= words) return Lane::kRing;
  // Full: the shard is not keeping up with this producer. Make what we
  // wrote visible, then wait — at most kStallPatienceNs — for the holder
  // to hand back room or to let us take the flag. Meanwhile drain the
  // shards we hold, so two producers whose rings into each other's shards
  // are full cannot wait each other out.
  COTS_COUNTER_INC("fleet.ring_full");
  overloaded_ = true;
  c.ring->tail.store(c.tail, std::memory_order_seq_cst);
  c.published = c.tail;
  const uint64_t deadline = NowNanos() + kStallPatienceNs;
  shard.waiters_.fetch_add(1, std::memory_order_seq_cst);
  Lane lane = Lane::kOverflow;
  for (uint32_t spins = 1;; ++spins) {
    c.limit = c.ring->head.load(std::memory_order_acquire) + kRingWords;
    if (c.limit - c.tail >= words) {
      lane = Lane::kRing;
      break;
    }
    if (shard.TryAcquire()) {
      lane = Lane::kHeld;
      break;
    }
    CpuRelax();
    if (spins % 64 == 0) {
      DrainHeld();
      if (NowNanos() > deadline) break;
    }
  }
  shard.waiters_.fetch_sub(1, std::memory_order_seq_cst);
  if (lane == Lane::kHeld) {
    shard.Drain();  // applies our ring, and everyone else's, before our run
  } else if (shard.TryAcquire()) {
    // Holders may have left the rings to us while we waited.
    shard.Release();
  }
  lanes_[s] = lane;
  return lane;
}

void CotsFleet::ThreadHandle::DrainHeld() {
  for (size_t s = 0; s < lanes_.size(); ++s) {
    if (lanes_[s] == Lane::kHeld) fleet_->shards_[s]->Drain();
  }
}

bool CotsFleet::ThreadHandle::Finish() {
  // 4. Release. Drain every held shard before letting any of them go: a
  // flag released while another held shard is still being drained is
  // found free by producers publishing into it, who then drain it on
  // their own cores and pull its summary's lines away from ours.
  DrainHeld();
  for (size_t s = 0; s < lanes_.size(); ++s) {
    if (lanes_[s] == Lane::kHeld) fleet_->shards_[s]->Release();
    lanes_[s] = Lane::kRing;
  }
  // Then the flags of the shards this offer published ring entries to
  // (the Dekker look that follows a publish). Looking last gives their
  // holders the whole offer to apply the entries, and their owners time to
  // take back a flag they let go between offers: a producer that finds
  // such a flag free drains that shard on its own core, and if it still
  // held its own shards meanwhile, their rings would fill (DESIGN.md
  // §9.2). Entries a holder has already applied need no look at all.
  for (size_t s = 0; s < rings_.size(); ++s) {
    RingCursor& c = rings_[s];
    if (c.checked == c.published) continue;
    const uint64_t words = c.published - c.checked;
    c.checked = c.published;
    if (c.ring->head.load(std::memory_order_acquire) != c.published) {
      CheckFlag(s, words);
    }
  }
  const bool overloaded = overloaded_;
  overloaded_ = false;
  return overloaded;
}

bool CotsFleet::ThreadHandle::Offer(ElementId e, uint64_t weight) {
  InflightScope inflight(&fleet_->inflight_offers_);
  if (fleet_->state_.load(std::memory_order_seq_cst) !=
      EngineState::kRunning) {
    return false;
  }
  COTS_FAILPOINT("fleet.dispatch_shard");
  if (slot_ < 0) TakeSlot();
  const size_t s = fleet_->ShardOf(e);
  if (Owns(s)) Claim(s);
  if (weight == 1) {
    Dispatch(&e, 1);
  } else {
    const WeightedKey k{e, weight};
    Dispatch(&k, 1);
  }
  Finish();
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
  if (slot_ < 0) TakeSlot();
  // Own shards are held from before coalescing to the end of the offer,
  // so keys other producers hand them meanwhile are applied here too.
  const size_t stride = static_cast<size_t>(
      std::max(1, fleet_->producer_span_.load(std::memory_order_relaxed)));
  for (size_t s = static_cast<size_t>(slot_); s < lanes_.size(); s += stride) {
    Claim(s);
  }
  if (coalescer_.CoalesceIfRepeated(elements, count)) {
    const std::vector<WeightedKey>& w = coalescer_.weighted();
    Dispatch(w.data(), w.size());
  } else {
    Dispatch(elements, count);
  }
  const bool overloaded = Finish();
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
