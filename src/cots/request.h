// Copyright (c) the CoTS reproduction authors.
//
// Requests and per-bucket request queues — the "logging" half of the
// paper's Delegation Model (Section 5). A thread that cannot act on a
// frequency bucket enqueues a request and leaves; whichever thread holds
// the bucket drains and processes the queue before relinquishing it, so no
// logged request is ever lost.
//
// The queue is a bounded lock-free MPSC ring (producers: any thread logging
// a request; the single consumer: whichever thread currently holds the
// bucket — bucket ownership serializes consumers) with *close* semantics: a
// bucket that is about to be garbage collected atomically closes its queue,
// and closing succeeds only while the queue is empty. The closed flag lives
// in the producer ticket word, so an enqueue and a close race safely:
// either the enqueue's ticket CAS lands before the close (the closer's CAS
// then fails against the moved ticket and it must keep processing) or the
// enqueue observes the closed bit and the caller re-routes the request to a
// live bucket. This removes the need for Algorithm 5's appendQueues — a
// closed queue is always empty by construction.
//
// A full ring makes the producer spin-retry a bounded number of times (the
// holder is actively draining); if the consumer still has not freed a slot
// — e.g. it was descheduled mid-drain, or a holder-to-holder delegation
// cycle formed under extreme load — the producer diverts to a lock-free
// overflow spill list (a Treiber stack of heap nodes) rather than
// blocking, so enqueue completes in a bounded number of steps REGARDLESS
// of what the consumer is doing: a wedged consumer costs producers one
// heap allocation and one CAS each, never a wait. Spills are counted
// ("request_queue.fallback_allocations"); in steady state the fallback is
// never taken and the whole path is allocation-free.
//
// Close interacts with the spill list through a tagged head pointer: the
// closer first CASes the EMPTY list head to a closed tag (so no spill can
// slip in while the ring close is decided), then closes the ring via the
// ticket-word CAS, undoing the tag if the ring turns out non-empty. A
// producer that observes the tag treats the queue as closed and re-routes;
// that is observable only on buckets the closer already proved empty, where
// re-routing is the correct outcome anyway.

#ifndef COTS_COTS_REQUEST_H_
#define COTS_COTS_REQUEST_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "stream/stream.h"
#include "util/failpoint.h"
#include "util/macros.h"
#include "util/metrics.h"
#include "util/spinlock.h"
#include "util/trace.h"

namespace cots {

class DelegationHashTable;

/// One unit of delegated work, mapping 1:1 onto the paper's Table 1
/// operations (LOOKUP happens in the hash table before a request exists).
struct Request {
  enum class Kind : uint8_t {
    /// Place a detached element node (node->freq already final) into this
    /// bucket or delegate it further down the list (Algorithm 3).
    kAdd,
    /// Raise an element of this bucket by `delta` and relocate it
    /// (Algorithm 5). delta > 1 is a bulk increment (Section 5.2.2).
    kIncrement,
    /// Evict a minimum-frequency victim and install a new element in its
    /// place (Algorithm 6). Carries the new element's identity.
    kOverwrite,
    /// Remove every non-busy element of this bucket whose frequency is at
    /// most `delta`. This is the round-boundary eviction that replaces
    /// kOverwrite when Lossy Counting is adapted into the framework
    /// (Section 5.3).
    kEvict,
  };

  Kind kind;
  /// kOverwrite: the key of the arriving element.
  ElementId key = 0;
  /// kOverwrite: the arriving element's hash entry (node not yet assigned).
  void* entry = nullptr;
  /// kAdd / kIncrement: the element node being placed or raised.
  void* node = nullptr;
  /// Occurrences to apply (>= 1). kEvict: the eviction threshold.
  uint64_t delta = 0;
  /// Ownership token: how much of the hash entry's state word belongs to
  /// this in-flight operation. Released at completion (Relinquish); almost
  /// always 1 — a weighted offer that seized ownership mid-batch carries a
  /// larger token.
  uint64_t token = 1;
};

/// Bounded lock-free multi-producer ring drained by the single bucket
/// holder. See the file comment for the close protocol and the overflow
/// fallback.
class RequestQueue {
 public:
  /// Default ring capacity (requests) when the owner passes none. The right
  /// size depends on the ingest batch depth: one coalesced batch can funnel
  /// O(batch) requests into a single destination bucket while the producer
  /// still holds another bucket (and so cannot drain), which is why engines
  /// size their rings from BatchIngestOptions rather than this constant.
  static constexpr size_t kDefaultRingCapacity = 64;

  /// `capacity` is rounded up to a power of two (minimum 2). Memory is
  /// ~56 bytes per slot, but the slot array is allocated lazily on the
  /// first enqueue: frequency buckets are created and destroyed at element
  /// rate under churn, and most live their whole life without ever
  /// receiving a delegated request, so eagerly paying a deep ring per
  /// bucket construction would dominate the ingest hot path. Only the hot
  /// long-lived buckets that actually take delegation traffic materialize
  /// their rings.
  explicit RequestQueue(size_t capacity = kDefaultRingCapacity)
      : ring_mask_(RoundUpPowerOfTwo(capacity) - 1) {}
  ~RequestQueue() {
    delete[] ring_.load(std::memory_order_acquire);
    // Engines drain before destruction, but be safe against teardown with
    // spilled requests still pending.
    OverflowNode* head = overflow_head_.load(std::memory_order_acquire);
    while (head != nullptr && head != ClosedTag()) {
      OverflowNode* next = head->next;
      delete head;
      head = next;
    }
  }
  COTS_DISALLOW_COPY_AND_ASSIGN(RequestQueue);

  size_t ring_capacity() const { return ring_mask_ + 1; }

  /// Returns false iff the queue is closed; the request was NOT logged and
  /// the caller must re-route it. Lock-free: claims a ticket with one CAS
  /// on the producer word, then publishes into the claimed slot. Never
  /// blocks on the consumer — a persistently full ring diverts to the
  /// overflow fallback instead.
  bool TryEnqueue(const Request& request) {
    // Fault injection: exercise the overflow fallback without needing 64
    // producers to genuinely fill the ring. EnqueueOverflow re-checks the
    // closed bit, so close semantics are preserved.
    if (COTS_FAILPOINT_TRIGGERED("request_queue.force_overflow")) {
      return EnqueueOverflow(request);
    }
    Slot* const ring = AcquireRing();
    bool saw_full = false;
    for (int full_spins = 0;;) {
      uint64_t ticket = tail_.load(std::memory_order_acquire);
      if (COTS_UNLIKELY(ticket & kClosedBit)) return false;
      Slot& slot = ring[ticket & ring_mask_];
      const uint64_t seq = slot.seq.load(std::memory_order_acquire);
      const int64_t diff = static_cast<int64_t>(seq - ticket);
      if (COTS_LIKELY(diff == 0)) {
        if (tail_.compare_exchange_weak(ticket, ticket + 1,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
          slot.item = request;
          // Publish: the consumer accepts the slot once seq == ticket + 1.
          slot.seq.store(ticket + 1, std::memory_order_release);
          return true;
        }
        // Lost the ticket race to another producer; retry at the new tail.
      } else if (diff < 0) {
        // Ring full: the slot still holds an unconsumed request from one
        // lap ago. The holder is draining; spin-retry briefly.
        if (!saw_full) {
          saw_full = true;
          COTS_COUNTER_INC("request_queue.full_spins");
        }
        if (COTS_UNLIKELY(++full_spins >= kFullSpinLimit)) {
          return EnqueueOverflow(request);
        }
        CpuRelax();
      }
      // diff > 0: stale tail read (another producer advanced); retry.
    }
  }

  /// Moves all pending requests into *out (appending). Returns how many.
  /// Consumer-side only (requires holding the owning bucket): a lock-free
  /// sweep of published slots, no allocation beyond *out's capacity.
  size_t DrainTo(std::vector<Request>* out) {
    uint64_t head = head_.load(std::memory_order_relaxed);
    const uint64_t tail = tail_.load(std::memory_order_acquire) & ~kClosedBit;
    size_t drained = 0;
    // tail > head implies some producer won a ticket CAS, which happens
    // after its ring install/observe — the acquire load of tail_ above
    // therefore makes the installed array visible here.
    Slot* const ring =
        head != tail ? ring_.load(std::memory_order_acquire) : nullptr;
    while (head != tail) {
      Slot& slot = ring[head & ring_mask_];
      bool published = true;
      for (int spins = 0;
           slot.seq.load(std::memory_order_acquire) != head + 1; ++spins) {
        // Claimed but not yet published: the producer won its ticket CAS
        // and is two plain stores away. Wait briefly; if it was preempted
        // mid-publish, leave the remainder for the next drain round (the
        // holder's post-release recheck sees a non-empty queue).
        if (spins >= kPublishSpinLimit) {
          published = false;
          break;
        }
        CpuRelax();
      }
      if (!published) break;
      out->push_back(slot.item);
      // Recycle the slot for the producer one lap ahead.
      slot.seq.store(head + ring_mask_ + 1, std::memory_order_release);
      ++head;
      ++drained;
    }
    head_.store(head, std::memory_order_release);
    if (COTS_UNLIKELY(overflow_count_.load(std::memory_order_acquire) != 0)) {
      drained += DrainOverflow(out);
    }
    return drained;
  }

  /// Atomically closes the queue if it is empty. Once closed, it stays
  /// closed; a closed queue is permanently empty. Consumer-side only. The
  /// ring close linearizes on the producer word (a producer's ticket CAS
  /// and the close CAS cannot both succeed from the same tail value); the
  /// spill list is fenced first by tagging its empty head, so a fallback
  /// enqueue cannot land between the emptiness check and the ring close.
  bool CloseIfEmpty() {
    OverflowNode* expected = nullptr;
    if (!overflow_head_.compare_exchange_strong(expected, ClosedTag(),
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire)) {
      // A real node: spilled requests pending, cannot close. The tag means
      // a previous CloseIfEmpty succeeded (the tag is permanent once the
      // ring close lands), so report closed.
      return expected == ClosedTag();
    }
    uint64_t ticket = tail_.load(std::memory_order_relaxed);
    for (;;) {
      if (ticket & kClosedBit) return true;
      if (ticket != head_.load(std::memory_order_relaxed)) {
        // Ring non-empty: abort and lift the tag. A producer that spilled
        // against the tag in this window was refused and re-routed — the
        // same outcome as closing successfully, and provably only possible
        // on buckets the caller already observed empty (see file comment).
        overflow_head_.store(nullptr, std::memory_order_release);
        return false;
      }
      if (tail_.compare_exchange_weak(ticket, ticket | kClosedBit,
                                      std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
        return true;
      }
    }
  }

  bool closed() const {
    return (tail_.load(std::memory_order_acquire) & kClosedBit) != 0;
  }

  /// Non-blocking (relaxed ring-index reads): safe for the adaptive
  /// scheduler's sampling — never contends with producers or the holder.
  /// Racy by design; reading head before tail keeps the difference >= 0.
  size_t size() const {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    const uint64_t tail = tail_.load(std::memory_order_relaxed) & ~kClosedBit;
    return static_cast<size_t>(tail - head) +
           overflow_count_.load(std::memory_order_relaxed);
  }

  /// Fast-path emptiness probe (post-release recheck, sweep scans).
  bool empty() const { return size() == 0; }

 private:
  static constexpr uint64_t kClosedBit = uint64_t{1} << 63;

  /// Spill-list node. Heap-allocated only on the (counted) fallback path;
  /// freed by the consumer's drain or the destructor.
  struct OverflowNode {
    Request item;
    OverflowNode* next;
  };

  /// Sentinel head value marking the spill list closed. Never dereferenced;
  /// any odd non-null address distinct from real nodes works.
  static OverflowNode* ClosedTag() {
    return reinterpret_cast<OverflowNode*>(uintptr_t{1});
  }

  static constexpr size_t RoundUpPowerOfTwo(size_t v) {
    size_t p = 2;
    while (p < v) p <<= 1;
    return p;
  }

  /// Full-ring producer retries before diverting to the overflow fallback.
  static constexpr int kFullSpinLimit = 256;
  /// Consumer waits on a claimed-but-unpublished slot before giving up the
  /// drain round.
  static constexpr int kPublishSpinLimit = 128;

  /// One ring slot: the publication sequence and its payload share a cache
  /// line, so an enqueue/drain pair touches exactly one line per request.
  struct Slot {
    std::atomic<uint64_t> seq{0};
    Request item;
  };
  static_assert(sizeof(std::atomic<uint64_t>) + sizeof(Request) <=
                    kCacheLineSize,
                "a slot should not straddle cache lines");

  /// Returns the slot array, materializing it on the first call. Racing
  /// producers may each build an array; one install CAS wins and the
  /// losers free theirs. The winner's relaxed seq stores are published by
  /// the release CAS (losers pick them up through the failure acquire
  /// load), so every producer sees fully initialized slots.
  Slot* AcquireRing() {
    Slot* ring = ring_.load(std::memory_order_acquire);
    if (COTS_LIKELY(ring != nullptr)) return ring;
    Slot* fresh = new Slot[ring_mask_ + 1];
    for (size_t i = 0; i <= ring_mask_; ++i) {
      fresh[i].seq.store(i, std::memory_order_relaxed);
    }
    Slot* expected = nullptr;
    if (ring_.compare_exchange_strong(expected, fresh,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      return fresh;
    }
    delete[] fresh;
    return expected;
  }

  bool EnqueueOverflow(const Request& request) {
    // The count is raised BEFORE the push so size()/Quiescent() can only
    // over-report, never under-report, a concurrent spill (a transient +1
    // costs at most one futile drain pass; a transient -1 would let Stop()
    // declare a non-empty queue quiescent).
    overflow_count_.fetch_add(1, std::memory_order_release);
    auto* node = new OverflowNode{request, nullptr};
    OverflowNode* head = overflow_head_.load(std::memory_order_acquire);
    for (;;) {
      if (COTS_UNLIKELY(head == ClosedTag())) {
        // Closed (or mid-close on a bucket already proven empty): refuse
        // and let the caller re-route, exactly like the ring's closed bit.
        delete node;
        overflow_count_.fetch_sub(1, std::memory_order_release);
        return false;
      }
      node->next = head;
      if (overflow_head_.compare_exchange_weak(head, node,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
        break;
      }
    }
    COTS_COUNTER_INC("request_queue.fallback_allocations");
    // Timestamped so a trace shows WHEN the ring saturated (a burst of
    // these clustered around a drain stall is the signature to look for);
    // the arg is the spilled backlog at that moment.
    COTS_TRACE_INSTANT_ARG("request_queue.overflow",
                           overflow_count_.load(std::memory_order_relaxed));
    return true;
  }

  size_t DrainOverflow(std::vector<Request>* out) {
    OverflowNode* head = overflow_head_.load(std::memory_order_acquire);
    if (head == nullptr || head == ClosedTag()) return 0;
    // Only the single consumer installs the closed tag and only while the
    // list is empty, so this exchange can never clobber a tag.
    head = overflow_head_.exchange(nullptr, std::memory_order_acq_rel);
    // The stack pops newest-first; reverse in place so spilled requests
    // drain in arrival order (per-producer FIFO, like the ring).
    OverflowNode* reversed = nullptr;
    while (head != nullptr) {
      OverflowNode* next = head->next;
      head->next = reversed;
      reversed = head;
      head = next;
    }
    size_t n = 0;
    while (reversed != nullptr) {
      out->push_back(reversed->item);
      OverflowNode* next = reversed->next;
      delete reversed;
      reversed = next;
      ++n;
    }
    overflow_count_.fetch_sub(n, std::memory_order_release);
    return n;
  }

  /// Producer word: [closed bit | next ticket]. Producers claim tickets by
  /// CAS; the close bit rides in the same word so close-vs-enqueue is a
  /// single-word linearization.
  COTS_CACHE_ALIGNED std::atomic<uint64_t> tail_{0};
  /// Consumer cursor; written only by the bucket holder (bucket ownership
  /// hands it off with acquire/release), read by size()/empty() probes.
  COTS_CACHE_ALIGNED std::atomic<uint64_t> head_{0};
  const uint64_t ring_mask_;
  /// Lazily materialized slot array (see AcquireRing); null until the
  /// first enqueue. Freed only by the destructor — the array never
  /// changes once installed, so readers need no reclamation protocol.
  std::atomic<Slot*> ring_{nullptr};

  // Lock-free overflow spill list; empty in steady state (see file
  // comment). Holds ClosedTag() once the queue is closed.
  std::atomic<OverflowNode*> overflow_head_{nullptr};
  std::atomic<size_t> overflow_count_{0};
};

}  // namespace cots

#endif  // COTS_COTS_REQUEST_H_
