// Copyright (c) the CoTS reproduction authors.
//
// The Concurrent Stream Summary (paper Section 5.2.2, Figure 10,
// Algorithms 3-6): a singly-linked, frequency-ascending list of buckets,
// each with its own request queue, processed under the Delegation Model.
//
// Ownership discipline (the paper's principles, made precise):
//
//   * A bucket has at most one holder (atomic `held` flag, try-acquire
//     only — no thread ever waits for a bucket: Minimal Existence).
//   * A bucket's element list, size, and `next` pointer are written ONLY by
//     its holder. Inserting a bucket after B or unlinking B's dead
//     successors therefore requires holding B — which is how the list
//     never has broken links.
//   * Work for a bucket you do not hold is delegated: enqueue a request,
//     try-acquire, and if somebody else holds it, walk away — the holder
//     drains the queue before releasing (the combining pattern ensures no
//     logged request is lost).
//   * The list head is a permanent frequency-0 sentinel. New-element Add
//     requests enter through the sentinel's queue; the "minimum frequency
//     bucket" is simply the first non-GC bucket after it. This removes the
//     min-pointer locking of the shared design (Section 4.2) entirely.
//   * A bucket is garbage-collected by atomically closing its queue, which
//     succeeds only while the queue is empty; a closed queue is permanently
//     empty, so (unlike the paper's Algorithm 5) there are never pending
//     requests to transfer — enqueuers that hit a closed queue re-route.
//     Unlinked buckets are reclaimed through EBR so lock-free readers that
//     stepped onto one can finish and "rejoin the main list".
//
// The overwrite defer logic (Algorithm 6) re-queues an overwrite when every
// candidate victim is mid-flight. Progress is guaranteed because a busy
// victim's in-flight operation always terminates by enqueueing to — or
// waking — the victim's bucket (see Complete()).

#ifndef COTS_COTS_CONCURRENT_STREAM_SUMMARY_H_
#define COTS_COTS_CONCURRENT_STREAM_SUMMARY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/counter.h"
#include "cots/delegation_hash_table.h"
#include "cots/request.h"
#include "util/ebr.h"
#include "util/macros.h"
#include "util/status.h"

namespace cots {

struct FreqBucket;

/// Shared-field access discipline: a node's key/freq/error and a bucket's
/// size are written only by the holder of the relevant bucket. Lock-free
/// queries (CountersDescending, Lookup) read the node fields concurrently,
/// so those racing accesses go through std::atomic_ref: the race is a
/// defined relaxed-atomic one — per-field tearing is impossible, and
/// the per-bucket seqlock (FreqBucket::version) provides cross-field
/// consistency for snapshot readers. Holder-side reads of holder-written
/// fields stay plain: successive holders synchronize through the bucket's
/// held flag (and element owners through the hash entry's state word).
inline void RelaxedFieldStore(uint64_t& field, uint64_t value) {
  std::atomic_ref<uint64_t>(field).store(value, std::memory_order_relaxed);
}
inline uint64_t RelaxedFieldLoad(const uint64_t& field) {
  return std::atomic_ref<uint64_t>(const_cast<uint64_t&>(field))
      .load(std::memory_order_relaxed);
}
/// Acquire flavour for the seqlock read protocol: an acquire load cannot
/// have later loads hoisted above it, so a subsequent relaxed read of the
/// bucket version is ordered after every segment read — the fence-free
/// seqlock reader (GCC's TSan cannot instrument atomic_thread_fence, and
/// the suite runs with zero suppressions). Same codegen as relaxed on x86.
inline uint64_t AcquireFieldLoad(const uint64_t& field) {
  return std::atomic_ref<uint64_t>(const_cast<uint64_t&>(field))
      .load(std::memory_order_acquire);
}
inline void RelaxedFieldAdd(size_t& field, std::ptrdiff_t delta) {
  std::atomic_ref<size_t>(field).fetch_add(static_cast<size_t>(delta),
                                           std::memory_order_relaxed);
}

/// One monitored element inside the Concurrent Stream Summary. Mutated only
/// by the thread that currently owns the element (Invariant 5.1) while it
/// holds the relevant bucket; `next` and the bucket head are atomic so
/// lock-free query traversals read coherent pointers. key/freq/error are
/// written via RelaxedFieldStore (see above).
struct SummaryNode {
  ElementId key = 0;
  uint64_t freq = 0;
  uint64_t error = 0;
  DelegationHashTable::Entry* entry = nullptr;
  FreqBucket* bucket = nullptr;
  SummaryNode* prev = nullptr;
  std::atomic<SummaryNode*> next{nullptr};
};

/// A frequency bucket (Figure 10): immutable frequency, element list,
/// request queue, ownership flag, GC mark.
struct FreqBucket {
  explicit FreqBucket(uint64_t f,
                      size_t ring_capacity = RequestQueue::kDefaultRingCapacity)
      : freq(f), queue(ring_capacity) {}

  const uint64_t freq;
  std::atomic<FreqBucket*> next{nullptr};
  std::atomic<bool> held{false};
  std::atomic<bool> gc{false};
  /// Element-list seqlock: odd while the holder mutates the list or its
  /// nodes' counters, bumped to even before the hold is released. Snapshot
  /// readers retry a bucket whose version is odd or moved mid-walk, which
  /// makes each bucket's segment of the snapshot internally consistent
  /// (see CountersDescending for the resulting staleness bound).
  std::atomic<uint64_t> version{0};
  RequestQueue queue;
  // Element list; written only by the holder, read (atomics) by queries.
  std::atomic<SummaryNode*> head{nullptr};
  size_t size = 0;
  // Deferred overwrites parked by the holder until a victim frees up (kept
  // out of the queue so the queue's empty/closed semantics stay exact).
  // The vector is owner-only; the count is readable by anyone deciding
  // whether the bucket needs a revisit.
  std::vector<Request> parked;
  std::atomic<size_t> parked_count{0};
};

struct ConcurrentStreamSummaryOptions {
  /// Maximum number of monitored counters (m = ceil(1/epsilon)).
  size_t capacity = 0;
  double epsilon = 0.0;
  /// When true, new elements are always admitted and capacity is only a
  /// sizing hint — the Lossy Counting adaptation (Section 5.3), which
  /// bounds space by periodic eviction instead of overwrites.
  bool always_admit = false;
  /// Capacity of each bucket's MPSC request ring (rounded up to a power of
  /// two; 0 = RequestQueue::kDefaultRingCapacity). Engines derive this from
  /// their ingest batch depth: a coalesced batch can funnel one request per
  /// distinct key into a single destination bucket while the producer holds
  /// another bucket and cannot drain, so an undersized ring diverts the
  /// burst to the mutex overflow fallback ("request_queue.fallback_
  /// allocations") instead of staying lock-free.
  size_t request_ring_capacity = 0;

  Status Validate();
};

class ConcurrentStreamSummary {
 public:
  /// Per-operation scratch threaded through the delegation machinery: the
  /// pending-bucket work list, drain/defer batches, and the bucket the
  /// executing thread currently holds (so work for that bucket is spliced
  /// into the in-flight batch instead of re-entering its own queue — with
  /// bounded request rings, a holder must never wait on itself as
  /// consumer). Hot callers keep one per thread and pass it to
  /// CrossBoundary so the vectors' capacity survives across elements and
  /// the per-offer path allocates nothing in steady state.
  struct WorkContext {
    EpochParticipant* participant = nullptr;
    std::vector<FreqBucket*> work;
    std::vector<Request> batch;     // drain scratch
    std::vector<Request> deferred;  // overwrite re-queue scratch
    /// Bucket currently held by this thread (nullptr outside a hold).
    FreqBucket* holding = nullptr;

    /// Clears per-operation state; keeps vector capacity.
    void Reset() {
      work.clear();
      batch.clear();
      deferred.clear();
      holding = nullptr;
    }
  };

  /// Monotonically-updated counters describing framework behaviour; used by
  /// tests and reported by benches (e.g. bulk increments explain the
  /// superlinear speedups of Figure 11).
  struct Stats {
    std::atomic<uint64_t> buckets_created{0};
    std::atomic<uint64_t> buckets_garbage_collected{0};
    std::atomic<uint64_t> requests_delegated_downstream{0};
    std::atomic<uint64_t> bulk_increments{0};
    std::atomic<uint64_t> overwrites_deferred{0};
  };

  ConcurrentStreamSummary(const ConcurrentStreamSummaryOptions& options,
                          DelegationHashTable* table, EpochManager* epochs);
  ~ConcurrentStreamSummary();

  COTS_DISALLOW_COPY_AND_ASSIGN(ConcurrentStreamSummary);

  /// Section 5.2.1 "Crossing the Boundary". The caller owns the element
  /// behind `entry` (Delegate returned owner == true) and is inside an
  /// epoch guard on `participant`. Applies `delta` occurrences, holding
  /// `token` units of the entry's state word (see Request::token), and
  /// processes every piece of delegated work the operation uncovers before
  /// returning.
  /// `initial_error` seeds a newly admitted element's error and inflates
  /// its starting frequency (Lossy Counting's delta; 0 for Space Saving).
  /// `scratch` (optional) is a caller-owned WorkContext reused across
  /// calls; the ingest hot path passes one per thread so crossing the
  /// boundary never allocates.
  void CrossBoundary(DelegationHashTable::Entry* entry, bool newly_inserted,
                     uint64_t delta, uint64_t token,
                     EpochParticipant* participant, uint64_t initial_error = 0,
                     WorkContext* scratch = nullptr);

  /// Round-boundary eviction for the Lossy Counting adaptation (Section
  /// 5.3): delegates a kEvict request to every live bucket whose frequency
  /// is at most `threshold`. Quiescent elements there are dropped; busy
  /// ones survive the round.
  void EvictUpTo(uint64_t threshold, EpochParticipant* participant);

  /// Revisits every bucket with queued or parked requests and no holder.
  /// End-of-stream timing can strand a parked overwrite in a bucket that
  /// receives no further events; worker tear-down calls this so quiescence
  /// always means fully drained.
  void SweepStranded(EpochParticipant* participant);

  /// Lock-free snapshot for queries, most frequent first; exact on a
  /// quiescent structure. Staleness bound under concurrency (the paper's
  /// read model, made precise): each bucket's segment is read under that
  /// bucket's seqlock, so it reflects a state the bucket actually passed
  /// through; an element relocating between buckets during the walk is
  /// reported at its old or its new frequency (post-walk dedup keeps the
  /// higher estimate, each key and each node at most once), and an element
  /// admitted or evicted mid-walk may be missing. Every reported count is
  /// one the element genuinely held during the call — never a torn value —
  /// and the counts sum to at most the occurrences applied by the end of
  /// the walk. A bucket
  /// under sustained mutation is retried a few times, then read without
  /// the lease (counted as "summary.snapshot_fallbacks").
  std::vector<Counter> CountersDescending(EpochParticipant* participant) const;

  /// True when no delegated work remains anywhere: every bucket (sentinel
  /// included) unheld, queues empty, no parked overwrites. With no
  /// concurrent producers the answer is stable; the engine's Stop() polls
  /// this after in-flight offers reach zero.
  bool Quiescent(EpochParticipant* participant) const;

  /// Number of admitted counters (monotone up to capacity).
  size_t num_monitored() const {
    return monitored_.load(std::memory_order_acquire);
  }

  /// Frequency of the current minimum bucket; any unmonitored element's
  /// true count is bounded by this once the structure is full.
  uint64_t MinFreq(EpochParticipant* participant) const;

  size_t capacity() const { return capacity_; }
  const Stats& stats() const { return stats_; }

  /// Rough number of logged-but-unprocessed requests at the structure's hot
  /// spots (sentinel + the first live bucket). The adaptive scheduler's
  /// sigma/rho thresholds (Section 5.2.3) compare against this. The walk to
  /// the first live bucket races with bucket reclamation, so the sampling
  /// thread must supply an epoch participant; the queue reads themselves
  /// are non-blocking relaxed ring-index loads and never contend with
  /// producers.
  size_t ApproxQueueDepth(EpochParticipant* participant) const;

  /// Exhaustive structural check on a quiescent structure (single-threaded
  /// test helper): ascending unique frequencies, consistent sizes and
  /// back-pointers, freq fields matching buckets, no held/closed-but-live
  /// buckets, and sum(freq) == expected_total when expected_total != ~0.
  bool CheckInvariantsQuiescent(uint64_t expected_total = ~uint64_t{0},
                                std::string* why = nullptr) const;

 private:
  // Routes a request to the right bucket's queue and records the bucket in
  // the work list (or splices it straight into the in-flight batch when the
  // target is the bucket this thread already holds). Never fails: re-routes
  // around closed queues. Overwrites go to the first live bucket — the
  // minimum; a bucket that closed (gc) stops being a target, which is what
  // keeps orphan forwarding in TryProcessBucket acyclic.
  void Dispatch(const Request& request, WorkContext* ctx);

  // Drains ctx->work, try-acquiring and processing each bucket.
  void ProcessWork(WorkContext* ctx);

  // Combining-lock body: acquire if free, drain-process until quiet, GC if
  // empty, release; re-acquire when requests raced in during release.
  void TryProcessBucket(FreqBucket* bucket, WorkContext* ctx);

  // Processes one drained batch element. Returns false only for an
  // overwrite that had to be deferred (no available victim).
  bool ProcessRequest(FreqBucket* bucket, const Request& request,
                      WorkContext* ctx);

  // Places `node` (freq final, detached) at `bucket` or delegates it
  // downstream (Algorithm 3 + FindDestBucket of Algorithm 4). Returns true
  // when the node was attached here (caller must Complete it); false when
  // the placement was delegated to another bucket.
  bool PlaceNode(FreqBucket* bucket, SummaryNode* node, uint64_t token,
                 WorkContext* ctx);

  // Finishes an element operation: relinquishes `token` units of hash-table
  // ownership; a non-zero pending count re-enters as one bulk increment,
  // and a fully released element wakes its bucket if work is stranded
  // there.
  void Complete(SummaryNode* node, uint64_t token, WorkContext* ctx);

  // Requires holding `bucket`: unlinks and retires GC-marked successors.
  void UnlinkDeadSuccessors(FreqBucket* bucket, WorkContext* ctx);

  // Try-acquires the sentinel to unlink a dead head prefix (see .cc).
  void TryCleanHead(WorkContext* ctx);

  // First non-GC bucket after the sentinel (the minimum frequency bucket).
  FreqBucket* FirstLiveBucket() const;

  // Element-list edits; require holding `bucket`.
  void AttachNode(FreqBucket* bucket, SummaryNode* node);
  void DetachNode(FreqBucket* bucket, SummaryNode* node);

  bool TryAdmit();

  size_t capacity_;
  bool always_admit_ = false;
  size_t ring_capacity_ = RequestQueue::kDefaultRingCapacity;
  std::atomic<size_t> monitored_{0};
  FreqBucket* sentinel_;
  DelegationHashTable* table_;
  EpochManager* epochs_;
  mutable Stats stats_;
};

}  // namespace cots

#endif  // COTS_COTS_CONCURRENT_STREAM_SUMMARY_H_
