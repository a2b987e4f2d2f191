// Copyright (c) the CoTS reproduction authors.
//
// The CoTS engine: Space Saving adapted into the Cooperative Thread
// Scheduling framework (paper Section 5.2, Figure 8). Composes the
// Delegation hash table (Search Structure) with the Concurrent Stream
// Summary, wiring the boundary between them exactly as the paper draws it:
//
//   worker thread --> Delegate(e) --------------------- Search Structure
//                        | owner?                       (element-level
//                        v                               delegation)
//                     CrossBoundary(entry, delta) ------ Concurrent Stream
//                                                        Summary (bucket-
//                                                        level delegation)
//
// Invariant 5.1 holds by construction: Delegate hands ownership of an
// element to exactly one thread at a time, and only owners cross.
//
// Usage: each worker registers a ThreadHandle (epoch slot) and calls
// handle->Offer(e) per stream element. Queries go through the
// FrequencySummary interface or a registered handle.

#ifndef COTS_COTS_COTS_SPACE_SAVING_H_
#define COTS_COTS_COTS_SPACE_SAVING_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/counter.h"
#include "cots/admission.h"
#include "cots/batch_coalescer.h"
#include "cots/concurrent_stream_summary.h"
#include "cots/delegation_hash_table.h"
#include "util/ebr.h"
#include "util/macros.h"
#include "util/status.h"

namespace cots {

/// Knobs for the batched ingest pipeline (ThreadHandle::OfferBatch). The
/// defaults are what every engine user gets; the bench family
/// micro_components sweeps them (batch size x prefetch distance x
/// coalescing on/off) to justify the numbers.
struct BatchIngestOptions {
  /// The batch depth callers are expected to feed OfferBatch in steady
  /// state (the engine bench loops use exactly this; the fleet has its
  /// own CotsFleet::kBatchDepth). Engines size their per-bucket request
  /// rings from it: one coalesced batch can funnel one request per
  /// distinct key into a single destination bucket while the producer
  /// holds another bucket, so an undersized ring diverts the burst tail to
  /// the lock-free overflow spill list (see
  /// CotsSpaceSavingOptions::request_ring_capacity).
  static constexpr size_t kDefaultBatchDepth = 512;

  /// How many elements ahead of the cursor to prefetch hash buckets for;
  /// 0 disables prefetching. ~8 covers an L2 miss at typical per-element
  /// processing cost.
  size_t prefetch_distance = 8;
  /// Coalesce duplicate keys inside the batch window into one weighted
  /// offer. On skewed streams this collapses most delegation traffic into
  /// single weighted fetch_add lumps; occurrences of a key apply at its
  /// first position in the window (order inside one window is not
  /// preserved, which matches the engine's concurrent semantics — a
  /// delegated lump already lands as one bulk increment).
  bool coalesce = true;
};

struct CotsSpaceSavingOptions {
  /// Monitored counters (m); derived from epsilon when 0.
  size_t capacity = 0;
  double epsilon = 0.0;
  /// Hash buckets; 0 = 4x capacity (chains stay short, never resizes).
  size_t hash_buckets = 0;
  /// Entries per cache-conscious hash block (Figure 9).
  size_t hash_block_entries = 2;
  /// Epoch-reclamation slots: upper bound on concurrently registered
  /// threads (workers + queriers).
  int max_threads = 256;
  /// Per-bucket MPSC request-ring capacity (rounded up to a power of two).
  /// 0 derives it from the ingest batch depth as
  /// BatchIngestOptions::kDefaultBatchDepth / 4 (= 128), which absorbs the
  /// typical coalesced-batch burst into one bucket (ingest.batch_distinct
  /// mean ~36) while the slot array stays L1-resident. Sizing the ring to
  /// the full batch depth eliminates the remaining tail of overflow
  /// fallbacks but costs several× in single-thread throughput at high
  /// skew: tickets advance monotonically, so the enqueue/drain working set
  /// is the whole array, and a multi-KB ring per hot bucket thrashes the
  /// cache the hot path lives in. The rare deep burst diverts to the
  /// lock-free overflow spill list, which is the designed elastic path,
  /// not an error.
  size_t request_ring_capacity = 0;

  Status Validate();
};

class CotsSpaceSaving : public FrequencySummary {
 public:
  /// Per-thread session. Obtain via RegisterThread(); destroy (or let go
  /// out of scope) when the thread stops feeding the engine.
  ///
  /// A handle is itself a FrequencySummary over the engine, with every
  /// read served through this thread's own epoch slot — lock-free, unlike
  /// the engine-level interface which shares a mutex-guarded slot. Query
  /// threads register a handle and point a QueryEngine at it; every query
  /// then reads the live structure (the paper's lock-free reads, §5.2.4).
  class ThreadHandle : public FrequencySummary {
   public:
    ~ThreadHandle() override;
    COTS_DISALLOW_COPY_AND_ASSIGN(ThreadHandle);

    /// Processes `weight` occurrences of e. Wait-free unless this thread
    /// ends up the element's owner, in which case it cooperatively drains
    /// delegated work.
    ///
    /// Returns true iff the occurrences were counted. Once Stop() has begun
    /// the offer is refused (returns false, nothing counted) — the refusal
    /// handshake guarantees no offer mutates the structure after Stop()
    /// returns, so workers may race Stop() freely and simply exit their
    /// ingest loop on the first false.
    bool Offer(ElementId e, uint64_t weight = 1);

    /// Processes `count` elements as one pipelined batch: a single stream-
    /// length add and epoch pin for the whole batch, duplicate keys
    /// coalesced into weighted offers, and hash buckets prefetched a fixed
    /// distance ahead of the cursor (see BatchIngestOptions). Keep batches
    /// modest (hundreds to a few thousand): the epoch is pinned for the
    /// whole batch, which delays memory reclamation. Returns false — with
    /// the whole batch refused, nothing counted — once Stop() has begun
    /// (see Offer).
    bool OfferBatch(const ElementId* elements, size_t count,
                    const BatchIngestOptions& options = BatchIngestOptions{});

    // FrequencySummary, all through this thread's epoch slot (lock-free).
    /// Point lookup against the live structure.
    std::optional<Counter> Lookup(ElementId e) const override;
    /// Seqlock-leased set snapshot of the live structure.
    std::vector<Counter> CountersDescending() const override;
    uint64_t stream_length() const override;
    size_t num_counters() const override;

    EpochParticipant* participant() { return participant_; }

   private:
    friend class CotsSpaceSaving;
    ThreadHandle(CotsSpaceSaving* engine, EpochParticipant* participant)
        : engine_(engine), participant_(participant) {}

    // Core of Offer; requires the caller to hold the epoch guard and to
    // have accounted the weight into the engine's stream length.
    void OfferGuarded(ElementId e, uint64_t weight);

    CotsSpaceSaving* engine_;
    EpochParticipant* participant_;

    // Reused across offers so the boundary crossing allocates nothing in
    // steady state (ThreadHandle is single-threaded by contract).
    ConcurrentStreamSummary::WorkContext scratch_;

    // In-batch coalescing scratch, kept across batches so steady-state
    // coalescing never allocates.
    BatchCoalescer coalescer_;
  };

  /// The constructor runs `options.Validate()` itself (on a copy), so
  /// epsilon-only configs work without an explicit Validate() call; call
  /// it anyway when you want the Status instead of an assert. A config
  /// that fails validation asserts in debug builds and is clamped to a
  /// 1-counter engine in release builds — a zero-capacity engine can
  /// never admit, which would leave eviction requests unserviceable and
  /// hang Stop() (and the destructor) forever.
  explicit CotsSpaceSaving(const CotsSpaceSavingOptions& options);
  ~CotsSpaceSaving() override;

  COTS_DISALLOW_COPY_AND_ASSIGN(CotsSpaceSaving);

  /// Registers the calling thread. Returns nullptr when max_threads
  /// sessions are already active.
  std::unique_ptr<ThreadHandle> RegisterThread();

  /// Quiesces the engine (Running -> Draining -> Stopped): waits for
  /// in-flight offers to land, then sweeps queued and parked requests until
  /// the summary is fully drained, then freezes. Idempotent and
  /// thread-safe — concurrent callers block until the first finishes.
  ///
  /// Offers racing Stop() resolve deterministically: an offer either wins
  /// the handshake (it is counted and its delegated work is drained before
  /// Stop returns) or is refused (Offer returns false, nothing counted).
  /// No count is ever lost or half-applied, and nothing mutates the
  /// structure after Stop() returns. Queries remain valid after Stop. The
  /// destructor calls Stop() first, so destruction never races delegated
  /// work.
  void Stop();

  EngineState state() const { return state_.load(std::memory_order_acquire); }

  // FrequencySummary. These use a shared, mutex-guarded epoch slot so any
  // thread may query without registering; workers should prefer the
  // lock-free ThreadHandle equivalents.
  std::optional<Counter> Lookup(ElementId e) const override;
  std::vector<Counter> CountersDescending() const override;
  uint64_t stream_length() const override {
    return n_.load(std::memory_order_relaxed);
  }
  size_t num_counters() const override { return summary_.num_monitored(); }

  size_t capacity() const { return summary_.capacity(); }
  /// Bound on any unmonitored element's frequency (0 while not full).
  uint64_t MinFreq() const;

  const ConcurrentStreamSummary::Stats& stats() const {
    return summary_.stats();
  }

  /// Hot-spot request backlog; the adaptive scheduler's control signal.
  /// Samples through the shared query epoch slot (the sampler races with
  /// bucket reclamation, so the walk needs a guard); the queue reads are
  /// relaxed ring-index loads that never contend with producers.
  size_t queue_depth() const {
    std::lock_guard<std::mutex> lock(query_mu_);
    return summary_.ApproxQueueDepth(query_participant_);
  }

  /// Quiescent-state structural audit (test helper): checks the summary
  /// invariants including sum(count) == stream_length.
  bool CheckInvariantsQuiescent(std::string* why = nullptr) const {
    return summary_.CheckInvariantsQuiescent(stream_length(), why);
  }

 private:
  // Tag-dispatched target of the public constructor: `options` has already
  // been validated (capacity derived and non-zero).
  struct ValidatedTag {};
  CotsSpaceSaving(const CotsSpaceSavingOptions& options, ValidatedTag);

  std::optional<Counter> LookupWith(EpochParticipant* participant,
                                    ElementId e) const;

  // Destruction order matters: participants/retired garbage drain into
  // epochs_, so it must outlive table_ and summary_ (declared first =
  // destroyed last).
  mutable EpochManager epochs_;
  DelegationHashTable table_;
  ConcurrentStreamSummary summary_;
  std::atomic<uint64_t> n_{0};

  std::atomic<EngineState> state_{EngineState::kRunning};
  /// Offers between stream-length accounting and delegated-work completion;
  /// Stop() waits for this to reach zero before trusting a quiescence scan
  /// (a Delegate that has not yet enqueued is invisible to the scan).
  std::atomic<uint64_t> inflight_offers_{0};

  // Shared query slot for the virtual FrequencySummary interface.
  mutable std::mutex query_mu_;
  mutable EpochParticipant* query_participant_ = nullptr;
};

}  // namespace cots

#endif  // COTS_COTS_COTS_SPACE_SAVING_H_
