// Copyright (c) the CoTS reproduction authors.
//
// CotsFleet: shard-per-core scale-out with single-writer flat shards
// (DESIGN.md §9).
//
// The fleet hash-partitions the element space over N shards, so every key
// has exactly one home shard. Each shard is a sequential
// FlatStreamSummary guarded by an owner flag: only the thread holding the
// flag writes it, so the ingest path carries no delegation hash and no
// epoch reclamation.
//
// Owner computes. A handle takes a producer slot on its first offer, and
// shard s belongs to slot s mod P (P = one past the highest slot taken).
// For the length of an offer the owner holds its shards' flags, so the
// keys it routes home are applied by the core whose cache holds those
// summaries. An offer runs in four phases, with no per-key decision
// beyond the key's home shard:
//
//   batch --> coalesce? --> 1. partition: every key into its shard's run
//                           2. hand off: each foreign run into this slot's
//                              ring into that shard, in bulk, then publish
//                           3. apply: each own run under its held flag
//                           4. release: drain every held shard, release
//                              them all together, then look at the flags
//                              of the shards handed entries that still
//                              wait
//
// A ring is a bounded single-producer array of 8-byte words per (slot,
// shard); a run travels as segments of one header word (count, weighted
// bit) followed by keys alone or (key, weight) pairs. Whoever holds a
// shard's flag drains all of its rings. This is the paper's cooperative
// delegation at shard granularity: work meets an owner instead of a lock.
// Two seq_cst Dekker pairings keep every entry owned: a producer publishes
// its ring, then (at the end of the offer) looks at the flag, taking it and
// draining when free; a holder releases the flag, then looks at the rings,
// re-taking it when they are not empty. A producer whose ring is full
// takes the shard's flag with 200 µs of patience and reports kOverloaded;
// past that patience the holder counts as stalled and the rest of the run
// goes to a heap overflow list instead.
//
// Global queries fold per-shard snapshots with disjoint-merge semantics
// (MergeMode::kDisjoint, core/summary_merge.h): each key keeps its home
// shard's estimate and error verbatim, and the bound on a fully
// unmonitored key is the max of the per-shard bounds, not the sum.
//
// Lifecycle mirrors the engine (DESIGN.md §8) one level up: offers resolve
// all-or-nothing against Stop() — a batch is counted in full (across every
// shard it touches) or refused in full. Stop() wins the fleet-level Dekker
// handshake, waits out in-flight offers, then drains every shard under its
// flag. The fleet starts no threads of its own. Failpoints
// "fleet.dispatch_shard", "fleet.shard_hold", "fleet.handoff_retry",
// "fleet.drain_wait" and "fleet.stop_drain" perturb those interleavings.

#ifndef COTS_COTS_COTS_FLEET_H_
#define COTS_COTS_COTS_FLEET_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/counter.h"
#include "core/flat_stream_summary.h"
#include "core/summary_merge.h"
#include "cots/admission.h"
#include "cots/batch_coalescer.h"
#include "util/ebr.h"
#include "util/macros.h"
#include "util/status.h"

namespace cots {

/// Settings every fleet shard gets verbatim.
struct FleetShardOptions {
  /// Monitored counters per shard (m); must be > 0. The fleet's total
  /// counter budget is num_shards * capacity, and the per-shard error bound
  /// n_s / capacity only tightens versus a single summary fed the whole
  /// stream.
  size_t capacity = 0;
};

struct CotsFleetOptions {
  /// Shards; 0 = one per hardware thread.
  size_t num_shards = 0;
  /// Per-shard configuration. The name predates flat shards; it stays
  /// because the repository benchmark (perfbench/) sets `engine.capacity`.
  FleetShardOptions engine;
  /// Counters retained by merged global views; 0 = engine.capacity. Only
  /// tests set it above the default: at num_shards * engine.capacity a
  /// view keeps every shard counter, so its counter mass equals its stream
  /// length and the concurrent view oracles can check that exactly.
  size_t merge_capacity = 0;
  /// Fleet-level occurrences between automatic published-view refreshes
  /// (DESIGN.md §11). Once this many offers have arrived, and at least 8x
  /// the previous automatic publish's duration has passed since it ended,
  /// the offering thread folds the shards into one immutable global view
  /// and publishes it. 0 (default) = manual RefreshQueryView() only.
  uint64_t view_refresh_interval = 0;

  Status Validate();
};

/// N hash-partitioned single-writer FlatStreamSummary shards behind one
/// ingest/query facade. Register a ThreadHandle per worker and destroy all
/// handles before the fleet.
class CotsFleet : public FrequencySummary {
 public:
  /// The dispatch batch the server and benches feed; also the depth at
  /// which the admission controller starts counting a shard as behind.
  static constexpr size_t kBatchDepth = 512;

  /// Concurrently registered handles. Each holds a slot in the fleet's
  /// view-reclamation epoch domain, whose one further slot is the fleet's
  /// own query participant; a handle that offers also takes one of as
  /// many producer slots.
  static constexpr int kMaxHandles = 255;

  /// Words in one (producer slot, shard) ring: 8 KB. A run is written as
  /// segments of one header word (entry count and a weighted bit), then
  /// the keys alone or (key, weight) pairs (DESIGN.md §9.2), so a ring
  /// holds up to 1,023 unit keys.
  static constexpr size_t kRingWords = 1024;

  /// One partition: a sequential FlatStreamSummary written only by the
  /// thread holding its owner flag, the rings through which producers hand
  /// it keys, and the overflow list for runs a stalled holder left no room
  /// for. Reads that need the summary itself take the flag (waiting out
  /// the current holder, then draining); the stream length and counter
  /// count are mirrored into atomics at every release, so those two read
  /// lock-free.
  class Shard {
   public:
    explicit Shard(size_t capacity);
    ~Shard();
    COTS_DISALLOW_COPY_AND_ASSIGN(Shard);

    /// Occurrences applied to this shard's summary (lock-free).
    uint64_t stream_length() const {
      return n_.load(std::memory_order_relaxed);
    }
    /// Counters currently monitored (lock-free).
    size_t num_counters() const {
      return size_.load(std::memory_order_relaxed);
    }
    /// Occurrences shed to this shard (DESIGN.md §13).
    uint64_t shed_weight() const {
      return shed_weight_.load(std::memory_order_relaxed);
    }
    /// Words handed to this shard (rings plus overflow) and not yet
    /// applied — the backlog signal the admission controller samples. A
    /// word is a key, a weight or a segment header, so this never counts
    /// fewer than the keys waiting (DESIGN.md §13.2).
    size_t queue_depth() const;

    /// The counter monitoring e (under the flag).
    std::optional<Counter> Lookup(ElementId e) const;
    /// Every monitored counter, most frequent first (under the flag).
    std::vector<Counter> CountersDescending() const;
    /// Bound on any unmonitored key homed here: the minimum monitored
    /// count once the summary is full (0 before), plus the shed weight.
    uint64_t MinFreq() const;
    /// Summary invariants, the atomic mirrors, and nothing left to drain.
    /// Test helper for a stopped fleet.
    bool CheckInvariants() const;

   private:
    friend class CotsFleet;
    struct Ring;
    struct Run;

    // Takes the flag if it is free right now. The seq_cst load is the
    // hand-off side of the Dekker pairing (see cots_fleet.cc).
    bool TryAcquire() const {
      return !owner_.load(std::memory_order_seq_cst) &&
             !owner_.exchange(true, std::memory_order_seq_cst);
    }
    // Waits for the flag, then drains, so the caller sees every entry
    // handed off before the call. With a nonzero deadline (NowNanos()
    // clock) gives up and returns false once it passes.
    bool Acquire(uint64_t deadline_ns = 0) const;
    // Drains, publishes the mirrors, releases the flag, and re-checks the
    // rings (re-acquiring to drain them if the flag is free and nobody is
    // waiting for it).
    void Release() const;
    // Applies every entry waiting in the rings and the overflow. Flag held.
    void Drain() const;
    // Whether any ring or the overflow holds an entry (seq_cst reads).
    bool Pending() const;
    // Applies the segments in words[head, end), indexes taken modulo
    // mask + 1; calls hand_back(head) every 64 entries. Flag held.
    template <typename HandBack>
    void ApplySegments(const uint64_t* words, uint64_t mask, uint64_t head,
                       uint64_t end, HandBack hand_back) const;
    // The ring of producer slot `slot` into this shard, allocated on first
    // use. Called only by the slot's holder.
    Ring* RingOf(int slot);

    // Owner-side state: written only under the flag (the reads that take
    // the flag are const, so the summary they may drain into is mutable).
    COTS_CACHE_ALIGNED mutable std::atomic<bool> owner_{false};
    // Threads spinning for the flag: readers, publishers, Stop, and
    // producers whose ring is full. An owner leaves a shard someone waits
    // for out of its next offer, and a releasing holder leaves the rings to
    // the waiter.
    mutable std::atomic<uint32_t> waiters_{0};
    mutable std::atomic<uint64_t> n_{0};
    mutable std::atomic<size_t> size_{0};
    mutable FlatStreamSummary summary_;
    // Hand-off state: one ring slot per producer slot (kMaxHandles), and
    // one past the highest slot whose ring exists.
    COTS_CACHE_ALIGNED std::unique_ptr<std::atomic<Ring*>[]> rings_;
    std::atomic<int> ring_span_{0};
    mutable std::atomic<Run*> overflow_{nullptr};
    mutable std::atomic<uint64_t> overflow_depth_{0};
    COTS_CACHE_ALIGNED std::atomic<uint64_t> shed_weight_{0};
  };

  /// Per-thread session holding a slot in the fleet's view-epoch domain
  /// and, from its first offer on, a producer slot with its routing state.
  /// Single-threaded by contract; cache-line aligned so a reader's handle
  /// never shares a line with a producer's.
  ///
  /// Like the engine's handle, this is a FrequencySummary: reads route to
  /// the home shard (Lookup) or fold the fleet (set queries), and
  /// AcquireQueryView pins this thread's slot and returns the published
  /// global view — the lock-free path query threads should use.
  class COTS_CACHE_ALIGNED ThreadHandle : public FrequencySummary {
   public:
    ~ThreadHandle() override;
    COTS_DISALLOW_COPY_AND_ASSIGN(ThreadHandle);

    /// Counts `weight` occurrences of e on its home shard. Returns false —
    /// nothing counted — once fleet Stop() has begun (see OfferBatch).
    bool Offer(ElementId e, uint64_t weight = 1);

    /// Coalesces the batch when it pays, partitions it into per-shard
    /// runs, hands the foreign runs to their rings, applies the own runs,
    /// and releases the held shards together (DESIGN.md §9.1-9.2).
    /// All-or-nothing against Stop(): the fleet-level handshake is taken
    /// once for the whole batch, so either every element is counted on its
    /// shard or the batch is refused in full. A handed-off entry is applied
    /// by the shard's holder before Stop() returns; until then it is
    /// counted but not yet visible to queries.
    bool OfferBatch(const ElementId* elements, size_t count) {
      return OfferBatchBounded(elements, count) != OfferOutcome::kRefused;
    }

    /// OfferBatch with the overload signal surfaced: kOverloaded means the
    /// batch WAS fully counted but found a ring into some shard full — the
    /// shard is falling behind and the caller should back off or shed
    /// (DESIGN.md §13).
    OfferOutcome OfferBatchBounded(const ElementId* elements, size_t count);

    // FrequencySummary:
    /// Point lookup on the element's home shard (takes its flag).
    std::optional<Counter> Lookup(ElementId e) const override;
    /// Merged global snapshot (the published view serves set queries
    /// without this cost).
    std::vector<Counter> CountersDescending() const override;
    uint64_t stream_length() const override;
    size_t num_counters() const override;
    /// Pins this thread's view-epoch slot and returns the fleet's
    /// published global view (nullptr before the first refresh). Wait-free.
    const PublishedView* AcquireQueryView() const override;
    void ReleaseQueryView() const override;

   private:
    friend class CotsFleet;
    ThreadHandle(CotsFleet* fleet, EpochParticipant* participant);

    // Where one shard's keys go for the current offer.
    enum class Lane : uint8_t {
      kRing,      // this slot's ring into the shard
      kHeld,      // flag held: the run is applied here
      kOverflow,  // ring full, holder stalled: the overflow list
    };
    // This slot's ring into one shard, cached with its cursors (in words).
    struct RingCursor {
      Shard::Ring* ring = nullptr;
      uint64_t tail = 0;       // next word to write
      uint64_t published = 0;  // tail as last published
      uint64_t checked = 0;    // published as of the last look at the flag
      uint64_t limit = 0;      // tail may not pass this (cached head + size)
    };

    // Takes a producer slot and sets up the routing state (first offer).
    void TakeSlot();
    // Whether shard s belongs to this slot.
    bool Owns(size_t s) const;
    // Holds shard s for the offer if its flag is free and nobody waits for
    // it; a shard found taken is routed like any other.
    void Claim(size_t s);
    // Partitions, hands off and applies entries[0, count), a chunk of at
    // most kBatchDepth at a time. Entry is ElementId (unit weights) or
    // WeightedKey.
    template <typename Entry>
    void Dispatch(const Entry* entries, size_t count);
    // Copies shard s's run of `chunk` into this slot's ring and publishes
    // it; past a full ring, applies or overflows the rest.
    template <typename Entry>
    void HandOff(size_t s, const Entry* chunk);
    // Moves runs_[s][begin, end) of `chunk` to shard s's overflow list.
    template <typename Entry>
    void Overflow(size_t s, const Entry* chunk, size_t begin, size_t end);
    // The producer's side of the Dekker pairing, after a ring publish or an
    // overflow push: drains shard s here if its flag is free.
    void CheckFlag(size_t s, uint64_t words);
    // Refreshes the ring's room; when fewer than `words` are free, waits
    // for room or the flag (with patience). Returns the lane for the rest
    // of the run: kRing (room came), kHeld (the flag came; drained) or
    // kOverflow (the holder stalled).
    Lane MakeRoom(size_t s, uint64_t words);
    // Drains every held shard, then releases them all and resets the
    // lanes; then looks at the flags of the shards this offer's rings
    // still hold entries for. Returns whether the offer found a ring full.
    bool Finish();
    // Drains the shards this handle holds (at release, and while it waits
    // on another shard's full ring).
    void DrainHeld();

    CotsFleet* fleet_;
    // Slot in the fleet's view-epoch domain (view acquisition + retire).
    EpochParticipant* view_participant_;
    // Producer slot, or -1 before the first offer.
    int slot_ = -1;
    // Per shard: the lane for the current offer, this slot's ring cursor,
    // and the current chunk's run (entry indexes into the chunk, at
    // runs_[s * kBatchDepth]) with its length.
    std::vector<Lane> lanes_;
    std::vector<RingCursor> rings_;
    std::vector<uint16_t> runs_;
    std::vector<uint32_t> run_len_;
    BatchCoalescer coalescer_;
    bool overloaded_ = false;
  };

  /// Validates options (asserts in debug, clamps to a functional
  /// configuration in release).
  explicit CotsFleet(const CotsFleetOptions& options);
  ~CotsFleet() override;

  COTS_DISALLOW_COPY_AND_ASSIGN(CotsFleet);

  /// Registers the calling thread. Returns nullptr when kMaxHandles handles
  /// are already registered.
  std::unique_ptr<ThreadHandle> RegisterThread();

  /// Quiesces the fleet: wins the fleet-level handshake (subsequent offers
  /// are refused whole), waits out in-flight offers, then drains every
  /// shard under its flag. Idempotent and thread-safe; concurrent callers
  /// block until the structure is frozen. After Stop() the merged views
  /// are stable and exact with respect to everything counted.
  void Stop();

  EngineState state() const { return state_.load(std::memory_order_acquire); }

  size_t num_shards() const { return shards_.size(); }
  /// Home shard of e (Lemire reduction over the mixed key).
  size_t ShardOf(ElementId e) const;
  /// Direct shard access (tests, diagnostics, per-shard gauges).
  Shard& shard(size_t i) { return *shards_[i]; }
  const Shard& shard(size_t i) const { return *shards_[i]; }

  /// Disjoint merge of every shard's snapshot, truncated to merge_capacity
  /// counters. Each shard is copied under its flag, so the result is exact
  /// for every shard at its copy instant; call after Stop() for exact
  /// totals.
  CounterSet GlobalView() const;

  /// Bound on any unmonitored element's global frequency: the max of the
  /// per-shard bounds (each element lives on exactly one shard). Shard
  /// bounds include their shed weight, so this is sound over the full
  /// offered stream (DESIGN.md §13).
  uint64_t MinFreq() const;

  /// Absorbs a batch that admission control chose to shed: each element's
  /// weight is accounted against its HOME shard's shed_weight (the same
  /// routing an offer would take), so per-shard bounds widen exactly where
  /// the lost occurrences would have landed and the disjoint merge
  /// composition stays sound. Nothing touches the summaries; conservation
  /// is offered = stream_length() + shed_weight(). Returns false — nothing
  /// absorbed — once Stop() has begun, mirroring OfferBatch's
  /// all-or-nothing handshake so accounting can never race the freeze.
  bool Shed(const ElementId* elements, size_t count);

  /// Total shed weight across all shards.
  uint64_t shed_weight() const;

  /// Batches that returned OfferOutcome::kOverloaded.
  uint64_t deadline_misses() const {
    return deadline_misses_.load(std::memory_order_relaxed);
  }

  // FrequencySummary over the merged global view. Lookup routes to the
  // home shard; CountersDescending folds all shards (prefer GlobalView()
  // when the bound matters too).
  std::optional<Counter> Lookup(ElementId e) const override;
  std::vector<Counter> CountersDescending() const override;
  /// Sum of the shards' applied occurrences (lock-free; handed-off entries
  /// count once a holder applies them).
  uint64_t stream_length() const override;
  size_t num_counters() const override;

  /// Folds the shards into a global view and publishes it now, without
  /// pacing. On return the view covers every offer that returned before
  /// this call: entries still waiting in a ring are applied by the fold.
  void RefreshQueryView();

  /// The published global view's refresh number (0 = never published).
  uint64_t query_view_sequence() const {
    return view_sequence_.load(std::memory_order_acquire);
  }

 private:
  // A disjoint fold of every shard (see FoldShards).
  struct Fold {
    std::vector<Counter> counters;  // unordered
    uint64_t stream_length = 0;
    uint64_t min_freq = 0;
    uint64_t shed_weight = 0;
  };

  int TakeProducerSlot();
  void ReturnProducerSlot(int slot);
  // Copies every shard under its flag and folds the copies exactly as
  // MergeSerial(..., MergeMode::kDisjoint) would. With a nonzero deadline
  // gives up (returns false) when a shard's flag stays taken past it.
  bool FoldShards(uint64_t deadline_ns, Fold* out) const;
  // Builds and publishes a view; false when the fold gave up.
  bool PublishView(EpochParticipant* participant, uint64_t deadline_ns);
  void MaybeAutoRefresh(EpochParticipant* participant, uint64_t weight);

  // Members are grouped by who writes them, one cache line per group: at
  // full ingest rate producers update their counters a few hundred
  // thousand times a second, and a reader whose view pointer shared a
  // line with them would miss on every query.

  // Read-mostly after construction.
  CotsFleetOptions options_;  // validated
  std::vector<std::unique_ptr<Shard>> shards_;
  uint64_t view_refresh_interval_ = 0;

  // Producer slots: taken on a handle's first offer, returned when it is
  // destroyed. producer_span_ (one past the highest slot taken) is the P
  // in "shard s belongs to slot s mod P".
  COTS_CACHE_ALIGNED std::mutex slots_mu_;
  std::vector<bool> slot_taken_;  // guarded by slots_mu_
  std::atomic<int> producer_span_{0};

  // Producer side: the Stop() handshake and the refresh trigger.
  COTS_CACHE_ALIGNED std::atomic<EngineState> state_{EngineState::kRunning};
  /// Fleet offers between the handshake and their last shard dispatch;
  /// Stop() waits for zero before draining any shard.
  std::atomic<uint64_t> inflight_offers_{0};
  std::atomic<uint64_t> offers_since_refresh_{0};
  // Earliest NowNanos() at which an automatic refresh may start (pacing).
  std::atomic<uint64_t> next_auto_refresh_ns_{0};
  std::atomic<bool> view_refresh_claim_{false};
  std::atomic<uint64_t> deadline_misses_{0};

  // Reader side: the published global view (DESIGN.md §11), written once
  // per publish. Readers pin a view_epochs_ slot around the pointer load,
  // publishers retire the superseded view into it; refreshers are
  // serialized by view_refresh_claim_.
  COTS_CACHE_ALIGNED std::atomic<const PublishedView*> published_view_{
      nullptr};
  std::atomic<uint64_t> view_sequence_{0};
  mutable EpochManager view_epochs_;
  // RefreshQueryView's retire slot; the refresh claim serializes its users.
  EpochParticipant* view_query_participant_ = nullptr;
};

}  // namespace cots

#endif  // COTS_COTS_COTS_FLEET_H_
