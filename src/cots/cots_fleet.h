// Copyright (c) the CoTS reproduction authors.
//
// CotsFleet: shard-per-core scale-out with single-writer flat shards
// (DESIGN.md §9).
//
// The fleet hash-partitions the element space over N shards, so every key
// has exactly one home shard. Each shard is a sequential
// FlatStreamSummary guarded by an owner flag: only the thread holding the
// flag writes it, so the ingest path carries no delegation hash, no
// request rings and no epoch reclamation:
//
//   worker thread --> ShardOf(e) --> per-shard runs (router buffers)
//                                        |
//                 flag free? ---yes---> drain inbox, apply run, release
//                     |                 flag, re-check inbox
//                     no (skip; retry after the other shards)
//                     v
//                 push run into the shard's inbox, move on
//
// This is the paper's cooperative delegation applied at shard granularity:
// a producer that finds a shard held does not wait for it — it hands its
// run to the holder (through the inbox) and carries on with its next
// shard. The inbox push and the holder's post-release inbox check pair
// seq_cst (a Dekker pairing), so a handed-off run is always applied by
// somebody: either the holder sees it after releasing, or the pusher sees
// the flag free and drains the inbox itself. Once more than a batch is
// waiting in an inbox the shard is behind, so a producer helps drain it
// instead of pushing more — waiting for the flag at most 200 µs, after
// which the holder counts as stalled and the run is handed off anyway.
//
// Global queries fold per-shard snapshots with disjoint-merge semantics
// (MergeMode::kDisjoint, core/summary_merge.h): each key keeps its home
// shard's estimate and error verbatim, and the bound on a fully
// unmonitored key is the max of the per-shard bounds, not the sum.
//
// Lifecycle mirrors the engine (DESIGN.md §8) one level up: offers resolve
// all-or-nothing against Stop() — a batch is counted in full (across every
// shard it touches) or refused in full. Stop() wins the fleet-level Dekker
// handshake, waits out in-flight offers, then drains every inbox under its
// flag. The fleet starts no threads of its own. Failpoints
// "fleet.dispatch_shard", "fleet.shard_hold", "fleet.handoff_retry",
// "fleet.drain_wait" and "fleet.stop_drain" perturb those interleavings.

#ifndef COTS_COTS_COTS_FLEET_H_
#define COTS_COTS_COTS_FLEET_H_

#include <atomic>
#include <memory>
#include <optional>
#include <vector>

#include "core/counter.h"
#include "core/flat_stream_summary.h"
#include "core/summary_merge.h"
#include "cots/admission.h"
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
  /// The dispatch batch the server and benches feed. An offer that finds
  /// a shard's inbox deeper than this helps drain it and reports
  /// OfferOutcome::kOverloaded.
  static constexpr size_t kBatchDepth = 512;

  /// Concurrently registered handles. Each holds a slot in the fleet's
  /// view-reclamation epoch domain, whose one further slot is the fleet's
  /// own query participant.
  static constexpr int kMaxHandles = 255;

  /// One partition: a sequential FlatStreamSummary written only by the
  /// thread holding its owner flag, plus the inbox where producers that
  /// found the flag taken leave their runs. Reads that need the summary
  /// itself take the flag (waiting out the current holder's run); the
  /// stream length and counter count are mirrored into atomics after every
  /// run, so those two read lock-free.
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
    /// Elements handed off to the inbox and not yet applied — the backlog
    /// signal the admission controller samples.
    size_t queue_depth() const {
      return static_cast<size_t>(
          inbox_depth_.load(std::memory_order_relaxed));
    }

    /// The counter monitoring e (under the flag).
    std::optional<Counter> Lookup(ElementId e) const;
    /// Every monitored counter, most frequent first (under the flag).
    std::vector<Counter> CountersDescending() const;
    /// Bound on any unmonitored key homed here: the minimum monitored
    /// count once the summary is full (0 before), plus the shed weight.
    uint64_t MinFreq() const;
    /// Summary invariants, the atomic mirrors, and an empty inbox. Test
    /// helper for a stopped fleet.
    bool CheckInvariants() const;

   private:
    friend class CotsFleet;
    struct Run;

    // Takes the flag if it is free right now. The seq_cst load is the
    // hand-off side of the Dekker pairing (see cots_fleet.cc).
    bool TryAcquire() const {
      return !owner_.load(std::memory_order_seq_cst) &&
             !owner_.exchange(true, std::memory_order_acquire);
    }
    // Waits for the flag, then drains the inbox so the caller sees every
    // run handed off before the call. With a nonzero deadline (NowNanos()
    // clock) gives up and returns false once it passes.
    bool Acquire(uint64_t deadline_ns = 0) const;
    // Drains the inbox, publishes the mirrors, releases the flag, and
    // re-checks the inbox (re-acquiring to drain it if the flag is free
    // and nobody is waiting for it).
    void Release() const;
    // Applies every run waiting in the inbox, oldest first. Flag held.
    void DrainInbox() const;
    void Apply(const ElementId* elements, size_t count,
               uint64_t weight) const;
    // Hands a run to the holder; returns the elements already queued.
    uint64_t Push(Run* run);

    // Owner-side state: written only under the flag (the reads that take
    // the flag are const, so the summary they may drain into is mutable).
    COTS_CACHE_ALIGNED mutable std::atomic<bool> owner_{false};
    // Threads spinning in Acquire: readers, publishers, Stop, and
    // producers helping a backlogged shard.
    mutable std::atomic<uint32_t> waiters_{0};
    mutable std::atomic<uint64_t> n_{0};
    mutable std::atomic<size_t> size_{0};
    mutable FlatStreamSummary summary_;
    // Producer-side hand-off state.
    COTS_CACHE_ALIGNED mutable std::atomic<Run*> inbox_{nullptr};
    mutable std::atomic<uint64_t> inbox_depth_{0};
    COTS_CACHE_ALIGNED std::atomic<uint64_t> shed_weight_{0};
  };

  /// Per-thread session holding the routing scratch and a slot in the
  /// fleet's view-epoch domain. Single-threaded by contract; cache-line
  /// aligned so a reader's handle never shares a line with a producer's.
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

    /// Routes the batch into per-shard runs and applies each run to its
    /// shard, or hands it to the shard's holder when the flag is taken
    /// (DESIGN.md §9.2).
    /// All-or-nothing against Stop(): the fleet-level handshake is taken
    /// once for the whole batch, so either every element is counted on its
    /// shard or the batch is refused in full. A handed-off run is applied
    /// by the holder before Stop() returns; until then it is counted but
    /// not yet visible to queries.
    bool OfferBatch(const ElementId* elements, size_t count) {
      return OfferBatchBounded(elements, count) != OfferOutcome::kRefused;
    }

    /// OfferBatch with the overload signal surfaced: kOverloaded means the
    /// batch WAS fully counted but found a shard's inbox more than
    /// kBatchDepth elements deep — the shard is falling behind and the
    /// caller should back off or shed (DESIGN.md §13).
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

    CotsFleet* fleet_;
    // Slot in the fleet's view-epoch domain (view acquisition + retire).
    EpochParticipant* view_participant_;
    // Reused per call; per-shard so one pass over the input both
    // partitions and preserves per-shard arrival order.
    std::vector<std::vector<ElementId>> route_;
    // Shards found held on the first dispatch pass (reused per call).
    std::vector<size_t> held_;
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
  /// shard's inbox under its flag. Idempotent and thread-safe; concurrent
  /// callers block until the structure is frozen. After Stop() the merged
  /// views are stable and exact with respect to everything counted.
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
  /// Sum of the shards' applied occurrences (lock-free; handed-off runs
  /// count once their holder applies them).
  uint64_t stream_length() const override;
  size_t num_counters() const override;

  /// Folds the shards into a global view and publishes it now, without
  /// pacing. On return the view covers every offer that returned before
  /// this call: runs still waiting in an inbox are applied by the fold.
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

  // Applies the run to shard s if its flag is free right now.
  bool TryApply(size_t s, const ElementId* elements, size_t count,
                uint64_t weight);
  // Applies the run to a shard whose flag the caller holds, then releases.
  void ApplyHeld(Shard& shard, const ElementId* elements, size_t count,
                 uint64_t weight);
  // Pushes the run into the shard's inbox for its holder; returns true
  // when more than kBatchDepth elements were already waiting.
  bool HandOff(Shard& shard, const ElementId* elements, size_t count,
               uint64_t weight);
  // Applies the run to shard s, or hands it to the holder (see
  // cots_fleet.cc); returns true when the shard's inbox was more than
  // kBatchDepth elements deep (the batch is then kOverloaded).
  bool Dispatch(size_t s, const ElementId* elements, size_t count,
                uint64_t weight);
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

  // Producer side: the Stop() handshake and the refresh trigger.
  COTS_CACHE_ALIGNED std::atomic<EngineState> state_{EngineState::kRunning};
  /// Fleet offers between the handshake and their last shard dispatch;
  /// Stop() waits for zero before draining any inbox.
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
