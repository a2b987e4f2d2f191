#include "cots/concurrent_stream_summary.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <thread>

#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace cots {

Status ConcurrentStreamSummaryOptions::Validate() {
  if (capacity == 0) {
    if (epsilon <= 0.0 || epsilon >= 1.0) {
      return Status::InvalidArgument(
          "either capacity > 0 or epsilon in (0, 1) is required");
    }
    capacity = static_cast<size_t>(std::ceil(1.0 / epsilon));
  }
  return Status::OK();
}

ConcurrentStreamSummary::ConcurrentStreamSummary(
    const ConcurrentStreamSummaryOptions& options, DelegationHashTable* table,
    EpochManager* epochs)
    : capacity_(options.capacity),
      always_admit_(options.always_admit),
      ring_capacity_(options.request_ring_capacity != 0
                         ? options.request_ring_capacity
                         : RequestQueue::kDefaultRingCapacity),
      sentinel_(new FreqBucket(0, ring_capacity_)),
      table_(table),
      epochs_(epochs) {
  assert(capacity_ > 0 && "Validate() the options first");
}

ConcurrentStreamSummary::~ConcurrentStreamSummary() {
  FreqBucket* b = sentinel_;
  while (b != nullptr) {
    SummaryNode* n = b->head.load(std::memory_order_relaxed);
    while (n != nullptr) {
      SummaryNode* next = n->next.load(std::memory_order_relaxed);
      delete n;
      n = next;
    }
    FreqBucket* next = b->next.load(std::memory_order_relaxed);
    delete b;
    b = next;
  }
}

bool ConcurrentStreamSummary::TryAdmit() {
  if (always_admit_) {
    monitored_.fetch_add(1, std::memory_order_acq_rel);
    return true;
  }
  size_t current = monitored_.load(std::memory_order_relaxed);
  while (current < capacity_) {
    if (monitored_.compare_exchange_weak(current, current + 1,
                                         std::memory_order_acq_rel)) {
      return true;
    }
  }
  return false;
}

void ConcurrentStreamSummary::AttachNode(FreqBucket* bucket,
                                         SummaryNode* node) {
  assert(bucket != sentinel_);
  assert(node->freq == bucket->freq);
  SummaryNode* head = bucket->head.load(std::memory_order_relaxed);
  node->bucket = bucket;
  node->prev = nullptr;
  node->next.store(head, std::memory_order_relaxed);
  if (head != nullptr) head->prev = node;
  bucket->head.store(node, std::memory_order_release);
  RelaxedFieldAdd(bucket->size, 1);
}

void ConcurrentStreamSummary::DetachNode(FreqBucket* bucket,
                                         SummaryNode* node) {
  assert(node->bucket == bucket);
  SummaryNode* next = node->next.load(std::memory_order_relaxed);
  if (node->prev != nullptr) {
    node->prev->next.store(next, std::memory_order_release);
  } else {
    bucket->head.store(next, std::memory_order_release);
  }
  if (next != nullptr) next->prev = node->prev;
  node->prev = nullptr;
  node->next.store(nullptr, std::memory_order_relaxed);
  node->bucket = nullptr;
  RelaxedFieldAdd(bucket->size, -1);
}

FreqBucket* ConcurrentStreamSummary::FirstLiveBucket() const {
  for (FreqBucket* b = sentinel_->next.load(std::memory_order_acquire);
       b != nullptr; b = b->next.load(std::memory_order_acquire)) {
    if (!b->gc.load(std::memory_order_acquire)) return b;
  }
  return nullptr;
}

void ConcurrentStreamSummary::UnlinkDeadSuccessors(FreqBucket* bucket,
                                                   WorkContext* ctx) {
  for (;;) {
    FreqBucket* next = bucket->next.load(std::memory_order_acquire);
    if (next == nullptr || !next->gc.load(std::memory_order_acquire)) return;
    // Only the holder of `bucket` writes bucket->next, so this store cannot
    // race with an insertion after `bucket`.
    bucket->next.store(next->next.load(std::memory_order_acquire),
                       std::memory_order_release);
    stats_.buckets_garbage_collected.fetch_add(1, std::memory_order_relaxed);
    ctx->participant->Retire(next);
  }
}

void ConcurrentStreamSummary::TryCleanHead(WorkContext* ctx) {
  // Dead buckets at the head of the list can only be unlinked by the
  // sentinel's holder. Overwrite routing and teardown sweeps walk the head
  // constantly, so an uncleaned prefix turns every walk into O(dead) —
  // clean it inline whenever it is observed (try-only, never waits).
  FreqBucket* first = sentinel_->next.load(std::memory_order_acquire);
  if (first == nullptr || !first->gc.load(std::memory_order_acquire)) return;
  if (sentinel_->held.exchange(true, std::memory_order_acquire)) return;
  UnlinkDeadSuccessors(sentinel_, ctx);
  sentinel_->held.store(false, std::memory_order_release);
  // Requests may have been queued at the sentinel while we held it; the
  // post-release contract applies here as to any hold.
  if (!sentinel_->queue.empty()) ctx->work.push_back(sentinel_);
}

void ConcurrentStreamSummary::Dispatch(const Request& request,
                                       WorkContext* ctx) {
  COTS_FAILPOINT("summary.dispatch");
  switch (request.kind) {
    case Request::Kind::kAdd: {
      // New elements and re-routed placements enter through the sentinel,
      // whose queue never closes.
      if (sentinel_ == ctx->holding) {
        // We already hold the target: splice into the in-flight batch. The
        // request rings are bounded, so a holder must never enqueue into
        // the ring it alone is responsible for draining.
        ctx->batch.push_back(request);
        return;
      }
      const bool ok = sentinel_->queue.TryEnqueue(request);
      assert(ok);
      (void)ok;
      ctx->work.push_back(sentinel_);
      return;
    }
    case Request::Kind::kIncrement: {
      // The element rests in node->bucket and we are its only operator
      // (Invariant 5.1), so the bucket cannot empty — or close — under us.
      SummaryNode* node = static_cast<SummaryNode*>(request.node);
      FreqBucket* bucket = node->bucket;
      assert(bucket != nullptr);
      if (bucket == ctx->holding) {
        ctx->batch.push_back(request);
        return;
      }
      const bool ok = bucket->queue.TryEnqueue(request);
      assert(ok);
      (void)ok;
      ctx->work.push_back(bucket);
      return;
    }
    case Request::Kind::kOverwrite: {
      // Evicting is sound only at the global minimum, and "which bucket is
      // the minimum" is only stable under the sentinel hold: a bucket below
      // the current first live one can only ever be linked at the edge of a
      // held live bucket with a smaller frequency — and below the minimum
      // the only such bucket is the sentinel itself. Any min-finding walk
      // done without that hold races with insertion and can evict from a
      // non-minimum bucket; a victim evicted there with estimate f_hi that
      // later re-enters seeds from the then-minimum f_lo < f_hi, silently
      // breaking count >= truth. So overwrites are combined at the sentinel
      // (whose queue never closes) and served by its holder, which acquires
      // the true minimum bucket and evicts there (DESIGN.md §8.3).
      if (sentinel_ == ctx->holding) {
        ctx->batch.push_back(request);
        return;
      }
      const bool ok = sentinel_->queue.TryEnqueue(request);
      assert(ok);
      (void)ok;
      ctx->work.push_back(sentinel_);
      return;
    }
    case Request::Kind::kEvict:
      // Evictions are enqueued per-bucket by EvictUpTo, never dispatched.
      assert(false);
      return;
  }
}

void ConcurrentStreamSummary::Complete(SummaryNode* node, uint64_t token,
                                       WorkContext* ctx) {
  const uint64_t pending = table_->Relinquish(node->entry, token);
  if (pending > 0) {
    // Occurrences accumulated while we processed: apply them as one bulk
    // increment — the delegation win that makes skewed streams fast
    // (Section 5.2.2 "Dealing with Accumulated Counts and Bulk Increments").
    stats_.bulk_increments.fetch_add(1, std::memory_order_relaxed);
    Request follow_up;
    follow_up.kind = Request::Kind::kIncrement;
    follow_up.node = node;
    follow_up.delta = pending;
    follow_up.token = 1;  // the exchange in Relinquish reset the marker
    Dispatch(follow_up, ctx);
    return;
  }
  // Fully released. Re-nudge the sentinel if overwrites are parked there:
  // a parked overwrite is waiting for some busy victim candidate (possibly
  // this element) to be released, and the sentinel's parked list is the
  // ONLY place deferred work lives without a live owner (every dispatch
  // site asserts kOverwrite routes to the sentinel). Queued requests need
  // no nudge — every TryEnqueue is followed by the enqueuer's own
  // TryProcessBucket attempt, and the holder rechecks the queue after
  // releasing. Deliberately do NOT touch node->bucket here: after the
  // element's last release another owner may relocate the node, and a
  // stale bucket pointer can reference memory already reclaimed and
  // recycled by EBR (our epoch guard only protects buckets retired after
  // the guard began, not arbitrarily old ones).
  if (sentinel_->parked_count.load(std::memory_order_acquire) > 0) {
    ctx->work.push_back(sentinel_);
  }
}

bool ConcurrentStreamSummary::PlaceNode(FreqBucket* bucket, SummaryNode* node,
                                        uint64_t token, WorkContext* ctx) {
  assert(node->freq >= bucket->freq);
  if (node->freq == bucket->freq && bucket != sentinel_) {
    AttachNode(bucket, node);
    return true;
  }
  for (uint64_t spins = 0;; ++spins) {
    if (spins == 10'000'000) {
      std::fprintf(stderr, "cots: PlaceNode livelock (freq=%llu)\n",
                   static_cast<unsigned long long>(node->freq));
      std::abort();
    }
    UnlinkDeadSuccessors(bucket, ctx);
    FreqBucket* next = bucket->next.load(std::memory_order_acquire);
    if (next == nullptr || next->freq > node->freq) {
      // No bucket for this frequency yet: create and link it here.
      // (FindDestBucket's first case.)
      FreqBucket* fresh = new FreqBucket(node->freq, ring_capacity_);
      stats_.buckets_created.fetch_add(1, std::memory_order_relaxed);
      AttachNode(fresh, node);
      fresh->next.store(next, std::memory_order_relaxed);
      bucket->next.store(fresh, std::memory_order_release);
      return true;
    }
    if (next->freq == node->freq) {
      Request add;
      add.kind = Request::Kind::kAdd;
      add.node = node;
      add.delta = 0;
      add.token = token;
      if (next->queue.TryEnqueue(add)) {
        stats_.requests_delegated_downstream.fetch_add(
            1, std::memory_order_relaxed);
        ctx->work.push_back(next);
        return false;
      }
      // The successor closed concurrently; it will be GC-marked, after
      // which UnlinkDeadSuccessors clears it and we retry.
      CpuRelax();
      std::this_thread::yield();
      continue;
    }
    // next->freq < node->freq: bulk increment traversal (Algorithm 4).
    // Delegate to the furthest reachable bucket whose frequency does not
    // exceed the target; its holder continues the placement from there.
    FreqBucket* target = next;
    for (FreqBucket* scan = next;
         scan != nullptr && scan->freq <= node->freq;
         scan = scan->next.load(std::memory_order_acquire)) {
      if (!scan->gc.load(std::memory_order_acquire)) target = scan;
    }
    Request add;
    add.kind = Request::Kind::kAdd;
    add.node = node;
    add.delta = 0;
    add.token = token;
    if (target->queue.TryEnqueue(add)) {
      stats_.requests_delegated_downstream.fetch_add(
          1, std::memory_order_relaxed);
      ctx->work.push_back(target);
      return false;
    }
    // Aborted read: the chosen bucket was collected mid-flight; restart
    // the traversal (the paper's abort-and-restart rule).
    CpuRelax();
    std::this_thread::yield();
  }
}

bool ConcurrentStreamSummary::ProcessRequest(FreqBucket* bucket,
                                             const Request& request,
                                             WorkContext* ctx) {
  switch (request.kind) {
    case Request::Kind::kAdd: {
      SummaryNode* node = static_cast<SummaryNode*>(request.node);
      if (PlaceNode(bucket, node, request.token, ctx)) {
        Complete(node, request.token, ctx);
      }
      return true;
    }
    case Request::Kind::kIncrement: {
      SummaryNode* node = static_cast<SummaryNode*>(request.node);
      assert(node->bucket == bucket);
      DetachNode(bucket, node);
      RelaxedFieldStore(node->freq, node->freq + request.delta);
      if (PlaceNode(bucket, node, request.token, ctx)) {
        Complete(node, request.token, ctx);
      }
      return true;
    }
    case Request::Kind::kOverwrite: {
      // Overwrites are only ever served under the sentinel hold (Dispatch
      // routes every one of them here). That hold is what makes the
      // eviction sound: a bucket below the first live one can only be
      // linked at the sentinel's edge — by the sentinel's holder, i.e. by
      // us — so for as long as we hold the sentinel the first live bucket
      // IS the global minimum, not a racy guess at it (DESIGN.md §8.3).
      assert(bucket == sentinel_);
      for (;;) {
        FreqBucket* min = nullptr;
        for (FreqBucket* b = sentinel_->next.load(std::memory_order_acquire);
             b != nullptr; b = b->next.load(std::memory_order_acquire)) {
          if (!b->gc.load(std::memory_order_acquire)) {
            min = b;
            break;
          }
        }
        if (min == nullptr) {
          // Every monitored node is mid-relocation (their buckets died
          // under them). The relocations terminate by re-entering the
          // list; park until one does.
          COTS_COUNTER_INC("summary.overwrite_parked");
          stats_.overwrites_deferred.fetch_add(1, std::memory_order_relaxed);
          ctx->deferred.push_back(request);
          return false;
        }
        if (COTS_FAILPOINT_TRIGGERED("summary.force_overwrite_defer") ||
            min->held.exchange(true, std::memory_order_acquire)) {
          // The minimum bucket is busy. Never block while holding the
          // sentinel and never settle for a non-minimum victim: park the
          // request for retry. Every operation completion re-nudges the
          // sentinel when overwrites are parked here (see Complete), so
          // the park cannot strand.
          COTS_COUNTER_INC("summary.overwrite_parked");
          stats_.overwrites_deferred.fetch_add(1, std::memory_order_relaxed);
          ctx->deferred.push_back(request);
          return false;
        }
        // Holding sentinel + min. Note: unlike Algorithm 6's
        // deferAllOverwrites flag, retries always rescan. The flag would
        // have to be cleared on *every* event that can free a victim;
        // missing one (e.g. an increment processed before the parked
        // overwrite was re-injected) strands the overwrite forever.
        // A scan of the minimum bucket is cheap; correctness is not.
        for (SummaryNode* victim = min->head.load(std::memory_order_relaxed);
             victim != nullptr;
             victim = victim->next.load(std::memory_order_relaxed)) {
          if (!table_->TryRemove(victim->entry, ctx->participant)) {
            continue;  // busy: its in-flight operation will renudge us
          }
          // Victim secured: recycle its node for the arriving element
          // (Algorithm 6). The victim's count becomes the newcomer's
          // error. The rewrite happens inside min's seqlock write window
          // so snapshot readers never see a half-recycled node.
          min->version.fetch_add(1, std::memory_order_acq_rel);
          DetachNode(min, victim);
          auto* entry =
              static_cast<DelegationHashTable::Entry*>(request.entry);
          RelaxedFieldStore(victim->key, request.key);
          RelaxedFieldStore(victim->error, min->freq);
          RelaxedFieldStore(victim->freq, min->freq + request.delta);
          victim->entry = entry;
          entry->node.store(victim, std::memory_order_release);
          min->version.fetch_add(1, std::memory_order_release);
          const bool placed = PlaceNode(min, victim, request.token, ctx);
          // Close min if the eviction emptied it, exactly as a normal hold
          // would (close-before-release keeps the walk above O(live)).
          if (min->size == 0 && !min->gc.load(std::memory_order_relaxed) &&
              min->queue.CloseIfEmpty()) {
            min->gc.store(true, std::memory_order_release);
          }
          min->held.store(false, std::memory_order_release);
          // Post-release contract: requests enqueued at min while we held
          // it are ours to revisit.
          if (!min->queue.empty()) ctx->work.push_back(min);
          if (placed) Complete(victim, request.token, ctx);
          return true;
        }
        if (min->head.load(std::memory_order_relaxed) == nullptr) {
          // The minimum bucket is empty (its last node is relocating).
          // Close it if possible and retry the walk past it; otherwise its
          // queued work will repopulate or kill it — park until then.
          bool closed = false;
          if (!min->gc.load(std::memory_order_relaxed) &&
              min->queue.CloseIfEmpty()) {
            min->gc.store(true, std::memory_order_release);
            closed = true;
          }
          min->held.store(false, std::memory_order_release);
          if (!min->queue.empty()) ctx->work.push_back(min);
          if (closed) continue;
          COTS_COUNTER_INC("summary.overwrite_parked");
          stats_.overwrites_deferred.fetch_add(1, std::memory_order_relaxed);
          ctx->deferred.push_back(request);
          return false;
        }
        // No candidate can be overwritten: every element here has an
        // operation in flight. Defer until one of those operations lands.
        min->held.store(false, std::memory_order_release);
        if (!min->queue.empty()) ctx->work.push_back(min);
        COTS_COUNTER_INC("summary.overwrite_parked");
        stats_.overwrites_deferred.fetch_add(1, std::memory_order_relaxed);
        ctx->deferred.push_back(request);
        return false;
      }
    }
    case Request::Kind::kEvict: {
      // Round-boundary eviction (Lossy Counting adaptation, Section 5.3):
      // drop quiescent elements at or below the threshold. Busy elements
      // survive the round — keeping extra counters never weakens the
      // Lossy Counting bounds, it only spends a little more space.
      if (bucket->freq > request.delta) return true;
      SummaryNode* n = bucket->head.load(std::memory_order_relaxed);
      while (n != nullptr) {
        SummaryNode* next = n->next.load(std::memory_order_relaxed);
        if (table_->TryRemove(n->entry, ctx->participant)) {
          DetachNode(bucket, n);
          monitored_.fetch_sub(1, std::memory_order_acq_rel);
          // Queries may still be walking over the node; retire, not delete.
          ctx->participant->Retire(n);
        }
        n = next;
      }
      return true;
    }
  }
  return true;
}

void ConcurrentStreamSummary::TryProcessBucket(FreqBucket* bucket,
                                               WorkContext* ctx) {
  // Span over the whole dispatch (every hold this call takes), recorded
  // only when requests were actually applied — idle revisits and lost
  // hold races stay out of the trace ring.
  COTS_TRACE_SPAN(span, "summary.dispatch");
  uint64_t dispatched = 0;
  for (;;) {
    if (bucket->held.exchange(true, std::memory_order_acquire)) {
      // Someone else holds it; by the delegation contract they drain our
      // request before releasing (or the post-release recheck catches it).
      if (dispatched == 0) span.Cancel();
      return;
    }
    // Dead successors can only be unlinked while holding their
    // predecessor; every hold starts with that housekeeping so GC'd
    // buckets never pile up in front of live ones. A bucket that is itself
    // dead must NOT unlink (its predecessor's holder owns that edge — two
    // unlinkers walking overlapping dead chains would double-retire).
    if (!bucket->gc.load(std::memory_order_acquire)) {
      UnlinkDeadSuccessors(bucket, ctx);
    }
    ctx->holding = bucket;
    bool retried_parked = false;
    bool mutating = false;
    for (;;) {
      // Chaos hook: wedge the holder mid-drain (kSpin with a large
      // spin_iters) to prove producers stay unblocked — they must spill to
      // the lock-free overflow path and report kOverloaded, never wait on
      // this thread (DESIGN.md §13).
      COTS_FAILPOINT("summary.stall_drain");
      ctx->batch.clear();
      const size_t drained = bucket->queue.DrainTo(&ctx->batch);
      // Batch sizes are the combining win: every request beyond the first
      // was applied without its sender ever touching the structure.
      if (drained > 0) {
        COTS_HISTOGRAM_RECORD("summary.drain_batch", drained);
        // The drain size is the queue depth at the moment of the drain;
        // the watermark gauge keeps the worst depth any hold ever saw.
        COTS_GAUGE_RAISE("summary.queue_depth_watermark", drained);
        dispatched += drained;
        span.SetArg(dispatched);
      }
      // Parked overwrites are retried once per hold and whenever new
      // requests arrive (an arriving increment is exactly the event that
      // can free a victim).
      if (!bucket->parked.empty() &&
          (!ctx->batch.empty() || !retried_parked)) {
        ctx->batch.insert(ctx->batch.end(), bucket->parked.begin(),
                          bucket->parked.end());
        bucket->parked.clear();
        bucket->parked_count.store(0, std::memory_order_release);
      }
      retried_parked = true;
      if (ctx->batch.empty()) break;
      if (!mutating) {
        // Open the seqlock write window (odd) before the first mutation of
        // this hold; the acq_rel increment keeps the mutations below from
        // reordering above it. Holds that drain nothing never bump the
        // version, so idle revisits do not disturb snapshot readers.
        mutating = true;
        bucket->version.fetch_add(1, std::memory_order_acq_rel);
      }
      ctx->deferred.clear();
      // Index loop, and the request is copied out: ProcessRequest may
      // splice follow-up work for this very bucket onto the end of the
      // batch (Dispatch's holding fast path), growing — and possibly
      // reallocating — ctx->batch mid-iteration.
      for (size_t i = 0; i < ctx->batch.size(); ++i) {
        const Request request = ctx->batch[i];
        ProcessRequest(bucket, request, ctx);
      }
      if (!ctx->deferred.empty()) {
        // Park overwrites whose every candidate victim is mid-flight; the
        // victims' in-flight operations terminate by re-entering (or
        // waking) this bucket, which retries the parked work.
        bucket->parked.insert(bucket->parked.end(), ctx->deferred.begin(),
                              ctx->deferred.end());
        bucket->parked_count.store(bucket->parked.size(),
                                   std::memory_order_release);
      }
    }
    // Past this point every Dispatch must go through the queues again (the
    // batch loop is done; splicing would strand requests).
    ctx->holding = nullptr;
    if (mutating) {
      // Close the seqlock write window (back to even): the release pairs
      // with the reader's validation load, so a reader that sees the even
      // version also sees every mutation of this hold.
      bucket->version.fetch_add(1, std::memory_order_release);
    }
    COTS_FAILPOINT("summary.bucket_close");
    // Close before forwarding, never the other way around. Parked
    // overwrites at an empty bucket must travel to a live victim source,
    // but forwarding from a bucket that is still OPEN let two empty
    // buckets bounce orphans into each other's queues forever — each
    // forward kept the other side's queue non-empty, defeating its
    // close-only-when-empty check, so neither ever died and dispatch
    // never reached the real victims beyond them. Closing first makes the
    // forward graph acyclic for free: a dead bucket is no longer a
    // dispatch target (the gc check in Dispatch), so every orphan hop
    // lands at a bucket that either serves it or dies in turn — and a
    // bucket dies at most once.
    if (bucket != sentinel_ && bucket->size == 0 &&
        !bucket->gc.load(std::memory_order_relaxed) &&
        bucket->queue.CloseIfEmpty()) {
      bucket->gc.store(true, std::memory_order_release);
      COTS_TRACE_INSTANT("summary.bucket_close");
    }
    if (bucket->gc.load(std::memory_order_relaxed) &&
        !bucket->parked.empty()) {
      COTS_FAILPOINT("summary.orphan_forward");
      std::vector<Request> orphans;
      orphans.swap(bucket->parked);
      bucket->parked_count.store(0, std::memory_order_release);
      COTS_TRACE_INSTANT_ARG("summary.orphan_forward", orphans.size());
      for (const Request& request : orphans) Dispatch(request, ctx);
    }
    bucket->held.store(false, std::memory_order_release);
    // Requests that arrived between the final drain and the release would
    // be stranded if we left now — re-acquire and go again.
    if (bucket->queue.closed() || bucket->queue.empty()) {
      if (dispatched == 0) span.Cancel();
      return;
    }
  }
}

void ConcurrentStreamSummary::ProcessWork(WorkContext* ctx) {
  while (!ctx->work.empty()) {
    FreqBucket* bucket = ctx->work.back();
    ctx->work.pop_back();
    TryProcessBucket(bucket, ctx);
  }
}

void ConcurrentStreamSummary::CrossBoundary(DelegationHashTable::Entry* entry,
                                            bool newly_inserted,
                                            uint64_t delta, uint64_t token,
                                            EpochParticipant* participant,
                                            uint64_t initial_error,
                                            WorkContext* scratch) {
  // Callers on the ingest hot path pass a per-thread scratch context so the
  // work/batch vectors keep their capacity across elements; one-shot
  // callers fall back to a local.
  WorkContext local;
  WorkContext& ctx = scratch != nullptr ? *scratch : local;
  ctx.Reset();
  ctx.participant = participant;
  Request request;
  if (newly_inserted) {
    if (TryAdmit()) {
      auto* node = new SummaryNode;
      node->key = entry->key;
      node->freq = delta + initial_error;
      node->error = initial_error;
      node->entry = entry;
      entry->node.store(node, std::memory_order_release);
      request.kind = Request::Kind::kAdd;
      request.node = node;
      request.delta = delta;
      request.token = token;
    } else {
      request.kind = Request::Kind::kOverwrite;
      request.key = entry->key;
      request.entry = entry;
      request.delta = delta;
      request.token = token;
    }
  } else {
    SummaryNode* node = entry->node.load(std::memory_order_acquire);
    assert(node != nullptr);
    request.kind = Request::Kind::kIncrement;
    request.node = node;
    request.delta = delta;
    request.token = token;
  }
  Dispatch(request, &ctx);
  // The minimum-frequency region churns buckets constantly, and only the
  // sentinel's holder can unlink the dead ones at the head of the list;
  // visit it whenever the head has died.
  FreqBucket* first = sentinel_->next.load(std::memory_order_acquire);
  if (first != nullptr && first->gc.load(std::memory_order_acquire)) {
    ctx.work.push_back(sentinel_);
  }
  ProcessWork(&ctx);
}

void ConcurrentStreamSummary::EvictUpTo(uint64_t threshold,
                                        EpochParticipant* participant) {
  WorkContext ctx;
  ctx.participant = participant;
  for (FreqBucket* b = sentinel_->next.load(std::memory_order_acquire);
       b != nullptr && b->freq <= threshold;
       b = b->next.load(std::memory_order_acquire)) {
    if (b->gc.load(std::memory_order_acquire)) continue;
    Request evict;
    evict.kind = Request::Kind::kEvict;
    evict.delta = threshold;
    if (b->queue.TryEnqueue(evict)) ctx.work.push_back(b);
    // A closed queue means the bucket emptied on its own; nothing to evict.
  }
  ProcessWork(&ctx);
}

void ConcurrentStreamSummary::SweepStranded(EpochParticipant* participant) {
  WorkContext ctx;
  ctx.participant = participant;
  EpochGuard guard(participant);
  // One pass is not enough: processing a parked overwrite can re-park it
  // (its victim bucket was transiently busy), and with no other thread
  // left to nudge the sentinel the re-park would strand. So keep sweeping
  // while overwrites remain parked — that is the only work without a live
  // owner (queued requests are always retried by their enqueuer, and live
  // threads re-nudge the parked set from Complete). With no concurrent
  // producers the pending set strictly shrinks, so the loop terminates.
  for (;;) {
    TryCleanHead(&ctx);
    // The sentinel's queue and parked list can hold stranded work too:
    // new-element adds and every overwrite route through it.
    if (!sentinel_->queue.empty() ||
        sentinel_->parked_count.load(std::memory_order_acquire) > 0) {
      ctx.work.push_back(sentinel_);
    }
    for (FreqBucket* b = sentinel_->next.load(std::memory_order_acquire);
         b != nullptr; b = b->next.load(std::memory_order_acquire)) {
      if (b->gc.load(std::memory_order_acquire)) continue;
      if (!b->queue.empty() ||
          b->parked_count.load(std::memory_order_acquire) > 0) {
        ctx.work.push_back(b);
      }
    }
    if (ctx.work.empty()) return;
    ProcessWork(&ctx);
    if (sentinel_->parked_count.load(std::memory_order_acquire) == 0) {
      return;
    }
    std::this_thread::yield();
  }
}

std::vector<Counter> ConcurrentStreamSummary::CountersDescending(
    EpochParticipant* participant) const {
  EpochGuard guard(participant);
  // Each reading keeps the node it came from, for the node dedup below.
  struct Reading {
    const SummaryNode* node;
    Counter counter;
  };
  std::vector<Reading> seen;
  seen.reserve(std::min(capacity_, size_t{65536}));
  // Defensive bounds: concurrent relocation can make a traversal wander;
  // the structure never exceeds capacity live nodes.
  const size_t node_limit =
      always_admit_ ? ~size_t{0} : capacity_ * 2 + 64;
  // Per-bucket read lease attempts before falling back to a lease-less
  // walk; keeps the reader wait-bounded under sustained mutation.
  constexpr int kLeaseRetries = 8;
  auto walk = [&](const FreqBucket* b) {
    size_t steps = 0;
    for (SummaryNode* n = b->head.load(std::memory_order_acquire);
         n != nullptr && steps < node_limit;
         n = n->next.load(std::memory_order_acquire), ++steps) {
      // Acquire field loads keep the validation read below ordered after
      // the segment reads without an atomic_thread_fence (see the helper).
      seen.push_back(Reading{n, Counter{AcquireFieldLoad(n->key),
                                        AcquireFieldLoad(n->freq),
                                        AcquireFieldLoad(n->error)}});
    }
  };
  for (FreqBucket* b = sentinel_->next.load(std::memory_order_acquire);
       b != nullptr && seen.size() < node_limit;
       b = b->next.load(std::memory_order_acquire)) {
    if (b->gc.load(std::memory_order_acquire)) continue;
    // Seqlock read lease: walk only while the version is even, and accept
    // the segment only if the version did not move — the segment then
    // matches a state the bucket actually passed through.
    const size_t mark = seen.size();
    for (int attempt = 0;; ++attempt) {
      const uint64_t v1 = b->version.load(std::memory_order_acquire);
      if ((v1 & 1) == 0) {
        walk(b);
        // Fence-free seqlock validation: the segment was read with acquire
        // loads, so this check cannot be reordered before any of them.
        if (b->version.load(std::memory_order_relaxed) == v1) break;
      }
      seen.resize(mark);  // torn segment: roll back this bucket and retry
      if (attempt >= kLeaseRetries) {
        // Bucket under sustained mutation: one lease-less walk (every read
        // is still atomic — per-field values, not torn bytes) beats making
        // the reader wait unboundedly.
        COTS_COUNTER_INC("summary.snapshot_fallbacks");
        walk(b);
        break;
      }
      COTS_COUNTER_INC("summary.snapshot_retries");
      std::this_thread::yield();
    }
  }
  // Each bucket's segment is internally consistent, but a node that moved
  // up mid-walk can be read twice. An overwrite also relabels the victim's
  // node with the new key, so the second reading may carry another key.
  // Node frequencies only grow, so each node keeps its highest reading —
  // its latest state: a victim evicted mid-walk drops out instead of
  // being reported beside its replacement, and the snapshot's mass never
  // exceeds the occurrences applied by the end of the walk.
  std::sort(seen.begin(), seen.end(), [](const Reading& a, const Reading& b) {
    if (a.node != b.node) {
      return std::less<const SummaryNode*>()(a.node, b.node);
    }
    return a.counter.count > b.counter.count;
  });
  seen.erase(std::unique(seen.begin(), seen.end(),
                         [](const Reading& a, const Reading& b) {
                           return a.node == b.node;
                         }),
             seen.end());
  std::vector<Counter> out;
  out.reserve(seen.size());
  for (const Reading& r : seen) out.push_back(r.counter);
  // An element evicted and re-admitted mid-walk can sit on two nodes; keep
  // the higher estimate so each key maps to exactly one counter.
  std::sort(out.begin(), out.end(), [](const Counter& a, const Counter& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.count > b.count;
  });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const Counter& a, const Counter& b) {
                          return a.key == b.key;
                        }),
            out.end());
  // Ascending bucket order; flip and order ties deterministically.
  std::sort(out.begin(), out.end(), [](const Counter& a, const Counter& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.key < b.key;
  });
  return out;
}

bool ConcurrentStreamSummary::Quiescent(EpochParticipant* participant) const {
  EpochGuard guard(participant);
  for (FreqBucket* b = sentinel_; b != nullptr;
       b = b->next.load(std::memory_order_acquire)) {
    if (b->held.load(std::memory_order_acquire)) return false;
    if (b->gc.load(std::memory_order_acquire)) continue;  // closed == empty
    if (!b->queue.empty()) return false;
    if (b->parked_count.load(std::memory_order_acquire) != 0) return false;
  }
  return true;
}

size_t ConcurrentStreamSummary::ApproxQueueDepth(
    EpochParticipant* participant) const {
  // The sentinel is permanent, but the walk to the first live bucket races
  // with bucket GC; the guard keeps a concurrently unlinked bucket from
  // being reclaimed under the sampler's feet. The queue reads are relaxed
  // ring-index loads — no locks, so sampling never slows producers.
  EpochGuard guard(participant);
  size_t depth = sentinel_->queue.size();
  FreqBucket* min = FirstLiveBucket();
  if (min != nullptr) {
    depth += min->queue.size() + min->parked_count.load(std::memory_order_relaxed);
  }
  return depth;
}

uint64_t ConcurrentStreamSummary::MinFreq(EpochParticipant* participant) const {
  if (num_monitored() < capacity_) return 0;
  EpochGuard guard(participant);
  FreqBucket* min = FirstLiveBucket();
  return min == nullptr ? 0 : min->freq;
}

bool ConcurrentStreamSummary::CheckInvariantsQuiescent(
    uint64_t expected_total, std::string* why) const {
  auto fail = [why](const char* reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  uint64_t total = 0;
  size_t nodes = 0;
  uint64_t prev_freq = 0;
  if (sentinel_->freq != 0) return fail("sentinel freq != 0");
  if (sentinel_->head.load() != nullptr) return fail("sentinel has elements");
  for (FreqBucket* b = sentinel_->next.load(); b != nullptr;
       b = b->next.load()) {
    if (b->gc.load()) {
      // Unlinking is opportunistic, so GC'd buckets may still be linked at
      // quiescence — but they must be empty and closed.
      if (b->size != 0 || b->head.load() != nullptr) {
        return fail("gc bucket non-empty");
      }
      if (!b->queue.closed()) return fail("gc bucket queue open");
      continue;
    }
    if (b->held.load()) return fail("bucket held at quiescence");
    if (b->queue.size() != 0) return fail("bucket queue non-empty");
    if (b->parked_count.load() != 0) return fail("parked overwrites remain");
    if (b->freq <= prev_freq) return fail("bucket freqs not ascending");
    prev_freq = b->freq;
    size_t in_bucket = 0;
    SummaryNode* prev_node = nullptr;
    for (SummaryNode* n = b->head.load(); n != nullptr; n = n->next.load()) {
      if (n->bucket != b) return fail("node bucket back-pointer wrong");
      if (n->freq != b->freq) return fail("node freq != bucket freq");
      if (n->error > n->freq) return fail("node error > freq");
      if (n->prev != prev_node) return fail("node prev pointer wrong");
      if (n->entry == nullptr ||
          n->entry->node.load(std::memory_order_relaxed) != n) {
        return fail("hash entry does not point back at node");
      }
      total += n->freq;
      ++in_bucket;
      prev_node = n;
    }
    if (in_bucket != b->size) return fail("bucket size mismatch");
    nodes += in_bucket;
  }
  if (nodes != monitored_.load()) return fail("monitored count mismatch");
  if (!always_admit_ && nodes > capacity_) return fail("over capacity");
  if (expected_total != ~uint64_t{0} && total != expected_total) {
    if (why != nullptr) {
      *why = "count conservation violated: total=" + std::to_string(total) +
             " expected=" + std::to_string(expected_total);
    }
    return false;
  }
  return true;
}

}  // namespace cots
