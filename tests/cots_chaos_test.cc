// Chaos soak harness for the overload-resilience layer (DESIGN.md §13).
//
// Scheduled-failpoint rounds drive a fleet through the failure scenarios
// the admission/shedding design must survive — hand-off storms, a holder
// wedged inside a shard's critical section, races between a hand-off and
// its flag retry, a slow router, and Stop() racing mid-ingest — with load
// shedding forced on a third of the rounds. Every round must end with:
//
//   * conservation: counted == accepted offers, shed_weight == shed calls
//     (nothing vanishes without accounting), and
//   * bound soundness: every key's exact count inside the shed-widened
//     bounds of the merged global view ("degrade, don't lie").
//
// Round count scales with COTS_CHAOS_ROUNDS (CI runs 100). The injection
// tests skip unless built with -DCOTS_FAILPOINTS=ON; the liveness and
// shed-property tests run everywhere, including release builds.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cots/cots_fleet.h"
#include "cots/cots_space_saving.h"
#include "cots/request.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace cots {
namespace {

int ChaosRounds(int fallback) {
  const char* env = std::getenv("COTS_CHAOS_ROUNDS");
  if (env != nullptr) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<int>(v);
  }
  return fallback;
}

using ExactMap = std::unordered_map<ElementId, uint64_t>;

// Asserts every exact count is inside the (already shed-folded) bounds of
// the merged view: monitored keys two-sided, unmonitored keys <= min_freq.
void ExpectBoundsSound(const CounterSet& view, const ExactMap& exact,
                       int round) {
  for (const auto& [key, truth] : exact) {
    const auto c = view.Lookup(key);
    if (c.has_value()) {
      EXPECT_LE(truth, c->count + c->error)
          << "round " << round << " key " << key;
      EXPECT_LE(c->count, truth + c->error)
          << "round " << round << " key " << key;
    } else {
      EXPECT_LE(truth, view.min_freq())
          << "round " << round << " unmonitored key " << key;
    }
  }
}

// One scheduled perturbation per round, cycled by round index. Every
// scenario arms the fleet's own sites: the router, the shard critical
// section, the hand-off retry and the Stop() drains.
enum class Scenario {
  kCalm = 0,
  kHandoffStorm,
  kStalledHolder,
  kRetryRace,
  kSlowShard,
  kMidIngestStop,
  kCount,
};

const char* ScenarioName(Scenario s) {
  switch (s) {
    case Scenario::kCalm: return "calm";
    case Scenario::kHandoffStorm: return "handoff_storm";
    case Scenario::kStalledHolder: return "stalled_holder";
    case Scenario::kRetryRace: return "retry_race";
    case Scenario::kSlowShard: return "slow_shard";
    case Scenario::kMidIngestStop: return "mid_ingest_stop";
    default: return "?";
  }
}

void ArmScenario(Scenario s, uint64_t seed) {
  FailpointSpec yield;
  yield.action = FailpointSpec::Action::kYield;
  yield.num = 1;
  yield.den = 4;
  yield.seed = seed;
  FailpointSpec spin;
  spin.action = FailpointSpec::Action::kSpin;
  spin.seed = seed ^ 0xc0ffee;
  switch (s) {
    case Scenario::kCalm:
      break;
    case Scenario::kHandoffStorm:
      // Holders linger in half their critical sections, so most runs are
      // handed off through the inboxes instead of applied directly.
      spin.num = 1;
      spin.den = 2;
      spin.spin_iters = 2000;
      Failpoints::Global().Enable("fleet.shard_hold", spin);
      Failpoints::Global().Enable("fleet.dispatch_shard", yield);
      break;
    case Scenario::kStalledHolder:
      // A holder wedges (bounded) inside its critical section while
      // producers keep offering; their runs must queue in the inbox, never
      // wait on the stalled shard.
      spin.num = 1;
      spin.den = 8;
      spin.spin_iters = 20000;
      Failpoints::Global().Enable("fleet.shard_hold", spin);
      break;
    case Scenario::kRetryRace:
      // Widens the window between a hand-off and its flag retry, where the
      // holder's post-release inbox check must pick the run up.
      yield.num = 1;
      yield.den = 2;
      Failpoints::Global().Enable("fleet.handoff_retry", yield);
      Failpoints::Global().Enable("fleet.shard_hold", yield);
      Failpoints::Global().Enable("fleet.drain_wait", yield);
      break;
    case Scenario::kSlowShard:
      spin.num = 1;
      spin.den = 8;
      spin.spin_iters = 4096;
      Failpoints::Global().Enable("fleet.dispatch_shard", spin);
      Failpoints::Global().Enable("fleet.shard_hold", yield);
      break;
    case Scenario::kMidIngestStop:
      Failpoints::Global().Enable("fleet.dispatch_shard", yield);
      Failpoints::Global().Enable("fleet.handoff_retry", yield);
      Failpoints::Global().Enable("fleet.stop_drain", yield);
      break;
    default:
      break;
  }
}

// The soak: perturbed rounds with forced shedding mixed in, each ending in
// a full conservation + invariant + bound-soundness audit.
TEST(CotsChaosTest, PerturbedRoundsConserveAndStayBounded) {
  if (!COTS_FAILPOINTS_ENABLED) {
    GTEST_SKIP() << "build with -DCOTS_FAILPOINTS=ON to run injection";
  }

  const int rounds = ChaosRounds(12);
  constexpr int kThreads = 2;
  constexpr uint64_t kBatch = 48;
  constexpr int kIters = 250;

  for (int round = 0; round < rounds; ++round) {
    const auto scenario =
        static_cast<Scenario>(round % static_cast<int>(Scenario::kCount));
    const bool shed_round = round % 3 == 2;
    const uint64_t round_seed =
        0x9e3779b9u * static_cast<uint64_t>(round) + 17;
    SCOPED_TRACE(std::string(ScenarioName(scenario)) +
                 (shed_round ? "+shed" : ""));
    ArmScenario(scenario, round_seed);

    CotsFleetOptions opt;
    opt.num_shards = 2 + static_cast<size_t>(round % 2);
    opt.engine.capacity = 16;
    ASSERT_TRUE(opt.Validate().ok());
    CotsFleet fleet(opt);

    std::mutex merge_mu;
    ExactMap exact;
    std::atomic<uint64_t> accepted{0};
    std::atomic<uint64_t> shed{0};
    std::atomic<uint64_t> overloaded{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        auto handle = fleet.RegisterThread();
        ASSERT_NE(handle, nullptr);
        Xoshiro256 rng(round_seed * 31 + static_cast<uint64_t>(t));
        ElementId batch[kBatch];
        ExactMap local;
        uint64_t local_accepted = 0;
        uint64_t local_shed = 0;
        uint64_t local_overloaded = 0;
        for (int iter = 0; iter < kIters; ++iter) {
          for (uint64_t i = 0; i < kBatch; ++i) {
            const bool hot = rng.NextBounded(10) < 6;
            batch[i] = hot ? 1 + rng.NextBounded(4)
                           : 1'000'000 + rng.NextBounded(400);
          }
          if (shed_round && rng.NextBounded(8) == 0) {
            // Forced shedding slice: the batch bypasses the counters and
            // lands in the error bounds — but only when the fleet actually
            // absorbed it (Shed refuses once Stop has begun).
            if (!fleet.Shed(batch, kBatch)) break;
            local_shed += kBatch;
            for (ElementId e : batch) ++local[e];
            continue;
          }
          const OfferOutcome outcome =
              handle->OfferBatchBounded(batch, kBatch);
          if (outcome == OfferOutcome::kRefused) break;
          if (outcome == OfferOutcome::kOverloaded) ++local_overloaded;
          local_accepted += kBatch;
          for (ElementId e : batch) ++local[e];
        }
        accepted.fetch_add(local_accepted, std::memory_order_relaxed);
        shed.fetch_add(local_shed, std::memory_order_relaxed);
        overloaded.fetch_add(local_overloaded, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(merge_mu);
        for (const auto& [k, v] : local) exact[k] += v;
      });
    }
    if (scenario == Scenario::kMidIngestStop) {
      while (fleet.stream_length() < 8 * kBatch) std::this_thread::yield();
      fleet.Stop();
    }
    for (std::thread& w : workers) w.join();
    fleet.Stop();

    // Conservation: accepted == counted, shed == absorbed, and the
    // monitored counters sum back to the counted stream.
    ASSERT_EQ(fleet.stream_length(), accepted.load()) << "round " << round;
    ASSERT_EQ(fleet.shed_weight(), shed.load()) << "round " << round;
    uint64_t conserved = 0;
    for (size_t s = 0; s < fleet.num_shards(); ++s) {
      EXPECT_TRUE(fleet.shard(s).CheckInvariants())
          << "round " << round << " shard " << s;
      for (const Counter& c : fleet.shard(s).CountersDescending()) {
        conserved += c.count;
      }
    }
    ASSERT_EQ(conserved, accepted.load()) << "round " << round;

    ExpectBoundsSound(fleet.GlobalView(), exact, round);
    Failpoints::Global().DisableAll();
  }
}

// Wedged-consumer regression: a holder stalls (bounded spin) inside the
// sentinel's drain loop while another thread keeps offering new keys into
// it through a tiny ring. The producer must never block — its requests
// divert to the lock-free spill path, so its batch returns while every
// request it logged is still pending behind the wedged holder, and the
// batch is still counted in full once the holder recovers.
TEST(CotsChaosTest, WedgedConsumerNeverBlocksProducers) {
  if (!COTS_FAILPOINTS_ENABLED) {
    GTEST_SKIP() << "build with -DCOTS_FAILPOINTS=ON to run injection";
  }

  CotsSpaceSavingOptions opt;
  opt.capacity = 64;
  opt.hash_buckets = 1;  // every key shares the wedged holder's bucket
  opt.request_ring_capacity = 8;
  ASSERT_TRUE(opt.Validate().ok());
  CotsSpaceSaving engine(opt);

  FailpointSpec stall;
  stall.action = FailpointSpec::Action::kSpin;
  stall.num = 1;
  stall.den = 1;
  stall.spin_iters = 400'000'000;  // ~100s of ms of wedge, strictly bounded
  stall.max_activations = 1;
  Failpoints::Global().Enable("summary.stall_drain", stall);

  std::atomic<bool> wedger_done{false};
  uint64_t wedger_counted = 0;
  std::thread wedger([&] {
    auto handle = engine.RegisterThread();
    ASSERT_NE(handle, nullptr);
    const ElementId one = 1;
    // Becomes the bucket holder and hits the armed stall inside its drain.
    if (handle->OfferBatch(&one, 1)) wedger_counted = 1;
    wedger_done.store(true);
  });

  // Wait until the wedge is live before offering against it.
  while (Failpoints::Global().Activations("summary.stall_drain") == 0 &&
         !wedger_done.load()) {
    std::this_thread::yield();
  }

  auto handle = engine.RegisterThread();
  ASSERT_NE(handle, nullptr);
  ElementId batch[64];
  for (uint64_t i = 0; i < 64; ++i) batch[i] = 100 + i;
  uint64_t offered = 0;
  bool returned_while_wedged = false;
  for (int iter = 0; iter < 64 && !wedger_done.load(); ++iter) {
    ASSERT_TRUE(handle->OfferBatch(batch, 64));
    offered += 64;
    // The stall sits before the holder's first drain, and each of the 64
    // new keys logs one request at the sentinel. All of them still pending
    // means no drain ran since the wedge began: the batch returned without
    // waiting on the holder — the liveness property under test.
    if (!wedger_done.load() && engine.queue_depth() >= 64) {
      returned_while_wedged = true;
      break;
    }
  }
  wedger.join();
  EXPECT_TRUE(returned_while_wedged)
      << "no batch returned while the consumer was wedged (wedge ended "
         "after " << offered << " offered)";

  engine.Stop();
  // Batches that spilled past the wedge are still counted in full.
  EXPECT_EQ(engine.stream_length(), offered + wedger_counted);
  std::string why;
  EXPECT_TRUE(engine.CheckInvariantsQuiescent(&why)) << why;
  Failpoints::Global().DisableAll();
}

// Liveness at the queue layer, no failpoints needed: with NO consumer ever
// draining, producers must still complete every enqueue (ring fills, then
// the lock-free spill list absorbs the rest) — nothing blocks and nothing
// is lost.
TEST(CotsChaosTest, ProducersNeverBlockWithoutConsumer) {
  constexpr int kProducers = 4;
  constexpr uint64_t kPerProducer = 5000;
  RequestQueue q(8);
  std::atomic<uint64_t> enqueued{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      uint64_t local = 0;
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        Request r{};
        r.kind = Request::Kind::kIncrement;
        r.key = static_cast<ElementId>(t);
        r.delta = 1;
        if (q.TryEnqueue(r)) ++local;
      }
      enqueued.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (std::thread& t : producers) t.join();
  // Every enqueue completed (the queue is open the whole time)...
  EXPECT_EQ(enqueued.load(), kProducers * kPerProducer);
  // ...everything past the ring's 8 slots via the spill path...
  EXPECT_EQ(q.size(), kProducers * kPerProducer);
  EXPECT_GT(q.size(), q.ring_capacity());
  // ...and a consumer can still recover every request afterwards.
  std::vector<Request> out;
  uint64_t drained = 0;
  while (q.DrainTo(&out) != 0) {
    drained += out.size();
    out.clear();
  }
  EXPECT_EQ(drained, kProducers * kPerProducer);
  EXPECT_TRUE(q.CloseIfEmpty());
}

// Property test: for EVERY shed schedule, folding shed weight into the
// published bounds keeps them sound against exact ground truth, across the
// fleet's kDisjoint merge: shed weight routed to home shards must stay
// sound through per-shard folding, cross-shard combination, and capacity
// truncation.
TEST(CotsShedPropertyTest, FleetMergedBoundsSoundForRandomShedSchedules) {
  constexpr int kSchedules = 16;
  constexpr int kBatches = 250;
  constexpr uint64_t kBatch = 16;
  for (int s = 0; s < kSchedules; ++s) {
    CotsFleetOptions opt;
    opt.num_shards = 2 + static_cast<size_t>(s % 3);
    opt.engine.capacity = 8;
    ASSERT_TRUE(opt.Validate().ok());
    CotsFleet fleet(opt);
    auto handle = fleet.RegisterThread();
    ASSERT_NE(handle, nullptr);
    Xoshiro256 rng(0xfeedbeef + 131 * static_cast<uint64_t>(s));
    ExactMap exact;
    ElementId batch[kBatch];
    uint64_t offered = 0;
    uint64_t shed = 0;
    for (int b = 0; b < kBatches; ++b) {
      for (uint64_t i = 0; i < kBatch; ++i) {
        const bool hot = rng.NextBounded(10) < 6;
        batch[i] = hot ? 1 + rng.NextBounded(4) : 500 + rng.NextBounded(200);
      }
      if (rng.NextBounded(4) < static_cast<uint64_t>(s % 4)) {
        ASSERT_TRUE(fleet.Shed(batch, kBatch));
        shed += kBatch;
      } else {
        ASSERT_TRUE(handle->OfferBatch(batch, kBatch));
        offered += kBatch;
      }
      for (ElementId e : batch) ++exact[e];
    }
    ASSERT_EQ(fleet.stream_length(), offered);
    ASSERT_EQ(fleet.shed_weight(), shed);

    const CounterSet view = fleet.GlobalView();
    EXPECT_EQ(view.shed_weight(), shed);
    EXPECT_EQ(view.stream_length(), offered);
    for (const auto& [key, truth] : exact) {
      const auto c = view.Lookup(key);
      if (c.has_value()) {
        EXPECT_LE(truth, c->count + c->error) << "schedule " << s;
        EXPECT_LE(c->count, truth + c->error) << "schedule " << s;
      } else {
        EXPECT_LE(truth, view.min_freq()) << "schedule " << s;
      }
    }
    fleet.Stop();
  }
}

}  // namespace
}  // namespace cots
