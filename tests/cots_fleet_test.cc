// CotsFleet tests: shard routing, bit-exact agreement with sequential
// FlatStreamSummary shards, merged-view equality with the serial disjoint
// merge, accuracy bounds and conservation versus ground truth under shed
// schedules, zero-loss Stop() races, the never-block hand-off, and a
// failpoint-perturbed drain stress. The fleet's contract is the engine's
// lifted one level: offers are counted in full on their home shards or
// refused in full, and the disjoint merge preserves the Space Saving
// guarantees globally.

#include "cots/cots_fleet.h"

#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <filesystem>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/flat_stream_summary.h"
#include "core/published_view.h"
#include "stream/exact_counter.h"
#include "stream/zipf_generator.h"
#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/random.h"

namespace cots {
namespace {

using ExactMap = std::unordered_map<ElementId, uint64_t>;

class CotsFleetTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::Global().DisableAll(); }

  static CotsFleetOptions MakeOptions(size_t shards, size_t capacity) {
    CotsFleetOptions opt;
    opt.num_shards = shards;
    opt.engine.capacity = capacity;
    EXPECT_TRUE(opt.Validate().ok());
    return opt;
  }

  // Space Saving conservation law per shard: the sum of monitored counts
  // equals the count of everything the shard accepted.
  static uint64_t SumShardCounts(const CotsFleet& fleet) {
    uint64_t sum = 0;
    for (size_t s = 0; s < fleet.num_shards(); ++s) {
      for (const Counter& c : fleet.shard(s).CountersDescending()) {
        sum += c.count;
      }
    }
    return sum;
  }

  // Ingests `s` through one handle in dispatch-sized batches.
  static void IngestBatches(CotsFleet* fleet, const Stream& s) {
    auto handle = fleet->RegisterThread();
    ASSERT_NE(handle, nullptr);
    for (size_t i = 0; i < s.size(); i += CotsFleet::kBatchDepth) {
      const size_t len = std::min(CotsFleet::kBatchDepth, s.size() - i);
      ASSERT_TRUE(handle->OfferBatch(s.data() + i, len));
    }
  }

  // The per-key sandwich, the unmonitored-key bound, and conservation of
  // a merged view against ground truth over the full offered stream.
  static void ExpectSoundAgainst(const CounterSet& view, const ExactMap& exact,
                                 uint64_t counted, uint64_t shed) {
    EXPECT_EQ(view.stream_length(), counted);
    EXPECT_EQ(view.shed_weight(), shed);
    for (const auto& [key, truth] : exact) {
      const auto c = view.Lookup(key);
      if (c.has_value()) {
        EXPECT_LE(truth, c->count + c->error) << "key " << key;
        EXPECT_LE(c->count, truth + c->error) << "key " << key;
      } else {
        EXPECT_LE(truth, view.min_freq()) << "unmonitored key " << key;
      }
    }
  }
};

TEST_F(CotsFleetTest, OptionsValidate) {
  CotsFleetOptions opt;
  opt.engine.capacity = 8;
  EXPECT_TRUE(opt.Validate().ok());
  EXPECT_GE(opt.num_shards, 1u);  // derived from hardware threads
  EXPECT_EQ(opt.merge_capacity, 8u);

  CotsFleetOptions bad;
  bad.num_shards = 5000;
  bad.engine.capacity = 8;
  EXPECT_FALSE(bad.Validate().ok());

  CotsFleetOptions bad_engine;
  bad_engine.num_shards = 2;
  bad_engine.engine.capacity = 0;
  EXPECT_FALSE(bad_engine.Validate().ok());
}

// The handle limit: the view epoch domain has a slot for each of
// kMaxHandles (255) handles beside the fleet's own query participant.
// Registering past the limit returns nullptr (ingest_server then reports
// "fleet session limit reached"), and a destroyed handle frees its slot.
// Every handle is registered from this thread; no thread is started.
TEST_F(CotsFleetTest, HandleLimitRefusesThenReusesFreedSlots) {
  CotsFleet fleet(MakeOptions(/*shards=*/2, /*capacity=*/8));
  std::vector<std::unique_ptr<CotsFleet::ThreadHandle>> handles;
  for (int i = 0; i < CotsFleet::kMaxHandles; ++i) {
    handles.push_back(fleet.RegisterThread());
    ASSERT_NE(handles.back(), nullptr) << "handle " << i;
  }
  EXPECT_EQ(handles.size(), 255u);
  EXPECT_EQ(fleet.RegisterThread(), nullptr);

  handles.pop_back();
  handles.push_back(fleet.RegisterThread());
  EXPECT_NE(handles.back(), nullptr);
  EXPECT_EQ(fleet.RegisterThread(), nullptr);
}

TEST_F(CotsFleetTest, ShardRoutingIsDeterministicAndInRange) {
  CotsFleet fleet(MakeOptions(/*shards=*/4, /*capacity=*/32));
  std::vector<uint64_t> hits(fleet.num_shards(), 0);
  for (ElementId e = 0; e < 10000; ++e) {
    const size_t s = fleet.ShardOf(e);
    ASSERT_LT(s, fleet.num_shards());
    EXPECT_EQ(s, fleet.ShardOf(e));  // stable
    ++hits[s];
  }
  // The mixed Lemire reduction spreads sequential keys roughly uniformly;
  // a collapsed shard means the router is not using the mixed bits.
  for (uint64_t h : hits) EXPECT_GT(h, 1000u);
}

// With one shard the fleet is a sequential FlatStreamSummary plus routing:
// identical counts, errors, bound, stream length, and lookups for the same
// input (the CoTS engine is no longer what a shard runs).
TEST_F(CotsFleetTest, SingleShardMatchesSingleEngine) {
  ZipfOptions zopt;
  zopt.alphabet_size = 500;
  zopt.alpha = 1.5;
  Stream s = MakeZipfStream(20000, zopt);

  FlatStreamSummary flat(64);
  for (ElementId e : s) flat.Offer(e);

  CotsFleet fleet(MakeOptions(/*shards=*/1, /*capacity=*/64));
  IngestBatches(&fleet, s);
  fleet.Stop();

  EXPECT_EQ(fleet.stream_length(), flat.stream_length());
  EXPECT_EQ(fleet.num_counters(), flat.size());
  EXPECT_EQ(fleet.MinFreq(), flat.MinFreq());
  EXPECT_EQ(fleet.shard(0).CountersDescending(), flat.CountersDescending());
  for (const Counter& c : flat.CountersDescending()) {
    const auto mirrored = fleet.Lookup(c.key);
    ASSERT_TRUE(mirrored.has_value()) << "key " << c.key;
    EXPECT_EQ(*mirrored, c) << "key " << c.key;
  }
}

// Differential oracle: a single-producer fleet applies each shard's
// substream in arrival order, so every shard must equal, bit for bit, a
// sequential FlatStreamSummary fed that substream — counters, errors and
// min_freq — both while running and after Stop().
TEST_F(CotsFleetTest, SingleProducerShardsMatchSequentialFlatBitForBit) {
  for (const double alpha : {0.8, 1.5}) {
    SCOPED_TRACE(alpha);
    ZipfOptions zopt;
    zopt.alphabet_size = 5000;
    zopt.alpha = alpha;
    Stream s = MakeZipfStream(50000, zopt);

    CotsFleet fleet(MakeOptions(/*shards=*/4, /*capacity=*/64));
    std::vector<std::unique_ptr<FlatStreamSummary>> ref;
    for (size_t i = 0; i < fleet.num_shards(); ++i) {
      ref.push_back(std::make_unique<FlatStreamSummary>(64));
    }
    auto handle = fleet.RegisterThread();
    ASSERT_NE(handle, nullptr);
    // Mixed batch sizes plus weighted single offers.
    Xoshiro256 rng(17);
    size_t pos = 0;
    while (pos < s.size()) {
      if (rng.NextBounded(8) == 0) {
        const uint64_t weight = 1 + rng.NextBounded(5);
        ASSERT_TRUE(handle->Offer(s[pos], weight));
        ref[fleet.ShardOf(s[pos])]->Offer(s[pos], weight);
        ++pos;
        continue;
      }
      const size_t len =
          std::min<size_t>(1 + rng.NextBounded(700), s.size() - pos);
      ASSERT_TRUE(handle->OfferBatch(s.data() + pos, len));
      for (size_t i = pos; i < pos + len; ++i) {
        ref[fleet.ShardOf(s[i])]->Offer(s[i]);
      }
      pos += len;
    }
    auto expect_equal = [&] {
      for (size_t i = 0; i < fleet.num_shards(); ++i) {
        const FlatStreamSummary& r = *ref[i];
        EXPECT_EQ(fleet.shard(i).stream_length(), r.stream_length());
        EXPECT_EQ(fleet.shard(i).num_counters(), r.size());
        EXPECT_EQ(fleet.shard(i).MinFreq(),
                  r.size() < r.capacity() ? 0 : r.MinFreq());
        EXPECT_EQ(fleet.shard(i).CountersDescending(), r.CountersDescending())
            << "shard " << i;
      }
    };
    expect_equal();
    handle.reset();
    fleet.Stop();
    expect_equal();
    for (size_t i = 0; i < fleet.num_shards(); ++i) {
      EXPECT_TRUE(fleet.shard(i).CheckInvariants()) << "shard " << i;
    }
  }
}

// Differential oracle: the published view (and GlobalView) equal the
// reference MergeSerial(..., kDisjoint) over the same per-shard snapshots,
// shed weights included, at merge capacities below, at and above the
// per-shard capacity.
TEST_F(CotsFleetTest, PublishedViewEqualsSerialDisjointMerge) {
  ZipfOptions zopt;
  zopt.alphabet_size = 3000;
  zopt.alpha = 1.1;
  Stream s = MakeZipfStream(40000, zopt);
  for (const size_t merge_capacity : {size_t{20}, size_t{48}, size_t{500}}) {
    SCOPED_TRACE(merge_capacity);
    CotsFleetOptions opt = MakeOptions(/*shards=*/3, /*capacity=*/48);
    opt.merge_capacity = merge_capacity;
    CotsFleet fleet(opt);
    {
      auto handle = fleet.RegisterThread();
      ASSERT_NE(handle, nullptr);
      for (size_t i = 0; i < s.size(); i += 256) {
        const size_t len = std::min<size_t>(256, s.size() - i);
        if ((i / 256) % 5 == 3) {
          ASSERT_TRUE(fleet.Shed(s.data() + i, len));
        } else {
          ASSERT_TRUE(handle->OfferBatch(s.data() + i, len));
        }
      }
    }
    fleet.Stop();
    ASSERT_GT(fleet.shed_weight(), 0u);

    std::vector<CounterSet> snapshots;
    std::vector<uint64_t> mins;
    std::vector<uint64_t> sheds;
    for (size_t i = 0; i < fleet.num_shards(); ++i) {
      snapshots.emplace_back(fleet.shard(i).CountersDescending(), 0,
                             fleet.shard(i).stream_length());
      mins.push_back(fleet.shard(i).MinFreq());
      sheds.push_back(fleet.shard(i).shed_weight());
    }
    std::vector<const FrequencySummary*> parts;
    for (const CounterSet& c : snapshots) parts.push_back(&c);
    const CounterSet reference = MergeSerial(parts, mins, merge_capacity,
                                             MergeMode::kDisjoint, &sheds);

    const CounterSet global = fleet.GlobalView();
    EXPECT_EQ(global.counters(), reference.counters());
    EXPECT_EQ(global.min_freq(), reference.min_freq());
    EXPECT_EQ(global.stream_length(), reference.stream_length());
    EXPECT_EQ(global.shed_weight(), reference.shed_weight());

    fleet.RefreshQueryView();
    auto reader = fleet.RegisterThread();
    ASSERT_NE(reader, nullptr);
    const PublishedView* view = reader->AcquireQueryView();
    ASSERT_NE(view, nullptr);
    EXPECT_EQ(view->CountersDescending(), reference.counters());
    EXPECT_EQ(view->min_freq(), reference.min_freq());
    EXPECT_EQ(view->stream_length(), reference.stream_length());
    EXPECT_EQ(view->shed_weight(), reference.shed_weight());
    reader->ReleaseQueryView();
  }
}

// Multi-shard, multi-thread ingest; after Stop the merged global view must
// keep the Space Saving contract versus exact ground truth: est >= true,
// est - err <= true for monitored keys, true <= bound for everything else.
TEST_F(CotsFleetTest, MergedViewBoundsHoldVersusExactCounter) {
  ZipfOptions zopt;
  zopt.alphabet_size = 2000;
  zopt.alpha = 1.4;
  const uint64_t n = 60000;
  Stream s = MakeZipfStream(n, zopt);
  ExactCounter exact(s);

  CotsFleet fleet(MakeOptions(/*shards=*/4, /*capacity=*/128));
  constexpr int kThreads = 3;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      auto handle = fleet.RegisterThread();
      ASSERT_NE(handle, nullptr);
      const uint64_t slice = n / kThreads;
      const uint64_t begin = slice * static_cast<uint64_t>(t);
      const uint64_t end = t == kThreads - 1 ? n : begin + slice;
      constexpr uint64_t kBatch = 512;
      for (uint64_t i = begin; i < end; i += kBatch) {
        const uint64_t len = std::min(kBatch, end - i);
        ASSERT_TRUE(handle->OfferBatch(s.data() + i, len));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  fleet.Stop();

  EXPECT_EQ(fleet.stream_length(), n);
  EXPECT_EQ(SumShardCounts(fleet), n);  // conservation across all shards

  CounterSet merged = fleet.GlobalView();
  EXPECT_EQ(merged.stream_length(), n);
  ASSERT_GT(merged.num_counters(), 0u);
  for (const Counter& c : merged.counters()) {
    const uint64_t truth = exact.Count(c.key);
    EXPECT_GE(c.count, truth) << "key " << c.key;
    EXPECT_LE(c.GuaranteedCount(), truth) << "key " << c.key;
  }
  for (const auto& [key, truth] : exact.counts()) {
    if (!merged.Lookup(key).has_value()) {
      EXPECT_LE(truth, merged.min_freq()) << "key " << key;
    }
  }
  // Point lookups route to the home shard and obey the same bounds.
  for (const Counter& c : merged.counters()) {
    const auto direct = fleet.Lookup(c.key);
    ASSERT_TRUE(direct.has_value());
    EXPECT_GE(direct->count, exact.Count(c.key));
  }
}

// Differential oracle under contention: producers race each other (so
// runs are handed off between them) while randomly shedding batches; the
// merged view must keep the sandwich and the min_freq bound over the full
// offered stream, and counted + shed == offered exactly.
TEST_F(CotsFleetTest, MultiProducerShedSchedulesStaySoundAndConserve) {
  constexpr int kSchedules = 6;
  constexpr int kThreads = 3;
  constexpr int kBatches = 300;
  constexpr uint64_t kBatch = 96;
  for (int sched = 0; sched < kSchedules; ++sched) {
    SCOPED_TRACE(sched);
    CotsFleetOptions opt = MakeOptions(/*shards=*/3, /*capacity=*/24);
    opt.view_refresh_interval = 1024;
    CotsFleet fleet(opt);
    std::mutex mu;
    ExactMap exact;
    std::atomic<uint64_t> offered{0};
    std::atomic<uint64_t> shed{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        auto handle = fleet.RegisterThread();
        ASSERT_NE(handle, nullptr);
        Xoshiro256 rng(0x5eed + 7919 * static_cast<uint64_t>(sched * 8 + t));
        ExactMap local;
        ElementId batch[kBatch];
        for (int b = 0; b < kBatches; ++b) {
          for (uint64_t i = 0; i < kBatch; ++i) {
            const bool hot = rng.NextBounded(10) < 6;
            batch[i] = hot ? 1 + rng.NextBounded(6) : 100 + rng.NextBounded(900);
          }
          // Shed fraction varies per schedule: none, sparse, heavy.
          if (rng.NextBounded(6) < static_cast<uint64_t>(sched % 3)) {
            ASSERT_TRUE(fleet.Shed(batch, kBatch));
            shed.fetch_add(kBatch, std::memory_order_relaxed);
          } else {
            ASSERT_NE(handle->OfferBatchBounded(batch, kBatch),
                      OfferOutcome::kRefused);
            offered.fetch_add(kBatch, std::memory_order_relaxed);
          }
          for (ElementId e : batch) ++local[e];
        }
        std::lock_guard<std::mutex> lock(mu);
        for (const auto& [k, v] : local) exact[k] += v;
      });
    }
    for (std::thread& w : workers) w.join();
    fleet.Stop();

    ASSERT_EQ(fleet.stream_length(), offered.load());
    ASSERT_EQ(fleet.shed_weight(), shed.load());
    ASSERT_EQ(SumShardCounts(fleet), offered.load());
    ExpectSoundAgainst(fleet.GlobalView(), exact, offered.load(), shed.load());
    for (size_t i = 0; i < fleet.num_shards(); ++i) {
      EXPECT_TRUE(fleet.shard(i).CheckInvariants()) << "shard " << i;
    }
  }
}

TEST_F(CotsFleetTest, StopRefusesOffersWhole) {
  CotsFleet fleet(MakeOptions(/*shards=*/2, /*capacity=*/16));
  auto handle = fleet.RegisterThread();
  ASSERT_NE(handle, nullptr);
  const ElementId batch[4] = {1, 2, 3, 4};
  ASSERT_TRUE(handle->OfferBatch(batch, 4));
  fleet.Stop();
  EXPECT_EQ(fleet.state(), EngineState::kStopped);
  EXPECT_FALSE(handle->Offer(7));
  EXPECT_FALSE(handle->OfferBatch(batch, 4));
  EXPECT_FALSE(fleet.Shed(batch, 4));
  EXPECT_EQ(fleet.stream_length(), 4u);  // nothing from the refused calls
  EXPECT_EQ(fleet.shed_weight(), 0u);
  fleet.Stop();  // idempotent
  EXPECT_EQ(fleet.state(), EngineState::kStopped);
}

// Workers race Stop() with multi-shard batches: every batch is either
// counted in full across its shards or refused in full, so the frozen
// fleet's stream length equals exactly the per-thread accepted totals.
TEST_F(CotsFleetTest, StopWhileIngestingNeverHalfCountsBatches) {
  CotsFleet fleet(MakeOptions(/*shards=*/3, /*capacity=*/32));
  constexpr int kThreads = 3;
  constexpr uint64_t kBatch = 64;
  std::atomic<uint64_t> accepted{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      auto handle = fleet.RegisterThread();
      ASSERT_NE(handle, nullptr);
      Xoshiro256 rng(7919u * static_cast<uint64_t>(t + 1));
      ElementId batch[kBatch];
      uint64_t local = 0;
      for (int iter = 0; iter < 20000; ++iter) {
        for (uint64_t i = 0; i < kBatch; ++i) {
          batch[i] = 1 + rng.NextBounded(5000);
        }
        if (!handle->OfferBatch(batch, kBatch)) break;  // refused whole
        local += kBatch;
      }
      accepted.fetch_add(local, std::memory_order_relaxed);
    });
  }
  while (fleet.stream_length() < 20 * kBatch) std::this_thread::yield();
  fleet.Stop();
  EXPECT_EQ(fleet.state(), EngineState::kStopped);
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(fleet.stream_length(), accepted.load());
  EXPECT_EQ(SumShardCounts(fleet), accepted.load());
  for (size_t s = 0; s < fleet.num_shards(); ++s) {
    EXPECT_TRUE(fleet.shard(s).CheckInvariants()) << "shard " << s;
  }
}

TEST_F(CotsFleetTest, ConcurrentStopCallersAllObserveFrozenFleet) {
  CotsFleet fleet(MakeOptions(/*shards=*/2, /*capacity=*/16));
  {
    auto handle = fleet.RegisterThread();
    ASSERT_NE(handle, nullptr);
    for (ElementId e = 0; e < 100; ++e) ASSERT_TRUE(handle->Offer(e));
  }
  std::vector<std::thread> stoppers;
  for (int t = 0; t < 4; ++t) {
    stoppers.emplace_back([&] {
      fleet.Stop();
      // Every caller returns post-quiesce, whoever won the transition.
      EXPECT_EQ(fleet.state(), EngineState::kStopped);
      EXPECT_EQ(fleet.stream_length(), 100u);
    });
  }
  for (std::thread& t : stoppers) t.join();
}

// The hand-off's Dekker pairing: once every producer's offers have
// returned, every handed-off run has been applied by somebody — nothing
// waits in an inbox for a Stop() that has not happened yet. Each round
// starts producers together on few shards and checks the moment the last
// one returns.
TEST_F(CotsFleetTest, HandedOffRunsAreAppliedBeforeProducersFinish) {
  if (COTS_FAILPOINTS_ENABLED) {
    // Widen the window between a holder's last drain and its release,
    // where the other producers' runs land.
    FailpointSpec hold;
    hold.action = FailpointSpec::Action::kSpin;
    hold.num = 1;
    hold.den = 2;
    hold.spin_iters = 2000;
    Failpoints::Global().Enable("fleet.shard_hold", hold);
  }
  constexpr int kRounds = 1000;
  constexpr int kThreads = 4;
  constexpr int kBatches = 1;
  constexpr uint64_t kBatch = 64;
  const uint64_t handoffs_before =
      MetricsRegistry::Global().Snapshot().CounterValue("fleet.handoffs");
  for (int round = 0; round < kRounds; ++round) {
    CotsFleet fleet(MakeOptions(/*shards=*/1 + round % 2, /*capacity=*/16));
    std::atomic<int> ready{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        auto handle = fleet.RegisterThread();
        ASSERT_NE(handle, nullptr);
        Xoshiro256 rng(31u * static_cast<uint64_t>(round * kThreads + t) + 1);
        ElementId batch[kBatch];
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        for (int b = 0; b < kBatches; ++b) {
          for (uint64_t i = 0; i < kBatch; ++i) {
            batch[i] = 1 + rng.NextBounded(64);
          }
          ASSERT_TRUE(handle->OfferBatch(batch, kBatch));
        }
      });
    }
    for (std::thread& w : workers) w.join();
    ASSERT_EQ(fleet.stream_length(), uint64_t{kThreads} * kBatches * kBatch)
        << "round " << round;
    for (size_t s = 0; s < fleet.num_shards(); ++s) {
      ASSERT_EQ(fleet.shard(s).queue_depth(), 0u) << "round " << round;
    }
  }
  if (COTS_METRICS_ENABLED && std::thread::hardware_concurrency() > 1) {
    // The property is vacuous unless runs were actually handed off.
    EXPECT_GT(
        MetricsRegistry::Global().Snapshot().CounterValue("fleet.handoffs"),
        handoffs_before);
  }
}

// The fleet runs only on its callers' threads: constructing, feeding,
// publishing and stopping it leaves the process thread count unchanged.
TEST_F(CotsFleetTest, FleetStartsNoThreads) {
  auto threads = [] {
    std::error_code ec;
    size_t n = 0;
    for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
         !ec && it != end; it.increment(ec)) {
      ++n;
    }
    return n;
  };
  const size_t before = threads();
  if (before == 0) GTEST_SKIP() << "no /proc/self/task on this platform";
  CotsFleetOptions opt = MakeOptions(/*shards=*/4, /*capacity=*/16);
  opt.view_refresh_interval = 64;
  CotsFleet fleet(opt);
  auto handle = fleet.RegisterThread();
  ASSERT_NE(handle, nullptr);
  std::vector<ElementId> batch(512);
  for (size_t i = 0; i < batch.size(); ++i) batch[i] = i % 97;
  ASSERT_TRUE(handle->OfferBatch(batch.data(), batch.size()));
  fleet.RefreshQueryView();
  EXPECT_EQ(threads(), before);
  handle.reset();
  fleet.Stop();
  EXPECT_EQ(threads(), before);
}

// Superseded views are freed within a few publishes, and a registered
// reader that pins nothing does not hold them back. 256 manual refreshes of
// a 1000-counter view must leave the heap within 1 MB of where it started;
// an epoch domain that advances once per 64 retires keeps 64-128
// superseded views of 32 KB or more waiting for reclamation.
TEST_F(CotsFleetTest, SupersededViewsAreFreedWithinAFewPublishes) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the sanitizer's allocator hides heap use from mallinfo2";
#else
  CotsFleet fleet(MakeOptions(/*shards=*/4, /*capacity=*/1000));
  auto reader = fleet.RegisterThread();
  ASSERT_NE(reader, nullptr);
  {
    auto producer = fleet.RegisterThread();
    ASSERT_NE(producer, nullptr);
    std::vector<ElementId> batch(512);
    for (ElementId base = 0; base < 20000; base += batch.size()) {
      for (size_t i = 0; i < batch.size(); ++i) batch[i] = base + i;
      ASSERT_TRUE(producer->OfferBatch(batch.data(), batch.size()));
    }
  }
  fleet.RefreshQueryView();
  const auto heap_bytes = [] {
    const struct mallinfo2 mi = ::mallinfo2();
    return mi.uordblks + mi.hblkhd;
  };
  const size_t before = heap_bytes();
  for (int i = 0; i < 256; ++i) fleet.RefreshQueryView();
  const size_t after = heap_bytes();
  EXPECT_LT(after, before + (size_t{1} << 20))
      << "heap grew by " << (after - before) << " bytes over 256 publishes";
  const PublishedView* view = reader->AcquireQueryView();
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->size(), 1000u);
  reader->ReleaseQueryView();
#endif
}

// Never-block regression: a holder wedges (bounded spin) inside a shard's
// critical section while another producer keeps offering into that shard.
// The producer must never wait — its runs go to the inbox, and once the
// inbox is more than a dispatch batch deep the bounded offer reports
// kOverloaded — and every handed-off run is counted once the wedge ends.
TEST(CotsFleetNeverBlockTest, WedgedHolderYieldsOverloadedNotBlocked) {
  if (!COTS_FAILPOINTS_ENABLED) {
    GTEST_SKIP() << "build with -DCOTS_FAILPOINTS=ON to run injection";
  }
  CotsFleetOptions opt;
  opt.num_shards = 2;
  opt.engine.capacity = 64;
  ASSERT_TRUE(opt.Validate().ok());
  CotsFleet fleet(opt);

  // A full dispatch batch whose every key is homed on shard 0.
  std::vector<ElementId> batch;
  for (ElementId e = 1; batch.size() < CotsFleet::kBatchDepth; ++e) {
    if (fleet.ShardOf(e) == 0) batch.push_back(e);
  }

  FailpointSpec stall;
  stall.action = FailpointSpec::Action::kSpin;
  stall.spin_iters = 50'000'000;  // ~1 s of wedge, strictly bounded
  stall.max_activations = 1;
  Failpoints::Global().Enable("fleet.shard_hold", stall);

  std::atomic<bool> wedger_done{false};
  std::thread wedger([&] {
    auto handle = fleet.RegisterThread();
    ASSERT_NE(handle, nullptr);
    ASSERT_TRUE(handle->Offer(batch[0]));  // takes shard 0, then wedges
    wedger_done.store(true);
  });
  while (Failpoints::Global().Activations("fleet.shard_hold") == 0) {
    std::this_thread::yield();
  }

  auto handle = fleet.RegisterThread();
  ASSERT_NE(handle, nullptr);
  uint64_t offered = 0;
  bool saw_overloaded = false;
  // Completing this loop while the holder is still wedged IS the liveness
  // property under test.
  for (int iter = 0; iter < 8 && !saw_overloaded; ++iter) {
    const OfferOutcome outcome =
        handle->OfferBatchBounded(batch.data(), batch.size());
    ASSERT_NE(outcome, OfferOutcome::kRefused);
    offered += batch.size();
    saw_overloaded = outcome == OfferOutcome::kOverloaded;
  }
  const bool wedge_was_live = !wedger_done.load();
  EXPECT_TRUE(wedge_was_live) << "the wedge ended before the offers did";
  EXPECT_TRUE(saw_overloaded);
  EXPECT_GE(fleet.deadline_misses(), 1u);
  EXPECT_GE(fleet.shard(0).queue_depth(), 2 * CotsFleet::kBatchDepth);
  wedger.join();

  // The holder drained the inbox on release: everything is counted.
  EXPECT_EQ(fleet.stream_length(), offered + 1);
  EXPECT_EQ(fleet.shard(0).queue_depth(), 0u);
  handle.reset();
  fleet.Stop();
  EXPECT_EQ(fleet.stream_length(), offered + 1);
  EXPECT_TRUE(fleet.shard(0).CheckInvariants());
}

// 100 short rounds racing ingest against Stop() with the router, the
// shard critical section, the hand-off retry and the drain perturbed.
// Zero loss and no half-counted batch, every round: accepted == frozen
// stream length == sum of monitored counts, and every inbox is empty.
TEST(CotsFleetFailpointStressTest, ZeroLossAcrossHundredPerturbedDrainRounds) {
  if (!COTS_FAILPOINTS_ENABLED) {
    GTEST_SKIP() << "build with -DCOTS_FAILPOINTS=ON to run injection";
  }

  constexpr int kRounds = 100;
  constexpr int kThreads = 3;
  constexpr uint64_t kBatch = 48;

  for (int round = 0; round < kRounds; ++round) {
    const uint64_t round_seed = 0x9e3779b9u * static_cast<uint64_t>(round) + 1;

    FailpointSpec yield;
    yield.action = FailpointSpec::Action::kYield;
    yield.num = 1;
    yield.den = 4;
    yield.seed = round_seed;
    Failpoints::Global().Enable("fleet.dispatch_shard", yield);
    Failpoints::Global().Enable("fleet.handoff_retry", yield);
    Failpoints::Global().Enable("fleet.drain_wait", yield);
    Failpoints::Global().Enable("fleet.stop_drain", yield);

    FailpointSpec hold;
    hold.action = FailpointSpec::Action::kSpin;
    hold.num = 1;
    hold.den = 3;
    hold.spin_iters = 2000;
    hold.seed = round_seed ^ 0xdeadbeef;
    Failpoints::Global().Enable("fleet.shard_hold", hold);

    CotsFleetOptions opt;
    opt.num_shards = 2 + static_cast<size_t>(round % 2);
    opt.engine.capacity = 8;
    opt.view_refresh_interval = round % 3 == 0 ? 256 : 0;
    ASSERT_TRUE(opt.Validate().ok());
    CotsFleet fleet(opt);

    std::atomic<uint64_t> accepted{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        auto handle = fleet.RegisterThread();
        ASSERT_NE(handle, nullptr);
        Xoshiro256 rng(round_seed * 31 + static_cast<uint64_t>(t));
        ElementId batch[kBatch];
        uint64_t local = 0;
        for (int iter = 0; iter < 4000; ++iter) {
          for (uint64_t i = 0; i < kBatch; ++i) {
            const bool hot = rng.NextBounded(10) < 6;
            batch[i] = hot ? 1 + rng.NextBounded(4)
                           : 1'000'000 + rng.NextBounded(600);
          }
          if (!handle->OfferBatch(batch, kBatch)) break;
          local += kBatch;
        }
        accepted.fetch_add(local, std::memory_order_relaxed);
      });
    }
    while (fleet.stream_length() < 8 * kBatch) std::this_thread::yield();
    fleet.Stop();
    for (std::thread& w : workers) w.join();

    ASSERT_EQ(fleet.stream_length(), accepted.load()) << "round " << round;
    uint64_t conserved = 0;
    for (size_t s = 0; s < fleet.num_shards(); ++s) {
      ASSERT_TRUE(fleet.shard(s).CheckInvariants())
          << "round " << round << " shard " << s;
      for (const Counter& c : fleet.shard(s).CountersDescending()) {
        conserved += c.count;
      }
    }
    ASSERT_EQ(conserved, accepted.load()) << "round " << round;

    Failpoints::Global().DisableAll();
  }
}

}  // namespace
}  // namespace cots
