// Epoch-published query view tests (DESIGN.md §11): the fleet's staleness
// contract, wait-free acquisition through ThreadHandles, reclamation across
// refreshes, auto-refresh racing manual refreshes and readers, and the
// view.publish failpoint. The CoTS engine publishes no view: its handles
// answer every query from the live structure.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/published_view.h"
#include "core/query.h"
#include "cots/cots_fleet.h"
#include "cots/cots_space_saving.h"
#include "util/failpoint.h"
#include "util/metrics.h"

namespace cots {
namespace {

TEST(QueryViewTest, EngineHandleTakesLivePath) {
  CotsSpaceSavingOptions options;
  options.capacity = 64;
  options.max_threads = 16;
  CotsSpaceSaving engine(options);
  auto handle = engine.RegisterThread();
  ASSERT_NE(handle, nullptr);
  EXPECT_EQ(handle->AcquireQueryView(), nullptr);  // no Release on nullptr

  for (int i = 0; i < 100; ++i) ASSERT_TRUE(handle->Offer(7));
  QueryEngine queries(handle.get());
  EXPECT_TRUE(queries.IsElementFrequent(7, 0.5));
  EXPECT_TRUE(queries.IsElementInTopK(7, 1));
  EXPECT_EQ(queries.KthFrequency(1), 100u);
}

CotsFleetOptions SmallFleet(uint64_t view_refresh_interval = 0) {
  CotsFleetOptions options;
  options.num_shards = 4;
  options.engine.capacity = 32;
  // Keep the whole fleet budget in merged views so per-key assertions see
  // every monitored counter (default truncates to engine.capacity), and a
  // view's counter mass equals its stream length.
  options.merge_capacity = 4 * 32;
  options.view_refresh_interval = view_refresh_interval;
  return options;
}

// The staleness bound, single writer: every offer acknowledged before
// RefreshQueryView() returns is visible to view queries after it.
TEST(FleetQueryViewTest, ManualRefreshCachesGlobalStreamLength) {
  CotsFleet fleet(SmallFleet());
  auto handle = fleet.RegisterThread();
  ASSERT_NE(handle, nullptr);

  constexpr uint64_t kKeys = 64;  // spread across the 4 shards
  constexpr uint64_t kReps = 3;
  for (uint64_t rep = 0; rep < kReps; ++rep) {
    for (uint64_t k = 0; k < kKeys; ++k) ASSERT_TRUE(handle->Offer(k));
  }
  fleet.RefreshQueryView();
  EXPECT_EQ(fleet.query_view_sequence(), 1u);

  const PublishedView* view = handle->AcquireQueryView();
  ASSERT_NE(view, nullptr);
  // The O(shards) stream-length fold was paid at refresh time and cached.
  EXPECT_EQ(view->stream_length(), kKeys * kReps);
  EXPECT_EQ(view->stream_length(), fleet.stream_length());
  EXPECT_EQ(view->size(), kKeys);
  for (uint64_t k = 0; k < kKeys; ++k) {
    const auto found = view->Find(k);
    ASSERT_TRUE(found.has_value()) << "key " << k;
    EXPECT_EQ(found->count, kReps);
  }
  handle->ReleaseQueryView();

  // The QueryEngine sees the same snapshot through the view fast path.
  QueryEngine queries(handle.get());
  EXPECT_EQ(queries.KthFrequency(1), kReps);
  EXPECT_EQ(queries.KthFrequency(kKeys), kReps);
  EXPECT_EQ(queries.KthFrequency(kKeys + 1), 0u);
  EXPECT_EQ(queries.TopK(kKeys).size(), kKeys);
  EXPECT_TRUE(queries.IsElementInTopK(0, kKeys));
  EXPECT_FALSE(queries.IsElementInTopK(kKeys + 99, kKeys));
}

// The tsan centerpiece: ingest threads auto-refreshing while query threads
// hammer the wait-free point-query path through their own handles, plus a
// thread forcing manual refreshes. Any lock, data race, or use-after-free
// on the view path surfaces here.
TEST(FleetQueryViewTest, AutoRefreshAndConcurrentQueries) {
  CotsFleet fleet(SmallFleet(/*view_refresh_interval=*/512));

  constexpr int kIngestThreads = 2;
  constexpr int kQueryThreads = 2;
  constexpr int kBatches = 64;
  constexpr size_t kBatchLen = 256;

  std::atomic<bool> ingest_done{false};
  std::vector<std::thread> threads;

  for (int t = 0; t < kIngestThreads; ++t) {
    threads.emplace_back([&fleet, t] {
      auto handle = fleet.RegisterThread();
      ASSERT_NE(handle, nullptr);
      std::vector<ElementId> batch(kBatchLen);
      uint64_t x = 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(t + 1);
      for (int b = 0; b < kBatches; ++b) {
        for (size_t i = 0; i < kBatchLen; ++i) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
          // Skew: half the stream is a handful of hot keys.
          batch[i] = (x & 1) ? (x % 8) : (x % 4096);
        }
        ASSERT_TRUE(handle->OfferBatch(batch.data(), batch.size()));
      }
    });
  }

  for (int t = 0; t < kQueryThreads; ++t) {
    threads.emplace_back([&fleet, &ingest_done] {
      auto handle = fleet.RegisterThread();
      ASSERT_NE(handle, nullptr);
      QueryEngine queries(handle.get());
      uint64_t answered = 0;
      while (!ingest_done.load(std::memory_order_acquire) || answered == 0) {
        for (ElementId e = 0; e < 16; ++e) {
          queries.IsElementFrequent(e, 0.01);
          queries.IsElementInTopK(e, 8);
        }
        answered += 32;
        // Every leased view is internally consistent. The fleet copies each
        // shard's length and counters together, and SmallFleet's merged
        // views keep every counter, so the counter mass is the length.
        const PublishedView* view = handle->AcquireQueryView();
        if (view != nullptr) {
          uint64_t monitored = 0;
          for (size_t r = 0; r < view->size(); ++r) {
            monitored += view->At(r).count;
          }
          EXPECT_EQ(monitored, view->stream_length());
          handle->ReleaseQueryView();
        }
      }
    });
  }

  // A refresher thread exercising the claim-serialized manual path against
  // the auto-refreshers.
  threads.emplace_back([&fleet, &ingest_done] {
    while (!ingest_done.load(std::memory_order_acquire)) {
      fleet.RefreshQueryView();
      std::this_thread::yield();
    }
  });

  for (int t = 0; t < kIngestThreads; ++t) threads[t].join();
  ingest_done.store(true, std::memory_order_release);
  for (size_t t = kIngestThreads; t < threads.size(); ++t) threads[t].join();

  // Quiesced: one more refresh must capture the exact final stream length.
  EXPECT_GE(fleet.query_view_sequence(), 1u);
  fleet.RefreshQueryView();
  auto reader = fleet.RegisterThread();
  ASSERT_NE(reader, nullptr);
  const PublishedView* view = reader->AcquireQueryView();
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->stream_length(),
            uint64_t{kIngestThreads} * kBatches * kBatchLen);
  reader->ReleaseQueryView();
}

TEST(FleetQueryViewTest, NoViewBeforeFirstRefresh) {
  CotsFleet fleet(SmallFleet());
  auto handle = fleet.RegisterThread();
  ASSERT_NE(handle, nullptr);
  EXPECT_EQ(fleet.query_view_sequence(), 0u);
  EXPECT_EQ(handle->AcquireQueryView(), nullptr);  // no Release on nullptr

  // Queries still work via the live-structure fallback.
  for (int i = 0; i < 100; ++i) handle->Offer(7);
  QueryEngine queries(handle.get());
  EXPECT_TRUE(queries.IsElementFrequent(7, 0.5));
  EXPECT_TRUE(queries.IsElementInTopK(7, 1));
}

// A reader's leased view must stay valid (immutable, unreclaimed) across
// any number of later publications; ASan would flag a grace-period bug.
TEST(FleetQueryViewTest, LeasedViewSurvivesLaterRefreshes) {
  CotsFleet fleet(SmallFleet());
  auto writer = fleet.RegisterThread();
  auto reader = fleet.RegisterThread();
  ASSERT_NE(writer, nullptr);
  ASSERT_NE(reader, nullptr);

  for (int i = 0; i < 50; ++i) writer->Offer(11);
  fleet.RefreshQueryView();

  const PublishedView* leased = reader->AcquireQueryView();
  ASSERT_NE(leased, nullptr);
  const uint64_t leased_seq = leased->sequence();
  const uint64_t leased_n = leased->stream_length();

  // Publish many successors; each retires its predecessor through EBR.
  for (int round = 0; round < 32; ++round) {
    for (int i = 0; i < 10; ++i) writer->Offer(static_cast<ElementId>(round));
    fleet.RefreshQueryView();
  }
  EXPECT_EQ(fleet.query_view_sequence(), 33u);

  // The leased snapshot is untouched by the churn.
  EXPECT_EQ(leased->sequence(), leased_seq);
  EXPECT_EQ(leased->stream_length(), leased_n);
  const auto found = leased->Find(11);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->count, 50u);
  reader->ReleaseQueryView();

  // A fresh acquisition sees the newest view.
  const PublishedView* fresh = reader->AcquireQueryView();
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->sequence(), 33u);
  reader->ReleaseQueryView();
}

#if COTS_METRICS_ENABLED
TEST(FleetQueryViewTest, RefreshCounterAdvances) {
  const uint64_t before =
      MetricsRegistry::Global().Snapshot().CounterValue("view.refreshes");
  CotsFleet fleet(SmallFleet());
  auto handle = fleet.RegisterThread();
  ASSERT_NE(handle, nullptr);
  handle->Offer(1);
  fleet.RefreshQueryView();
  fleet.RefreshQueryView();
  const uint64_t after =
      MetricsRegistry::Global().Snapshot().CounterValue("view.refreshes");
  EXPECT_GE(after - before, 2u);
}
#endif  // COTS_METRICS_ENABLED

#if COTS_FAILPOINTS_ENABLED
// Stretch the publication window: yielding at the view.publish site (after
// Build, before the exchange) widens the race between concurrent
// refreshers and readers. Correctness checks are the same as above — the
// point is to force the interleavings the failpoint exposes.
TEST(FailpointQueryViewTest, YieldAtPublishSiteKeepsViewsConsistent) {
  FailpointSpec spec;
  spec.action = FailpointSpec::Action::kYield;
  spec.num = 1;
  spec.den = 1;
  Failpoints::Global().Enable("view.publish", spec);

  {
    CotsFleet fleet(SmallFleet(/*view_refresh_interval=*/128));
    std::atomic<bool> done{false};

    std::thread ingest([&fleet] {
      auto handle = fleet.RegisterThread();
      ASSERT_NE(handle, nullptr);
      std::vector<ElementId> batch(128);
      for (int b = 0; b < 64; ++b) {
        for (size_t i = 0; i < batch.size(); ++i) {
          batch[i] = (b + i) % 32;
        }
        ASSERT_TRUE(handle->OfferBatch(batch.data(), batch.size()));
      }
    });
    std::thread refresher([&fleet, &done] {
      while (!done.load(std::memory_order_acquire)) {
        fleet.RefreshQueryView();
      }
    });
    std::thread reader([&fleet, &done] {
      auto handle = fleet.RegisterThread();
      ASSERT_NE(handle, nullptr);
      uint64_t last_seq = 0;
      while (!done.load(std::memory_order_acquire)) {
        const PublishedView* view = handle->AcquireQueryView();
        if (view != nullptr) {
          // Sequences only move forward, even with publishers yielding
          // inside the publication window.
          EXPECT_GE(view->sequence(), last_seq);
          last_seq = view->sequence();
          handle->ReleaseQueryView();
        }
      }
    });

    ingest.join();
    done.store(true, std::memory_order_release);
    refresher.join();
    reader.join();
  }

  Failpoints::Global().DisableAll();
}
#endif  // COTS_FAILPOINTS_ENABLED

}  // namespace
}  // namespace cots
