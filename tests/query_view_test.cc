// Epoch-published query view tests (DESIGN.md §11): staleness contract,
// wait-free acquisition through ThreadHandles, reclamation across refreshes,
// auto-refresh cadence, fleet global views, and the view.publish failpoint.
// The lease and publication tests are typed over both publishers: the
// engine (whose view ablation_query_threads measures) and the fleet (whose
// view serves traffic).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/published_view.h"
#include "core/query.h"
#include "cots/cots_fleet.h"
#include "cots/cots_space_saving.h"
#include "util/failpoint.h"
#include "util/metrics.h"

namespace cots {
namespace {

CotsSpaceSavingOptions SmallEngine(uint64_t view_refresh_interval = 0) {
  CotsSpaceSavingOptions options;
  options.capacity = 64;
  options.max_threads = 16;
  options.view_refresh_interval = view_refresh_interval;
  return options;
}

// The staleness bound, single writer: every offer acknowledged before
// RefreshQueryView() returns is visible to view queries after it.
TEST(QueryViewTest, ManualRefreshObservesAllPriorOffers) {
  CotsSpaceSaving engine(SmallEngine());
  auto handle = engine.RegisterThread();
  ASSERT_NE(handle, nullptr);

  constexpr uint64_t kKeys = 32;
  constexpr uint64_t kReps = 5;
  for (uint64_t rep = 0; rep < kReps; ++rep) {
    for (uint64_t k = 0; k < kKeys; ++k) ASSERT_TRUE(handle->Offer(k));
  }
  engine.RefreshQueryView();
  EXPECT_EQ(engine.query_view_sequence(), 1u);

  const PublishedView* view = handle->AcquireQueryView();
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->stream_length(), kKeys * kReps);
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

TEST(QueryViewTest, AutoRefreshPublishesOnInterval) {
  CotsSpaceSaving engine(SmallEngine(/*view_refresh_interval=*/256));
  auto handle = engine.RegisterThread();
  ASSERT_NE(handle, nullptr);

  std::vector<ElementId> batch(1024);
  for (size_t i = 0; i < batch.size(); ++i) batch[i] = i % 16;
  ASSERT_TRUE(handle->OfferBatch(batch.data(), batch.size()));
  EXPECT_GE(engine.query_view_sequence(), 1u);

  const PublishedView* view = handle->AcquireQueryView();
  ASSERT_NE(view, nullptr);
  EXPECT_GT(view->stream_length(), 0u);
  handle->ReleaseQueryView();
}

// The tsan centerpiece: ingest threads auto-refreshing while query threads
// hammer the wait-free point-query path through their own handles, plus a
// thread forcing manual refreshes. Any lock, data race, or use-after-free
// on the view path surfaces here.
TEST(QueryViewTest, ConcurrentIngestRefreshAndPointQueries) {
  CotsSpaceSavingOptions options = SmallEngine(/*view_refresh_interval=*/512);
  CotsSpaceSaving engine(options);

  constexpr int kIngestThreads = 2;
  constexpr int kQueryThreads = 2;
  constexpr int kBatches = 64;
  constexpr size_t kBatchLen = 256;

  std::atomic<bool> ingest_done{false};
  std::vector<std::thread> threads;

  for (int t = 0; t < kIngestThreads; ++t) {
    threads.emplace_back([&engine, t] {
      auto handle = engine.RegisterThread();
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
    threads.emplace_back([&engine, &ingest_done] {
      auto handle = engine.RegisterThread();
      ASSERT_NE(handle, nullptr);
      QueryEngine queries(handle.get());
      uint64_t answered = 0;
      while (!ingest_done.load(std::memory_order_acquire) || answered == 0) {
        for (ElementId e = 0; e < 16; ++e) {
          queries.IsElementFrequent(e, 0.01);
          queries.IsElementInTopK(e, 8);
        }
        answered += 32;
      }
      // Once a view exists, the acquired snapshot must be internally
      // consistent: stream_length covers the monitored mass.
      const PublishedView* view = handle->AcquireQueryView();
      if (view != nullptr) {
        uint64_t monitored = 0;
        for (size_t r = 0; r < view->size(); ++r) monitored += view->At(r).count;
        EXPECT_LE(monitored, view->stream_length());
        handle->ReleaseQueryView();
      }
    });
  }

  // A refresher thread exercising the claim-serialized manual path against
  // the auto-refreshers.
  threads.emplace_back([&engine, &ingest_done] {
    while (!ingest_done.load(std::memory_order_acquire)) {
      engine.RefreshQueryView();
      std::this_thread::yield();
    }
  });

  for (int t = 0; t < kIngestThreads; ++t) threads[t].join();
  ingest_done.store(true, std::memory_order_release);
  for (size_t t = kIngestThreads; t < threads.size(); ++t) threads[t].join();

  // Quiesced: one more refresh must capture the exact final stream length.
  engine.RefreshQueryView();
  auto reader = engine.RegisterThread();
  ASSERT_NE(reader, nullptr);
  const PublishedView* view = reader->AcquireQueryView();
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->stream_length(),
            uint64_t{kIngestThreads} * kBatches * kBatchLen);
  reader->ReleaseQueryView();
}

CotsFleetOptions SmallFleet(uint64_t view_refresh_interval = 0) {
  CotsFleetOptions options;
  options.num_shards = 4;
  options.engine.capacity = 32;
  options.engine.max_threads = 16;
  // Keep the whole fleet budget in merged views so per-key assertions see
  // every monitored counter (default truncates to engine.capacity).
  options.merge_capacity = 4 * 32;
  options.view_refresh_interval = view_refresh_interval;
  return options;
}

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
  for (uint64_t k = 0; k < kKeys; ++k) {
    const auto found = view->Find(k);
    ASSERT_TRUE(found.has_value()) << "key " << k;
    EXPECT_EQ(found->count, kReps);
  }
  handle->ReleaseQueryView();

  QueryEngine queries(handle.get());
  EXPECT_TRUE(queries.IsElementInTopK(0, kKeys));
  EXPECT_EQ(queries.KthFrequency(1), kReps);
}

TEST(FleetQueryViewTest, AutoRefreshAndConcurrentQueries) {
  CotsFleet fleet(SmallFleet(/*view_refresh_interval=*/512));

  constexpr int kBatches = 32;
  constexpr size_t kBatchLen = 256;
  std::atomic<bool> ingest_done{false};

  std::thread ingest([&fleet] {
    auto handle = fleet.RegisterThread();
    ASSERT_NE(handle, nullptr);
    std::vector<ElementId> batch(kBatchLen);
    uint64_t x = 0x2545f4914f6cdd1dULL;
    for (int b = 0; b < kBatches; ++b) {
      for (size_t i = 0; i < kBatchLen; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        batch[i] = (x & 1) ? (x % 8) : (x % 1024);
      }
      ASSERT_TRUE(handle->OfferBatch(batch.data(), batch.size()));
    }
  });

  std::thread query([&fleet, &ingest_done] {
    auto handle = fleet.RegisterThread();
    ASSERT_NE(handle, nullptr);
    QueryEngine queries(handle.get());
    while (!ingest_done.load(std::memory_order_acquire)) {
      for (ElementId e = 0; e < 8; ++e) {
        queries.IsElementFrequent(e, 0.01);
        queries.IsElementInTopK(e, 4);
      }
    }
  });

  ingest.join();
  ingest_done.store(true, std::memory_order_release);
  query.join();

  EXPECT_GE(fleet.query_view_sequence(), 1u);
  fleet.RefreshQueryView();
  auto reader = fleet.RegisterThread();
  ASSERT_NE(reader, nullptr);
  const PublishedView* view = reader->AcquireQueryView();
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->stream_length(), uint64_t{kBatches} * kBatchLen);
  reader->ReleaseQueryView();
}

// ---- Typed over both publishers ----

template <typename Publisher>
std::unique_ptr<Publisher> MakePublisher(uint64_t view_refresh_interval = 0) {
  if constexpr (std::is_same_v<Publisher, CotsFleet>) {
    return std::make_unique<CotsFleet>(SmallFleet(view_refresh_interval));
  } else {
    return std::make_unique<CotsSpaceSaving>(
        SmallEngine(view_refresh_interval));
  }
}

using Publishers = ::testing::Types<CotsSpaceSaving, CotsFleet>;

template <typename Publisher>
class QueryViewPublisherTest : public ::testing::Test {};
TYPED_TEST_SUITE(QueryViewPublisherTest, Publishers);

TYPED_TEST(QueryViewPublisherTest, NoViewBeforeFirstRefresh) {
  auto publisher = MakePublisher<TypeParam>();
  auto handle = publisher->RegisterThread();
  ASSERT_NE(handle, nullptr);
  EXPECT_EQ(publisher->query_view_sequence(), 0u);
  EXPECT_EQ(handle->AcquireQueryView(), nullptr);  // no Release on nullptr

  // Queries still work via the live-structure fallback.
  for (int i = 0; i < 100; ++i) handle->Offer(7);
  QueryEngine queries(handle.get());
  EXPECT_TRUE(queries.IsElementFrequent(7, 0.5));
  EXPECT_TRUE(queries.IsElementInTopK(7, 1));
}

// A reader's leased view must stay valid (immutable, unreclaimed) across
// any number of later publications; ASan would flag a grace-period bug.
TYPED_TEST(QueryViewPublisherTest, LeasedViewSurvivesLaterRefreshes) {
  auto publisher = MakePublisher<TypeParam>();
  auto writer = publisher->RegisterThread();
  auto reader = publisher->RegisterThread();
  ASSERT_NE(writer, nullptr);
  ASSERT_NE(reader, nullptr);

  for (int i = 0; i < 50; ++i) writer->Offer(11);
  publisher->RefreshQueryView();

  const PublishedView* leased = reader->AcquireQueryView();
  ASSERT_NE(leased, nullptr);
  const uint64_t leased_seq = leased->sequence();
  const uint64_t leased_n = leased->stream_length();

  // Publish many successors; each retires its predecessor through EBR.
  for (int round = 0; round < 32; ++round) {
    for (int i = 0; i < 10; ++i) writer->Offer(static_cast<ElementId>(round));
    publisher->RefreshQueryView();
  }
  EXPECT_EQ(publisher->query_view_sequence(), 33u);

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
TYPED_TEST(QueryViewPublisherTest, RefreshCounterAdvances) {
  const uint64_t before =
      MetricsRegistry::Global().Snapshot().CounterValue("view.refreshes");
  auto publisher = MakePublisher<TypeParam>();
  auto handle = publisher->RegisterThread();
  ASSERT_NE(handle, nullptr);
  handle->Offer(1);
  publisher->RefreshQueryView();
  publisher->RefreshQueryView();
  const uint64_t after =
      MetricsRegistry::Global().Snapshot().CounterValue("view.refreshes");
  EXPECT_GE(after - before, 2u);
}
#endif  // COTS_METRICS_ENABLED

#if COTS_FAILPOINTS_ENABLED
template <typename Publisher>
class FailpointQueryViewTest : public ::testing::Test {};
TYPED_TEST_SUITE(FailpointQueryViewTest, Publishers);

// Stretch the publication window: yielding at the view.publish site (after
// Build, before the exchange) widens the race between concurrent
// refreshers and readers. Correctness checks are the same as above — the
// point is to force the interleavings the failpoint exposes.
TYPED_TEST(FailpointQueryViewTest, YieldAtPublishSiteKeepsViewsConsistent) {
  FailpointSpec spec;
  spec.action = FailpointSpec::Action::kYield;
  spec.num = 1;
  spec.den = 1;
  Failpoints::Global().Enable("view.publish", spec);

  {
    auto publisher = MakePublisher<TypeParam>(/*view_refresh_interval=*/128);
    std::atomic<bool> done{false};

    std::thread ingest([&publisher] {
      auto handle = publisher->RegisterThread();
      ASSERT_NE(handle, nullptr);
      std::vector<ElementId> batch(128);
      for (int b = 0; b < 64; ++b) {
        for (size_t i = 0; i < batch.size(); ++i) {
          batch[i] = (b + i) % 32;
        }
        ASSERT_TRUE(handle->OfferBatch(batch.data(), batch.size()));
      }
    });
    std::thread refresher([&publisher, &done] {
      while (!done.load(std::memory_order_acquire)) {
        publisher->RefreshQueryView();
      }
    });
    std::thread reader([&publisher, &done] {
      auto handle = publisher->RegisterThread();
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
