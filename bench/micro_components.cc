// Google-benchmark micro benchmarks for the load-bearing components: zipf
// sampling, the delegation hash table's fast paths, request queue ops, EBR
// guard overhead, the sequential Stream Summary, the spinlock, and the
// fleet's layers on one core (batch coalescing, one producer's OfferBatch
// against a bare FlatStreamSummary pass over the same stream). Run in
// Release mode; absolute numbers are machine-specific, relative costs are
// what matters (e.g. Delegate ~= a hash probe + one fetch_add).

#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <vector>

#include "common/bench_common.h"
#include "core/count_min_sketch.h"
#include "core/count_sketch.h"
#include "core/flat_stream_summary.h"
#include "core/space_saving.h"
#include "cots/batch_coalescer.h"
#include "cots/cots_fleet.h"
#include "cots/cots_space_saving.h"
#include "cots/delegation_hash_table.h"
#include "cots/request.h"
#include "stream/zipf_generator.h"
#include "util/ebr.h"
#include "util/spinlock.h"

namespace cots {
namespace {

void BM_ZipfSample(benchmark::State& state) {
  ZipfOptions opt;
  opt.alphabet_size = 5'000'000;
  opt.alpha = static_cast<double>(state.range(0)) / 10.0;
  ZipfGenerator gen(opt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.Next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample)->Arg(15)->Arg(20)->Arg(30);

void BM_SpinLockUncontended(benchmark::State& state) {
  SpinLock lock;
  for (auto _ : state) {
    lock.lock();
    lock.unlock();
  }
}
BENCHMARK(BM_SpinLockUncontended);

void BM_EpochGuardEnterExit(benchmark::State& state) {
  EpochManager manager(8);
  EpochParticipant* p = manager.Register();
  for (auto _ : state) {
    EpochGuard guard(p);
    benchmark::DoNotOptimize(p);
  }
  manager.Unregister(p);
}
BENCHMARK(BM_EpochGuardEnterExit);

void BM_RequestQueueEnqueueDrain(benchmark::State& state) {
  RequestQueue queue;
  Request r;
  r.kind = Request::Kind::kIncrement;
  r.delta = 1;
  std::vector<Request> out;
  for (auto _ : state) {
    for (int i = 0; i < 16; ++i) queue.TryEnqueue(r);
    out.clear();
    queue.DrainTo(&out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_RequestQueueEnqueueDrain);

void BM_HashDelegateRelinquish(benchmark::State& state) {
  EpochManager manager(8);
  DelegationHashTableOptions opt;
  opt.buckets = 4096;
  DelegationHashTable table(opt, &manager);
  EpochParticipant* p = manager.Register();
  ZipfOptions zopt;
  zopt.alphabet_size = 1000;
  zopt.alpha = 2.0;
  ZipfGenerator gen(zopt);
  for (auto _ : state) {
    EpochGuard guard(p);
    auto r = table.Delegate(gen.Next());
    if (r.owner) table.Relinquish(r.entry);
  }
  state.SetItemsProcessed(state.iterations());
  manager.Unregister(p);
}
BENCHMARK(BM_HashDelegateRelinquish);

void BM_HashFindHit(benchmark::State& state) {
  EpochManager manager(8);
  DelegationHashTableOptions opt;
  opt.buckets = 4096;
  DelegationHashTable table(opt, &manager);
  EpochParticipant* p = manager.Register();
  {
    EpochGuard guard(p);
    for (ElementId e = 1; e <= 1000; ++e) {
      auto r = table.Delegate(e);
      if (r.owner) table.Relinquish(r.entry);
    }
  }
  ElementId e = 1;
  for (auto _ : state) {
    EpochGuard guard(p);
    benchmark::DoNotOptimize(table.Find(e));
    e = e % 1000 + 1;
  }
  state.SetItemsProcessed(state.iterations());
  manager.Unregister(p);
}
BENCHMARK(BM_HashFindHit);

void BM_SequentialSpaceSavingOffer(benchmark::State& state) {
  SpaceSavingOptions opt;
  opt.capacity = 1000;
  if (!opt.Validate().ok()) std::abort();
  SpaceSaving engine(opt);
  ZipfOptions zopt;
  zopt.alphabet_size = 100'000;
  zopt.alpha = static_cast<double>(state.range(0)) / 10.0;
  ZipfGenerator gen(zopt);
  for (auto _ : state) {
    engine.Offer(gen.Next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SequentialSpaceSavingOffer)->Arg(15)->Arg(30);

void BM_CotsOfferSingleThread(benchmark::State& state) {
  CotsSpaceSavingOptions opt;
  opt.capacity = 1000;
  if (!opt.Validate().ok()) std::abort();
  CotsSpaceSaving engine(opt);
  auto handle = engine.RegisterThread();
  ZipfOptions zopt;
  zopt.alphabet_size = 100'000;
  zopt.alpha = static_cast<double>(state.range(0)) / 10.0;
  ZipfGenerator gen(zopt);
  for (auto _ : state) {
    handle->Offer(gen.Next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CotsOfferSingleThread)->Arg(15)->Arg(30);

// The batched ingest pipeline: batch size x prefetch distance x coalescing.
// Args: {alpha*10, batch_size, prefetch_distance, coalesce}. The stream is
// pre-materialized so the generator cost stays out of the loop; items
// processed counts stream elements, so rates are directly comparable with
// BM_CotsOfferSingleThread.
void BM_CotsOfferBatchPipeline(benchmark::State& state) {
  CotsSpaceSavingOptions opt;
  opt.capacity = 1000;
  if (!opt.Validate().ok()) std::abort();
  CotsSpaceSaving engine(opt);
  auto handle = engine.RegisterThread();
  ZipfOptions zopt;
  zopt.alphabet_size = 100'000;
  zopt.alpha = static_cast<double>(state.range(0)) / 10.0;
  ZipfGenerator gen(zopt);
  const size_t batch_size = static_cast<size_t>(state.range(1));
  std::vector<ElementId> batch(batch_size);
  BatchIngestOptions options;
  options.prefetch_distance = static_cast<size_t>(state.range(2));
  options.coalesce = state.range(3) != 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (ElementId& e : batch) e = gen.Next();
    state.ResumeTiming();
    handle->OfferBatch(batch.data(), batch.size(), options);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch_size));
}
BENCHMARK(BM_CotsOfferBatchPipeline)
    // Batch size sweep at the headline skew (prefetch 8, coalescing on).
    ->Args({15, 16, 8, 1})
    ->Args({15, 64, 8, 1})
    ->Args({15, 256, 8, 1})
    // Prefetch distance sweep at batch 256.
    ->Args({15, 256, 0, 1})
    ->Args({15, 256, 4, 1})
    ->Args({15, 256, 16, 1})
    // Coalescing off: isolates the prefetch win (and at low skew, where
    // coalescing rarely merges anything, its bookkeeping cost).
    ->Args({15, 256, 8, 0})
    ->Args({11, 256, 8, 1})
    ->Args({11, 256, 8, 0});

// The fleet's layers on one core, over a pre-generated zipf stream of 2^20
// keys from a 1M-key alphabet (perfbench's alphabet), fed in 512-key
// batches; rates count stream elements. Use these rows for layer A/B runs
// (DESIGN.md §9.1).
Stream FleetLayerStream(int alpha_x10) {
  ZipfOptions zopt;
  zopt.alphabet_size = 1'000'000;
  zopt.alpha = static_cast<double>(alpha_x10) / 10.0;
  return MakeZipfStream(size_t{1} << 20, zopt);
}

// Args: {alpha*10, merge}. merge 0 is the fleet's CoalesceIfRepeated (at
// α 0.8 only the 64-key sample runs); merge 1 is the engine's Merge.
void BM_BatchCoalescer(benchmark::State& state) {
  const Stream stream = FleetLayerStream(static_cast<int>(state.range(0)));
  const bool merge = state.range(1) != 0;
  constexpr size_t kBatch = CotsFleet::kBatchDepth;
  BatchCoalescer coalescer;
  size_t pos = 0;
  for (auto _ : state) {
    if (merge) {
      coalescer.Merge(stream.data() + pos, kBatch);
    } else {
      benchmark::DoNotOptimize(
          coalescer.CoalesceIfRepeated(stream.data() + pos, kBatch));
    }
    benchmark::DoNotOptimize(coalescer.weighted().data());
    pos = (pos + kBatch) % stream.size();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kBatch));
}
BENCHMARK(BM_BatchCoalescer)
    ->Args({8, 0})
    ->Args({15, 0})
    ->Args({8, 1})
    ->Args({15, 1});

// The per-core roofline the fleet is judged against: sequential
// FlatStreamSummary passes (capacity 1000 each) offered the stream key by
// key. With several summaries each key goes to one by the high bits of
// key * count (the stream's keys are already mixed), which separates the
// cost of a fleet's larger summary state from its routing. Args:
// {alpha*10, summaries}.
void BM_FlatStreamSummaryPass(benchmark::State& state) {
  const Stream stream = FleetLayerStream(static_cast<int>(state.range(0)));
  const size_t count = static_cast<size_t>(state.range(1));
  std::vector<std::unique_ptr<FlatStreamSummary>> summaries;
  for (size_t i = 0; i < count; ++i) {
    summaries.push_back(std::make_unique<FlatStreamSummary>(1000));
  }
  size_t pos = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < CotsFleet::kBatchDepth; ++i) {
      const ElementId e = stream[pos + i];
      const size_t home = static_cast<size_t>(
          (static_cast<unsigned __int128>(e) * count) >> 64);
      summaries[home]->Offer(e);
    }
    pos = (pos + CotsFleet::kBatchDepth) % stream.size();
  }
  benchmark::DoNotOptimize(summaries[0]->stream_length());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(CotsFleet::kBatchDepth));
}
BENCHMARK(BM_FlatStreamSummaryPass)
    ->Args({8, 1})
    ->Args({8, 4})
    ->Args({15, 1})
    ->Args({15, 4});

// One producer's CotsFleet::OfferBatch (capacity 1000 per shard): it owns
// and holds every shard, so this is route + coalesce + apply with no
// hand-off. Args: {alpha*10, shards}.
void BM_FleetOfferBatch(benchmark::State& state) {
  const Stream stream = FleetLayerStream(static_cast<int>(state.range(0)));
  CotsFleetOptions opt;
  opt.num_shards = static_cast<size_t>(state.range(1));
  opt.engine.capacity = 1000;
  if (!opt.Validate().ok()) std::abort();
  CotsFleet fleet(opt);
  auto handle = fleet.RegisterThread();
  size_t pos = 0;
  for (auto _ : state) {
    handle->OfferBatch(stream.data() + pos, CotsFleet::kBatchDepth);
    pos = (pos + CotsFleet::kBatchDepth) % stream.size();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(CotsFleet::kBatchDepth));
}
BENCHMARK(BM_FleetOfferBatch)
    ->Args({8, 1})
    ->Args({8, 4})
    ->Args({15, 1})
    ->Args({15, 4});

void BM_CountMinOffer(benchmark::State& state) {
  CountMinSketchOptions opt;
  opt.epsilon = 1.0 / 1000.0;
  opt.delta = 0.01;
  CountMinSketch cms(opt);
  ZipfOptions zopt;
  zopt.alphabet_size = 100'000;
  zopt.alpha = 2.0;
  ZipfGenerator gen(zopt);
  for (auto _ : state) {
    cms.Offer(gen.Next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountMinOffer);

void BM_CountSketchOffer(benchmark::State& state) {
  CountSketchOptions opt;
  opt.width = 3000;
  opt.depth = 5;
  CountSketch cs(opt);
  ZipfOptions zopt;
  zopt.alphabet_size = 100'000;
  zopt.alpha = 2.0;
  ZipfGenerator gen(zopt);
  for (auto _ : state) {
    cs.Offer(gen.Next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountSketchOffer);

}  // namespace
}  // namespace cots

// Custom main instead of BENCHMARK_MAIN(): peel off --json=FILE (google
// benchmark rejects flags it does not know) and write the shared report —
// here the metrics section is the payload; timings live in benchmark's own
// console output.
int main(int argc, char** argv) {
  cots::bench::BenchConfig config;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      config.json_path = argv[i] + 7;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  cots::bench::BenchReport::Global().SetTitle(
      "Micro: component benchmarks (google-benchmark)");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  cots::bench::BenchReport::Global().WriteIfRequested(config);
  return 0;
}
