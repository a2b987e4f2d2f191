// Ablation (Section 6, closing remark): "Since queries are read-only and
// do not require locks, they will not affect the scalability of the
// system... Separate threads can be devoted for processing ad-hoc queries
// and the performance of the threads performing frequency counting will
// not suffer."
//
// Measures an ingest-threads x query-threads matrix on the serving path,
// a CotsFleet with one shard per hardware thread, twice: once with the
// fleet's epoch-published query view on (mode=view — point queries are one
// wait-free probe into the immutable snapshot, DESIGN.md §11) and once
// against the live shards (mode=snapshot — no view is published, so
// IsElementFrequent takes the home shard's flag and IsElementInTopK folds
// every shard per query). Each cell reports ingest throughput plus the
// co-resident point-query rate and sampled latency percentiles (p50/p99,
// via the shared HistogramSnapshot::ValueAtQuantile implementation — log2
// buckets, so the reported value is exact to within a factor of 2, far
// below the view/snapshot gap this bench exists to show).
// tools/query_smoke.py gates the view/snapshot query-rate ratio from the
// --json report.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/bench_common.h"
#include "core/query.h"
#include "cots/cots_fleet.h"
#include "util/metrics.h"
#include "util/stopwatch.h"

using namespace cots;
using namespace cots::bench;

namespace {

struct QueryCellResult {
  double ingest_seconds = 0.0;
  uint64_t queries_run = 0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

// Offers stream[begin, end) to the fleet in dispatch-sized batches through
// a handle of the calling thread's own.
void OfferSlice(CotsFleet& fleet, const Stream& stream, uint64_t begin,
                uint64_t end) {
  auto handle = fleet.RegisterThread();
  if (handle == nullptr) std::abort();
  constexpr uint64_t kBatch = CotsFleet::kBatchDepth;
  for (uint64_t i = begin; i < end; i += kBatch) {
    handle->OfferBatch(stream.data() + i, std::min(kBatch, end - i));
  }
}

// One matrix cell: `ingest_threads` slicing the stream through OfferBatch
// while `query_threads` hammer point queries through their own handles.
// `view_refresh_interval` 0 = snapshot baseline.
//
// The fleet ingests a CI-sized stream in a few milliseconds, so two steps
// keep the query rate meaningful. The stream is offered once, untimed,
// before the timed pass, so queries probe full shards (and, in view mode,
// a published view) instead of missing every key of a nearly empty fleet.
// And ingest starts only after every query thread has registered and
// answered one query pair, so no cell can end before its queriers start.
QueryCellResult TimeCell(const Stream& stream, int ingest_threads,
                         int query_threads, size_t capacity,
                         uint64_t view_refresh_interval) {
  CotsFleetOptions opt;
  opt.engine.capacity = capacity;
  opt.view_refresh_interval = view_refresh_interval;
  if (!opt.Validate().ok()) std::abort();
  CotsFleet fleet(opt);
  OfferSlice(fleet, stream, 0, stream.size());
  if (view_refresh_interval != 0) fleet.RefreshQueryView();

  std::atomic<int> ready{0};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> fired{0};
  std::vector<HistogramSnapshot> sampled(static_cast<size_t>(query_threads));
  std::vector<std::thread> queriers;
  for (int q = 0; q < query_threads; ++q) {
    queriers.emplace_back([&, q] {
      auto handle = fleet.RegisterThread();
      if (handle == nullptr) std::abort();
      QueryEngine queries(handle.get());
      HistogramSnapshot& samples = sampled[static_cast<size_t>(q)];
      uint64_t count = 0;
      uint64_t probe = 1;
      do {
        // Probe keys drawn from the stream itself (keys are permuted, so a
        // synthetic 0..k range would miss every monitored counter and let
        // the snapshot fallback short-circuit at Lookup). Every 16th pair
        // is timed individually for the percentile rows.
        probe = probe * 2862933555777941757ULL + 3037000493ULL;
        const ElementId e = stream[probe % stream.size()];
        if ((count & 15) == 0) {
          const auto begin = std::chrono::steady_clock::now();
          queries.IsElementFrequent(e, 0.001);
          queries.IsElementInTopK(e, 25);
          const auto end = std::chrono::steady_clock::now();
          const uint64_t per_query_ns =
              static_cast<uint64_t>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      end - begin)
                      .count()) /
              2;
          // Clamp to 1ns so sub-resolution samples land in a nonzero
          // bucket (query_smoke.py gates p50/p99 > 0).
          samples.Add(per_query_ns == 0 ? 1 : per_query_ns);
        } else {
          queries.IsElementFrequent(e, 0.001);
          queries.IsElementInTopK(e, 25);
        }
        count += 2;
        if (count == 2) ready.fetch_add(1, std::memory_order_release);
      } while (!stop.load(std::memory_order_relaxed));
      fired.fetch_add(count, std::memory_order_relaxed);
    });
  }
  while (ready.load(std::memory_order_acquire) < query_threads) {
    std::this_thread::yield();
  }

  Stopwatch timer;
  std::vector<std::thread> workers;
  const uint64_t slice = stream.size() / static_cast<uint64_t>(ingest_threads);
  for (int t = 0; t < ingest_threads; ++t) {
    workers.emplace_back([&, t] {
      const uint64_t begin = slice * static_cast<uint64_t>(t);
      const uint64_t end =
          t == ingest_threads - 1 ? stream.size() : begin + slice;
      OfferSlice(fleet, stream, begin, end);
    });
  }
  for (std::thread& w : workers) w.join();
  QueryCellResult result;
  result.ingest_seconds = timer.ElapsedSeconds();
  stop.store(true);
  for (std::thread& q : queriers) q.join();

  result.queries_run = fired.load();
  result.qps = result.ingest_seconds > 0
                   ? static_cast<double>(result.queries_run) /
                         result.ingest_seconds
                   : 0.0;
  HistogramSnapshot all;
  for (const HistogramSnapshot& s : sampled) all.Merge(s);
  result.p50_us = all.ValueAtQuantile(0.50) / 1000.0;
  result.p99_us = all.ValueAtQuantile(0.99) / 1000.0;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config = BenchConfig::Parse(argc, argv);
  const uint64_t n = config.n != 0 ? config.n : (config.full ? 4'000'000 : 500'000);
  const double alpha = 2.0;
  // Offers between auto-refreshes in view mode (the ingest server's
  // default): the staleness bound the view queries run under, and the
  // amortization window for the rebuild.
  const uint64_t refresh_interval = 8192;

  const std::vector<int> ingest_counts = config.full ? std::vector<int>{1, 2, 4, 8}
                                                     : std::vector<int>{1, 4};
  const std::vector<int> query_counts = {0, 1, 2};

  PrintHeader("Ablation: query threads x ingest threads, view vs snapshot",
              config);
  Stream stream = MakeStream(n, alpha, config);
  std::printf("stream: %llu elements, alpha %.1f; view refresh interval %llu\n\n",
              static_cast<unsigned long long>(n), alpha,
              static_cast<unsigned long long>(refresh_interval));

  PrintRow({"mode", "ingest", "query", "ingest time", "rate", "queries/s",
            "p50 us", "p99 us"});
  for (const bool view : {false, true}) {
    const char* mode = view ? "view" : "snapshot";
    for (int ingest : ingest_counts) {
      for (int query : query_counts) {
        // The fastest repeat's whole result, so a row's query figures come
        // from the same repeat as its ingest time.
        QueryCellResult best;
        for (int r = 0; r < config.repeats; ++r) {
          const QueryCellResult cell =
              TimeCell(stream, ingest, query, config.capacity,
                       view ? refresh_interval : 0);
          if (r == 0 || cell.ingest_seconds < best.ingest_seconds) best = cell;
        }
        const double seconds = best.ingest_seconds;
        char label[64];
        std::snprintf(label, sizeof(label), "%s i=%d q=%d", mode, ingest,
                      query);
        BenchReport::Global().AddTiming(
            label, seconds,
            {{"threads", static_cast<double>(ingest)},
             {"query_threads", static_cast<double>(query)},
             {"rate_eps", static_cast<double>(n) / seconds},
             {"qps", best.qps},
             {"p50_us", best.p50_us},
             {"p99_us", best.p99_us}},
            {{"mode", mode}});
        PrintRow({std::string(mode), std::to_string(ingest),
                  std::to_string(query), FormatSeconds(seconds),
                  FormatRate(static_cast<double>(n) / seconds),
                  FormatRate(best.qps),
                  query > 0 ? std::to_string(best.p50_us) : "-",
                  query > 0 ? std::to_string(best.p99_us) : "-"});
      }
    }
  }
  std::printf(
      "\nPaper claim: lock-free reads keep co-resident query threads from "
      "slowing ingest. The view rows additionally serve each point query "
      "from the fleet's epoch-published snapshot (one wait-free probe) "
      "instead of taking shard flags and folding every shard per query — "
      "the queries/s and p99 gap between the view and snapshot rows is the "
      "price of the fold storm the view removes.\n");
  BenchReport::Global().WriteIfRequested(config);
  return 0;
}
