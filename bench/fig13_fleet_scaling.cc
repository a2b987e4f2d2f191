// Fleet scaling (DESIGN.md §9): throughput of the CotsFleet — single-writer
// FlatStreamSummary shards with cooperative hand-off — over a shards x
// threads sweep, against the single CotsSpaceSaving engine at its best
// thread count. Rows whose thread count exceeds the machine's hardware
// threads are stamped "oversubscribed" in the JSON report and excluded
// from the verdict, which PASSes when the best in-core multi-shard fleet
// rate is at least kMinFleetEngineRatio times the engine's in-core peak.
// The ratio is printed and recorded in the JSON "verdict" row. CI fails a
// FAIL verdict (SKIPPED, on a 1-core machine, passes).
//
// The bench is also a correctness gate (exit 1 on violation):
//   * every merged global view must keep the Space Saving bounds versus
//     exact ground truth (est >= true, est - err <= true, unmonitored
//     <= merged bound), and conservation must hold (fleet stream length
//     == n == sum of per-shard monitored counts);
//   * the engine's per-bucket request rings are sized from the ingest
//     batch depth (CotsSpaceSavingOptions::request_ring_capacity), so on
//     in-core engine rows (threads <= hardware threads) the overflow
//     fallback must stay near zero — a growing
//     "request_queue.fallback_allocations" delta there means the sizing
//     regressed (metrics builds only; the fleet has no request rings, so
//     only engine elements count toward the budget). Oversubscribed rows
//     are reported but not gated: when the draining holder loses the core
//     for a whole timeslice, producers exhausting their bounded spin and
//     diverting to the fallback is the designed don't-block behaviour, and
//     no finite ring prevents it.

#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/bench_common.h"
#include "cots/cots_fleet.h"
#include "stream/exact_counter.h"
#include "util/metrics.h"
#include "util/stopwatch.h"
#include "util/thread_utils.h"

using namespace cots;
using namespace cots::bench;

namespace {

int g_violations = 0;

// The multi-shard fleet must beat the single engine by at least this much.
constexpr double kMinFleetEngineRatio = 3.0;

double TimeFleet(const Stream& stream, int threads, size_t shards,
                 size_t capacity) {
  CotsFleetOptions opt;
  opt.num_shards = shards;
  opt.engine.capacity = capacity;
  if (!opt.Validate().ok()) std::abort();
  CotsFleet fleet(opt);
  Stopwatch timer;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      auto handle = fleet.RegisterThread();
      if (handle == nullptr) std::abort();
      const uint64_t n = stream.size();
      const uint64_t slice = n / static_cast<uint64_t>(threads);
      const uint64_t begin = slice * static_cast<uint64_t>(t);
      const uint64_t end = t == threads - 1 ? n : begin + slice;
      constexpr uint64_t kBatch = CotsFleet::kBatchDepth;
      for (uint64_t i = begin; i < end; i += kBatch) {
        const uint64_t len = std::min(kBatch, end - i);
        if (!handle->OfferBatch(stream.data() + i, len)) std::abort();
      }
    });
  }
  for (std::thread& w : workers) w.join();
  return timer.ElapsedSeconds();
}

// One accuracy-gated fleet run (outside the timed loop): ingest, Stop,
// then check the merged global view against exact counts.
void CheckFleetAccuracy(const Stream& stream, const ExactCounter& exact,
                        size_t shards, size_t capacity) {
  CotsFleetOptions opt;
  opt.num_shards = shards;
  opt.engine.capacity = capacity;
  if (!opt.Validate().ok()) std::abort();
  CotsFleet fleet(opt);
  {
    auto handle = fleet.RegisterThread();
    if (handle == nullptr) std::abort();
    constexpr uint64_t kBatch = CotsFleet::kBatchDepth;
    for (uint64_t i = 0; i < stream.size(); i += kBatch) {
      const uint64_t len = std::min(kBatch, stream.size() - i);
      if (!handle->OfferBatch(stream.data() + i, len)) std::abort();
    }
  }
  fleet.Stop();

  const uint64_t n = stream.size();
  if (fleet.stream_length() != n) {
    std::fprintf(stderr, "VIOLATION: shards=%zu stream_length %llu != %llu\n",
                 shards,
                 static_cast<unsigned long long>(fleet.stream_length()),
                 static_cast<unsigned long long>(n));
    ++g_violations;
  }
  uint64_t conserved = 0;
  for (size_t s = 0; s < fleet.num_shards(); ++s) {
    for (const Counter& c : fleet.shard(s).CountersDescending()) {
      conserved += c.count;
    }
  }
  if (conserved != n) {
    std::fprintf(stderr, "VIOLATION: shards=%zu conservation %llu != %llu\n",
                 shards, static_cast<unsigned long long>(conserved),
                 static_cast<unsigned long long>(n));
    ++g_violations;
  }
  const CounterSet merged = fleet.GlobalView();
  for (const Counter& c : merged.counters()) {
    const uint64_t truth = exact.Count(c.key);
    if (c.count < truth || c.GuaranteedCount() > truth) {
      std::fprintf(stderr,
                   "VIOLATION: shards=%zu key %llu est %llu err %llu "
                   "true %llu\n",
                   shards, static_cast<unsigned long long>(c.key),
                   static_cast<unsigned long long>(c.count),
                   static_cast<unsigned long long>(c.error),
                   static_cast<unsigned long long>(truth));
      ++g_violations;
    }
  }
  for (const auto& [key, truth] : exact.counts()) {
    if (!merged.Lookup(key).has_value() && truth > merged.min_freq()) {
      std::fprintf(stderr,
                   "VIOLATION: shards=%zu unmonitored key %llu true %llu "
                   "exceeds bound %llu\n",
                   shards, static_cast<unsigned long long>(key),
                   static_cast<unsigned long long>(truth),
                   static_cast<unsigned long long>(merged.min_freq()));
      ++g_violations;
    }
  }
}

uint64_t FallbackAllocations() {
#if COTS_METRICS_ENABLED
  return MetricsRegistry::Global().Snapshot().CounterValue(
      "request_queue.fallback_allocations");
#else
  return 0;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config = BenchConfig::Parse(argc, argv);
  const uint64_t n = config.n != 0 ? config.n : (config.full ? 8'000'000 : 1'000'000);
  const double alpha = 1.5;
  const int hw = HardwareConcurrency();
  const std::vector<size_t> shard_counts =
      config.full ? std::vector<size_t>{1, 2, 4, 8, 16}
                  : std::vector<size_t>{1, 2, 4};
  const std::vector<int> thread_counts =
      config.full ? std::vector<int>{1, 2, 4, 8, 16}
                  : std::vector<int>{1, 2, 4};

  PrintHeader("Figure 13: fleet — throughput vs shards x threads", config);
  Stream stream = MakeStream(n, alpha, config);
  ExactCounter exact(stream);

  // Ring-sizing regression gate (see the file comment): fallbacks are
  // attributed per engine row, and only in-core rows — where the holder
  // keeps its core and ring depth is what decides whether a burst fits —
  // count against the budget.
  uint64_t incore_fallbacks = 0;
  uint64_t incore_elements = 0;
  uint64_t oversub_fallbacks = 0;

  // Single-engine baseline: its peak over the thread sweep is the bar the
  // multi-shard fleet must clear.
  double engine_peak_eps = 0.0;
  {
    std::vector<std::string> row = {"engine"};
    for (int t : thread_counts) {
      const uint64_t fb_before = FallbackAllocations();
      const double seconds =
          BestOf(config, [&] { return TimeCots(stream, t, config.capacity); });
      const uint64_t fb_delta = FallbackAllocations() - fb_before;
      const double eps = static_cast<double>(n) / seconds;
      if (t <= hw) {
        engine_peak_eps = std::max(engine_peak_eps, eps);
        incore_fallbacks += fb_delta;
        incore_elements += n * static_cast<uint64_t>(config.repeats);
      } else {
        oversub_fallbacks += fb_delta;
      }
      BenchReport::Global().AddTiming(
          "engine t=" + std::to_string(t), seconds,
          {{"threads", static_cast<double>(t)},
           {"n", static_cast<double>(n)},
           {"rate_eps", eps},
           {"ring_fallbacks", static_cast<double>(fb_delta)}});
      row.push_back(FormatRate(eps));
    }
    std::vector<std::string> head = {"system \\ threads"};
    for (int t : thread_counts) head.push_back(std::to_string(t));
    PrintRow(head);
    PrintRow(row);
  }

  // Fleet sweep: one ingest thread per shard is the shard-per-core shape;
  // the full grid shows how routing overhead amortizes.
  std::vector<double> fleet_peak_eps(shard_counts.size(), 0.0);
  for (size_t si = 0; si < shard_counts.size(); ++si) {
    const size_t shards = shard_counts[si];
    std::vector<std::string> row = {"fleet s=" + std::to_string(shards)};
    for (int t : thread_counts) {
      const double seconds = BestOf(
          config, [&] { return TimeFleet(stream, t, shards, config.capacity); });
      const double eps = static_cast<double>(n) / seconds;
      if (t <= hw) fleet_peak_eps[si] = std::max(fleet_peak_eps[si], eps);
      BenchReport::Global().AddTiming(
          "fleet s=" + std::to_string(shards) + " t=" + std::to_string(t),
          seconds,
          {{"shards", static_cast<double>(shards)},
           {"threads", static_cast<double>(t)},
           {"n", static_cast<double>(n)},
           {"rate_eps", eps}});
      row.push_back(FormatRate(eps));
    }
    PrintRow(row);
    CheckFleetAccuracy(stream, exact, shards, config.capacity);
  }

  // Ring-sizing regression gate: with rings derived from the batch depth
  // the overflow fallback should be a rounding error relative to the
  // in-core ingest volume.
  const uint64_t fallback_budget = incore_elements / 1000;  // 0.1%
  std::printf("\nrequest_queue.fallback_allocations: in-core engine %llu "
              "(budget %llu over %llu engine elements), oversubscribed %llu "
              "(not gated)\n",
              static_cast<unsigned long long>(incore_fallbacks),
              static_cast<unsigned long long>(fallback_budget),
              static_cast<unsigned long long>(incore_elements),
              static_cast<unsigned long long>(oversub_fallbacks));
#if COTS_METRICS_ENABLED
  if (incore_fallbacks > fallback_budget) {
    std::fprintf(stderr,
                 "VIOLATION: in-core ring overflow fallbacks %llu exceed "
                 "budget %llu — request_ring_capacity regressed\n",
                 static_cast<unsigned long long>(incore_fallbacks),
                 static_cast<unsigned long long>(fallback_budget));
    ++g_violations;
  }
#endif

  // Scaling verdict over non-oversubscribed rows only. On a machine with
  // fewer cores than shards every fleet row is timeshared and the verdict
  // is vacuous — say so instead of claiming scaling.
  std::printf("single-engine peak: %s\n", FormatRate(engine_peak_eps).c_str());
  double fleet_best_eps = 0.0;
  bool any_multi_shard_measured = false;
  for (size_t si = 0; si < shard_counts.size(); ++si) {
    if (shard_counts[si] < 2) continue;
    if (static_cast<int>(shard_counts[si]) > hw) continue;
    any_multi_shard_measured = true;
    fleet_best_eps = std::max(fleet_best_eps, fleet_peak_eps[si]);
  }
  if (!any_multi_shard_measured) {
    std::printf("scaling verdict: SKIPPED (machine has %d hardware "
                "thread(s); all multi-shard rows are oversubscribed)\n",
                hw);
    BenchReport::Global().AddTiming("verdict", 0.0, {},
                                    {{"verdict", "SKIPPED"}});
  } else {
    const double ratio = fleet_best_eps / engine_peak_eps;
    const bool pass = ratio >= kMinFleetEngineRatio;
    std::printf("fleet/engine ratio: %s (best in-core multi-shard fleet %s "
                "vs single-engine peak %s; PASS needs >= %.0fx)\n",
                FormatRatio(ratio).c_str(), FormatRate(fleet_best_eps).c_str(),
                FormatRate(engine_peak_eps).c_str(), kMinFleetEngineRatio);
    std::printf("scaling verdict: %s\n", pass ? "PASS" : "FAIL");
    BenchReport::Global().AddTiming(
        "verdict", 0.0,
        {{"fleet_engine_ratio", ratio},
         {"min_fleet_engine_ratio", kMinFleetEngineRatio},
         {"fleet_best_rate_eps", fleet_best_eps},
         {"engine_peak_rate_eps", engine_peak_eps}},
        {{"verdict", pass ? "PASS" : "FAIL"}});
  }
  if (g_violations != 0) {
    std::fprintf(stderr, "%d correctness violation(s)\n", g_violations);
    return 1;
  }
  std::printf("accuracy: merged views within bounds at every shard count\n");
  return 0;
}
