// Fleet scaling (DESIGN.md §9): throughput of the CotsFleet — single-writer
// FlatStreamSummary shards, each owned by one producer — over a shards x
// threads sweep at zipf alpha 1.5 and 0.8. Two kinds of verdict, printed
// with their ratios and written to JSON "verdict" rows:
//   * scaling (CI fails a FAIL; SKIPPED, on a 1-core machine, passes): at
//     alpha 1.5 the best in-core multi-shard fleet row must reach
//     kMinFleetEngineRatio times the single CotsSpaceSaving engine's
//     in-core peak;
//   * roofline, per alpha (reported, not yet gated): the best 4-thread
//     fleet row against kMinFleetFlatRatio times one sequential
//     FlatStreamSummary pass over the same stream, timed in the same run —
//     the per-core roofline the fleet is judged against (ROADMAP item 1).
// Rows whose thread count exceeds the machine's hardware threads are
// stamped "oversubscribed" in the JSON report and excluded from both.
//
// The bench is also a correctness gate (exit 1 on violation):
//   * every merged global view must keep the Space Saving bounds versus
//     exact ground truth (est >= true, est - err <= true, unmonitored
//     <= merged bound), and conservation must hold (fleet stream length
//     == n == sum of per-shard monitored counts);
//   * at alpha 0.8 every shard must see more distinct keys than its
//     capacity, so the low-skew rows time an evicting summary;
//   * the engine's per-bucket request rings are sized from the ingest
//     batch depth (CotsSpaceSavingOptions::request_ring_capacity), so on
//     in-core engine rows (threads <= hardware threads) the overflow
//     fallback must stay near zero — a growing
//     "request_queue.fallback_allocations" delta there means the sizing
//     regressed (metrics builds only; only engine elements count toward the
//     budget). Oversubscribed rows are reported but not gated: when the
//     draining holder loses the core for a whole timeslice, producers
//     exhausting their bounded spin and diverting to the fallback is the
//     designed don't-block behaviour, and no finite ring prevents it.

#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/bench_common.h"
#include "core/flat_stream_summary.h"
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
// The roofline verdict's bar: the best fleet row at kVerdictThreads threads
// against one sequential FlatStreamSummary pass, at every alpha.
constexpr double kMinFleetFlatRatio = 1.5;
constexpr int kVerdictThreads = 4;

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
                        size_t shards, size_t capacity, bool must_evict) {
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

  if (must_evict) {
    std::vector<uint64_t> distinct(fleet.num_shards(), 0);
    for (const auto& [key, truth] : exact.counts()) ++distinct[fleet.ShardOf(key)];
    for (size_t s = 0; s < fleet.num_shards(); ++s) {
      if (distinct[s] <= capacity) {
        std::fprintf(stderr,
                     "VIOLATION: shards=%zu shard %zu sees %llu distinct keys, "
                     "not more than its capacity %zu: it never evicts\n",
                     shards, s, static_cast<unsigned long long>(distinct[s]),
                     capacity);
        ++g_violations;
      }
    }
  }

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

// One alpha's sweep: a sequential FlatStreamSummary pass, then the fleet
// over shards x threads, with the best rates the verdicts need.
struct Sweep {
  double flat_eps = 0.0;
  double best_verdict_row_eps = 0.0;  // 0 when no row has kVerdictThreads
  double best_multi_shard_eps = 0.0;  // in-core rows with >= 2 shards
};

Sweep RunSweep(double alpha, const BenchConfig& config,
               const std::vector<size_t>& shard_counts,
               const std::vector<int>& thread_counts, int hw) {
  const uint64_t n = config.n;
  const Stream stream = MakeStream(n, alpha, config);
  const ExactCounter exact(stream);
  char tag[16];
  std::snprintf(tag, sizeof(tag), "a=%.1f", alpha);
  Sweep sweep;

  const double flat_seconds = BestOf(
      config, [&] { return TimeSequentialFlat(stream, config.capacity); });
  sweep.flat_eps = static_cast<double>(n) / flat_seconds;
  BenchReport::Global().AddTiming(
      std::string("flat ") + tag, flat_seconds,
      {{"alpha", alpha}, {"n", static_cast<double>(n)},
       {"rate_eps", sweep.flat_eps}});
  std::printf("\nalpha %.1f\n", alpha);
  std::vector<std::string> head = {"system \\ threads"};
  for (int t : thread_counts) head.push_back(std::to_string(t));
  PrintRow(head);
  PrintRow({"sequential flat", FormatRate(sweep.flat_eps)});

  // One ingest thread per shard is the shard-per-core shape; the full grid
  // shows how routing overhead amortizes.
  for (const size_t shards : shard_counts) {
    std::vector<std::string> row = {"fleet s=" + std::to_string(shards)};
    for (int t : thread_counts) {
      const double seconds = BestOf(
          config, [&] { return TimeFleet(stream, t, shards, config.capacity); });
      const double eps = static_cast<double>(n) / seconds;
      if (t <= hw && shards >= 2 && static_cast<int>(shards) <= hw) {
        sweep.best_multi_shard_eps = std::max(sweep.best_multi_shard_eps, eps);
      }
      if (t == kVerdictThreads && t <= hw) {
        sweep.best_verdict_row_eps = std::max(sweep.best_verdict_row_eps, eps);
      }
      BenchReport::Global().AddTiming(
          std::string("fleet ") + tag + " s=" + std::to_string(shards) +
              " t=" + std::to_string(t),
          seconds,
          {{"alpha", alpha},
           {"shards", static_cast<double>(shards)},
           {"threads", static_cast<double>(t)},
           {"n", static_cast<double>(n)},
           {"rate_eps", eps}});
      row.push_back(FormatRate(eps));
    }
    PrintRow(row);
    CheckFleetAccuracy(stream, exact, shards, config.capacity,
                       /*must_evict=*/alpha < 1.0);
  }
  return sweep;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config = BenchConfig::Parse(argc, argv);
  if (config.n == 0) config.n = config.full ? 8'000'000 : 1'000'000;
  const uint64_t n = config.n;
  const int hw = HardwareConcurrency();
  const std::vector<size_t> shard_counts =
      config.full ? std::vector<size_t>{1, 2, 4, 8, 16}
                  : std::vector<size_t>{1, 2, 4};
  const std::vector<int> thread_counts =
      config.full ? std::vector<int>{1, 2, 4, 8, 16}
                  : std::vector<int>{1, 2, 4};

  PrintHeader("Figure 13: fleet — throughput vs shards x threads", config);

  // Single-engine baseline at alpha 1.5: its in-core peak over the thread
  // sweep is the bar the multi-shard fleet must clear.
  // Ring-sizing regression gate (see the file comment): fallbacks are
  // attributed per engine row, and only in-core rows — where the holder
  // keeps its core and ring depth is what decides whether a burst fits —
  // count against the budget.
  uint64_t incore_fallbacks = 0;
  uint64_t incore_elements = 0;
  uint64_t oversub_fallbacks = 0;
  double engine_peak_eps = 0.0;
  {
    const Stream stream = MakeStream(n, 1.5, config);
    std::vector<std::string> row = {"engine a=1.5"};
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
          {{"alpha", 1.5},
           {"threads", static_cast<double>(t)},
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

  double multi_shard_best_eps = 0.0;  // alpha 1.5 rows
  for (const double alpha : {1.5, 0.8}) {
    const Sweep sweep =
        RunSweep(alpha, config, shard_counts, thread_counts, hw);
    if (alpha == 1.5) multi_shard_best_eps = sweep.best_multi_shard_eps;
    char label[32];
    std::snprintf(label, sizeof(label), "verdict roofline a=%.1f", alpha);
    if (sweep.best_verdict_row_eps == 0.0) {
      std::printf("roofline verdict a=%.1f: SKIPPED (machine has %d hardware "
                  "thread(s); no in-core %d-thread row)\n",
                  alpha, hw, kVerdictThreads);
      BenchReport::Global().AddTiming(label, 0.0, {{"alpha", alpha}},
                                      {{"verdict", "SKIPPED"}});
      continue;
    }
    const double ratio = sweep.best_verdict_row_eps / sweep.flat_eps;
    const bool pass = ratio >= kMinFleetFlatRatio;
    std::printf("fleet/flat ratio a=%.1f: %s (best %d-thread fleet %s vs "
                "sequential flat %s; PASS needs >= %.1fx)\n",
                alpha, FormatRatio(ratio).c_str(), kVerdictThreads,
                FormatRate(sweep.best_verdict_row_eps).c_str(),
                FormatRate(sweep.flat_eps).c_str(), kMinFleetFlatRatio);
    std::printf("roofline verdict a=%.1f: %s (reported, not gated)\n", alpha,
                pass ? "PASS" : "FAIL");
    BenchReport::Global().AddTiming(
        label, 0.0,
        {{"alpha", alpha},
         {"fleet_flat_ratio", ratio},
         {"min_fleet_flat_ratio", kMinFleetFlatRatio},
         {"fleet_best_rate_eps", sweep.best_verdict_row_eps},
         {"flat_rate_eps", sweep.flat_eps}},
        {{"verdict", pass ? "PASS" : "FAIL"}});
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

  // Scaling verdict over non-oversubscribed multi-shard rows only. On a
  // machine with fewer cores than shards every fleet row is timeshared and
  // the verdict is vacuous — say so instead of claiming scaling.
  std::printf("single-engine peak: %s\n", FormatRate(engine_peak_eps).c_str());
  if (multi_shard_best_eps == 0.0) {
    std::printf("scaling verdict: SKIPPED (machine has %d hardware "
                "thread(s); all multi-shard rows are oversubscribed)\n",
                hw);
    BenchReport::Global().AddTiming("verdict", 0.0, {},
                                    {{"verdict", "SKIPPED"}});
  } else {
    const double ratio = multi_shard_best_eps / engine_peak_eps;
    const bool pass = ratio >= kMinFleetEngineRatio;
    std::printf("fleet/engine ratio: %s (best in-core multi-shard fleet %s "
                "vs single-engine peak %s; PASS needs >= %.0fx)\n",
                FormatRatio(ratio).c_str(),
                FormatRate(multi_shard_best_eps).c_str(),
                FormatRate(engine_peak_eps).c_str(), kMinFleetEngineRatio);
    std::printf("scaling verdict: %s\n", pass ? "PASS" : "FAIL");
    BenchReport::Global().AddTiming(
        "verdict", 0.0,
        {{"fleet_engine_ratio", ratio},
         {"min_fleet_engine_ratio", kMinFleetEngineRatio},
         {"fleet_best_rate_eps", multi_shard_best_eps},
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
