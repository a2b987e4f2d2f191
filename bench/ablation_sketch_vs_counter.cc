// Ablation (paper Section 2): "sketch based techniques ... generally
// process each stream element using a series of hash functions, and hence
// the processing cost per element is also high. Even though these
// techniques can answer frequent elements queries, these are not very well
// suited for the class of applications that require frequency counting."
// Measures per-element cost and top-k accuracy for the counter-based
// algorithms against Count-Min and Count Sketch at comparable space.
//
// Two additions beyond the paper's table:
//   * Space Saving runs in both summary layouts (linked node lists vs the
//     flat SIMD-scanned arrays), and a capacity sweep at the bench's skew
//     and at low skew (alpha 0.8) locates the linked-vs-flat crossover.
//     The flat layout's min-victim scan is O(m) groups-of-8 against the
//     linked bucket walk's O(1), yet flat wins at every m at both skews
//     (DESIGN.md §10.3).
//   * Every Space Saving row is accuracy-GATED, not just reported: the
//     epsilon bound (max estimation error <= N/m) and per-key sandwich
//     (true <= est <= true + error) are checked against exact ground truth
//     and any violation exits non-zero, so a perf pipeline cannot publish
//     numbers from a layout that broke the algorithm.

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>

#include "common/bench_common.h"
#include "core/count_min_sketch.h"
#include "core/count_sketch.h"
#include "core/lossy_counting.h"
#include "core/space_saving.h"
#include "stream/exact_counter.h"
#include "util/stopwatch.h"

using namespace cots;
using namespace cots::bench;

namespace {

double TopKRelativeError(const ExactCounter& exact, size_t k,
                         const std::function<uint64_t(ElementId)>& estimate) {
  double sum = 0.0;
  size_t count = 0;
  for (ElementId e : exact.TopK(k)) {
    const double truth = static_cast<double>(exact.Count(e));
    const double est = static_cast<double>(estimate(e));
    sum += std::abs(est - truth) / truth;
    ++count;
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

// Space Saving epsilon-accuracy gate; aborts the bench on any violation.
void GateSpaceSaving(const SpaceSaving& ss, const ExactCounter& exact,
                     size_t capacity, const char* what) {
  const uint64_t n = exact.stream_length();
  const uint64_t bound = n / capacity;
  for (const Counter& c : ss.CountersDescending()) {
    const uint64_t truth = exact.Count(c.key);
    if (c.error > bound || truth > c.count || c.count > truth + c.error) {
      std::fprintf(stderr,
                   "ACCURACY GATE FAILED (%s): key=%llu truth=%llu est=%llu "
                   "err=%llu bound=%llu\n",
                   what, static_cast<unsigned long long>(c.key),
                   static_cast<unsigned long long>(truth),
                   static_cast<unsigned long long>(c.count),
                   static_cast<unsigned long long>(c.error),
                   static_cast<unsigned long long>(bound));
      std::exit(1);
    }
  }
}

// Timed + gated Space Saving run in one layout; returns seconds.
double RunSpaceSaving(const Stream& stream, const ExactCounter& exact,
                      size_t capacity, SummaryLayout layout) {
  SpaceSavingOptions opt;
  opt.capacity = capacity;
  opt.layout = layout;
  if (!opt.Validate().ok()) std::abort();
  SpaceSaving ss(opt);
  Stopwatch timer;
  ss.Process(stream);
  const double t = timer.ElapsedSeconds();
  GateSpaceSaving(ss, exact, capacity, SummaryLayoutName(layout));
  return t;
}

// Capacities the layout crossover sweeps, and the keys per counter of the
// largest one that its streams draw from. A row whose capacity reaches the
// stream's distinct keys never evicts and times only monitored hits. So
// the sweep draws from at least 16 x 16384 keys (CI's 200,000-key stream
// at alpha 0.8 then holds 85,146 distinct keys), and it skips a capacity
// unless the stream holds kMinDistinctPerCounter times as many distinct
// keys: high skew concentrates a short stream on few keys (4,427 at alpha
// 1.5 and 200,000 keys, so m = 4096 and 16384 are skipped there).
constexpr std::array<size_t, 5> kCrossoverCapacities = {64, 256, 1024, 4096,
                                                         16384};
constexpr uint64_t kCrossoverKeysPerCounter = 16;
constexpr size_t kMinDistinctPerCounter = 2;

// Linked-vs-flat crossover sweep over capacity; every run is
// accuracy-gated. Rows are labelled by alpha and capacity.
void CrossoverSweep(uint64_t length, double alpha,
                    const BenchConfig& config) {
  BenchConfig wide = config;
  wide.alphabet = std::max<uint64_t>(
      config.AlphabetFor(length),
      kCrossoverKeysPerCounter * kCrossoverCapacities.back());
  const Stream stream = MakeStream(length, alpha, wide);
  const ExactCounter exact(stream);
  const double n = static_cast<double>(stream.size());
  char tag[32];
  std::snprintf(tag, sizeof(tag), "a=%.1f", alpha);
  std::printf("\nLayout crossover (SpaceSaving, alpha %.1f, %llu keys, "
              "%zu distinct):\n",
              alpha, static_cast<unsigned long long>(wide.alphabet),
              exact.distinct());
  PrintRow({"capacity", "linked", "flat", "flat/linked"});
  for (size_t cap : kCrossoverCapacities) {
    if (exact.distinct() < kMinDistinctPerCounter * cap) {
      PrintRow({std::to_string(cap), "skipped: too few distinct keys"});
      continue;
    }
    const double linked = BestOf(config, [&] {
      return RunSpaceSaving(stream, exact, cap, SummaryLayout::kLinked);
    });
    const double flat = BestOf(config, [&] {
      return RunSpaceSaving(stream, exact, cap, SummaryLayout::kFlat);
    });
    // Speed ratio > 1 means flat is faster at this capacity.
    const double ratio = linked / flat;
    for (SummaryLayout layout :
         {SummaryLayout::kLinked, SummaryLayout::kFlat}) {
      const bool is_flat = layout == SummaryLayout::kFlat;
      const double seconds = is_flat ? flat : linked;
      BenchReport::Global().AddTiming(
          std::string("crossover/") + tag + "/" + SummaryLayoutName(layout) +
              "/m=" + std::to_string(cap),
          seconds,
          {{"alpha", alpha},
           {"capacity", static_cast<double>(cap)},
           {"distinct", static_cast<double>(exact.distinct())},
           {"rate_eps", n / seconds},
           {"flat_speedup", ratio}},
          {{"layout", SummaryLayoutName(layout)},
           {"accuracy_gate", "passed"}});
    }
    PrintRow({std::to_string(cap), FormatRate(n / linked),
              FormatRate(n / flat), FormatRatio(ratio)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config = BenchConfig::Parse(argc, argv);
  const uint64_t n = config.n != 0 ? config.n : (config.full ? 4'000'000 : 500'000);
  const double alpha = 1.5;

  PrintHeader("Ablation: counter-based vs sketch-based (Section 2 claim)",
              config);
  Stream stream = MakeStream(n, alpha, config);
  ExactCounter exact(stream);
  std::printf("stream: %llu elements, alpha %.1f, %zu distinct\n\n",
              static_cast<unsigned long long>(n), alpha, exact.distinct());

  PrintRow({"engine", "time", "rate", "cells/ctrs", "top50 ARE"});

  for (SummaryLayout layout : {SummaryLayout::kLinked, SummaryLayout::kFlat}) {
    SpaceSavingOptions opt;
    opt.capacity = config.capacity;
    opt.layout = layout;
    if (!opt.Validate().ok()) std::abort();
    SpaceSaving ss(opt);
    Stopwatch timer;
    ss.Process(stream);
    const double t = timer.ElapsedSeconds();
    GateSpaceSaving(ss, exact, config.capacity, SummaryLayoutName(layout));
    const double are = TopKRelativeError(exact, 50, [&](ElementId e) {
      auto c = ss.Lookup(e);
      return c.has_value() ? c->count : 0;
    });
    const std::string name =
        std::string("SpaceSaving/") + SummaryLayoutName(layout);
    BenchReport::Global().AddTiming(
        name, t,
        {{"rate_eps", static_cast<double>(n) / t},
         {"capacity", static_cast<double>(config.capacity)},
         {"top50_are", are}},
        {{"layout", SummaryLayoutName(layout)}, {"accuracy_gate", "passed"}});
    PrintRow({name, FormatSeconds(t), FormatRate(static_cast<double>(n) / t),
              std::to_string(ss.num_counters()),
              std::to_string(are).substr(0, 6)});
  }
  {
    LossyCountingOptions opt;
    opt.epsilon = 1.0 / static_cast<double>(config.capacity);
    LossyCounting lc(opt);
    Stopwatch timer;
    lc.Process(stream);
    const double t = timer.ElapsedSeconds();
    const double are = TopKRelativeError(exact, 50, [&](ElementId e) {
      auto c = lc.Lookup(e);
      return c.has_value() ? c->count : 0;
    });
    BenchReport::Global().AddTiming(
        "LossyCounting", t,
        {{"rate_eps", static_cast<double>(n) / t}, {"top50_are", are}});
    PrintRow({"LossyCounting", FormatSeconds(t),
              FormatRate(static_cast<double>(n) / t),
              std::to_string(lc.num_counters()),
              std::to_string(are).substr(0, 6)});
  }
  {
    CountMinSketchOptions opt;
    opt.epsilon = 1.0 / static_cast<double>(config.capacity);
    opt.delta = 0.01;
    if (!opt.Validate().ok()) std::abort();
    CountMinSketch cms(opt);
    Stopwatch timer;
    cms.Process(stream);
    const double t = timer.ElapsedSeconds();
    const double are = TopKRelativeError(
        exact, 50, [&](ElementId e) { return cms.Estimate(e); });
    BenchReport::Global().AddTiming(
        "CountMin", t,
        {{"rate_eps", static_cast<double>(n) / t}, {"top50_are", are}});
    PrintRow({"CountMin", FormatSeconds(t),
              FormatRate(static_cast<double>(n) / t),
              std::to_string(cms.cells()),
              std::to_string(are).substr(0, 6)});
  }
  {
    CountSketchOptions opt;
    opt.width = config.capacity * 3;
    opt.depth = 5;
    if (!opt.Validate().ok()) std::abort();
    CountSketch cs(opt);
    Stopwatch timer;
    cs.Process(stream);
    const double t = timer.ElapsedSeconds();
    const double are = TopKRelativeError(
        exact, 50, [&](ElementId e) { return cs.Estimate(e); });
    BenchReport::Global().AddTiming(
        "CountSketch", t,
        {{"rate_eps", static_cast<double>(n) / t}, {"top50_are", are}});
    PrintRow({"CountSketch", FormatSeconds(t),
              FormatRate(static_cast<double>(n) / t),
              std::to_string(cs.cells()),
              std::to_string(are).substr(0, 6)});
  }

  CrossoverSweep(n, alpha, config);
  // Low skew: the readmix benchmark workload's alpha, where nearly every
  // offer evicts.
  CrossoverSweep(n, /*alpha=*/0.8, config);

  std::printf("\nPaper claim: the sketches pay d hash+update rounds per "
              "element (lower rate) and need an auxiliary structure to "
              "answer set queries at all; counter-based techniques give "
              "exact-on-skew answers at a fraction of the space.\n");
  return 0;
}
