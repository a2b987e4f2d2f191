// Ablation (paper Section 2): "sketch based techniques ... generally
// process each stream element using a series of hash functions, and hence
// the processing cost per element is also high. Even though these
// techniques can answer frequent elements queries, these are not very well
// suited for the class of applications that require frequency counting."
// Measures per-element cost and top-k accuracy for the counter-based
// algorithms against Count-Min and Count Sketch at comparable space.
//
// Two additions beyond the paper's table:
//   * Space Saving runs in both summary layouts: SpaceSaving on the
//     paper's linked Stream Summary, and FlatStreamSummary's SIMD-scanned
//     arrays (DESIGN.md §10).
//   * Every Space Saving row is accuracy-GATED, not just reported: the
//     epsilon bound (max estimation error <= N/m) and per-key sandwich
//     (true <= est <= true + error) are checked against exact ground truth
//     and any violation exits non-zero, so a perf pipeline cannot publish
//     numbers from a layout that broke the algorithm.

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/bench_common.h"
#include "core/count_min_sketch.h"
#include "core/count_sketch.h"
#include "core/flat_stream_summary.h"
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

// Space Saving epsilon-accuracy gate over a summary's counters; aborts the
// bench on any violation.
void GateSpaceSaving(const std::vector<Counter>& counters,
                     const ExactCounter& exact, size_t capacity,
                     const char* what) {
  const uint64_t n = exact.stream_length();
  const uint64_t bound = n / capacity;
  for (const Counter& c : counters) {
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

// Times, accuracy-gates and records one Space Saving layout. `Summary` is
// SpaceSaving or FlatStreamSummary, constructed empty with m counters.
template <typename Summary>
void SpaceSavingRow(Summary* summary, const char* layout, const Stream& stream,
                    const ExactCounter& exact, size_t capacity) {
  Stopwatch timer;
  for (ElementId e : stream) summary->Offer(e);
  const double t = timer.ElapsedSeconds();
  const std::vector<Counter> counters = summary->CountersDescending();
  GateSpaceSaving(counters, exact, capacity, layout);
  const double are = TopKRelativeError(exact, 50, [&](ElementId e) {
    auto c = summary->Lookup(e);
    return c.has_value() ? c->count : 0;
  });
  const double n = static_cast<double>(stream.size());
  const std::string name = std::string("SpaceSaving/") + layout;
  BenchReport::Global().AddTiming(
      name, t,
      {{"rate_eps", n / t},
       {"capacity", static_cast<double>(capacity)},
       {"top50_are", are}},
      {{"layout", layout}, {"accuracy_gate", "passed"}});
  PrintRow({name, FormatSeconds(t), FormatRate(n / t),
            std::to_string(counters.size()), std::to_string(are).substr(0, 6)});
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

  {
    SpaceSavingOptions opt;
    opt.capacity = config.capacity;
    if (!opt.Validate().ok()) std::abort();
    SpaceSaving linked(opt);
    SpaceSavingRow(&linked, "linked", stream, exact, config.capacity);
  }
  {
    FlatStreamSummary flat(config.capacity);
    SpaceSavingRow(&flat, "flat", stream, exact, config.capacity);
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

  std::printf("\nPaper claim: the sketches pay d hash+update rounds per "
              "element (lower rate) and need an auxiliary structure to "
              "answer set queries at all; counter-based techniques give "
              "exact-on-skew answers at a fraction of the space.\n");
  return 0;
}
