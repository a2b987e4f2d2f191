// Reproduces the headline efficiency claim (Abstract / Sections 1 and 6):
// "the efficiency is established by peak throughput of more than 60 million
// elements per second". Sweeps alpha x threads for CoTS and reports the
// peak elements/second observed, alongside two sequential rows: SpaceSaving
// on the paper's linked Stream Summary and FlatStreamSummary
// (core/flat_stream_summary.h), each timed directly.
//
// That sequential pair is what tools/perf_smoke.py gates on: the
// flat/linked rate ratio is machine-insensitive, so CI can catch a flat
// regression without absolute-throughput flakiness. Sequential rows carry
// a "layout" tag; flat rows add a "flat" to the label. The sweep
// starts at alpha 0.8, where nearly every offer evicts, so the gate also
// covers the eviction path (victim scan and index erase/insert) that the
// high-skew rows rarely reach.

#include <algorithm>
#include <cstdio>

#include "common/bench_common.h"

using namespace cots;
using namespace cots::bench;

namespace {
constexpr int kSequentialPassesPerRepeat = 8;
}  // namespace

int main(int argc, char** argv) {
  BenchConfig config = BenchConfig::Parse(argc, argv);
  const uint64_t n = config.n != 0 ? config.n : (config.full ? 4'000'000 : 1'000'000);
  const std::vector<double> alphas = {0.8, 1.5, 2.0, 2.5, 3.0};
  const std::vector<int> threads =
      config.full ? std::vector<int>{1, 2, 4, 8, 16} : std::vector<int>{1, 2, 4, 8};

  PrintHeader("Headline: peak CoTS throughput (elements/second)", config);
  std::printf("stream: %llu elements\n\n", static_cast<unsigned long long>(n));

  PrintRow({"alpha", "seq linked", "seq flat", "1-thread", "best CoTS",
            "at threads", "bulk incs"});
  double peak = 0.0;
  for (double alpha : alphas) {
    Stream stream = MakeStream(n, alpha, config);
    const std::string a = "a=" + std::to_string(alpha);
    std::vector<std::string> cells = {a.substr(0, 5)};
    // Best of the passes per layout, with the two layouts' passes
    // interleaved: a flat pass is about a tenth of a linked one, and host
    // speed swings that last tens of ms would otherwise hit one row and not
    // the other, moving the gated ratio. The gated pair takes
    // kSequentialPassesPerRepeat passes per repeat: a flat pass lasts a few
    // ms, and a best of three such passes still lands in a slow streak of
    // this shared host often enough to fail a correct build.
    double seq_best[2] = {1e100, 1e100};  // {linked, flat}
    for (int r = 0; r < kSequentialPassesPerRepeat * config.repeats; ++r) {
      seq_best[0] =
          std::min(seq_best[0], TimeSequential(stream, config.capacity));
      seq_best[1] =
          std::min(seq_best[1], TimeSequentialFlat(stream, config.capacity));
    }
    for (const bool flat : {false, true}) {
      const double seq = seq_best[flat ? 1 : 0];
      BenchReport::Global().AddTiming(
          std::string("sequential ") + (flat ? "flat " : "") + a, seq,
          {{"alpha", alpha}, {"rate_eps", static_cast<double>(n) / seq}},
          {{"layout", flat ? "flat" : "linked"}});
      cells.push_back(FormatRate(static_cast<double>(n) / seq));
    }

    double best = 1e100;
    double single = 0.0;
    int best_t = 0;
    uint64_t best_bulk = 0;
    for (int t : threads) {
      CotsRunStats stats;
      const double seconds = BestOf(config, [&] {
        return TimeCots(stream, t, config.capacity, &stats);
      });
      if (t == 1) single = seconds;
      if (seconds < best) {
        best = seconds;
        best_t = t;
        best_bulk = stats.bulk_increments;
      }
    }
    const double rate = static_cast<double>(n) / best;
    peak = std::max(peak, rate);
    // The single-thread row isolates the batched-ingest pipeline (prefetch
    // + coalescing) from scaling effects: it is the per-core ingest cost.
    if (single > 0.0) {
      BenchReport::Global().AddTiming(
          "cots single-thread " + a, single,
          {{"alpha", alpha},
           {"threads", 1.0},
           {"rate_eps", static_cast<double>(n) / single}});
    }
    BenchReport::Global().AddTiming(
        "cots " + a, best,
        {{"alpha", alpha},
         {"threads", static_cast<double>(best_t)},
         {"rate_eps", rate},
         {"bulk_increments", static_cast<double>(best_bulk)}});
    cells.push_back(single > 0.0 ? FormatRate(static_cast<double>(n) / single)
                                 : std::string("-"));
    cells.push_back(FormatRate(rate));
    cells.push_back(std::to_string(best_t));
    cells.push_back(std::to_string(best_bulk));
    PrintRow(cells);
  }
  BenchReport::Global().AddTiming("peak", static_cast<double>(n) / peak,
                                  {{"rate_eps", peak}});
  std::printf("\nPeak observed: %s (paper reports > 60M/s on a 2008-era "
              "quad core at high skew)\n",
              FormatRate(peak).c_str());
  return 0;
}
