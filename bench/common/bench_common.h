// Copyright (c) the CoTS reproduction authors.
//
// Shared machinery for the figure/table benchmark binaries. Each binary
// regenerates one table or figure from the paper's evaluation (Section 4.3
// and Section 6); this header provides the workload builder, the timed
// runners for all four systems (sequential, shared, independent, CoTS), and
// the table printer.
//
// Defaults are scaled down ~10x from the paper so that `for b in bench/*;
// do $b; done` finishes in minutes on one core; pass --full for paper-scale
// parameters (5M-100M element streams, up to 256 threads). Shapes — who
// wins, by what factor, where the crossovers sit — are what reproduce;
// absolute numbers depend on the machine, whose topology every binary
// prints in its header.

#ifndef COTS_BENCH_COMMON_BENCH_COMMON_H_
#define COTS_BENCH_COMMON_BENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "baselines/independent_space_saving.h"
#include "baselines/shared_space_saving.h"
#include "cots/cots_space_saving.h"
#include "stream/zipf_generator.h"
#include "util/phase_profiler.h"

namespace cots {
namespace bench {

struct BenchConfig {
  /// Paper-scale parameters instead of CI-scale.
  bool full = false;
  /// Stream length override (0 = per-bench default).
  uint64_t n = 0;
  /// Alphabet override (0 = n / 20, the paper's 5M:100M ratio).
  uint64_t alphabet = 0;
  /// Monitored counters for every engine.
  size_t capacity = 1000;
  /// Timing repeats per configuration (median-of reported).
  int repeats = 1;
  uint64_t seed = 42;
  /// When non-empty, the run writes a machine-readable report here (see
  /// BenchReport; the document contract is documented in DESIGN.md).
  std::string json_path;

  /// Parses --full, --n=, --alphabet=, --capacity=, --repeats=, --seed=,
  /// --json=. When --json=FILE is given, the report is written at process
  /// exit even if the bench never touches BenchReport itself.
  static BenchConfig Parse(int argc, char** argv);

  uint64_t AlphabetFor(uint64_t stream_len) const {
    if (alphabet != 0) return alphabet;
    const uint64_t a = stream_len / 20;
    return a < 64 ? 64 : a;
  }
};

/// Prints the standard header: bench name, machine topology, parameters.
/// Also names the JSON report after `title`.
void PrintHeader(const std::string& title, const BenchConfig& config);

// ---- Machine-readable reporting (--json=FILE) ----

/// Accumulates one run's results and serializes them as a single JSON
/// document with four sections: "config" (the parsed BenchConfig),
/// "machine" (topology), "timings" (every AddTiming call, in order), and
/// "metrics" (the MetricsRegistry snapshot at write time). `BENCH_*.json`
/// trajectories are built from these documents; see DESIGN.md for the key
/// contract. Mains are single-threaded, and so is this class.
class BenchReport {
 public:
  /// The per-process report every bench main records into.
  static BenchReport& Global();

  void SetTitle(const std::string& title) { title_ = title; }

  /// Records one timed result. `extras` carries bench-specific numbers
  /// (threads, speedup, operation counts) straight into the timing row;
  /// `tags` carries bench-specific strings (e.g. layout={linked,flat}) so
  /// perf tooling can slice rows without parsing labels.
  void AddTiming(
      const std::string& label, double seconds,
      const std::vector<std::pair<std::string, double>>& extras = {},
      const std::vector<std::pair<std::string, std::string>>& tags = {});

  /// The full report document (always valid JSON).
  std::string ToJson(const BenchConfig& config) const;

  /// Writes ToJson to config.json_path. No-op (returns false) when the run
  /// was started without --json=FILE; exits non-zero on I/O failure so a
  /// perf pipeline never silently loses a data point. Idempotent: the
  /// atexit safety net skips files already written.
  bool WriteIfRequested(const BenchConfig& config);

 private:
  struct TimingRow {
    std::string label;
    double seconds = 0.0;
    std::vector<std::pair<std::string, double>> extras;
    std::vector<std::pair<std::string, std::string>> tags;
  };

  std::string title_;
  std::vector<TimingRow> timings_;
  bool written_ = false;
};

/// Zipfian stream with the bench conventions (permuted keys).
Stream MakeStream(uint64_t n, double alpha, const BenchConfig& config);

/// Runs `fn` config.repeats times and returns the best (minimum) seconds —
/// the paper's Table 2 compares best-case execution times.
double BestOf(const BenchConfig& config, const std::function<double()>& fn);

// ---- Timed runners (seconds of wall time to consume the whole stream) ----

double TimeSequential(const Stream& stream, size_t capacity,
                      SummaryLayout layout = SummaryLayout::kLinked);

/// Shared Structure baseline; threads slice the stream contiguously.
template <typename Mutex>
double TimeShared(const Stream& stream, int threads, size_t capacity,
                  PhaseProfiler* profiler = nullptr);

/// Independent Structures baseline with a merge every `query_interval`.
double TimeIndependent(const Stream& stream, int threads, size_t capacity,
                       uint64_t query_interval, MergeStrategy strategy,
                       PhaseProfiler* profiler = nullptr,
                       uint64_t* merges = nullptr);

struct CotsRunStats {
  uint64_t bulk_increments = 0;
  uint64_t buckets_created = 0;
  uint64_t buckets_garbage_collected = 0;
  uint64_t overwrites_deferred = 0;
};

/// CoTS engine; threads slice the stream contiguously.
double TimeCots(const Stream& stream, int threads, size_t capacity,
                CotsRunStats* stats = nullptr, size_t hash_block_entries = 2);

// ---- Table printing ----

/// Prints a row of fixed-width columns: first column left-aligned label,
/// the rest right-aligned.
void PrintRow(const std::vector<std::string>& cells, int width = 12);

std::string FormatSeconds(double seconds);
std::string FormatRate(double elements_per_second);
std::string FormatRatio(double ratio);
std::string FormatPercent(double percent);

}  // namespace bench
}  // namespace cots

#endif  // COTS_BENCH_COMMON_BENCH_COMMON_H_
