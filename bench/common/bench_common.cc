#include "common/bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <thread>

#include "core/flat_stream_summary.h"
#include "core/space_saving.h"
#include "util/json_writer.h"
#include "util/metrics.h"
#include "util/stopwatch.h"
#include "util/trace.h"
#include "util/thread_utils.h"

namespace cots {
namespace bench {

namespace {

// Safety net for --json: a copy of the parsed config so the report is
// written at exit even when a bench main returns without calling
// WriteIfRequested itself.
BenchConfig g_atexit_config;

void WriteReportAtExit() {
  BenchReport::Global().WriteIfRequested(g_atexit_config);
}

}  // namespace

BenchConfig BenchConfig::Parse(int argc, char** argv) {
  BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--full") == 0) {
      config.full = true;
    } else if (std::strncmp(arg, "--n=", 4) == 0) {
      config.n = std::strtoull(arg + 4, nullptr, 10);
    } else if (std::strncmp(arg, "--alphabet=", 11) == 0) {
      config.alphabet = std::strtoull(arg + 11, nullptr, 10);
    } else if (std::strncmp(arg, "--capacity=", 11) == 0) {
      config.capacity = std::strtoull(arg + 11, nullptr, 10);
    } else if (std::strncmp(arg, "--repeats=", 10) == 0) {
      config.repeats = static_cast<int>(std::strtol(arg + 10, nullptr, 10));
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      config.seed = std::strtoull(arg + 7, nullptr, 10);
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      config.json_path = arg + 7;
    } else {
      std::fprintf(stderr,
                   "unknown argument: %s\n"
                   "usage: [--full] [--n=N] [--alphabet=A] [--capacity=C] "
                   "[--repeats=R] [--seed=S] [--json=FILE]\n",
                   arg);
      std::exit(2);
    }
  }
  if (config.repeats < 1) config.repeats = 1;
  if (!config.json_path.empty()) {
    g_atexit_config = config;
    std::atexit(WriteReportAtExit);
  }
  return config;
}

BenchReport& BenchReport::Global() {
  // Leaked: the atexit safety net runs after function-local statics are
  // destroyed, so the report must never be destroyed at all.
  static BenchReport* report = new BenchReport();
  return *report;
}

void BenchReport::AddTiming(
    const std::string& label, double seconds,
    const std::vector<std::pair<std::string, double>>& extras,
    const std::vector<std::pair<std::string, std::string>>& tags) {
  timings_.push_back(TimingRow{label, seconds, extras, tags});
}

std::string BenchReport::ToJson(const BenchConfig& config) const {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema_version").Uint(1);
  w.Key("bench").String(title_);
  w.Key("config").BeginObject();
  w.Key("full").Bool(config.full);
  w.Key("n").Uint(config.n);
  w.Key("alphabet").Uint(config.alphabet);
  w.Key("capacity").Uint(config.capacity);
  w.Key("repeats").Int(config.repeats);
  w.Key("seed").Uint(config.seed);
  w.EndObject();
  w.Key("machine").BeginObject();
  w.Key("hardware_threads").Int(HardwareConcurrency());
  w.Key("topology").String(CpuTopologySummary());
  w.Key("metrics_enabled").Bool(COTS_METRICS_ENABLED != 0);
  w.Key("trace_enabled").Bool(COTS_TRACE_ENABLED != 0);
  w.EndObject();
  w.Key("timings").BeginArray();
  const double hardware_threads = static_cast<double>(HardwareConcurrency());
  for (const TimingRow& row : timings_) {
    w.BeginObject();
    w.Key("label").String(row.label);
    w.Key("seconds").Double(row.seconds);
    bool oversubscribed = false;
    for (const auto& [key, value] : row.extras) {
      w.Key(key).Double(value);
      // A "threads" column beyond the machine's hardware threads is a
      // timeshared measurement, not a scaling point; stamp the row so
      // BENCH_*.json trajectories can never silently claim scaling from a
      // smaller machine (the committed seed numbers came from a 1-thread
      // box).
      if (key == "threads" && value > hardware_threads) oversubscribed = true;
    }
    if (oversubscribed) w.Key("oversubscribed").Bool(true);
    for (const auto& [key, value] : row.tags) {
      w.Key(key).String(value);
    }
    w.EndObject();
  }
  w.EndArray();
  w.Key("metrics");
  MetricsRegistry::Global().Snapshot().AppendJson(&w);
  w.EndObject();
  return w.str();
}

bool BenchReport::WriteIfRequested(const BenchConfig& config) {
  if (config.json_path.empty() || written_) return false;
  const std::string doc = ToJson(config);
  std::FILE* f = std::fopen(config.json_path.c_str(), "w");
  if (f == nullptr ||
      std::fwrite(doc.data(), 1, doc.size(), f) != doc.size() ||
      std::fputc('\n', f) == EOF || std::fclose(f) != 0) {
    std::fprintf(stderr, "bench: cannot write --json report to %s\n",
                 config.json_path.c_str());
    std::exit(1);
  }
  written_ = true;
  std::printf("\n[json report: %s]\n", config.json_path.c_str());
  return true;
}

void PrintHeader(const std::string& title, const BenchConfig& config) {
  BenchReport::Global().SetTitle(title);
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("machine: %s | scale: %s | capacity(m): %zu | repeats: %d\n",
              CpuTopologySummary().c_str(), config.full ? "FULL (paper)" : "CI",
              config.capacity, config.repeats);
  std::printf("==============================================================\n");
}

Stream MakeStream(uint64_t n, double alpha, const BenchConfig& config) {
  ZipfOptions opt;
  opt.alphabet_size = config.AlphabetFor(n);
  opt.alpha = alpha;
  opt.seed = config.seed;
  return MakeZipfStream(n, opt);
}

double BestOf(const BenchConfig& config, const std::function<double()>& fn) {
  double best = fn();
  for (int r = 1; r < config.repeats; ++r) best = std::min(best, fn());
  return best;
}

double TimeSequential(const Stream& stream, size_t capacity) {
  SpaceSavingOptions opt;
  opt.capacity = capacity;
  if (!opt.Validate().ok()) std::abort();
  SpaceSaving engine(opt);
  Stopwatch timer;
  engine.Process(stream);
  return timer.ElapsedSeconds();
}

double TimeSequentialFlat(const Stream& stream, size_t capacity) {
  FlatStreamSummary summary(capacity);
  Stopwatch timer;
  for (ElementId e : stream) summary.Offer(e);
  return timer.ElapsedSeconds();
}

namespace {

// Contiguous slice [begin, end) for thread t of p over n elements.
std::pair<uint64_t, uint64_t> SliceFor(uint64_t n, int threads, int t) {
  const uint64_t slice = n / static_cast<uint64_t>(threads);
  const uint64_t begin = slice * static_cast<uint64_t>(t);
  const uint64_t end = t == threads - 1 ? n : begin + slice;
  return {begin, end};
}

}  // namespace

template <typename Mutex>
double TimeShared(const Stream& stream, int threads, size_t capacity,
                  PhaseProfiler* profiler) {
  SharedSpaceSavingOptions opt;
  opt.capacity = capacity;
  if (!opt.Validate().ok()) std::abort();
  SharedSpaceSaving<Mutex> engine(opt);
  Stopwatch timer;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      auto [begin, end] = SliceFor(stream.size(), threads, t);
      for (uint64_t i = begin; i < end; ++i) {
        engine.Offer(stream[i], t, profiler);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  return timer.ElapsedSeconds();
}

template double TimeShared<std::mutex>(const Stream&, int, size_t,
                                       PhaseProfiler*);
template double TimeShared<SpinLock>(const Stream&, int, size_t,
                                     PhaseProfiler*);

double TimeIndependent(const Stream& stream, int threads, size_t capacity,
                       uint64_t query_interval, MergeStrategy strategy,
                       PhaseProfiler* profiler, uint64_t* merges) {
  IndependentSpaceSavingOptions opt;
  opt.capacity = capacity;
  opt.num_threads = threads;
  opt.query_interval = query_interval;
  opt.merge_strategy = strategy;
  if (!opt.Validate().ok()) std::abort();
  IndependentSpaceSaving engine(opt);
  Stopwatch timer;
  IndependentRunResult result = engine.Run(stream, profiler);
  const double seconds = timer.ElapsedSeconds();
  if (merges != nullptr) *merges = result.merges_performed;
  return seconds;
}

double TimeCots(const Stream& stream, int threads, size_t capacity,
                CotsRunStats* stats, size_t hash_block_entries) {
  CotsSpaceSavingOptions opt;
  opt.capacity = capacity;
  opt.hash_block_entries = hash_block_entries;
  opt.max_threads = threads + 8;
  if (!opt.Validate().ok()) std::abort();
  CotsSpaceSaving engine(opt);
  Stopwatch timer;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      auto handle = engine.RegisterThread();
      if (handle == nullptr) std::abort();
      auto [begin, end] = SliceFor(stream.size(), threads, t);
      // Batch the epoch guard: one pin per kBatch elements.
      constexpr uint64_t kBatch = 512;
      for (uint64_t i = begin; i < end; i += kBatch) {
        const uint64_t len = std::min(kBatch, end - i);
        handle->OfferBatch(stream.data() + i, len);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const double seconds = timer.ElapsedSeconds();
  if (stats != nullptr) {
    stats->bulk_increments = engine.stats().bulk_increments.load();
    stats->buckets_created = engine.stats().buckets_created.load();
    stats->buckets_garbage_collected =
        engine.stats().buckets_garbage_collected.load();
    stats->overwrites_deferred = engine.stats().overwrites_deferred.load();
  }
  return seconds;
}

void PrintRow(const std::vector<std::string>& cells, int width) {
  for (size_t i = 0; i < cells.size(); ++i) {
    if (i == 0) {
      std::printf("%-18s", cells[i].c_str());
    } else {
      std::printf("%*s", width, cells[i].c_str());
    }
  }
  std::printf("\n");
}

std::string FormatSeconds(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4fs", seconds);
  return buf;
}

std::string FormatRate(double eps) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fM/s", eps / 1e6);
  return buf;
}

std::string FormatRatio(double ratio) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", ratio);
  return buf;
}

std::string FormatPercent(double percent) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", percent);
  return buf;
}

}  // namespace bench
}  // namespace cots
