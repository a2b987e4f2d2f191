// Copyright (c) the CoTS reproduction authors.
//
// perfbench_driver: runs one workload of the repository benchmark and
// prints a report followed by one JSON result line. perfbench/BENCHMARK.md
// defines every workload and metric; run it through perfbench/run.py.
//
//   perfbench_driver --workload=NAME --seed=N --seconds=S --trace=0|1
//                    --server=PATH [--trace-out=FILE]
//
// Untraced runs (--trace=0) report the end-to-end metrics. Traced runs
// (--trace=1) time public calls from the outside, write the spans as Chrome
// trace JSON, and report the per-layer metrics. This file instruments
// nothing inside the library: it calls the public API of CotsFleet,
// QueryEngine and FlatStreamSummary, and the ingest_server wire and stats
// protocols.
//
// Every run ends with an oracle gate against ExactCounter. A failed validity
// guard (thread budget, generator lateness, phase-A saturation, input
// generator drift) exits with status 3 and prints no result.

#ifdef __linux__

#include <arpa/inet.h>
#include <fcntl.h>
#include <malloc.h>
#include <netinet/in.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/flat_stream_summary.h"
#include "core/published_view.h"
#include "core/query.h"
#include "core/summary_merge.h"
#include "cots/cots_fleet.h"
#include "stream/exact_counter.h"
#include "util/json_writer.h"
#include "util/metrics.h"
#include "util/stopwatch.h"

extern char** environ;

namespace {

using cots::CotsFleet;
using cots::Counter;
using cots::ElementId;
using cots::ExactCounter;
using cots::OfferOutcome;

// The server's production fleet (ingest_server defaults on a 4-core box).
constexpr size_t kShards = 4;
constexpr size_t kCapacity = 1000;
constexpr uint64_t kViewRefresh = 8192;

constexpr uint64_t kAlphabet = 1'000'000;
// Keys per producer / connection, replayed cyclically. A multiple of both
// the offer batch and the socket chunk, so every pass is whole batches.
constexpr size_t kStreamKeys = size_t{1} << 22;
constexpr size_t kQueryKeys = size_t{1} << 16;
constexpr size_t kBatch = 512;       // OfferBatchBounded batch
constexpr size_t kChunkKeys = 4096;  // socket write: 8 server dispatch batches
constexpr size_t kTopK = 100;
constexpr size_t kProbesPerPoll = 64;
constexpr double kPhi = 0.001;
constexpr double kPacedPollHz = 5000.0;
constexpr double kStatsPollHz = 1000.0;
// Phase B's open-loop rate: about half of the server's ~1.2M elem/s
// saturating rate on the reference box, fixed so that the stats round trip
// is never measured while socket buffers are full.
constexpr double kPhaseBRate = 600'000.0;
// Set-up takes under a millisecond. Half of the cold starts run before the
// measured phase and half after it, so the median spans two moments of the
// host rather than one.
constexpr int kFleetSetupsPerBatch = 75;
// Reported figures cover the whole measured phase. The phase is also cut
// into this many equal windows, whose figures are printed (not reported)
// to show how steady the phase was.
constexpr int kWindows = 10;
constexpr int kHeapSamples = 50;
// Back-to-back pollers time every poll but keep every 16th sample (room for
// kBackToBackSamplesPerSecond, over 3x what the reference host produces),
// and in traced runs record the spans of every 64th poll.
constexpr uint64_t kBackToBackSampleEvery = 16;
constexpr double kBackToBackSamplesPerSecond = 80'000.0;
constexpr uint64_t kBackToBackSpanEvery = 64;
// Spans per name kept in the trace file (strided); statistics use all.
constexpr size_t kTraceFileSpansPerName = 4000;

int64_t Now() { return static_cast<int64_t>(cots::NowNanos()); }

// Servers still running; an early exit stops and reaps them first.
std::vector<pid_t> g_live_servers;

[[noreturn]] void Exit(int code) {
  for (pid_t pid : g_live_servers) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
  }
  std::exit(code);
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  Exit(1);
}

// The run measured the wrong thing: report nothing rather than mislead.
[[noreturn]] void GuardFail(const std::string& what) {
  std::fprintf(stderr, "perfbench: validity guard failed: %s\n", what.c_str());
  Exit(3);
}

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

void SpinUntil(int64_t t) {
  while (Now() < t) CpuRelax();
}

// Linear-interpolated quantile; sorts in place. 0 when empty.
double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const double pos = q * static_cast<double>(v->size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v->size() - 1);
  return (*v)[lo] + ((*v)[hi] - (*v)[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(&v, 0.5); }

// A measurement at a time offset (seconds) into its phase.
struct Sample {
  float t;
  float v;
};

std::vector<double> Values(const std::vector<Sample>& s) {
  std::vector<double> v;
  v.reserve(s.size());
  for (const Sample& x : s) v.push_back(x.v);
  return v;
}

// The q-quantile of each of kWindows equal windows of [0, span).
std::vector<double> WindowQuantiles(const std::vector<Sample>& s, double span, double q) {
  std::vector<std::vector<double>> w(kWindows);
  for (const Sample& x : s) {
    const int i = static_cast<int>(x.t / span * kWindows);
    if (i >= 0 && i < kWindows) w[static_cast<size_t>(i)].push_back(x.v);
  }
  std::vector<double> per;
  for (auto& v : w) {
    if (!v.empty()) per.push_back(Quantile(&v, q));
  }
  return per;
}

// "windows min/median/max a/b/c": the printed steadiness diagnostic.
std::string WindowSpread(std::vector<double> per) {
  if (per.empty()) return "no windows";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "windows min/median/max %.4g/%.4g/%.4g",
                *std::min_element(per.begin(), per.end()), Median(per),
                *std::max_element(per.begin(), per.end()));
  return buf;
}

// A time stamp with an element count: an offer's return with the elements
// returned fleet-wide so far, a published view or stats reply with the
// elements it covers, a socket chunk's due time with the elements due so far.
struct Mark {
  int64_t t_ns;
  uint64_t count;
};

// Keeps marks in time order with counts made non-decreasing.
void SortCumulative(std::vector<Mark>* marks) {
  std::sort(marks->begin(), marks->end(),
            [](const Mark& a, const Mark& b) { return a.t_ns < b.t_ns; });
  for (size_t i = 1; i < marks->size(); ++i) {
    (*marks)[i].count = std::max((*marks)[i].count, (*marks)[i - 1].count);
  }
}

// The rate (per second) of a cumulative count in each of kWindows equal
// windows of [from, to).
std::vector<double> WindowRates(std::vector<Mark> points, int64_t from, int64_t to) {
  SortCumulative(&points);
  std::vector<double> rates;
  size_t j = 0;
  uint64_t count = 0;
  while (j < points.size() && points[j].t_ns <= from) count = points[j++].count;
  uint64_t prev = count;
  for (int w = 1; w <= kWindows; ++w) {
    while (j < points.size() && points[j].t_ns <= from + (to - from) * w / kWindows) {
      count = points[j++].count;
    }
    rates.push_back(static_cast<double>(count - prev) / ((to - from) * 1e-9 / kWindows));
    prev = count;
  }
  return rates;
}

// Lag from each event to the first observation at or after it whose count
// covers the event's count, stamped at the event's offset from t0. Events
// no observation covers are counted in *unresolved.
void CoverLag(std::vector<Mark> seen, const std::vector<Mark>& events, int64_t t0,
              std::vector<Sample>* lag_ms, uint64_t* unresolved) {
  SortCumulative(&seen);
  for (const Mark& ev : events) {
    auto it = std::lower_bound(seen.begin(), seen.end(), ev.t_ns,
                               [](const Mark& m, int64_t t) { return m.t_ns < t; });
    it = std::lower_bound(it, seen.end(), ev.count,
                          [](const Mark& m, uint64_t n) { return m.count < n; });
    if (it == seen.end()) {
      ++*unresolved;
    } else {
      lag_ms->push_back(Sample{static_cast<float>((ev.t_ns - t0) * 1e-9),
                               static_cast<float>((it->t_ns - ev.t_ns) * 1e-6)});
    }
  }
}

uint64_t ProcStatusKb(pid_t pid, const char* field) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 0;
  char line[256];
  uint64_t value = 0;
  const size_t flen = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, flen) == 0 && line[flen] == ':') {
      value = std::strtoull(line + flen + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return value;
}


// Heap bytes the process holds (allocated and not yet freed), all arenas.
// In-process mem_mb is its growth over the run: the system under test's
// live structures plus garbage awaiting epoch reclamation, sampled
// kHeapSamples times at even intervals and reported as the median. Resident-set growth measured the same
// memory plus whatever glibc's per-thread arenas happened to retain, and
// moved by 13-20% between identical runs; a single end-of-run sample
// caught the reclamation backlog at a random instant.
double HeapMb() {
  const struct mallinfo2 mi = ::mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

int Threads(pid_t pid) { return static_cast<int>(ProcStatusKb(pid, "Threads")); }

// The CPUs this process may run on, as it started.
const cpu_set_t& AllowedCpus() {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    ::sched_getaffinity(0, sizeof(set), &set);
    return set;
  }();
  return allowed;
}

int Nproc() { return CPU_COUNT(&AllowedCpus()); }

// Every thread of a run, the server's included, gets a CPU of its own (the
// slot-th allowed CPU): a run uses at most nproc threads, and pinning keeps
// the guest scheduler from stacking two of them on one CPU. pid 0 is the
// calling thread; slot < 0 restores the starting affinity.
void Pin(pid_t pid, int slot) {
  cpu_set_t set = AllowedCpus();
  if (slot >= 0) {
    CPU_ZERO(&set);
    for (int cpu = 0, seen = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &AllowedCpus()) && seen++ == slot) CPU_SET(cpu, &set);
    }
  }
  ::sched_setaffinity(pid, sizeof(set), &set);
}

std::string N(size_t n) { return "n=" + std::to_string(n); }

// ---------------------------------------------------------------------------
// Spans (traced runs only): kept in memory per thread, written at the end.

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t dur_ns;
};

class SpanLog {
 public:
  explicit SpanLog(int tid) : tid_(tid) {}
  void Add(const char* name, int64_t start, int64_t end) {
    spans_.push_back(Span{name, start, end - start});
  }
  int tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int tid_;
  std::vector<Span> spans_;
};

class Tracer {
 public:
  SpanLog* NewLog() {
    std::lock_guard<std::mutex> lock(mu_);
    logs_.emplace_back(static_cast<int>(logs_.size()) + 1);
    return &logs_.back();
  }

  // Durations (µs) of every span called `name`, across threads.
  std::vector<double> DurationsUs(const char* name) const {
    std::vector<double> out;
    for (const SpanLog& log : logs_) {
      for (const Span& s : log.spans()) {
        if (std::strcmp(s.name, name) == 0) out.push_back(s.dur_ns * 1e-3);
      }
    }
    return out;
  }

  // Chrome trace-event JSON (the format tools/trace_summary.py reads), with
  // an evenly strided subset of at most kTraceFileSpansPerName spans per name.
  bool Write(const std::string& path, int64_t origin_ns) const {
    struct NameCount {
      const char* name;
      size_t total;
      size_t seen;
    };
    std::vector<NameCount> names;
    auto entry = [&names](const char* name) -> NameCount& {
      for (NameCount& n : names) {
        if (std::strcmp(n.name, name) == 0) return n;
      }
      names.push_back(NameCount{name, 0, 0});
      return names.back();
    };
    for (const SpanLog& log : logs_) {
      for (const Span& s : log.spans()) ++entry(s.name).total;
    }
    cots::JsonWriter w;
    w.BeginObject();
    w.Key("traceEvents").BeginArray();
    for (const SpanLog& log : logs_) {
      for (const Span& s : log.spans()) {
        NameCount& n = entry(s.name);
        if (n.seen++ % std::max<size_t>(1, n.total / kTraceFileSpansPerName) != 0) continue;
        w.BeginObject();
        w.Key("name").String(s.name);
        w.Key("ph").String("X");
        w.Key("pid").Uint(1);
        w.Key("tid").Uint(static_cast<uint64_t>(log.tid()));
        w.Key("ts").Double(std::max<int64_t>(0, s.start_ns - origin_ns) * 1e-3);
        w.Key("dur").Double(s.dur_ns * 1e-3);
        w.EndObject();
      }
    }
    w.EndArray();
    w.EndObject();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::string& body = w.str();
    const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
    return std::fclose(f) == 0 && ok;
  }

 private:
  std::mutex mu_;
  std::deque<SpanLog> logs_;  // a deque: logs never move once handed out
};

// ---------------------------------------------------------------------------
// Inputs and the oracle.

// The keys come from a generator of the benchmark's own, not the library's
// ZipfGenerator: the inputs that runs are compared on must not change when
// the code under test does.

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Zipf(alpha) over ranks 1..kAlphabet, drawn exactly in O(1) with Vose's
// alias method. A rank maps to its key through the SplitMix64 finalizer, a
// bijection, so hot keys are not adjacent integers.
class ZipfKeys {
 public:
  explicit ZipfKeys(double alpha) : threshold_(kAlphabet), alias_(kAlphabet) {
    std::vector<double> p(kAlphabet);
    double sum = 0.0;
    for (size_t i = 0; i < kAlphabet; ++i) {
      p[i] = std::pow(static_cast<double>(i + 1), -alpha);
      sum += p[i];
    }
    std::vector<uint32_t> small, large;
    for (size_t i = 0; i < kAlphabet; ++i) {
      p[i] *= static_cast<double>(kAlphabet) / sum;
      (p[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
    }
    while (!small.empty() && !large.empty()) {
      const uint32_t s = small.back();
      const uint32_t l = large.back();
      small.pop_back();
      threshold_[s] = static_cast<uint64_t>(std::ldexp(std::max(0.0, p[s]), 64));
      alias_[s] = l;
      p[l] -= 1.0 - p[s];
      if (p[l] < 1.0) {
        large.pop_back();
        small.push_back(l);
      }
    }
    // Columns left over (rounding) keep their own rank.
    for (uint32_t i : small) alias_[i] = i;
    for (uint32_t i : large) alias_[i] = i;
  }

  ElementId Draw(uint64_t* rng) const {
    const uint64_t col = static_cast<uint64_t>(
        (static_cast<unsigned __int128>(SplitMix(rng)) * kAlphabet) >> 64);
    const uint64_t rank = 1 + (SplitMix(rng) < threshold_[col] ? col : alias_[col]);
    uint64_t x = rank;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  std::vector<ElementId> Keys(uint64_t seed, size_t n) const {
    std::vector<ElementId> keys(n);
    for (ElementId& k : keys) k = Draw(&seed);
    return keys;
  }

 private:
  std::vector<uint64_t> threshold_;  // P(own rank) x 2^64 per column
  std::vector<uint32_t> alias_;
};

uint64_t Fnv1a(const std::vector<ElementId>& keys, uint64_t h = 0xcbf29ce484222325ULL) {
  for (ElementId k : keys) h = (h ^ k) * 0x100000001b3ULL;
  return h;
}

// FNV-1a of the first 2^16 keys drawn with seed 1, per workload alpha,
// recorded when the benchmark was defined. A mismatch means the generator
// (or the floating point it builds its table with) changed, and runs would
// be compared across different inputs.
constexpr size_t kReferenceKeys = size_t{1} << 16;
struct ReferenceChecksum {
  double alpha;
  uint64_t fnv1a;
};
constexpr ReferenceChecksum kReferenceChecksums[] = {
    {1.5, 0xa85667f8741421f4ULL},
    {0.8, 0x931931398e3ab25dULL},
};

struct Inputs {
  std::vector<std::vector<ElementId>> streams;  // one per producer
  std::vector<ElementId> query_keys;
  uint64_t checksum = 0;            // FNV-1a over every key
  uint64_t reference_checksum = 0;  // of the seed-1 reference prefix
};

Inputs MakeInputs(double alpha, uint64_t seed, size_t num_streams) {
  const ZipfKeys zipf(alpha);
  Inputs in;
  in.reference_checksum = Fnv1a(zipf.Keys(1, kReferenceKeys));
  uint64_t seeds = seed;
  for (size_t i = 0; i < num_streams; ++i) {
    in.streams.push_back(zipf.Keys(SplitMix(&seeds), kStreamKeys));
  }
  in.query_keys = zipf.Keys(SplitMix(&seeds), kQueryKeys);
  in.checksum = Fnv1a(in.query_keys);
  for (const auto& s : in.streams) in.checksum = Fnv1a(s, in.checksum);
  return in;
}

// Folds the first `total` elements of a cyclically replayed stream.
void AddReplayed(ExactCounter* exact, const std::vector<ElementId>& stream, uint64_t total) {
  const uint64_t passes = total / stream.size();
  const uint64_t rest = total % stream.size();
  for (size_t i = 0; i < stream.size(); ++i) {
    const uint64_t w = passes + (i < rest ? 1 : 0);
    if (w != 0) exact->Offer(stream[i], w);
  }
}

struct Oracle {
  uint64_t violations = 0;
  uint64_t keys_checked = 0;
  double recall = 0.0;
  double bound_ppm = 0.0;
};

// Every reported counter must sandwich the true count (true <= est and
// est - err <= true), every key the report leaves out must be bounded by
// `unreported_bound`, and recall compares the exact and reported top-k.
void CheckCounters(const std::vector<Counter>& reported, uint64_t unreported_bound,
                   const ExactCounter& exact, Oracle* o) {
  std::unordered_set<ElementId> present;
  for (const Counter& c : reported) {
    present.insert(c.key);
    const uint64_t t = exact.Count(c.key);
    if (t > c.count || c.GuaranteedCount() > t) ++o->violations;
  }
  for (const auto& [key, t] : exact.counts()) {
    ++o->keys_checked;
    if (present.count(key) == 0 && t > unreported_bound) ++o->violations;
  }
  std::unordered_set<ElementId> top;
  for (size_t i = 0; i < std::min(kTopK, reported.size()); ++i) top.insert(reported[i].key);
  const std::vector<ElementId> truth = exact.TopK(kTopK);
  size_t hits = 0;
  for (ElementId k : truth) hits += top.count(k);
  o->recall = truth.empty() ? 0.0 : static_cast<double>(hits) / static_cast<double>(truth.size());
}

// ---------------------------------------------------------------------------
// In-process fleet pass.

cots::CotsFleetOptions FleetOptions() {
  cots::CotsFleetOptions o;
  o.num_shards = kShards;
  o.engine.capacity = kCapacity;
  o.view_refresh_interval = kViewRefresh;
  return o;
}

// One cold start, run in a fresh process (--setup-probe) so that neither
// the benchmark's own buffers nor earlier set-ups warm the allocator:
// fleet construction, one handle per thread, the first published view.
int SetupProbe(int threads) {
  const int64_t t0 = Now();
  auto fleet = std::make_unique<CotsFleet>(FleetOptions());
  std::vector<std::unique_ptr<CotsFleet::ThreadHandle>> handles;
  for (int t = 0; t < threads; ++t) handles.push_back(fleet->RegisterThread());
  fleet->RefreshQueryView();
  const int64_t t1 = Now();
  for (const auto& h : handles) {
    if (h == nullptr) Die("fleet session limit reached in set-up");
  }
  std::printf("%.9f\n", (t1 - t0) * 1e-9);
  return 0;
}

// Runs `argv` with stdout on a pipe, waits for it, and returns its stdout.
std::string RunCapture(std::vector<std::string> args) {
  int pipefd[2];
  if (::pipe2(pipefd, O_CLOEXEC) != 0) Die("pipe2() failed");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, pipefd[1], STDOUT_FILENO);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, argv[0], &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  ::close(pipefd[1]);
  if (rc != 0) Die("cannot spawn " + args[0]);
  std::string out;
  char buf[256];
  for (ssize_t r; (r = ::read(pipefd[0], buf, sizeof(buf))) != 0;) {
    if (r > 0) out.append(buf, static_cast<size_t>(r));
    if (r < 0 && errno != EINTR) break;
  }
  ::close(pipefd[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) Die(args[0] + " failed");
  return out;
}

// Adds kFleetSetupsPerBatch cold starts to *samples (seconds each).
void MeasureFleetSetup(int threads, std::vector<double>* samples) {
  for (int i = 0; i < kFleetSetupsPerBatch; ++i) {
    samples->push_back(std::strtod(
        RunCapture({"/proc/self/exe", "--setup-probe=" + std::to_string(threads)}).c_str(),
        nullptr));
  }
}

struct FleetSpec {
  const Inputs* in = nullptr;
  int producers = 1;
  int queriers = 1;
  double poll_hz = 0.0;      // 0 = back-to-back
  double seconds = 1.0;
  Tracer* tracer = nullptr;  // null = untraced
};

struct FleetResult {
  double seconds = 0.0;                   // measured phase
  double throughput_meps = 0.0;           // measured elements / measured phase
  std::vector<double> window_meps;        // diagnostic
  double kqps = 0.0;                      // queries / time to the last poll's end
  std::vector<double> window_kqps;        // diagnostic
  std::vector<Sample> lag_ms;             // at offer-return time
  uint64_t lag_unresolved = 0;
  std::vector<Sample> poll_us;            // at poll end, timed from the due time
  std::vector<double> late_ms;            // paced pollers only
  double mem_mb = 0.0;
  size_t heap_samples = 0;
  int threads = 0;
  uint64_t offered = 0;
  uint64_t refused = 0;
  uint64_t shed = 0;
  uint64_t batches = 0;
  uint64_t overloaded_batches = 0;
  uint64_t polls = 0;
  Oracle oracle;
  // Traced runs only.
  std::vector<double> offer_us;
  double route_ns_per_elem = 0.0;
  uint64_t shards_touched = 0;
  double shard_skew = 0.0;
  double publish_ms = 0.0;
  double producer_seconds = 0.0;
  uint64_t live_fallback_polls = 0;
  cots::MetricsSnapshot before, after;
};

// Benchmark-side buffers are allocated before the heap baseline and never
// grow while measured, so that mem_mb counts the system under test only.
constexpr size_t kMaxLagEvents = size_t{1} << 19;
constexpr size_t kMaxViewsSeen = size_t{1} << 17;

struct QuerierState {
  // poll_us holds `samples` entries; late_ms as many for a paced poller.
  QuerierState(size_t samples, bool paced)
      : poll_us(samples), late_ms(paced ? samples : 0) {}
  std::vector<Sample> poll_us;
  size_t n_poll = 0;
  std::vector<float> late_ms;
  size_t n_late = 0;
  std::vector<Mark> seen = std::vector<Mark>(kMaxViewsSeen);  // views seen
  size_t n_seen = 0;
  std::array<uint64_t, kWindows> window_polls{};
  std::vector<double> heap_mb;  // querier 0: kHeapSamples samples
  int64_t last_end = 0;         // end of the last poll
  uint64_t polls = 0;
  uint64_t live_fallback_polls = 0;
  uint64_t sink = 0;
};

// One query thread. A poll is TopK(100) plus 64 point queries alternating
// IsElementFrequent(e, 0.001) and IsElementInTopK(e, 100), through
// QueryEngine on a registered handle; only whole polls are timed. Paced
// pollers spin to each due time and are timed from it. After each poll the
// thread records any newly published view it sees, which yields the lag.
void QueryLoop(CotsFleet::ThreadHandle* handle, const FleetSpec& spec, int index, int64_t t0,
               int64_t deadline, const std::atomic<int>* phase, QuerierState* st) {
  Pin(0, index == 0 ? 0 : spec.producers + index);
  SpanLog* log = spec.tracer != nullptr ? spec.tracer->NewLog() : nullptr;
  cots::QueryEngine qe(handle);
  const std::vector<ElementId>& keys = spec.in->query_keys;
  size_t kpos = static_cast<size_t>(index) * 7919;
  const int64_t period = spec.poll_hz > 0 ? static_cast<int64_t>(1e9 / spec.poll_hz) : 0;
  const uint64_t sample_every = period > 0 ? 1 : kBackToBackSampleEvery;
  const uint64_t span_every = period > 0 ? 1 : kBackToBackSpanEvery;
  int64_t due = t0;
  uint64_t last_seq = 0;
  while (phase->load(std::memory_order_relaxed) == 1) {
    int64_t start;
    if (period > 0) {
      due += period;
      if (due >= deadline) break;
      SpinUntil(due);
      start = Now();
      if (st->n_late < st->late_ms.size()) {
        st->late_ms[st->n_late++] = static_cast<float>((start - due) * 1e-6);
      }
    } else {
      start = due = Now();
      if (start >= deadline) break;
    }
    if (log != nullptr) {
      if (handle->AcquireQueryView() == nullptr) ++st->live_fallback_polls;
      handle->ReleaseQueryView();
    }
    const int64_t t_a = log != nullptr ? Now() : start;
    st->sink += qe.TopK(kTopK).size();
    const int64_t t_b = log != nullptr ? Now() : 0;
    for (size_t i = 0; i < kProbesPerPoll; ++i) {
      const ElementId e = keys[kpos++ & (kQueryKeys - 1)];
      st->sink += (i & 1) != 0 ? qe.IsElementInTopK(e, kTopK) : qe.IsElementFrequent(e, kPhi);
    }
    const int64_t end = Now();
    st->last_end = end;
    const size_t window = static_cast<size_t>(
        std::min<int64_t>(kWindows - 1, (end - t0) * kWindows / (deadline - t0)));
    ++st->window_polls[window];
    if (index == 0 && static_cast<int64_t>(st->heap_mb.size()) * (deadline - t0) <=
                          (end - t0) * kHeapSamples) {
      st->heap_mb.push_back(HeapMb());
    }
    if (st->polls % sample_every == 0 && st->n_poll < st->poll_us.size()) {
      st->poll_us[st->n_poll++] = Sample{static_cast<float>((end - t0) * 1e-9),
                                         static_cast<float>((end - due) * 1e-3)};
    }
    if (log != nullptr && st->polls % span_every == 0) {
      log->Add("query.topk", t_a, t_b);
      log->Add("query.point_block", t_b, end);
      log->Add("query.poll", due, end);
    }
    ++st->polls;
    const cots::PublishedView* view = handle->AcquireQueryView();
    if (view != nullptr && view->sequence() != last_seq && st->n_seen < st->seen.size()) {
      last_seq = view->sequence();
      st->seen[st->n_seen++] = Mark{Now(), view->stream_length()};
    }
    handle->ReleaseQueryView();
  }
}

FleetResult RunFleet(const FleetSpec& spec) {
  FleetResult r;
  const int P = spec.producers;
  const int Q = spec.queriers;
  const bool traced = spec.tracer != nullptr;
  const auto sz = [](int i) { return static_cast<size_t>(i); };

  // Per producer: each measured offer's return and the fleet-wide count.
  std::vector<std::vector<Mark>> events(sz(P), std::vector<Mark>(kMaxLagEvents));
  std::vector<size_t> n_events(sz(P), 0);
  const bool paced = spec.poll_hz > 0;
  const size_t poll_samples = static_cast<size_t>(
      (spec.seconds + 1.0) * (paced ? spec.poll_hz : kBackToBackSamplesPerSecond));
  std::vector<QuerierState> qs;
  for (int q = 0; q < Q; ++q) {
    qs.emplace_back(poll_samples, paced);
    qs.back().heap_mb.reserve(kHeapSamples + 1);
  }
  std::vector<std::vector<double>> offer_us(sz(P));
  const double heap0 = HeapMb();

  auto fleet = std::make_unique<CotsFleet>(FleetOptions());
  std::vector<std::unique_ptr<CotsFleet::ThreadHandle>> handles;
  for (int t = 0; t < P + Q; ++t) {
    handles.push_back(fleet->RegisterThread());
    if (handles.back() == nullptr) Die("fleet session limit reached");
  }
  fleet->RefreshQueryView();

  // phase: 0 warm-up, 1 measured, 2 stop. Warm-up runs until every shard
  // holds `capacity` counters; producers then park, so the measured phase
  // starts from a quiescent fleet.
  std::atomic<int> phase{0};
  std::atomic<bool> warm_stop{false};
  std::atomic<int> parked{0};
  std::atomic<int> finished{0};
  std::atomic<uint64_t> returned{0};
  std::vector<uint64_t> offered(sz(P), 0), refused(sz(P), 0), overloaded(sz(P), 0),
      batches(sz(P), 0), touched(sz(P), 0);
  std::vector<int64_t> route_ns(sz(P), 0);
  std::vector<double> busy_s(sz(P), 0.0);

  auto producer = [&](int p) {
    Pin(0, 1 + p);
    SpanLog* log = traced ? spec.tracer->NewLog() : nullptr;
    CotsFleet::ThreadHandle* h = handles[sz(p)].get();
    const std::vector<ElementId>& s = spec.in->streams[sz(p)];
    size_t pos = 0;
    auto offer = [&](bool measured) -> bool {
      const ElementId* batch = s.data() + pos;
      int64_t t_start = 0;
      if (log != nullptr && measured) {
        // The router's cost, timed from outside: ShardOf over the batch,
        // and the number of shards the batch touches.
        const int64_t r0 = Now();
        uint32_t mask = 0;
        for (size_t i = 0; i < kBatch; ++i) mask |= 1u << fleet->ShardOf(batch[i]);
        t_start = Now();
        route_ns[sz(p)] += t_start - r0;
        touched[sz(p)] += static_cast<uint64_t>(__builtin_popcount(mask));
        log->Add("fleet.shard_of_loop", r0, t_start);
      }
      const OfferOutcome outcome = h->OfferBatchBounded(batch, kBatch);
      const int64_t t_end = Now();
      if (outcome == OfferOutcome::kRefused) {
        refused[sz(p)] += kBatch;
        return false;
      }
      pos = (pos + kBatch) % s.size();
      offered[sz(p)] += kBatch;
      const uint64_t total = returned.fetch_add(kBatch) + kBatch;
      if (!measured) return true;
      ++batches[sz(p)];
      if (outcome == OfferOutcome::kOverloaded) ++overloaded[sz(p)];
      if (n_events[sz(p)] < kMaxLagEvents) events[sz(p)][n_events[sz(p)]++] = Mark{t_end, total};
      if (log != nullptr) {
        log->Add("fleet.offer_batch_bounded", t_start, t_end);
        offer_us[sz(p)].push_back((t_end - t_start) * 1e-3);
      }
      return true;
    };
    for (size_t i = 0; !warm_stop.load() || i < 64; ++i) {
      if (!offer(false)) break;
    }
    parked.fetch_add(1);
    while (phase.load() == 0) CpuRelax();
    const int64_t b0 = Now();
    while (phase.load(std::memory_order_relaxed) == 1) {
      if (!offer(true)) break;
    }
    busy_s[sz(p)] = (Now() - b0) * 1e-9;
    finished.fetch_add(1);
  };

  std::vector<std::thread> threads;
  for (int p = 0; p < P; ++p) threads.emplace_back(producer, p);
  for (bool full = false; !full;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    full = true;
    for (size_t s = 0; s < fleet->num_shards(); ++s) {
      full = full && fleet->shard(s).num_counters() >= kCapacity;
    }
  }
  warm_stop.store(true);
  while (parked.load() != P) std::this_thread::yield();

  if (traced) r.before = cots::MetricsRegistry::Global().Snapshot();
  const uint64_t counted0 = fleet->stream_length();
  const int64_t t0 = Now();
  const int64_t deadline = t0 + static_cast<int64_t>(spec.seconds * 1e9);
  phase.store(1);
  for (int q = 1; q < Q; ++q) {
    threads.emplace_back(QueryLoop, handles[sz(P + q)].get(), std::cref(spec), q, t0, deadline,
                         &phase, &qs[sz(q)]);
  }
  r.threads = Threads(0);
  if (Q > 0) {
    QueryLoop(handles[sz(P)].get(), spec, 0, t0, deadline, &phase, &qs[0]);
  } else {
    while (Now() < deadline) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  phase.store(2);
  Pin(0, -1);
  while (finished.load() != P) CpuRelax();
  // Offers are synchronous today, but the phase ends only once the fleet
  // reports every returned element as counted.
  const uint64_t total = returned.load();
  while (fleet->stream_length() + fleet->shed_weight() < total) CpuRelax();
  const int64_t t1 = Now();
  const uint64_t counted1 = fleet->stream_length();
  for (auto& t : threads) t.join();
  r.mem_mb = (Q > 0 ? Median(qs[0].heap_mb) : HeapMb()) - heap0;
  r.heap_samples = Q > 0 ? qs[0].heap_mb.size() : 1;
  r.seconds = (deadline - t0) * 1e-9;
  r.throughput_meps = static_cast<double>(counted1 - counted0) / ((t1 - t0) * 1e-9) / 1e6;

  std::vector<Mark> returns;
  for (int p = 0; p < P; ++p) {
    returns.insert(returns.end(), events[sz(p)].begin(),
                   events[sz(p)].begin() + static_cast<ptrdiff_t>(n_events[sz(p)]));
  }
  events.clear();
  returns.push_back(Mark{t1, total});
  for (double rate : WindowRates(returns, t0, t1)) r.window_meps.push_back(rate / 1e6);

  if (traced) {
    r.after = cots::MetricsRegistry::Global().Snapshot();
    SpanLog* log = spec.tracer->NewLog();
    std::vector<double> publish;
    for (int i = 0; i < 21; ++i) {
      const int64_t a = Now();
      fleet->RefreshQueryView();
      const int64_t b = Now();
      log->Add("fleet.refresh_query_view", a, b);
      publish.push_back((b - a) * 1e-6);
    }
    r.publish_ms = Median(publish);
    uint64_t max_len = 0, sum_len = 0;
    for (size_t s = 0; s < fleet->num_shards(); ++s) {
      max_len = std::max(max_len, fleet->shard(s).stream_length());
      sum_len += fleet->shard(s).stream_length();
    }
    r.shard_skew = static_cast<double>(max_len) * kShards / std::max<uint64_t>(1, sum_len);
  }
  fleet->Stop();

  std::vector<Mark> seen;
  std::array<uint64_t, kWindows> window_polls{};
  int64_t last_end = t0;
  for (QuerierState& st : qs) {
    seen.insert(seen.end(), st.seen.begin(), st.seen.begin() + static_cast<ptrdiff_t>(st.n_seen));
    r.poll_us.insert(r.poll_us.end(), st.poll_us.begin(),
                     st.poll_us.begin() + static_cast<ptrdiff_t>(st.n_poll));
    r.late_ms.insert(r.late_ms.end(), st.late_ms.begin(),
                     st.late_ms.begin() + static_cast<ptrdiff_t>(st.n_late));
    for (size_t i = 0; i < kWindows; ++i) window_polls[i] += st.window_polls[i];
    r.polls += st.polls;
    r.live_fallback_polls += st.live_fallback_polls;
    last_end = std::max(last_end, st.last_end);
  }
  if (last_end > t0) {
    r.kqps = static_cast<double>(r.polls * (1 + kProbesPerPoll)) / ((last_end - t0) * 1e-9) / 1e3;
  }
  for (uint64_t polls : window_polls) {
    r.window_kqps.push_back(static_cast<double>(polls * (1 + kProbesPerPoll)) /
                            (r.seconds / kWindows) / 1e3);
  }
  returns.pop_back();
  CoverLag(std::move(seen), returns, t0, &r.lag_ms, &r.lag_unresolved);
  for (int p = 0; p < P; ++p) {
    r.offered += offered[sz(p)];
    r.refused += refused[sz(p)];
    r.batches += batches[sz(p)];
    r.overloaded_batches += overloaded[sz(p)];
    r.producer_seconds += busy_s[sz(p)];
    r.route_ns_per_elem += static_cast<double>(route_ns[sz(p)]);
    r.shards_touched += touched[sz(p)];
    r.offer_us.insert(r.offer_us.end(), offer_us[sz(p)].begin(), offer_us[sz(p)].end());
  }
  r.route_ns_per_elem /= static_cast<double>(std::max<uint64_t>(1, r.batches * kBatch));

  // Oracle gate over everything offered, warm-up included.
  ExactCounter exact;
  for (int p = 0; p < P; ++p) AddReplayed(&exact, spec.in->streams[sz(p)], offered[sz(p)]);
  const cots::CounterSet view = fleet->GlobalView();
  r.shed = fleet->shed_weight();
  if (fleet->stream_length() + r.shed != r.offered || exact.stream_length() != r.offered) {
    ++r.oracle.violations;
  }
  CheckCounters(view.counters(), view.min_freq(), exact, &r.oracle);
  r.oracle.bound_ppm =
      static_cast<double>(view.min_freq()) / static_cast<double>(view.stream_length()) * 1e6;
  return r;
}

// ---------------------------------------------------------------------------
// ingest_server over loopback.

uint16_t FreePort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(a);
  if (fd < 0 || ::bind(fd, reinterpret_cast<sockaddr*>(&a), sizeof(a)) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&a), &len) != 0) {
    Die("cannot bind a loopback port");
  }
  ::close(fd);
  return ntohs(a.sin_port);
}

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  a.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&a), sizeof(a)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// One "stats\n" round trip, the reply read to EOF.
bool StatsQuery(uint16_t port, std::string* body) {
  body->clear();
  const int fd = ConnectLoopback(port);
  if (fd < 0) return false;
  timeval tv{30, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  bool ok = ::write(fd, "stats\n", 6) == 6;
  char buf[16384];
  while (ok) {
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r > 0) {
      body->append(buf, static_cast<size_t>(r));
    } else if (r < 0 && errno == EINTR) {
      continue;
    } else {
      ok = r == 0;
      break;
    }
  }
  ::close(fd);
  return ok && !body->empty() && body->back() == '\n';
}

// The unsigned number after the first `"key":`.
uint64_t JsonUint(const std::string& doc, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = doc.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoull(doc.c_str() + at + needle.size(), nullptr, 10);
}

// Writes n bytes to a non-blocking socket. When write() finds the send
// buffer full (EAGAIN), the sender waits in poll(POLLOUT) for the receiver
// to drain it; only those waits are added to *waited_ns, so they measure
// how long flow control held the sender back, not the cost of the copy.
bool WriteAll(int fd, const unsigned char* p, size_t n, int64_t* waited_ns) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w >= 0) {
      p += w;
      n -= static_cast<size_t>(w);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return false;
    pollfd pfd{fd, POLLOUT, 0};
    const int64_t a = Now();
    const int rc = ::poll(&pfd, 1, 60'000);
    *waited_ns += Now() - a;
    if (rc == 0 || (rc < 0 && errno != EINTR)) return false;
  }
  return true;
}

class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Terminate(); }

  // Spawns ingest_server and waits until its stats port answers.
  void Start(const std::string& path) {
    port_ = FreePort();
    do {
      stats_port_ = FreePort();
    } while (stats_port_ == port_);
    int pipefd[2];
    if (::pipe2(pipefd, O_CLOEXEC) != 0) Die("pipe2() failed");
    std::vector<std::string> args = {path,
                                     "--port=" + std::to_string(port_),
                                     "--stats-port=" + std::to_string(stats_port_),
                                     "--shards=" + std::to_string(kShards),
                                     "--capacity=" + std::to_string(kCapacity),
                                     "--view-refresh=" + std::to_string(kViewRefresh),
                                     "--topk=" + std::to_string(kTopK),
                                     "--report-ms=0"};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, pipefd[1], STDOUT_FILENO);
    const int rc = ::posix_spawn(&pid_, path.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(pipefd[1]);
    out_fd_ = pipefd[0];
    if (rc != 0) {
      pid_ = -1;
      Die("cannot spawn " + path);
    }
    g_live_servers.push_back(pid_);
    const int64_t t0 = Now();
    std::string body;
    while (!StatsQuery(stats_port_, &body)) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        std::erase(g_live_servers, pid_);
        pid_ = -1;
        Die("ingest_server exited during start-up");
      }
      if (Now() - t0 > 20'000'000'000LL) Die("ingest_server never answered");
      ::usleep(20);
    }
  }

  // SIGTERM, read stdout to EOF, reap. Returns the captured stdout.
  std::string Terminate() {
    std::string out;
    if (pid_ <= 0) return out;
    ::kill(pid_, SIGTERM);
    char buf[4096];
    for (;;) {
      pollfd pfd{out_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 60'000) <= 0) {
        ::kill(pid_, SIGKILL);
        break;
      }
      const ssize_t r = ::read(out_fd_, buf, sizeof(buf));
      if (r > 0) {
        out.append(buf, static_cast<size_t>(r));
      } else if (r == 0 || errno != EINTR) {
        break;
      }
    }
    int status = 0;
    ::waitpid(pid_, &status, 0);
    std::erase(g_live_servers, pid_);
    exit_ok_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    ::close(out_fd_);
    pid_ = -1;
    return out;
  }

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }
  uint16_t stats_port() const { return stats_port_; }
  bool exit_ok() const { return exit_ok_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
  uint16_t stats_port_ = 0;
  bool exit_ok_ = false;
};

struct SocketSpec {
  const Inputs* in = nullptr;
  double a_seconds = 1.0;
  double b_seconds = 1.0;
  Tracer* tracer = nullptr;
};

struct SocketResult {
  double throughput_meps = 0.0;  // phase A
  std::vector<double> rtt_ms;    // phase-B stats polls
  double write_blocked_frac = 0.0;
  int threads = 0;
  uint64_t sent = 0;
  uint64_t counted = 0;
  uint64_t shed = 0;
  uint64_t polls = 0;
  uint64_t failed_polls = 0;
  Oracle oracle;
  std::string stats_end;
};

// Parses the shutdown report: "stopped after N elements (S shed)" and the
// "[top-K of N ingested, bound B, shed S]" block with its key lines.
bool ParseShutdown(const std::string& out, uint64_t* counted, uint64_t* shed, uint64_t* bound,
                   std::vector<Counter>* top) {
  unsigned long long n = 0, s = 0, k = 0, n2 = 0, b = 0, s2 = 0;
  const size_t stop = out.find("stopped after ");
  if (stop == std::string::npos ||
      std::sscanf(out.c_str() + stop, "stopped after %llu elements (%llu shed)", &n, &s) != 2) {
    return false;
  }
  const size_t hdr = out.find("[top-", stop);
  if (hdr == std::string::npos ||
      std::sscanf(out.c_str() + hdr, "[top-%llu of %llu ingested, bound %llu, shed %llu]", &k, &n2,
                  &b, &s2) != 4) {
    return false;
  }
  for (size_t pos = out.find('\n', hdr); pos != std::string::npos && pos + 1 < out.size();
       pos = out.find('\n', pos + 1)) {
    unsigned long long key = 0, est = 0, err = 0;
    if (std::sscanf(out.c_str() + pos + 1, " key %llu est %llu err %llu", &key, &est, &err) != 3) {
      break;
    }
    top->push_back(Counter{key, est, err});
  }
  *counted = n;
  *shed = s;
  *bound = b;
  return n == n2 && s == s2 && top->size() <= k;
}

// Two loopback connections send pre-encoded LE-u64 keys in 4096-key chunks.
// Phase A saturates the server (TCP flow control is the only pacing) and
// gives the throughput; phase B sends on a fixed open-loop schedule while
// the stats port is polled at a fixed rate, and gives the stats round trip.
SocketResult RunSocket(const SocketSpec& spec, ServerProcess* server) {
  SocketResult r;
  constexpr int kConns = 2;
  constexpr size_t kWarmChunks = 128;  // 2^19 keys per connection
  const bool traced = spec.tracer != nullptr;
  std::vector<std::vector<unsigned char>> wire(kConns);
  for (size_t c = 0; c < kConns; ++c) {
    const auto& keys = spec.in->streams[c];
    wire[c].resize(keys.size() * 8);
    for (size_t i = 0; i < keys.size(); ++i) {
      for (size_t b = 0; b < 8; ++b) wire[c][i * 8 + b] = static_cast<unsigned char>(keys[i] >> (8 * b));
    }
  }
  const size_t chunk_bytes = kChunkKeys * 8;
  const int64_t period_ns = static_cast<int64_t>(kChunkKeys / kPhaseBRate * 1e9);

  // phase: 0 warm-up, 1 A, 2 pause, 3 B.
  std::atomic<int> phase{0};
  std::atomic<int> parked{0};
  std::atomic<bool> write_failed{false};
  std::atomic<int64_t> t_b0{0}, t_b_end{0};
  std::vector<uint64_t> sent(kConns, 0);
  std::vector<int64_t> a_waited(kConns, 0), a_busy(kConns, 0);
  std::vector<int> fds;
  for (int c = 0; c < kConns; ++c) {
    fds.push_back(ConnectLoopback(server->port()));
    if (fds.back() < 0) Die("cannot connect to ingest_server");
    ::fcntl(fds.back(), F_SETFL, ::fcntl(fds.back(), F_GETFL) | O_NONBLOCK);
  }

  auto sender = [&](size_t c) {
    Pin(0, 1 + static_cast<int>(c));
    SpanLog* log = traced ? spec.tracer->NewLog() : nullptr;
    size_t pos = 0;
    int64_t waited = 0;
    auto send_chunk = [&]() -> bool {
      if (!WriteAll(fds[c], wire[c].data() + pos, chunk_bytes, &waited)) {
        write_failed.store(true);
        return false;
      }
      pos = (pos + chunk_bytes) % wire[c].size();
      sent[c] += kChunkKeys;
      return true;
    };
    for (size_t i = 0; i < kWarmChunks && send_chunk(); ++i) {
    }
    parked.fetch_add(1);
    while (phase.load() == 0) CpuRelax();
    const int64_t a0 = Now();
    waited = 0;
    while (phase.load(std::memory_order_relaxed) == 1) {
      const int64_t t = Now();
      if (!send_chunk()) break;
      if (log != nullptr) log->Add("socket.write", t, Now());
    }
    a_busy[c] = Now() - a0;
    a_waited[c] = waited;
    parked.fetch_add(1);
    while (phase.load() != 3) std::this_thread::sleep_for(std::chrono::microseconds(100));
    const int64_t b0 = t_b0.load();
    const int64_t b_end = t_b_end.load();
    for (uint64_t k = c;; k += kConns) {
      const int64_t due = b0 + static_cast<int64_t>(k) * period_ns;
      if (due >= b_end) break;
      const int64_t slack = due - Now() - 200'000;
      if (slack > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(slack));
      SpinUntil(due);
      if (!send_chunk()) break;
    }
    parked.fetch_add(1);
  };

  Pin(server->pid(), 1 + kConns);
  Pin(0, 0);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConns; ++c) threads.emplace_back(sender, c);
  SpanLog* log = traced ? spec.tracer->NewLog() : nullptr;
  std::string body;
  // Polls every millisecond until the server counts `target` elements;
  // returns the receive time of the covering reply.
  auto wait_counted = [&](uint64_t target) -> int64_t {
    const int64_t start = Now();
    for (;;) {
      const int64_t a = Now();
      const bool ok = StatsQuery(server->stats_port(), &body);
      const int64_t b = Now();
      ++r.polls;
      if (!ok) {
        ++r.failed_polls;
      } else if (JsonUint(body, "stream_length") + JsonUint(body, "shed") >= target) {
        return b;
      }
      if (b - start > 60'000'000'000LL) Die("ingest_server stopped counting");
      SpinUntil(a + 1'000'000);
    }
  };

  while (parked.load() != kConns) std::this_thread::yield();
  wait_counted(sent[0] + sent[1]);
  const uint64_t warm = sent[0] + sent[1];

  const int64_t a0 = Now();
  phase.store(1);
  std::this_thread::sleep_for(std::chrono::nanoseconds(static_cast<int64_t>(spec.a_seconds * 1e9)));
  phase.store(2);
  while (parked.load() != 2 * kConns) CpuRelax();
  const uint64_t after_a = sent[0] + sent[1];
  // The phase ends only once the server has counted every element sent,
  // so the keys still queued in socket buffers when the senders stop count
  // against the phase's time.
  r.throughput_meps =
      static_cast<double>(after_a - warm) / ((wait_counted(after_a) - a0) * 1e-9) / 1e6;
  int64_t a_total = 0, waited_total = 0;
  for (size_t c = 0; c < kConns; ++c) {
    a_total += a_busy[c];
    waited_total += a_waited[c];
  }
  r.write_blocked_frac = a_total > 0 ? static_cast<double>(waited_total) / a_total : 0.0;

  // Phase B. A late poller skips the polls it missed instead of bursting to
  // catch up: a burst of stats requests would take the server thread away
  // from the ingest it serves.
  const int64_t b0 = Now() + 2'000'000;
  const int64_t b_end = b0 + static_cast<int64_t>(spec.b_seconds * 1e9);
  t_b0.store(b0);
  t_b_end.store(b_end);
  phase.store(3);
  const int64_t poll_period = static_cast<int64_t>(1e9 / kStatsPollHz);
  for (int64_t due = b0;; due += poll_period) {
    const int64_t now = Now();
    if (now > due) due += (now - due) / poll_period * poll_period;
    SpinUntil(due);
    const int64_t a = Now();
    const bool ok = StatsQuery(server->stats_port(), &body);
    const int64_t b = Now();
    ++r.polls;
    if (!ok) {
      ++r.failed_polls;
      continue;
    }
    if (log != nullptr) log->Add("stats.poll", a, b);
    if (a < b_end) r.rtt_ms.push_back((b - a) * 1e-6);
    if (r.threads == 0 && a > (b0 + b_end) / 2) r.threads = Threads(0) + Threads(server->pid());
    if (a >= b_end && parked.load() == 3 * kConns &&
        JsonUint(body, "stream_length") + JsonUint(body, "shed") >= sent[0] + sent[1]) {
      break;
    }
    if (a - b_end > 60'000'000'000LL) Die("ingest_server stopped counting");
  }
  r.stats_end = body;
  Pin(0, -1);
  for (auto& t : threads) t.join();
  for (int fd : fds) ::close(fd);
  if (write_failed.load()) Die("write to ingest_server failed");
  r.sent = sent[0] + sent[1];

  // Oracle gate from the shutdown report.
  const std::string out = server->Terminate();
  uint64_t bound = 0;
  std::vector<Counter> top;
  if (!server->exit_ok() || !ParseShutdown(out, &r.counted, &r.shed, &bound, &top)) {
    std::fprintf(stderr, "perfbench: unreadable ingest_server report\n");
    ++r.oracle.violations;
    return r;
  }
  ExactCounter exact;
  for (size_t c = 0; c < kConns; ++c) AddReplayed(&exact, spec.in->streams[c], sent[c]);
  if (r.counted + r.shed != r.sent) ++r.oracle.violations;
  // A key missing from the printed top-K is either unmonitored (bounded by
  // min_freq) or monitored below the K-th estimate.
  const uint64_t unreported = top.size() == kTopK ? std::max(bound, top.back().count) : bound;
  CheckCounters(top, unreported, exact, &r.oracle);
  return r;
}

// ---------------------------------------------------------------------------
// Per-core roofline: sequential FlatStreamSummary over the same stream.

double FlatNsPerElem(const std::vector<ElementId>& stream, SpanLog* log) {
  std::vector<double> samples;
  uint64_t sink = 0;
  for (int rep = 0; rep < 3; ++rep) {
    cots::FlatStreamSummary flat(kCapacity);
    const int64_t a = Now();
    for (ElementId e : stream) flat.Offer(e);
    const int64_t b = Now();
    log->Add("flat.pass", a, b);
    sink += flat.MinFreq();
    samples.push_back(static_cast<double>(b - a) / static_cast<double>(stream.size()));
  }
  if (sink == 0) Die("flat pass counted nothing");
  return Median(samples);
}

// ---------------------------------------------------------------------------
// Engine counters, from this process's metrics registry.

const char* const kCounterNames[] = {
    "ingest.coalesce_hits",         "delegation.requests_logged",
    "summary.overwrite_parked",     "request_queue.fallback_allocations",
    "ebr.epoch_advances",           "ebr.forced_advance_attempts",
    "ebr.forced_advance_successes", "view.refreshes",
    "summary.snapshot_retries"};
const char* const kHistogramNames[] = {"ingest.batch_distinct", "ebr.retire_backlog"};

struct Counts {
  std::vector<uint64_t> counters;                    // kCounterNames order
  std::vector<std::pair<uint64_t, uint64_t>> hists;  // (count, sum)
};

Counts FromSnapshot(const cots::MetricsSnapshot& snap) {
  Counts c;
  for (const char* name : kCounterNames) c.counters.push_back(snap.CounterValue(name));
  for (const char* name : kHistogramNames) {
    const cots::HistogramSnapshot* h = snap.Histogram(name);
    c.hists.emplace_back(h ? h->count : 0, h ? h->sum : 0);
  }
  return c;
}

struct CountDelta {
  Counts a, b;
  double Counter(const char* name) const {
    for (size_t i = 0; i < std::size(kCounterNames); ++i) {
      if (std::strcmp(kCounterNames[i], name) == 0) {
        return static_cast<double>(b.counters[i] - a.counters[i]);
      }
    }
    Die(std::string("unknown counter ") + name);
  }
  double Mean(const char* name) const {
    for (size_t i = 0; i < std::size(kHistogramNames); ++i) {
      if (std::strcmp(kHistogramNames[i], name) == 0) {
        const uint64_t n = b.hists[i].first - a.hists[i].first;
        return n == 0 ? 0.0
                      : static_cast<double>(b.hists[i].second - a.hists[i].second) /
                            static_cast<double>(n);
      }
    }
    Die(std::string("unknown histogram ") + name);
  }
};

// ---------------------------------------------------------------------------
// Workloads and reporting.

struct Workload {
  const char* name;
  double alpha;
  int producers;
  int queriers;
  double poll_hz;  // 0 = back-to-back
};

// BENCHMARK.md records why each workload exists.
const Workload kWorkloads[] = {
    {"fleet-zipf1.5", 1.5, 3, 1, kPacedPollHz},
    {"readmix-zipf0.8", 0.8, 2, 2, 0.0},
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics_.push_back(Metric{name, value, unit, note});
  }
  void Note(const std::string& line) { std::printf("  %s\n", line.c_str()); }

  void Print(bool correct, uint64_t attempted, uint64_t failed) const {
    for (const Metric& m : metrics_) {
      std::printf("  %-38s %14.6f %-10s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                  m.note.c_str());
    }
    cots::JsonWriter w;
    w.BeginObject();
    w.Key("correct").Bool(correct);
    w.Key("attempted").Uint(attempted);
    w.Key("failed").Uint(failed);
    w.Key("metrics").BeginObject();
    for (const Metric& m : metrics_) {
      w.Key(m.name).BeginObject();
      w.Key("value").Double(m.value);
      w.Key("unit").String(m.unit);
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Metric> metrics_;
};

// Attempted operations are offered elements plus polls; refused or shed
// elements, failed polls and oracle violations are failed operations.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t violations = 0;

  void Fleet(const FleetResult& r) {
    attempted += r.offered + r.refused + r.polls;
    failed += r.refused + r.shed + r.oracle.violations;
    violations += r.oracle.violations;
  }
  void Socket(const SocketResult& r) {
    attempted += r.sent + r.polls;
    failed += r.shed + r.failed_polls + r.oracle.violations;
    violations += r.oracle.violations;
  }
};

void CheckThreads(int threads) {
  if (threads > Nproc()) {
    GuardFail(std::to_string(threads) + " threads (benchmark + server) on " +
              std::to_string(Nproc()) + " cores");
  }
}

// A paced generator that runs late inflates the lag it measures.
void CheckLateness(Report* rep, std::vector<double> late_ms, double lag_p50_ms, const char* who) {
  const double p90 = Quantile(&late_ms, 0.9);
  rep->Note("gen_late_ms_p90 " + std::to_string(p90) + " ms " + N(late_ms.size()) + " (" + who +
            "), limit 0.25 x lag_p50 = " + std::to_string(0.25 * lag_p50_ms) + " ms");
  if (p90 > 0.25 * lag_p50_ms) {
    GuardFail(std::string(who) + " lateness p90 " + std::to_string(p90) +
              " ms is not small next to lag p50 " + std::to_string(lag_p50_ms) + " ms");
  }
}

void CheckSaturated(const SocketResult& s) {
  if (s.write_blocked_frac < 0.5) {
    GuardFail("phase-A senders waited on a full send buffer only " +
              std::to_string(s.write_blocked_frac) +
              " of the time: the generator, not the server, was the bottleneck");
  }
}

// Percentiles over every sample of the measured phase; the notes add the
// sample count and, as a diagnostic, the spread of per-window p90s.
void AddLag(Report* rep, const FleetResult& r) {
  std::vector<double> lag = Values(r.lag_ms);
  const std::string note = N(lag.size()) + ", unresolved=" + std::to_string(r.lag_unresolved) +
                           ", p90 " + WindowSpread(WindowQuantiles(r.lag_ms, r.seconds, 0.9));
  rep->Add("lag_p50_ms", Quantile(&lag, 0.5), "ms", note);
  rep->Add("lag_p90_ms", Quantile(&lag, 0.9), "ms", note);
}

void AddQuery(Report* rep, const FleetResult& r) {
  std::vector<double> poll = Values(r.poll_us);
  const std::string note = N(poll.size()) + " polls, p90 " +
                           WindowSpread(WindowQuantiles(r.poll_us, r.seconds, 0.9));
  rep->Add("query_p50_us", Quantile(&poll, 0.5), "us", note);
  rep->Add("query_p90_us", Quantile(&poll, 0.9), "us", note);
  rep->Add("query_kqps", r.kqps, "kq/s",
           std::to_string(r.polls * (1 + kProbesPerPoll)) + " queries, " +
               WindowSpread(r.window_kqps));
}

void AddOracle(Report* rep, const Oracle& o) {
  rep->Add("bound_ppm", o.bound_ppm, "ppm",
           std::to_string(o.keys_checked) + " keys checked, " + std::to_string(o.violations) +
               " violations");
  rep->Add("topk_recall", o.recall, "ratio", "top-100");
}

// Per-layer engine metrics from a counter delta over `elems` elements.
void AddEngineLayers(Report* rep, const CountDelta& d, double elems, double publish_ms,
                     double producer_seconds, double overloaded_frac) {
  const double per_m = 1e6 / std::max(1.0, elems);
  const double refreshes = d.Counter("view.refreshes");
  const double attempts = d.Counter("ebr.forced_advance_attempts");
  rep->Add("view.refreshes_per_m", refreshes * per_m, "per_Melem");
  rep->Add("view.publish_share", refreshes * publish_ms * 1e-3 / producer_seconds, "ratio");
  rep->Add("summary.snapshot_retries_per_publish",
           d.Counter("summary.snapshot_retries") / std::max(1.0, refreshes), "count");
  rep->Add("ingest.coalesce_ratio", d.Counter("ingest.coalesce_hits") / std::max(1.0, elems),
           "ratio");
  rep->Add("ingest.batch_distinct_mean", d.Mean("ingest.batch_distinct"), "count");
  rep->Add("delegation.handoffs_per_m", d.Counter("delegation.requests_logged") * per_m,
           "per_Melem");
  rep->Add("summary.overwrite_parked_per_m", d.Counter("summary.overwrite_parked") * per_m,
           "per_Melem");
  rep->Add("request_queue.fallback_per_m", d.Counter("request_queue.fallback_allocations") * per_m,
           "per_Melem");
  rep->Add("engine.overloaded_batch_frac", overloaded_frac, "ratio");
  rep->Add("ebr.advances_per_m", d.Counter("ebr.epoch_advances") * per_m, "per_Melem");
  rep->Add("ebr.forced_advance_success_ratio",
           attempts > 0 ? d.Counter("ebr.forced_advance_successes") / attempts : 0.0, "ratio",
           std::to_string(static_cast<uint64_t>(attempts)) + " attempts (0 when none)");
  rep->Add("ebr.retire_backlog_mean", d.Mean("ebr.retire_backlog"), "count");
}

void AddQueryLayers(Report* rep, const Tracer& tracer, const FleetResult& r) {
  std::vector<double> point = tracer.DurationsUs("query.point_block");
  std::vector<double> topk = tracer.DurationsUs("query.topk");
  rep->Add("query.point_ns", Quantile(&point, 0.5) * 1e3 / kProbesPerPoll, "ns",
           N(point.size()) + " blocks of 64, median");
  rep->Add("query.topk_us", Quantile(&topk, 0.5), "us", N(topk.size()) + ", median");
  rep->Add("query.live_fallback_frac",
           static_cast<double>(r.live_fallback_polls) /
               static_cast<double>(std::max<uint64_t>(1, r.polls)),
           "ratio", N(r.polls) + " polls");
}

void AddServerLayers(Report* rep, const SocketResult& s, double sp_meps) {
  rep->Add("server.self_ns_per_elem", 1e3 / s.throughput_meps - 1e3 / sp_meps, "ns",
           "socket " + std::to_string(1e3 / s.throughput_meps) +
               " ns/elem - in-process single producer, no reader " + std::to_string(1e3 / sp_meps) +
               " ns/elem");
  rep->Add("server.write_blocked_frac", s.write_blocked_frac, "ratio",
           "phase A, sender time spent waiting on a full send buffer");
  std::vector<double> rtt = s.rtt_ms;
  rep->Add("server.stats_rtt_ms_p50", Quantile(&rtt, 0.5), "ms", N(rtt.size()) + " phase-B polls");
  const double elems = static_cast<double>(std::max<uint64_t>(1, s.sent));
  rep->Add("server.shed_frac", static_cast<double>(s.shed) / elems, "ratio");
  rep->Add("server.overloaded_batches_per_m",
           static_cast<double>(JsonUint(s.stats_end, "overloaded_batches")) * 1e6 / elems,
           "per_Melem");
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string server;
  std::string trace_out;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    auto val = [&s](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      return s.compare(0, n, flag) == 0 ? s.c_str() + n : nullptr;
    };
    if (const char* v = val("--workload=")) {
      a.workload = v;
    } else if (const char* v = val("--seed=")) {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = val("--seconds=")) {
      a.seconds = std::strtod(v, nullptr);
    } else if (const char* v = val("--trace=")) {
      a.trace = std::atoi(v);
    } else if (const char* v = val("--server=")) {
      a.server = v;
    } else if (const char* v = val("--trace-out=")) {
      a.trace_out = v;
    } else {
      std::fprintf(stderr,
                   "usage: perfbench_driver --workload=NAME --seed=N --seconds=S "
                   "--trace=0|1 --server=PATH [--trace-out=FILE]\n");
      std::exit(2);
    }
  }
  if (!(a.seconds > 0.0) || a.server.empty()) {
    std::fprintf(stderr, "perfbench: --seconds > 0 and --server are required\n");
    std::exit(2);
  }
  return a;
}

int Main(int argc, char** argv) {
  if (argc == 2 && std::strncmp(argv[1], "--setup-probe=", 14) == 0) {
    return SetupProbe(std::atoi(argv[1] + 14));
  }
  const Args args = ParseArgs(argc, argv);
  AllowedCpus();  // captured before any thread is pinned
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) Die("unknown workload '" + args.workload + "'");
  std::signal(SIGPIPE, SIG_IGN);
  const double S = args.seconds;
  const int64_t origin = Now();
  const Inputs in = MakeInputs(w->alpha, args.seed, static_cast<size_t>(w->producers));
  std::printf("perfbench: workload %s seed %llu seconds %g trace %d checksum %016llx\n", w->name,
              static_cast<unsigned long long>(args.seed), S, args.trace,
              static_cast<unsigned long long>(in.checksum));
  // The generator must still draw the inputs it drew when the benchmark was
  // defined.
  for (const ReferenceChecksum& ref : kReferenceChecksums) {
    if (ref.alpha == w->alpha && ref.fnv1a != in.reference_checksum) {
      GuardFail("input generator drifted: reference checksum " +
                std::to_string(in.reference_checksum) + ", expected " + std::to_string(ref.fnv1a));
    }
  }

  Report rep;
  Tally tally;
  Tracer tracer;
  FleetSpec spec;
  spec.in = &in;
  spec.producers = w->producers;
  spec.queriers = w->queriers;
  spec.poll_hz = w->poll_hz;

  if (args.trace == 0) {
    std::vector<double> setups;
    MeasureFleetSetup(w->producers + w->queriers, &setups);
    spec.seconds = S;
    FleetResult r = RunFleet(spec);
    tally.Fleet(r);
    CheckThreads(r.threads);
    MeasureFleetSetup(w->producers + w->queriers, &setups);
    if (w->poll_hz > 0) {
      std::vector<double> lag = Values(r.lag_ms);
      CheckLateness(&rep, r.late_ms, Quantile(&lag, 0.5), "query poller");
    }
    rep.Add("setup_s", Median(setups), "s", "median of " + std::to_string(setups.size()) +
                                                " cold starts, half before and half after");
    rep.Add("throughput_meps", r.throughput_meps, "Melem/s",
            std::to_string(r.offered) + " elements offered, " + WindowSpread(r.window_meps));
    AddLag(&rep, r);
    AddQuery(&rep, r);
    rep.Add("mem_mb", r.mem_mb, "MB", "heap growth, median of " + std::to_string(r.heap_samples));
    AddOracle(&rep, r.oracle);
  } else {
    // Traced run: the workload's body untraced, then traced (their
    // throughput difference is the tracing overhead), then baselines.
    SpanLog* main_log = tracer.NewLog();
    spec.seconds = 0.35 * S;
    FleetResult ref = RunFleet(spec);
    tally.Fleet(ref);
    spec.tracer = &tracer;
    FleetResult r = RunFleet(spec);
    tally.Fleet(r);
    CheckThreads(r.threads);
    std::vector<double> offer = r.offer_us;
    rep.Add("fleet.offer_us_p50", Quantile(&offer, 0.5), "us", N(offer.size()));
    rep.Add("fleet.offer_us_p99", Quantile(&offer, 0.99), "us", N(offer.size()));
    rep.Add("fleet.route_ns_per_elem", r.route_ns_per_elem, "ns");
    rep.Add("fleet.shards_touched_mean",
            static_cast<double>(r.shards_touched) /
                static_cast<double>(std::max<uint64_t>(1, r.batches)),
            "count");
    rep.Add("fleet.shard_skew", r.shard_skew, "ratio", "max/mean shard stream length");
    rep.Add("view.publish_ms", r.publish_ms, "ms", "median of 21 on the loaded fleet");
    AddEngineLayers(&rep, CountDelta{FromSnapshot(r.before), FromSnapshot(r.after)},
                    static_cast<double>(r.batches * kBatch), r.publish_ms, r.producer_seconds,
                    static_cast<double>(r.overloaded_batches) /
                        static_cast<double>(std::max<uint64_t>(1, r.batches)));
    AddQueryLayers(&rep, tracer, r);

    // The baseline of server.self_ns_per_elem: an in-process fleet with one
    // offering thread and no reader, as in the server's phase A.
    FleetSpec single = spec;
    single.producers = 1;
    single.queriers = 0;
    single.seconds = 0.1 * S;
    single.tracer = nullptr;
    const FleetResult sp = RunFleet(single);
    tally.Fleet(sp);
    CheckThreads(sp.threads);

    ServerProcess server;
    server.Start(args.server);
    SocketSpec ss;
    ss.in = &in;
    ss.a_seconds = 0.1 * S;
    ss.b_seconds = 0.1 * S;
    ss.tracer = &tracer;
    const SocketResult sock = RunSocket(ss, &server);
    tally.Socket(sock);
    CheckThreads(sock.threads);
    CheckSaturated(sock);
    AddServerLayers(&rep, sock, sp.throughput_meps);

    rep.Add("core.flat_ns_per_elem", FlatNsPerElem(in.streams[0], main_log), "ns",
            "capacity 1000, median of 3 passes");
    rep.Add("trace.overhead_frac", (ref.throughput_meps - r.throughput_meps) / ref.throughput_meps,
            "ratio",
            "untraced " + std::to_string(ref.throughput_meps) + " vs traced " +
                std::to_string(r.throughput_meps) + " Melem/s");
    if (!args.trace_out.empty() && !tracer.Write(args.trace_out, origin)) {
      Die("cannot write " + args.trace_out);
    }
  }

  rep.Print(tally.violations == 0, tally.attempted, tally.failed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }

#else  // !__linux__

#include <cstdio>

int main() {
  std::fprintf(stderr, "perfbench_driver requires Linux\n");
  return 1;
}

#endif  // __linux__
