// ingest_server: a minimal network front-end for the CotsFleet (DESIGN.md
// §9.5). An epoll event loop accepts loopback TCP connections, parses the
// wire protocol (a raw stream of little-endian uint64 element ids, no
// framing) and feeds the keys to the fleet through OfferBatchBounded in
// batches of up to CotsFleet::kBatchDepth — so the network path runs the
// same shard router as the in-process benches, and a batch either lands on
// its shards in full or is refused in full. Each readiness event gets one
// read(), and every key that read completes is dispatched before the loop
// moves on: keys on an idle connection are counted without waiting for
// more, and one saturating connection cannot hold the loop.
//
//   ./ingest_server --port=7171 --shards=4 --capacity=1000
//     serves until SIGINT/SIGTERM, printing a top-k report plus a delta
//     stats line (offers/s, shard hand-off delta, view staleness) every
//     --report-ms milliseconds. On the first signal the listeners close
//     and existing connections drain for up to kDrain; a second signal
//     exits immediately.
//
// Overload model (DESIGN.md §13): an AdmissionController is sampled on a
// 50 ms tick from the shard queue depths and kOverloaded offer outcomes.
// While it reports Shedding the server keeps reading (never stalls the
// kernel buffers) but routes decoded batches to CotsFleet::Shed() —
// absorbed into the error bounds, not the counters — and answers each
// shedding connection with a rate-limited "busy <retry-after-ms>\n" line
// so well-behaved clients back off. --force-shed-at=N / --force-recover-at=M
// force the Shedding state while N <= ingested+shed < M (deterministic
// testing hook).
//
// A second loopback listener (--stats-port, ephemeral by default) serves
// one-shot line commands: "stats\n" returns a JSON document with server
// totals (including the overload section) plus the full metrics snapshot,
// "trace\n" returns the flight-recorder dump in Chrome trace-event JSON
// (load in ui.perfetto.dev), and any other line gets the stats document.
// --trace-out=FILE writes the same dump at shutdown.
//
// Ingest and stats connections share one accept loop, one reply writer,
// one close path and one deadline sweep; only their read handlers differ.
// A reply the socket does not take at once waits behind EPOLLOUT, and a
// client that leaves it there past kClientDeadline is evicted
// (server.slow_client_evictions), as is a stats connection that sends no
// command line within kStatsIdle. EMFILE on accept evicts the oldest-idle
// connection, ingest connections before stats connections.
//
//   ./ingest_server --selftest --seconds=5
//     kSelftestClients loopback clients write back-to-back for ~N seconds
//     while stats probes run back-to-back from halfway through; exits 0
//     iff the probes all returned before any client finished and every
//     element the clients wrote was counted (fleet stream length == bytes
//     sent / 8). This is the CI smoke mode.
//
//   ./ingest_server --shed-selftest
//     end-to-end overload drill over a real socket: a client streams keys
//     through a forced shedding window, asserts it received "busy" replies
//     and honors the retry hint, then verifies counted + shed == sent and
//     that every key's exact count is inside the shed-widened bounds of
//     the merged view (degrade, don't lie).
//
//   ./ingest_server --idle-selftest
//     writes 100 keys (one word split across two writes) on a connection
//     that then stays open and requires the stats port to report
//     stream_length 100 within 1 s; then pins the stats protocol (a
//     half-closed "stats", "trace", an unknown command, an overlong line).

#ifdef __linux__

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cots/cots_fleet.h"
#include "util/json_writer.h"
#include "util/macros.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/trace.h"

namespace {

using cots::AdmissionController;
using cots::AdmissionState;
using cots::CotsFleet;
using cots::Counter;
using cots::ElementId;
using cots::OfferOutcome;

using SteadyClock = std::chrono::steady_clock;
using std::chrono::milliseconds;

constexpr milliseconds kClientDeadline{5000};  // to drain a parked reply
constexpr milliseconds kStatsIdle{10000};      // to send a stats command
constexpr milliseconds kDrain{3000};           // after the first signal
constexpr milliseconds kTick{50};  // admission sample + deadline sweep
constexpr size_t kReadBytes = 16384;  // one ingest read
constexpr size_t kMaxCommand = 4096;  // longest stats command line
constexpr int kSelftestClients = 3;

volatile std::sig_atomic_t g_interrupted = 0;
void OnSignal(int) { g_interrupted = g_interrupted + 1; }

enum class Mode { kServe, kSelftest, kShedSelftest, kIdleSelftest };

struct ServerConfig {
  Mode mode = Mode::kServe;
  uint16_t port = 0;        // 0 = ephemeral (printed once bound)
  uint16_t stats_port = 0;  // 0 = ephemeral (printed once bound)
  size_t shards = 0;        // 0 = hardware threads
  size_t capacity = 1000;
  size_t topk = 10;
  int report_ms = 2000;  // 0 = no periodic report
  // Fleet-level auto-refresh interval for the published global view; keeps
  // the view.staleness_offers gauge and view.publish spans live. 0 = off.
  uint64_t view_refresh = 8192;
  std::string trace_out;  // empty = no trace dump at shutdown
  int seconds = 5;        // --selftest ingest time
  // Deterministic overload hook: force the Shedding state while
  // force_shed_at <= ingested + shed < force_recover_at. 0 = disabled.
  uint64_t force_shed_at = 0;
  uint64_t force_recover_at = 0;
  // SO_RCVBUF for the ingest listener (inherited by accepted sockets).
  // 0 = kernel default. The shed selftest shrinks it so TCP flow control
  // keeps the client honest about the server's actual consumption rate.
  int ingest_rcvbuf = 0;
};

ServerConfig ParseArgs(int argc, char** argv) {
  ServerConfig c;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const char* v = nullptr;
    // True (pointing `v` at the value) if `a` is `name` followed by a value.
    auto flag = [&](const char* name) {
      const size_t n = std::strlen(name);
      v = std::strncmp(a, name, n) == 0 ? a + n : nullptr;
      return v != nullptr;
    };
    auto num = [&] { return std::strtoull(v, nullptr, 10); };
    if (flag("--port=")) {
      c.port = static_cast<uint16_t>(num());
    } else if (flag("--stats-port=")) {
      c.stats_port = static_cast<uint16_t>(num());
    } else if (flag("--view-refresh=")) {
      c.view_refresh = num();
    } else if (flag("--trace-out=")) {
      c.trace_out = v;
    } else if (flag("--shards=")) {
      c.shards = num();
    } else if (flag("--capacity=")) {
      c.capacity = num();
    } else if (flag("--topk=")) {
      c.topk = num();
    } else if (flag("--report-ms=")) {
      c.report_ms = static_cast<int>(num());
    } else if (flag("--seconds=")) {
      c.seconds = static_cast<int>(num());
    } else if (flag("--force-shed-at=")) {
      c.force_shed_at = num();
    } else if (flag("--force-recover-at=")) {
      c.force_recover_at = num();
    } else if (std::strcmp(a, "--selftest") == 0) {
      c.mode = Mode::kSelftest;
    } else if (std::strcmp(a, "--shed-selftest") == 0) {
      c.mode = Mode::kShedSelftest;
    } else if (std::strcmp(a, "--idle-selftest") == 0) {
      c.mode = Mode::kIdleSelftest;
    } else {
      std::fprintf(stderr,
                   "unknown argument: %s\n"
                   "usage: [--port=P] [--stats-port=P] [--shards=N] "
                   "[--capacity=M] [--topk=K] [--report-ms=MS] "
                   "[--view-refresh=N] [--trace-out=FILE] "
                   "[--force-shed-at=N] [--force-recover-at=M] "
                   "[--selftest [--seconds=S]] "
                   "[--shed-selftest] [--idle-selftest]\n",
                   a);
      std::exit(2);
    }
  }
  return c;
}

// One accepted connection of either kind. The reply writer, the close path
// and the deadline sweep treat both kinds alike; only the read handler
// differs (Ingest or ServeStats).
struct Connection {
  int fd = -1;
  bool stats = false;  // accepted on the stats listener
  // Accept time, refreshed by every ingest read: the EMFILE eviction order,
  // and for a stats connection the start of its wait for a command.
  SteadyClock::time_point since{};
  // Reply writer: unsent bytes, `parked` behind EPOLLOUT until `deadline`.
  std::string out;
  size_t out_off = 0;
  bool parked = false;
  SteadyClock::time_point deadline{};
  // Ingest: the bytes of a word split across reads, and the rate limit of
  // busy replies.
  unsigned char partial[8] = {0};
  size_t partial_len = 0;
  SteadyClock::time_point next_busy{};
  // Stats: the command line so far. Once answered the connection reads no
  // more and closes as soon as the reply is out.
  std::string cmd;
  bool answered = false;
};

uint64_t DecodeLE64(const unsigned char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

void EncodeLE64(uint64_t v, unsigned char* p) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

// Bind + listen a nonblocking loopback socket; returns the bound port via
// *bound_port, -1 on failure.
int ListenLoopback(uint16_t port, uint16_t* bound_port, int rcvbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (rcvbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    return -1;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  *bound_port = ntohs(addr.sin_port);
  return fd;
}

class IngestServer {
 public:
  IngestServer(const ServerConfig& config, CotsFleet* fleet)
      : config_(config), fleet_(fleet) {
    // One last-value gauge per shard, set from the server thread whenever
    // a report or stats snapshot is taken — kMax folds each back out of
    // the per-thread slots (only one thread ever writes them).
    for (size_t i = 0; i < fleet->num_shards(); ++i) {
      shard_gauges_.push_back(cots::MetricsRegistry::Global().RegisterGauge(
          "fleet.shard_stream_length." + std::to_string(i)));
    }
  }

  ~IngestServer() {
    StopAccepting();
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
  }
  COTS_DISALLOW_COPY_AND_ASSIGN(IngestServer);

  // Binds and listens (ingest + stats); returns the ingest port (0 on
  // failure). stats_port() is valid afterwards.
  uint16_t Start() {
    uint16_t port = 0;
    listen_fd_ = ListenLoopback(config_.port, &port, config_.ingest_rcvbuf);
    stats_listen_fd_ = ListenLoopback(config_.stats_port, &stats_port_);
    epoll_fd_ = ::epoll_create1(0);
    if (listen_fd_ < 0 || stats_listen_fd_ < 0 || epoll_fd_ < 0) return 0;
    for (int fd : {listen_fd_, stats_listen_fd_}) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    }
    return port;
  }

  // Runs the event loop until `done` becomes true (selftest) or a signal
  // arrives, then closes every connection. Connections drain first, so
  // everything the clients managed to write is counted; the drain is
  // bounded by kDrain (or a second signal).
  void Run(const std::atomic<bool>* done) {
    auto handle = fleet_->RegisterThread();
    if (handle == nullptr) {
      std::fprintf(stderr, "ingest_server: fleet session limit reached\n");
      return;
    }
    auto last_report = SteadyClock::now();
    auto last_tick = last_report;
    SteadyClock::time_point stop_begin{};
    bool draining = false;
    epoll_event events[64];
    for (;;) {
      const bool stopping =
          g_interrupted != 0 || (done != nullptr && done->load());
      if (stopping && !draining) {
        // Graceful drain: stop taking new connections immediately, keep
        // reading what accepted clients already wrote.
        draining = true;
        stop_begin = SteadyClock::now();
        StopAccepting();
      }
      // Once stopping, keep polling with a zero timeout until every ingest
      // connection has drained: bytes already in socket buffers belong to
      // accepted writes and must reach the fleet.
      const int ready = ::epoll_wait(epoll_fd_, events, 64, stopping ? 0 : 100);
      if (ready < 0 && errno != EINTR) break;
      for (int i = 0; i < ready; ++i) {
        const int fd = events[i].data.fd;
        if (fd == listen_fd_ || fd == stats_listen_fd_) {
          Accept(fd);
          continue;
        }
        const auto it = conns_.find(fd);
        if (it == conns_.end()) continue;
        Connection* c = &it->second;
        if ((events[i].events & EPOLLOUT) != 0 && !Flush(c)) continue;
        if ((events[i].events & ~EPOLLOUT) == 0) continue;
        if (c->stats) {
          ServeStats(c);
        } else {
          Ingest(c, handle.get());
        }
      }
      const auto now = SteadyClock::now();
      if (now - last_tick >= kTick) {
        if (!stopping) SampleAdmission();
        SweepDeadlines(now);
        last_tick = now;
      }
      if (stopping) {
        const bool drained = std::all_of(
            conns_.begin(), conns_.end(),
            [](const auto& entry) { return entry.second.stats; });
        if ((ready <= 0 && drained) || g_interrupted >= 2 ||
            now - stop_begin >= kDrain) {
          break;
        }
      }
      if (config_.report_ms > 0 &&
          now - last_report >= milliseconds(config_.report_ms)) {
        PrintTopK();
        PrintDeltaLine(std::chrono::duration<double>(now - last_report)
                           .count());
        last_report = now;
      }
    }
    for (const auto& [fd, c] : conns_) ::close(fd);
    conns_.clear();
  }

  uint64_t ingested() const { return ingested_; }
  uint64_t shed() const { return shed_; }
  uint16_t stats_port() const { return stats_port_; }

  void PrintTopK() const {
    const cots::CounterSet view = fleet_->GlobalView();
    std::printf("[top-%zu of %llu ingested, bound %llu, shed %llu]\n",
                config_.topk,
                static_cast<unsigned long long>(view.stream_length()),
                static_cast<unsigned long long>(view.min_freq()),
                static_cast<unsigned long long>(view.shed_weight()));
    size_t shown = 0;
    for (const Counter& c : view.counters()) {
      if (shown++ >= config_.topk) break;
      std::printf("  key %12llu  est %10llu  err %8llu\n",
                  static_cast<unsigned long long>(c.key),
                  static_cast<unsigned long long>(c.count),
                  static_cast<unsigned long long>(c.error));
    }
  }

  // The "stats" command's JSON document: server totals plus the full
  // metrics snapshot. Folding the per-shard stream lengths into their
  // gauges first means the metrics section is self-contained — a scraper
  // never needs the "server" section to see shard balance.
  std::string StatsJson() {
    for (size_t i = 0; i < shard_gauges_.size(); ++i) {
      cots::MetricsRegistry::Global().Set(shard_gauges_[i],
                                          fleet_->shard(i).stream_length());
    }
    COTS_GAUGE_SET("overload.shed_weight", fleet_->shed_weight());
    cots::JsonWriter w;
    w.BeginObject();
    w.Key("server").BeginObject();
    w.Key("ingested").Uint(ingested_);
    w.Key("shed").Uint(shed_);
    w.Key("shards").Uint(fleet_->num_shards());
    w.Key("stream_length").Uint(fleet_->stream_length());
    w.Key("trace_rings").Uint(cots::TraceRegistry::Global().num_rings());
    w.EndObject();
    w.Key("overload").BeginObject();
    w.Key("state").String(cots::AdmissionStateName(admission_.state()));
    w.Key("state_code").Uint(static_cast<uint64_t>(admission_.state()));
    w.Key("shed_weight").Uint(fleet_->shed_weight());
    w.Key("deadline_misses").Uint(fleet_->deadline_misses());
    w.Key("overloaded_batches").Uint(overloaded_batches_);
    w.Key("retry_after_ms").Uint(AdmissionController::kRetryAfterMs);
    w.Key("transitions").Uint(admission_.transitions());
    w.Key("slow_client_evictions").Uint(slow_client_evictions_);
    w.Key("stats_idle_evictions").Uint(stats_idle_evictions_);
    w.Key("emfile_evictions").Uint(emfile_evictions_);
    w.EndObject();
    w.Key("metrics");
    cots::MetricsRegistry::Global().Snapshot().AppendJson(&w);
    w.EndObject();
    return w.str();
  }

 private:
  // Close and deregister both listeners (idempotent); existing
  // connections are unaffected.
  void StopAccepting() {
    for (int* fd : {&listen_fd_, &stats_listen_fd_}) {
      if (*fd >= 0) {
        if (epoll_fd_ >= 0) ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, *fd, nullptr);
        ::close(*fd);
        *fd = -1;
      }
    }
  }

  // The accept loop of both listeners: accepts until the backlog is empty.
  // Out of descriptors, it makes room by evicting the oldest-idle
  // connection rather than silently ceasing to accept (the pending
  // connection stays queued and is retried).
  void Accept(int listen_fd) {
    for (;;) {
      const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        if ((errno == EMFILE || errno == ENFILE) && EvictOldestIdle()) {
          continue;
        }
        return;  // backlog empty (EAGAIN) or a hard error
      }
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
        ::close(fd);
        continue;
      }
      Connection& c = conns_[fd];
      c.fd = fd;
      c.stats = listen_fd == stats_listen_fd_;
      c.since = SteadyClock::now();
    }
  }

  // EMFILE relief: closes the ingest connection idle the longest, or the
  // oldest stats connection if no ingest connection is open.
  bool EvictOldestIdle() {
    if (conns_.empty()) return false;
    const auto victim = std::min_element(
        conns_.begin(), conns_.end(), [](const auto& a, const auto& b) {
          return std::tie(a.second.stats, a.second.since) <
                 std::tie(b.second.stats, b.second.since);
        });
    Close(&victim->second);
    ++emfile_evictions_;
    COTS_COUNTER_INC("server.emfile_evictions");
    return true;
  }

  // The close path of both kinds. An ingest connection holds no decoded
  // keys between reads, so closing it loses nothing the server read.
  void Close(Connection* c) {
    const int fd = c->fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    conns_.erase(fd);
  }

  // Evicts connections whose parked reply missed its deadline (slow
  // readers) and stats connections that sent no command within kStatsIdle.
  void SweepDeadlines(SteadyClock::time_point now) {
    std::vector<std::pair<int, bool>> evict;  // fd, slow reader
    for (const auto& [fd, c] : conns_) {
      const bool slow = c.parked && now >= c.deadline;
      if (slow || (c.stats && !c.answered && now - c.since >= kStatsIdle)) {
        evict.emplace_back(fd, slow);
      }
    }
    for (const auto& [fd, slow] : evict) {
      Close(&conns_.at(fd));
      if (slow) {
        ++slow_client_evictions_;
        COTS_COUNTER_INC("server.slow_client_evictions");
      } else {
        ++stats_idle_evictions_;
        COTS_COUNTER_INC("server.stats_idle_evictions");
      }
    }
  }

  // Sets the epoll interest: readable until a stats command is answered,
  // writable while a reply is parked.
  void Watch(const Connection& c) {
    epoll_event ev{};
    ev.events = (c.answered ? 0u : EPOLLIN) | (c.parked ? EPOLLOUT : 0u);
    ev.data.fd = c.fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
  }

  // The reply writer of both kinds: writes whatever of `out` the socket
  // takes and parks the rest behind EPOLLOUT, with kClientDeadline for the
  // client to drain it. If the peer is gone the rest is dropped (reading
  // finds out). An answered stats connection closes once its reply is out;
  // returns false if the connection was closed.
  bool Flush(Connection* c) {
    while (c->out_off < c->out.size()) {
      const ssize_t w = ::write(c->fd, c->out.data() + c->out_off,
                                c->out.size() - c->out_off);
      if (w > 0) {
        c->out_off += static_cast<size_t>(w);
      } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!c->parked) {
          c->parked = true;
          c->deadline = SteadyClock::now() + kClientDeadline;
          Watch(*c);
        }
        return true;
      } else {
        break;
      }
    }
    c->out.clear();
    c->out_off = 0;
    if (c->answered) {
      Close(c);
      return false;
    }
    if (c->parked) {
      c->parked = false;
      Watch(*c);
    }
    return true;
  }

  // Stats protocol: one command line, one reply, then close. "trace" dumps
  // the flight recorder; any other line (canonically "stats") gets the
  // stats document, so `echo | nc` works as a health check.
  void ServeStats(Connection* c) {
    if (c->answered) {  // hang-up or error while the reply is parked
      Close(c);
      return;
    }
    char buf[kMaxCommand];
    const ssize_t r = ::read(c->fd, buf, sizeof(buf));
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (r <= 0) {  // hung up without a command
      Close(c);
      return;
    }
    c->cmd.append(buf, static_cast<size_t>(r));
    const size_t nl = c->cmd.find('\n');
    if (nl == std::string::npos) {
      if (c->cmd.size() > kMaxCommand) Close(c);  // not a line protocol
      return;
    }
    std::string_view line(c->cmd.data(), nl);
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.remove_suffix(1);
    }
    c->out = line == "trace" ? cots::TraceRegistry::Global().DrainJson()
                             : StatsJson();
    c->out.push_back('\n');
    c->answered = true;
    Flush(c);
  }

  // The --report-ms companion line: rate + raw deltas a human can watch
  // scroll, sourced from the same metrics the stats endpoint serves.
  void PrintDeltaLine(double seconds) {
    const cots::MetricsSnapshot snap =
        cots::MetricsRegistry::Global().Snapshot();
    const uint64_t handoffs = snap.CounterValue("fleet.handoffs");
    const double rate =
        seconds > 0.0
            ? static_cast<double>(ingested_ - last_ingested_) / seconds
            : 0.0;
    std::printf("[stats] offers/s=%.0f handoffs=+%llu "
                "view_staleness=%llu state=%s shed=+%llu\n",
                rate,
                static_cast<unsigned long long>(handoffs - last_handoffs_),
                static_cast<unsigned long long>(
                    snap.GaugeValue("view.staleness_offers")),
                cots::AdmissionStateName(admission_.state()),
                static_cast<unsigned long long>(shed_ - last_shed_));
    last_ingested_ = ingested_;
    last_handoffs_ = handoffs;
    last_shed_ = shed_;
  }

  // One read per readiness event. epoll is level-triggered, so a
  // connection with more bytes waiting is reported again after the other
  // ready descriptors, the stats port and the tick have had their turn.
  // The keys the read completes are dispatched at once, in batches of up
  // to kBatchDepth, so keys on an idle connection are counted now rather
  // than when a later read would fill a batch.
  void Ingest(Connection* c, CotsFleet::ThreadHandle* handle) {
    // The read lands behind the bytes of a word the last read split, and
    // the words are decoded in place.
    auto* bytes = reinterpret_cast<unsigned char*>(keys_.data());
    std::memcpy(bytes, c->partial, c->partial_len);
    const ssize_t r = ::read(c->fd, bytes + c->partial_len, kReadBytes);
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (r <= 0) {  // peer closed (or hard error)
      Close(c);
      return;
    }
    c->since = SteadyClock::now();
    const size_t len = c->partial_len + static_cast<size_t>(r);
    const size_t n = len / 8;
    c->partial_len = len % 8;
    std::memcpy(c->partial, bytes + 8 * n, c->partial_len);
    for (size_t i = 0; i < n; ++i) keys_[i] = DecodeLE64(bytes + 8 * i);
    for (size_t i = 0; i < n; i += CotsFleet::kBatchDepth) {
      Dispatch(c, keys_.data() + i, std::min(CotsFleet::kBatchDepth, n - i),
               handle);
    }
  }

  // Effective shedding decision, consulted per batch. The forced window
  // (test/ops hook) overrides the controller but routes its transitions
  // THROUGH ForceState so gauges, trace events, and the transition counter
  // tell the truth either way.
  bool Shedding() {
    if (config_.force_shed_at != 0) {
      const uint64_t total = ingested_ + shed_;
      const bool forced =
          total >= config_.force_shed_at && total < config_.force_recover_at;
      if (forced != forced_shed_) {
        admission_.ForceState(forced ? AdmissionState::kShedding
                                     : AdmissionState::kHealthy);
        forced_shed_ = forced;
      }
      if (forced) return true;
    }
    return admission_.ShouldShed();
  }

  // Feeds the controller one sample: worst shard backlog (entries
  // waiting in a shard's rings) and the fleet's deadline-miss count. Runs on
  // the tick — never on the per-offer path.
  void SampleAdmission() {
    if (forced_shed_) return;  // the forced window owns the state
    cots::AdmissionSignals sig;
    for (size_t i = 0; i < fleet_->num_shards(); ++i) {
      sig.queue_depth =
          std::max(sig.queue_depth, fleet_->shard(i).queue_depth());
    }
    sig.overloaded_offers = fleet_->deadline_misses();
    admission_.Update(sig);
    COTS_GAUGE_SET("overload.shed_weight", fleet_->shed_weight());
  }

  void Dispatch(Connection* c, const ElementId* keys, size_t n,
                CotsFleet::ThreadHandle* handle) {
    if (Shedding()) {
      // Degrade, don't lie: the keys are absorbed into the error bounds
      // of their home shards (never counted, never silently dropped) and
      // the client is told to back off.
      if (fleet_->Shed(keys, n)) {
        shed_ += n;
        SendBusy(c);
      }  // refused: the fleet is stopping; OfferBatch would refuse too
      return;
    }
    const OfferOutcome outcome = handle->OfferBatchBounded(keys, n);
    if (outcome != OfferOutcome::kRefused) {
      ingested_ += n;
      if (outcome == OfferOutcome::kOverloaded) ++overloaded_batches_;
    }  // refused whole: the fleet is stopping, nothing was half-counted
  }

  // Rate-limited "busy <retry-after-ms>" reply on a shedding connection.
  void SendBusy(Connection* c) {
    const auto now = SteadyClock::now();
    if (now < c->next_busy) return;
    constexpr uint32_t kRetry = AdmissionController::kRetryAfterMs;
    c->next_busy = now + milliseconds(kRetry);
    c->out += "busy " + std::to_string(kRetry) + "\n";
    Flush(c);
  }

  const ServerConfig config_;
  CotsFleet* const fleet_;
  AdmissionController admission_;
  int listen_fd_ = -1;
  int stats_listen_fd_ = -1;
  int epoll_fd_ = -1;
  uint16_t stats_port_ = 0;
  std::unordered_map<int, Connection> conns_;
  // Ingest read buffer: room for a split word's bytes plus one read.
  std::vector<ElementId> keys_ = std::vector<ElementId>(kReadBytes / 8 + 1);
  std::vector<cots::GaugeId> shard_gauges_;
  bool forced_shed_ = false;
  uint64_t ingested_ = 0;
  uint64_t shed_ = 0;
  uint64_t overloaded_batches_ = 0;
  uint64_t slow_client_evictions_ = 0;
  uint64_t stats_idle_evictions_ = 0;
  uint64_t emfile_evictions_ = 0;
  uint64_t last_ingested_ = 0;
  uint64_t last_handoffs_ = 0;
  uint64_t last_shed_ = 0;
};

// The fleet every mode serves; nullptr (after a message) if the flags
// give invalid options.
std::unique_ptr<CotsFleet> MakeFleet(const ServerConfig& config,
                                     const char* who) {
  cots::CotsFleetOptions opt;
  opt.num_shards = config.shards;
  opt.engine.capacity = config.capacity;
  opt.view_refresh_interval = config.view_refresh;
  if (!opt.Validate().ok()) {
    std::fprintf(stderr, "%s: invalid fleet options\n", who);
    return nullptr;
  }
  return std::make_unique<CotsFleet>(opt);
}

// Writes the flight-recorder dump to `path` (nothing to do if empty).
bool WriteTrace(const std::string& path, const char* who) {
  if (path.empty()) return true;
  const std::string trace = cots::TraceRegistry::Global().DrainJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr &&
            std::fwrite(trace.data(), 1, trace.size(), f) == trace.size();
  if (f != nullptr) ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::fprintf(stderr, "%s: cannot write %s\n", who, path.c_str());
    return false;
  }
  std::printf("%s: wrote trace (%zu bytes) to %s\n", who, trace.size(),
              path.c_str());
  return true;
}

// Selftest client socket: blocking, connected to the loopback `port`, with
// SO_SNDBUF set first if `sndbuf` is nonzero. -1 on failure.
int ConnectLoopback(uint16_t port, int sndbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (sndbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool WriteAll(int fd, const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  while (len > 0) {
    const ssize_t w = ::write(fd, p, len);
    if (w <= 0) return false;
    p += w;
    len -= static_cast<size_t>(w);
  }
  return true;
}

// Sends `request` to the stats port, half-closing after it if asked, and
// reads the reply until the server closes the connection. False if the
// exchange failed or the server kept the connection open for 5 s.
bool StatsRoundTrip(uint16_t port, const std::string& request,
                    std::string* reply, bool half_close = false) {
  reply->clear();
  const int fd = ConnectLoopback(port);
  if (fd < 0) return false;
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  bool ok = WriteAll(fd, request.data(), request.size());
  if (ok && half_close) ::shutdown(fd, SHUT_WR);
  char buf[16384];
  ssize_t r = 0;
  while (ok && (r = ::read(fd, buf, sizeof(buf))) > 0) {
    reply->append(buf, static_cast<size_t>(r));
  }
  ok = ok && (r == 0 || errno == ECONNRESET);
  ::close(fd);
  return ok;
}

bool IsStatsDoc(const std::string& body) {
  return !body.empty() && body.front() == '{' &&
         body.find("\"overload\"") != std::string::npos;
}

// Prints `what` as a failure of selftest `name` unless `ok`; returns `ok`.
bool Expect(bool ok, const char* name, const char* what) {
  if (!ok) std::fprintf(stderr, "%s FAIL: %s\n", name, what);
  return ok;
}

// The selftest harness: builds the fleet and server, runs the event loop
// on its own thread while `client(server, port)` drives loopback sockets,
// then drains the loop, stops the fleet, writes --trace-out and passes
// iff `check(server, fleet)` does. Returns the exit code.
template <typename Client, typename Check>
int RunHarness(const char* name, ServerConfig config, Client client,
               Check check) {
  config.report_ms = 0;
  const std::unique_ptr<CotsFleet> fleet = MakeFleet(config, name);
  if (fleet == nullptr) return 1;
  IngestServer server(config, fleet.get());
  const uint16_t port = server.Start();
  if (port == 0) {
    std::fprintf(stderr, "%s: cannot bind loopback socket\n", name);
    return 1;
  }
  std::printf("%s: 127.0.0.1:%u, %zu shard(s), stats on 127.0.0.1:%u\n",
              name, port, fleet->num_shards(), server.stats_port());
  std::atomic<bool> done{false};
  std::thread loop([&] { server.Run(&done); });
  client(server, port);
  done.store(true);
  loop.join();
  fleet->Stop();
  if (!WriteTrace(config.trace_out, name) || !check(server, *fleet)) {
    return 1;
  }
  std::printf("%s PASS\n", name);
  return 0;
}

// Selftest client: writes one pre-encoded 4096-key buffer back-to-back
// until the deadline, so its socket never drains. Returns the keys it
// wrote in full.
uint64_t RunClient(uint16_t port, int seconds, uint64_t seed) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) return 0;
  constexpr size_t kKeys = 4096;
  cots::Xoshiro256 rng(seed);
  std::vector<unsigned char> wire(kKeys * 8);
  for (size_t i = 0; i < kKeys; ++i) {
    // Skewed synthetic workload: a few hot keys over a long tail.
    const bool hot = rng.NextBounded(10) < 6;
    EncodeLE64(hot ? 1 + rng.NextBounded(16) : 1000 + rng.NextBounded(100000),
               wire.data() + i * 8);
  }
  const auto deadline = SteadyClock::now() + std::chrono::seconds(seconds);
  uint64_t sent = 0;
  while (SteadyClock::now() < deadline &&
         WriteAll(fd, wire.data(), wire.size())) {
    sent += kKeys;
  }
  ::close(fd);
  return sent;
}

// Conservation and fairness drill: kSelftestClients saturating clients
// while kProbes stats probes run back-to-back from halfway through. The
// probes must all return before any client finishes (a saturating
// connection must not hold the loop), and every key written in full must
// be counted.
int RunSelftest(const ServerConfig& config) {
  constexpr int kProbes = 5;
  std::atomic<uint64_t> sent{0};
  bool stats_ok = false;
  bool probe_in_time = false;
  double probe_ms = 0.0;
  auto client = [&](const IngestServer& server, uint16_t port) {
    std::vector<SteadyClock::time_point> finished(kSelftestClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kSelftestClients; ++c) {
      clients.emplace_back([&, c] {
        sent += RunClient(port, config.seconds, 0x5eed + 31 * c);
        finished[c] = SteadyClock::now();
      });
    }
    // From the midpoint, poll back-to-back the way a live scraper would.
    std::this_thread::sleep_for(milliseconds(500 * config.seconds));
    stats_ok = true;
    for (int i = 0; i < kProbes; ++i) {
      const auto asked = SteadyClock::now();
      std::string body;
      stats_ok &= StatsRoundTrip(server.stats_port(), "stats\n", &body) &&
                  IsStatsDoc(body) &&
                  body.find("\"gauges\"") != std::string::npos &&
                  body.find("\"stream_length\"") != std::string::npos;
      const std::chrono::duration<double, std::milli> took =
          SteadyClock::now() - asked;
      probe_ms = std::max(probe_ms, took.count());
    }
    const auto probed = SteadyClock::now();
    for (std::thread& t : clients) t.join();
    probe_in_time =
        probed < *std::min_element(finished.begin(), finished.end());
  };
  auto check = [&](const IngestServer& server, const CotsFleet& fleet) {
    server.PrintTopK();
    const uint64_t counted = fleet.stream_length();
    std::printf("selftest: %d clients for %d s sent %llu, counted %llu, "
                "shed %llu; slowest mid-ingest stats probe %.1f ms\n",
                kSelftestClients, config.seconds,
                static_cast<unsigned long long>(sent.load()),
                static_cast<unsigned long long>(counted),
                static_cast<unsigned long long>(server.shed()), probe_ms);
    // Conservation: the loop drained every connection before the fleet
    // stopped, so every key written in full was counted. A healthy
    // loopback run never trips the admission controller, so nothing is
    // shed (the shed path has its own selftest).
    bool ok = Expect(stats_ok, "selftest", "stats endpoint probe failed");
    ok &= Expect(probe_in_time, "selftest",
                 "stats probes returned only after a client finished");
    ok &= Expect(sent.load() > 0, "selftest", "clients sent nothing");
    ok &= Expect(counted == sent.load() && server.shed() == 0, "selftest",
                 "conservation violated");
    return ok;
  };
  return RunHarness("selftest", config, client, check);
}

// Parses the "busy <ms>" lines complete in `rx`: counts them and keeps the
// latest retry hint. True if there was one.
bool TakeBusy(std::string* rx, uint64_t* busy_seen, long long* retry_ms) {
  bool seen = false;
  size_t nl;
  while ((nl = rx->find('\n')) != std::string::npos) {
    if (rx->rfind("busy ", 0) == 0) {
      ++*busy_seen;
      *retry_ms = std::strtoll(rx->c_str() + 5, nullptr, 10);
      seen = true;
    }
    rx->erase(0, nl + 1);
  }
  return seen;
}

// End-to-end overload drill (the CI "refused offer" e2e): drive a real
// socket through a forced shedding window and verify the full contract —
// busy replies arrive and are honored, shedding shows in the stats
// endpoint, counted + shed conserves the stream, and every exact count
// lies inside the shed-widened bounds of the merged view.
int RunShedSelftest(ServerConfig config) {
  // The overload instants fire mid-stream; the default per-thread flight-
  // recorder window would be overwritten by post-recovery dispatch spans
  // before the shutdown dump. Widen it (first trace use is below, so the
  // registry has not been created yet); an explicit env value wins.
  ::setenv("COTS_TRACE_RING_EVENTS", "65536", /*overwrite=*/0);
  if (config.force_shed_at == 0) config.force_shed_at = 20000;
  if (config.force_recover_at <= config.force_shed_at) {
    config.force_recover_at = config.force_shed_at + 16384;
  }
  // Shrink the kernel buffers on both ends so TCP flow control ties the
  // client's send progress to the server's consumption — otherwise the
  // whole stream fits in socket buffers and the client finishes before
  // the server ever enters the shed window, let alone replies busy.
  config.ingest_rcvbuf = 16384;
  const uint64_t target = config.force_recover_at + 20000;
  std::unordered_map<uint64_t, uint64_t> exact;
  uint64_t sent = 0;
  uint64_t busy_seen = 0;
  long long last_retry_ms = -1;
  bool stats_showed_shedding = false;
  auto client = [&](const IngestServer& server, uint16_t port) {
    std::printf("shed-selftest: shed window [%llu, %llu), sending %llu keys\n",
                static_cast<unsigned long long>(config.force_shed_at),
                static_cast<unsigned long long>(config.force_recover_at),
                static_cast<unsigned long long>(target));
    const int fd = ConnectLoopback(port, /*sndbuf=*/8192);
    if (fd < 0) return;
    // Small key universe so the client-side exact tally stays cheap and the
    // bound check exercises both monitored and unmonitored keys.
    cots::Xoshiro256 rng(0x5eed);
    constexpr size_t kBurst = 1024;
    unsigned char wire[kBurst * 8];
    std::string rx;
    char rbuf[256];
    ssize_t r = 0;
    while (sent < target) {
      for (size_t i = 0; i < kBurst; ++i) {
        const bool hot = rng.NextBounded(10) < 6;
        const uint64_t key =
            hot ? 1 + rng.NextBounded(16) : 100 + rng.NextBounded(496);
        ++exact[key];
        EncodeLE64(key, wire + i * 8);
      }
      if (!WriteAll(fd, wire, sizeof(wire))) break;
      sent += kBurst;
      // Drain any busy replies and honor the most recent retry hint.
      while ((r = ::recv(fd, rbuf, sizeof(rbuf), MSG_DONTWAIT)) > 0) {
        rx.append(rbuf, static_cast<size_t>(r));
      }
      if (!TakeBusy(&rx, &busy_seen, &last_retry_ms)) continue;
      if (!stats_showed_shedding) {
        // While the client is paused the ingest total is frozen inside
        // the forced window, so the stats endpoint must report shedding.
        std::string body;
        stats_showed_shedding =
            StatsRoundTrip(server.stats_port(), "stats\n", &body) &&
            IsStatsDoc(body) && body.find("\"shedding\"") != std::string::npos;
      }
      std::this_thread::sleep_for(
          milliseconds(std::clamp(last_retry_ms, 1LL, 200LL)));
    }
    // Half-close and drain to EOF instead of a hard close: a close() with
    // unread busy replies in the receive queue would RST the connection and
    // destroy in-flight data the server has not consumed yet.
    ::shutdown(fd, SHUT_WR);
    while ((r = ::read(fd, rbuf, sizeof(rbuf))) > 0) {
      rx.append(rbuf, static_cast<size_t>(r));
    }
    TakeBusy(&rx, &busy_seen, &last_retry_ms);
    ::close(fd);
  };
  auto check = [&](const IngestServer& server, const CotsFleet& fleet) {
    const cots::CounterSet view = fleet.GlobalView();
    const uint64_t counted = fleet.stream_length();
    const uint64_t shed = server.shed();
    std::printf("shed-selftest: sent %llu, counted %llu, shed %llu, "
                "busy replies %llu (last retry-after %lld ms)\n",
                static_cast<unsigned long long>(sent),
                static_cast<unsigned long long>(counted),
                static_cast<unsigned long long>(shed),
                static_cast<unsigned long long>(busy_seen), last_retry_ms);
    const char* name = "shed-selftest";
    bool ok = Expect(sent >= target, name, "the client could not send");
    ok &= Expect(busy_seen > 0, name, "no busy reply received");
    ok &= Expect(stats_showed_shedding, name,
                 "stats endpoint never reported the shedding state");
    ok &= Expect(shed > 0, name, "nothing was shed");
    // Shedding must END: the forced window is bounded, so everything past
    // it (plus everything before it) is counted, not shed.
    ok &= Expect(shed <= config.force_recover_at - config.force_shed_at, name,
                 "shed exceeds the forced window: recovery never happened");
    // Conservation with shedding: every key written in full was either
    // counted or shed — nothing vanishes without accounting.
    ok &= Expect(counted + shed == sent, name,
                 "conservation violated (counted + shed != sent)");
    ok &= Expect(view.shed_weight() == shed, name,
                 "view shed_weight differs from the server's shed count");
    // Degrade, don't lie: after folding shed weight into the bounds, every
    // key's exact count must be inside them.
    for (const auto& [key, truth] : exact) {
      const auto c = view.Lookup(key);
      const bool inside = c.has_value() ? c->count <= truth + c->error &&
                                              truth <= c->count + c->error
                                        : truth <= view.min_freq();
      if (!inside) {
        std::fprintf(stderr, "shed-selftest FAIL: key %llu exact %llu "
                             "outside its shed-widened bound\n",
                     static_cast<unsigned long long>(key),
                     static_cast<unsigned long long>(truth));
        ok = false;
      }
    }
    std::printf("shed-selftest: %zu keys bound-checked against the "
                "shed-widened view\n",
                exact.size());
    return ok;
  };
  return RunHarness("shed-selftest", config, client, check);
}

// Idle-connection and stats-protocol drill: keys written on a connection
// that then stays open must be counted promptly, not when a later read
// fills the batch; then each stats command form gets its documented reply.
int RunIdleSelftest(const ServerConfig& config) {
  constexpr uint64_t kKeys = 100;
  uint64_t counted = 0;
  bool protocol_ok = false;
  auto client = [&](const IngestServer& server, uint16_t port) {
    const int fd = ConnectLoopback(port);
    if (fd < 0) return;
    unsigned char wire[kKeys * 8];
    for (uint64_t i = 0; i < kKeys; ++i) EncodeLE64(1 + i % 7, wire + i * 8);
    // Split mid-word, so the partial-word path runs too.
    constexpr size_t kSplit = 8 * 49 + 3;
    const bool written = WriteAll(fd, wire, kSplit) &&
                         WriteAll(fd, wire + kSplit, sizeof(wire) - kSplit);
    const uint16_t stats = server.stats_port();
    std::string body;
    const auto deadline = SteadyClock::now() + std::chrono::seconds(1);
    while (written && counted != kKeys && SteadyClock::now() < deadline) {
      StatsRoundTrip(stats, "stats\n", &body);
      const size_t at = body.find("\"stream_length\":");
      if (at != std::string::npos) {
        counted = std::strtoull(body.c_str() + at + 16, nullptr, 10);
      }
      if (counted != kKeys) std::this_thread::sleep_for(milliseconds(10));
    }
    const char* name = "idle-selftest";
    protocol_ok = Expect(StatsRoundTrip(stats, "stats\n", &body, true) &&
                             IsStatsDoc(body),
                         name, "a half-closed \"stats\" got no stats reply");
    protocol_ok &= Expect(StatsRoundTrip(stats, "trace\n", &body) &&
                              body.rfind("{\"traceEvents\":", 0) == 0,
                          name, "\"trace\" got no trace document");
    protocol_ok &= Expect(
        StatsRoundTrip(stats, "bogus\n", &body) && IsStatsDoc(body), name,
        "an unknown command got no stats reply");
    protocol_ok &= Expect(
        StatsRoundTrip(stats, std::string(5000, 'x'), &body) && body.empty(),
        name, "5000 bytes without a newline were not closed unanswered");
    // The ingest connection stays open until the verdict is in.
    ::close(fd);
  };
  auto check = [&](const IngestServer&, const CotsFleet&) {
    std::printf("idle-selftest: %llu of %llu keys counted within 1 s\n",
                static_cast<unsigned long long>(counted),
                static_cast<unsigned long long>(kKeys));
    return Expect(counted == kKeys, "idle-selftest",
                  "keys on an open connection were not counted") &&
           protocol_ok;
  };
  return RunHarness("idle-selftest", config, client, check);
}

}  // namespace

int main(int argc, char** argv) {
  const ServerConfig config = ParseArgs(argc, argv);
  std::signal(SIGPIPE, SIG_IGN);
  switch (config.mode) {
    case Mode::kSelftest:
      return RunSelftest(config);
    case Mode::kShedSelftest:
      return RunShedSelftest(config);
    case Mode::kIdleSelftest:
      return RunIdleSelftest(config);
    case Mode::kServe:
      break;
  }
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);

  const std::unique_ptr<CotsFleet> fleet = MakeFleet(config, "ingest_server");
  if (fleet == nullptr) return 1;
  IngestServer server(config, fleet.get());
  const uint16_t port = server.Start();
  if (port == 0) {
    std::fprintf(stderr, "ingest_server: cannot bind 127.0.0.1:%u\n",
                 config.port);
    return 1;
  }
  std::printf("ingest_server: listening on 127.0.0.1:%u (%zu shard(s), "
              "capacity %zu); protocol: raw little-endian uint64 keys\n",
              port, fleet->num_shards(), config.capacity);
  std::printf("ingest_server: stats on 127.0.0.1:%u "
              "(send \"stats\\n\" or \"trace\\n\")\n",
              server.stats_port());
  server.Run(nullptr);
  fleet->Stop();
  std::printf("ingest_server: stopped after %llu elements (%llu shed)\n",
              static_cast<unsigned long long>(server.ingested()),
              static_cast<unsigned long long>(server.shed()));
  server.PrintTopK();
  WriteTrace(config.trace_out, "ingest_server");
  return 0;
}

#else  // !__linux__

#include <cstdio>

int main() {
  std::fprintf(stderr, "ingest_server requires Linux (epoll)\n");
  return 77;  // conventional "skipped"
}

#endif  // __linux__
