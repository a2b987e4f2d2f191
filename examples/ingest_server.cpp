// ingest_server: a minimal network front-end for the CotsFleet (DESIGN.md
// §9). An epoll event loop accepts loopback TCP connections, parses the
// wire protocol (a raw stream of little-endian uint64 element ids, no
// framing), accumulates per-connection batches, and feeds them to the
// fleet through OfferBatchBounded — so the network path runs the same
// shard router as the in-process benches, and a batch either lands on its
// shards in full or is refused in full. A batch is dispatched when it
// reaches CotsFleet::kBatchDepth keys or when a read drains the socket,
// so keys on an idle connection are counted without waiting for more.
//
//   ./ingest_server --port=7171 --shards=4 --capacity=1000
//     serves until SIGINT/SIGTERM, printing a top-k report plus a delta
//     stats line (offers/s, shard hand-off delta, view staleness) every
//     --report-ms milliseconds. On the first signal the listeners close
//     and existing connections drain (bounded by a drain deadline); a
//     second signal exits immediately.
//
// Overload model (DESIGN.md §13): an AdmissionController is sampled on a
// short tick from the shard inbox depths and kOverloaded offer outcomes. While it reports Shedding
// the server keeps reading (never stalls the kernel buffers) but routes
// decoded batches to CotsFleet::Shed() — absorbed into the error bounds,
// not the counters — and answers each shedding connection with a
// rate-limited "busy <retry-after-ms>\n" line so well-behaved clients back
// off. --force-shed-at=N / --force-recover-at=M force the Shedding state
// while N <= ingested+shed < M (deterministic testing hook).
//
// A second loopback listener (--stats-port, ephemeral by default) serves
// one-shot line commands: "stats\n" returns a JSON document with server
// totals (including the overload section) plus the full metrics snapshot,
// and "trace\n" returns the flight-recorder dump in Chrome trace-event
// JSON (load in ui.perfetto.dev). --trace-out=FILE writes the same dump at
// shutdown. Responses are written non-blocking through a per-connection
// output buffer with a write deadline; clients that stop reading are
// evicted (server.slow_client_evictions), as are stats connections that
// idle without ever sending a command. EMFILE on accept evicts the
// oldest-idle connection instead of dropping the listener on the floor.
//
//   ./ingest_server --selftest --seconds=5
//     spawns loopback client threads in-process, ingests for ~N seconds,
//     then drains, stops the fleet, and exits 0 iff conservation holds:
//     every element the clients wrote was counted (fleet stream length ==
//     bytes sent / 8) and the merged top-k view is internally consistent.
//     This is the CI smoke mode.
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
//     that then stays open, and exits 0 iff the stats port reports
//     stream_length 100 within 1 s.

#ifdef __linux__

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
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
#include <thread>
#include <unordered_map>
#include <vector>

#include "cots/cots_fleet.h"
#include "stream/zipf_generator.h"
#include "util/json_writer.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/trace.h"

namespace {

using cots::AdmissionState;
using cots::CotsFleet;
using cots::CotsFleetOptions;
using cots::Counter;
using cots::ElementId;
using cots::OfferOutcome;

using SteadyClock = std::chrono::steady_clock;

volatile std::sig_atomic_t g_interrupted = 0;
void OnSignal(int) { g_interrupted = g_interrupted + 1; }

struct ServerConfig {
  uint16_t port = 0;        // 0 = ephemeral (printed once bound)
  uint16_t stats_port = 0;  // 0 = ephemeral (printed once bound)
  size_t shards = 0;        // 0 = hardware threads
  size_t capacity = 1000;
  size_t topk = 10;
  int report_ms = 2000;
  // Fleet-level auto-refresh interval for the published global view; keeps
  // the view.staleness_offers gauge and view.publish spans live. 0 = off.
  uint64_t view_refresh = 8192;
  std::string trace_out;  // empty = no trace dump at shutdown
  bool selftest = false;
  bool shed_selftest = false;
  bool idle_selftest = false;
  int seconds = 5;
  int clients = 3;
  // Deterministic overload hook: force the Shedding state while
  // force_shed_at <= ingested + shed < force_recover_at. 0 = disabled.
  uint64_t force_shed_at = 0;
  uint64_t force_recover_at = 0;
  // Write deadline for buffered responses (busy lines, stats bodies); a
  // client that keeps a non-empty output buffer past this is evicted.
  int client_deadline_ms = 5000;
  // Stats connections that never complete a command line within this are
  // evicted (a scraper that connected and wandered off).
  int stats_idle_ms = 10000;
  // Hint handed to shed clients in the "busy <ms>" reply. 0 = library
  // default (AdmissionOptions::retry_after_ms).
  uint32_t retry_after_ms = 0;
  // How long existing connections may keep draining after the first
  // SIGINT/SIGTERM before the server force-closes them.
  int drain_ms = 3000;
  // SO_RCVBUF for the ingest listener (inherited by accepted sockets).
  // 0 = kernel default. The shed selftest shrinks it so TCP flow control
  // keeps the client honest about the server's actual consumption rate.
  int ingest_rcvbuf = 0;
};

ServerConfig ParseArgs(int argc, char** argv) {
  ServerConfig c;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--port=", 7) == 0) {
      c.port = static_cast<uint16_t>(std::strtoul(a + 7, nullptr, 10));
    } else if (std::strncmp(a, "--stats-port=", 13) == 0) {
      c.stats_port = static_cast<uint16_t>(std::strtoul(a + 13, nullptr, 10));
    } else if (std::strncmp(a, "--view-refresh=", 15) == 0) {
      c.view_refresh = std::strtoull(a + 15, nullptr, 10);
    } else if (std::strncmp(a, "--trace-out=", 12) == 0) {
      c.trace_out = a + 12;
    } else if (std::strncmp(a, "--shards=", 9) == 0) {
      c.shards = std::strtoull(a + 9, nullptr, 10);
    } else if (std::strncmp(a, "--capacity=", 11) == 0) {
      c.capacity = std::strtoull(a + 11, nullptr, 10);
    } else if (std::strncmp(a, "--topk=", 7) == 0) {
      c.topk = std::strtoull(a + 7, nullptr, 10);
    } else if (std::strncmp(a, "--report-ms=", 12) == 0) {
      c.report_ms = static_cast<int>(std::strtol(a + 12, nullptr, 10));
    } else if (std::strcmp(a, "--selftest") == 0) {
      c.selftest = true;
    } else if (std::strcmp(a, "--shed-selftest") == 0) {
      c.shed_selftest = true;
    } else if (std::strcmp(a, "--idle-selftest") == 0) {
      c.idle_selftest = true;
    } else if (std::strncmp(a, "--seconds=", 10) == 0) {
      c.seconds = static_cast<int>(std::strtol(a + 10, nullptr, 10));
    } else if (std::strncmp(a, "--clients=", 10) == 0) {
      c.clients = static_cast<int>(std::strtol(a + 10, nullptr, 10));
    } else if (std::strncmp(a, "--force-shed-at=", 16) == 0) {
      c.force_shed_at = std::strtoull(a + 16, nullptr, 10);
    } else if (std::strncmp(a, "--force-recover-at=", 19) == 0) {
      c.force_recover_at = std::strtoull(a + 19, nullptr, 10);
    } else if (std::strncmp(a, "--client-deadline-ms=", 21) == 0) {
      c.client_deadline_ms = static_cast<int>(std::strtol(a + 21, nullptr, 10));
    } else if (std::strncmp(a, "--stats-idle-ms=", 16) == 0) {
      c.stats_idle_ms = static_cast<int>(std::strtol(a + 16, nullptr, 10));
    } else if (std::strncmp(a, "--retry-after-ms=", 17) == 0) {
      c.retry_after_ms =
          static_cast<uint32_t>(std::strtoul(a + 17, nullptr, 10));
    } else if (std::strncmp(a, "--drain-ms=", 11) == 0) {
      c.drain_ms = static_cast<int>(std::strtol(a + 11, nullptr, 10));
    } else {
      std::fprintf(stderr,
                   "unknown argument: %s\n"
                   "usage: [--port=P] [--stats-port=P] [--shards=N] "
                   "[--capacity=M] [--topk=K] [--report-ms=MS] "
                   "[--view-refresh=N] [--trace-out=FILE] "
                   "[--force-shed-at=N] [--force-recover-at=M] "
                   "[--client-deadline-ms=MS] [--stats-idle-ms=MS] "
                   "[--retry-after-ms=MS] [--drain-ms=MS] "
                   "[--selftest [--seconds=S] [--clients=C]] "
                   "[--shed-selftest] [--idle-selftest]\n",
                   a);
      std::exit(2);
    }
  }
  return c;
}

// Per-connection parse state: a partial trailing word survives across
// reads, decoded keys pool into `pending` until a batch fills or the
// socket runs dry, and replies (busy lines) queue into a non-blocking output
// buffer with a write deadline.
struct Connection {
  int fd = -1;
  unsigned char partial[8] = {0};
  size_t partial_len = 0;
  std::vector<ElementId> pending;
  std::string out;       // unsent reply bytes
  size_t out_off = 0;
  SteadyClock::time_point out_deadline{};  // valid while !out.empty()
  SteadyClock::time_point last_activity{};
  SteadyClock::time_point next_busy{};  // rate limit for busy replies
};

// A stats connection reads one command line, then streams one buffered
// response and closes. `since` feeds the idle-eviction sweep.
struct StatsConn {
  std::string cmd;
  std::string out;
  size_t out_off = 0;
  bool responded = false;
  SteadyClock::time_point since{};
  SteadyClock::time_point out_deadline{};
};

constexpr size_t kDispatchBatch = CotsFleet::kBatchDepth;

uint64_t DecodeLE64(const unsigned char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

void EncodeLE64(uint64_t v, unsigned char* p) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<unsigned char>(v >> (8 * i));
    }
}

bool WriteFile(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
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
      : config_(config), fleet_(fleet), admission_(AdmissionOpts(config)) {
    // One last-value gauge per shard, set from the server thread whenever
    // a report or stats snapshot is taken — kMax folds each back out of
    // the per-thread slots (only one thread ever writes them).
    for (size_t i = 0; i < fleet->num_shards(); ++i) {
      shard_gauges_.push_back(cots::MetricsRegistry::Global().RegisterGauge(
          "fleet.shard_stream_length." + std::to_string(i)));
    }
  }

  // Binds and listens (ingest + stats); returns the ingest port (0 on
  // failure). stats_port() is valid afterwards.
  uint16_t Start() {
    uint16_t port = 0;
    listen_fd_ = ListenLoopback(config_.port, &port, config_.ingest_rcvbuf);
    if (listen_fd_ < 0) return 0;
    stats_listen_fd_ = ListenLoopback(config_.stats_port, &stats_port_);
    epoll_fd_ = ::epoll_create1(0);
    if (stats_listen_fd_ < 0 || epoll_fd_ < 0) {
      Close();
      return 0;
    }
    for (int fd : {listen_fd_, stats_listen_fd_}) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    }
    return port;
  }

  // Runs the event loop until `done` becomes true (selftest) or a signal
  // arrives. All connection buffers are flushed before returning, so
  // everything the clients managed to write is counted. The drain is
  // bounded: after config_.drain_ms (or a second signal) remaining
  // connections are force-closed once their decoded backlog is flushed.
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
      // Once stopping, keep sweeping with a zero timeout until every
      // connection has drained: bytes already in socket buffers belong to
      // accepted writes and must reach the fleet.
      const int timeout_ms = stopping ? 0 : 100;
      const int ready = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
      if (ready < 0 && errno != EINTR) break;
      for (int i = 0; i < ready; ++i) {
        const int fd = events[i].data.fd;
        const uint32_t ev = events[i].events;
        if (fd == listen_fd_) {
          Accept(handle.get());
        } else if (fd == stats_listen_fd_) {
          AcceptStats(handle.get());
        } else if (stats_conns_.count(fd) != 0) {
          if ((ev & EPOLLOUT) != 0) FlushStatsOut(fd);
          if (stats_conns_.count(fd) != 0 && (ev & ~EPOLLOUT) != 0) {
            ServiceStats(fd);
          }
        } else {
          if ((ev & EPOLLOUT) != 0) FlushConnOut(fd);
          if (connections_.count(fd) != 0 && (ev & ~EPOLLOUT) != 0) {
            Service(fd, handle.get());
          }
        }
      }
      const auto now = SteadyClock::now();
      if (now - last_tick >= std::chrono::milliseconds(50)) {
        if (!stopping) SampleAdmission();
        SweepDeadlines(now, handle.get());
        last_tick = now;
      }
      if (stopping) {
        if (ready <= 0 && connections_.empty()) break;
        if (g_interrupted >= 2 ||
            now - stop_begin >= std::chrono::milliseconds(config_.drain_ms)) {
          break;  // drain deadline: flush what we decoded and leave
        }
      }
      if (!config_.selftest && config_.report_ms > 0) {
        if (now - last_report >=
            std::chrono::milliseconds(config_.report_ms)) {
          PrintTopK();
          PrintDeltaLine(std::chrono::duration<double>(now - last_report)
                             .count());
          last_report = now;
        }
      }
    }
    // Flush any batch still pooled below the dispatch threshold.
    for (auto& [fd, conn] : connections_) {
      FlushPending(&conn, handle.get());
      ::close(fd);
    }
    connections_.clear();
  }

  void Close() {
    for (auto& [fd, conn] : stats_conns_) ::close(fd);
    stats_conns_.clear();
    for (auto& [fd, conn] : connections_) ::close(fd);
    connections_.clear();
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    epoll_fd_ = -1;
    StopAccepting();
  }

  uint64_t ingested() const { return ingested_; }
  uint64_t shed() const { return shed_; }
  uint64_t overloaded_batches() const { return overloaded_batches_; }
  uint64_t slow_client_evictions() const { return slow_client_evictions_; }
  uint16_t stats_port() const { return stats_port_; }
  const cots::AdmissionController& admission() const { return admission_; }

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
    w.Key("retry_after_ms").Uint(admission_.retry_after_ms());
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
  static cots::AdmissionOptions AdmissionOpts(const ServerConfig& config) {
    cots::AdmissionOptions o;
    if (config.retry_after_ms != 0) o.retry_after_ms = config.retry_after_ms;
    return o;
  }

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

  void Accept(CotsFleet::ThreadHandle* handle) {
    for (;;) {
      if (listen_fd_ < 0) return;
      const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR || errno == ECONNABORTED) continue;
        if (errno == EMFILE || errno == ENFILE) {
          // Out of descriptors: make room by dropping the oldest-idle
          // connection rather than silently ceasing to accept (the
          // pending connection stays queued and is retried next loop).
          if (EvictOldestIdle(handle)) continue;
        }
        return;
      }
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
        ::close(fd);
        continue;
      }
      Connection conn;
      conn.fd = fd;
      conn.pending.reserve(kDispatchBatch);
      conn.last_activity = SteadyClock::now();
      connections_.emplace(fd, std::move(conn));
    }
  }

  void AcceptStats(CotsFleet::ThreadHandle* handle) {
    for (;;) {
      if (stats_listen_fd_ < 0) return;
      const int fd =
          ::accept4(stats_listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR || errno == ECONNABORTED) continue;
        if ((errno == EMFILE || errno == ENFILE) && EvictOldestIdle(handle)) {
          continue;
        }
        return;
      }
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
        ::close(fd);
        continue;
      }
      StatsConn conn;
      conn.since = SteadyClock::now();
      stats_conns_.emplace(fd, std::move(conn));
    }
  }

  // EMFILE relief: close the ingest connection idle the longest (its
  // decoded backlog is flushed first, so nothing accepted is lost), or an
  // idle stats connection if there is no ingest connection to shed.
  bool EvictOldestIdle(CotsFleet::ThreadHandle* handle) {
    int victim = -1;
    SteadyClock::time_point oldest = SteadyClock::time_point::max();
    for (const auto& [fd, conn] : connections_) {
      if (conn.last_activity < oldest) {
        oldest = conn.last_activity;
        victim = fd;
      }
    }
    if (victim >= 0) {
      CloseConnection(victim, handle);
      ++emfile_evictions_;
      COTS_COUNTER_INC("server.emfile_evictions");
      return true;
    }
    for (const auto& [fd, conn] : stats_conns_) {
      if (conn.since < oldest) {
        oldest = conn.since;
        victim = fd;
      }
    }
    if (victim >= 0) {
      CloseStats(victim);
      ++emfile_evictions_;
      COTS_COUNTER_INC("server.emfile_evictions");
      return true;
    }
    return false;
  }

  void CloseStats(int fd) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    stats_conns_.erase(fd);
  }

  void SetWantsWrite(int fd, bool wants) {
    epoll_event ev{};
    ev.events = EPOLLIN | (wants ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
  }

  // One-shot line protocol: read until '\n', then stream the response
  // through the buffered non-blocking writer and close. "trace" dumps the
  // flight recorder; anything else (canonically "stats") gets the metrics
  // snapshot, so `echo | nc` works as a health check.
  void ServiceStats(int fd) {
    StatsConn& conn = stats_conns_[fd];
    if (conn.responded) {
      // Command already served; any further readable event is the client
      // hanging up — nothing to parse, the flush path owns the fd now.
      char sink[256];
      const ssize_t r = ::read(fd, sink, sizeof(sink));
      if (r == 0 || (r < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
        CloseStats(fd);
      }
      return;
    }
    char buf[256];
    bool peer_closed = false;
    for (;;) {
      const ssize_t r = ::read(fd, buf, sizeof(buf));
      if (r > 0) {
        conn.cmd.append(buf, static_cast<size_t>(r));
        if (conn.cmd.size() > 4096) {  // not a line protocol client
          CloseStats(fd);
          return;
        }
        continue;
      }
      if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      peer_closed = true;
      break;
    }
    const size_t nl = conn.cmd.find('\n');
    if (nl == std::string::npos) {
      if (peer_closed) CloseStats(fd);  // hung up without a command
      return;
    }
    std::string line = conn.cmd.substr(0, nl);
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.pop_back();
    }
    conn.out = line == "trace" ? cots::TraceRegistry::Global().DrainJson()
                               : StatsJson();
    conn.out.push_back('\n');
    conn.out_off = 0;
    conn.responded = true;
    conn.out_deadline = SteadyClock::now() +
                        std::chrono::milliseconds(config_.client_deadline_ms);
    FlushStatsOut(fd);
  }

  // Non-blocking writer for stats responses (which can be MBs for a trace
  // dump): write what the socket takes, park the rest behind EPOLLOUT, and
  // let the deadline sweep evict clients that stop reading.
  void FlushStatsOut(int fd) {
    auto it = stats_conns_.find(fd);
    if (it == stats_conns_.end()) return;
    StatsConn& conn = it->second;
    if (!conn.responded) return;
    while (conn.out_off < conn.out.size()) {
      const ssize_t w = ::write(fd, conn.out.data() + conn.out_off,
                                conn.out.size() - conn.out_off);
      if (w > 0) {
        conn.out_off += static_cast<size_t>(w);
        continue;
      }
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        SetWantsWrite(fd, true);
        return;
      }
      CloseStats(fd);  // peer vanished mid-response
      return;
    }
    CloseStats(fd);  // response fully delivered
  }

  // Queue reply bytes on an ingest connection, writing through
  // immediately when the buffer is empty. Arms EPOLLOUT and a write
  // deadline for whatever the socket did not take.
  void AppendReply(Connection* conn, const char* data, size_t len) {
    if (conn->out.empty()) {
      size_t off = 0;
      while (off < len) {
        const ssize_t w = ::write(conn->fd, data + off, len - off);
        if (w > 0) {
          off += static_cast<size_t>(w);
          continue;
        }
        break;  // EAGAIN or error: buffer the rest, let the sweep decide
      }
      if (off == len) return;
      conn->out.assign(data + off, len - off);
      conn->out_off = 0;
      conn->out_deadline =
          SteadyClock::now() +
          std::chrono::milliseconds(config_.client_deadline_ms);
      SetWantsWrite(conn->fd, true);
      return;
    }
    conn->out.append(data, len);
  }

  void FlushConnOut(int fd) {
    auto it = connections_.find(fd);
    if (it == connections_.end()) return;
    Connection& conn = it->second;
    while (conn.out_off < conn.out.size()) {
      const ssize_t w = ::write(fd, conn.out.data() + conn.out_off,
                                conn.out.size() - conn.out_off);
      if (w > 0) {
        conn.out_off += static_cast<size_t>(w);
        continue;
      }
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      // Write error: the read path will observe the close; just stop.
      return;
    }
    conn.out.clear();
    conn.out_off = 0;
    SetWantsWrite(fd, false);
  }

  // Periodic housekeeping: evict connections whose buffered output has
  // been stuck past its deadline (slow readers) and stats connections
  // that idle without ever completing a command.
  void SweepDeadlines(SteadyClock::time_point now,
                      CotsFleet::ThreadHandle* handle) {
    std::vector<int> slow;
    for (const auto& [fd, conn] : connections_) {
      if (!conn.out.empty() && now >= conn.out_deadline) slow.push_back(fd);
    }
    for (int fd : slow) {
      CloseConnection(fd, handle);
      ++slow_client_evictions_;
      COTS_COUNTER_INC("server.slow_client_evictions");
    }
    std::vector<int> stale_slow;
    std::vector<int> idle;
    for (const auto& [fd, conn] : stats_conns_) {
      if (conn.responded) {
        if (now >= conn.out_deadline) stale_slow.push_back(fd);
      } else if (now - conn.since >=
                 std::chrono::milliseconds(config_.stats_idle_ms)) {
        idle.push_back(fd);
      }
    }
    for (int fd : stale_slow) {
      CloseStats(fd);
      ++slow_client_evictions_;
      COTS_COUNTER_INC("server.slow_client_evictions");
    }
    for (int fd : idle) {
      CloseStats(fd);
      ++stats_idle_evictions_;
      COTS_COUNTER_INC("server.stats_idle_evictions");
    }
  }

  // Drops an ingest connection after flushing its decoded backlog, so an
  // eviction never discards keys the server already read off the wire.
  void CloseConnection(int fd, CotsFleet::ThreadHandle* handle) {
    auto it = connections_.find(fd);
    if (it == connections_.end()) return;
    FlushPending(&it->second, handle);
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    connections_.erase(it);
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

  void Service(int fd, CotsFleet::ThreadHandle* handle) {
    auto it = connections_.find(fd);
    if (it == connections_.end()) return;
    Connection& conn = it->second;
    conn.last_activity = SteadyClock::now();
    unsigned char buf[16384];
    for (;;) {
      const ssize_t r = ::read(fd, buf, sizeof(buf));
      if (r > 0) {
        Decode(&conn, buf, static_cast<size_t>(r), handle);
        continue;
      }
      if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        // The socket is drained: count what arrived now rather than when
        // a later read fills the batch (an idle connection may never).
        FlushPending(&conn, handle);
        return;
      }
      // Peer closed (or hard error): flush and drop the connection.
      FlushPending(&conn, handle);
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
      ::close(fd);
      connections_.erase(it);
      return;
    }
  }

  void Decode(Connection* conn, const unsigned char* data, size_t len,
              CotsFleet::ThreadHandle* handle) {
    size_t pos = 0;
    if (conn->partial_len != 0) {
      while (conn->partial_len < 8 && pos < len) {
        conn->partial[conn->partial_len++] = data[pos++];
      }
      if (conn->partial_len < 8) return;
      conn->pending.push_back(DecodeLE64(conn->partial));
      conn->partial_len = 0;
      if (conn->pending.size() >= kDispatchBatch) FlushPending(conn, handle);
    }
    while (len - pos >= 8) {
      conn->pending.push_back(DecodeLE64(data + pos));
      pos += 8;
      if (conn->pending.size() >= kDispatchBatch) FlushPending(conn, handle);
    }
    while (pos < len) conn->partial[conn->partial_len++] = data[pos++];
    if (conn->pending.size() >= kDispatchBatch) FlushPending(conn, handle);
  }

  // Effective shedding decision, consulted at flush granularity. The
  // forced window (test/ops hook) overrides the controller but routes its
  // transitions THROUGH ForceState so gauges, trace events, and the
  // transition counter tell the truth either way.
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

  // Feeds the controller one sample: worst shard backlog (elements
  // waiting in a shard inbox) and the fleet's deadline-miss count. Runs on
  // the 50ms tick — never on the per-offer path.
  void SampleAdmission() {
    if (forced_shed_) return;  // the forced window owns the state
    cots::AdmissionSignals sig;
    for (size_t i = 0; i < fleet_->num_shards(); ++i) {
      sig.queue_depth = std::max(sig.queue_depth, fleet_->shard(i).queue_depth());
    }
    sig.overloaded_offers = fleet_->deadline_misses();
    admission_.Update(sig);
    COTS_GAUGE_SET("overload.shed_weight", fleet_->shed_weight());
  }

  // Rate-limited "busy <retry-after-ms>" reply on a shedding connection.
  void SendBusy(Connection* conn) {
    const auto now = SteadyClock::now();
    if (now < conn->next_busy) return;
    const uint32_t retry = admission_.retry_after_ms();
    conn->next_busy = now + std::chrono::milliseconds(retry);
    char line[32];
    const int n = std::snprintf(line, sizeof(line), "busy %u\n", retry);
    if (n > 0) AppendReply(conn, line, static_cast<size_t>(n));
  }

  void FlushPending(Connection* conn, CotsFleet::ThreadHandle* handle) {
    if (conn->pending.empty()) return;
    const size_t size = conn->pending.size();
    if (Shedding()) {
      // Degrade, don't lie: the keys are absorbed into the error bounds
      // of their home shards (never counted, never silently dropped) and
      // the client is told to back off.
      if (fleet_->Shed(conn->pending.data(), size)) {
        shed_ += size;
        SendBusy(conn);
      }  // refused: the fleet is stopping; OfferBatch would refuse too
      conn->pending.clear();
      return;
    }
    const OfferOutcome outcome =
        handle->OfferBatchBounded(conn->pending.data(), size);
    if (outcome != OfferOutcome::kRefused) {
      ingested_ += size;
      if (outcome == OfferOutcome::kOverloaded) ++overloaded_batches_;
    }  // refused whole: the fleet is stopping, nothing was half-counted
    conn->pending.clear();
  }

  ServerConfig config_;
  CotsFleet* fleet_;
  cots::AdmissionController admission_;
  int listen_fd_ = -1;
  int stats_listen_fd_ = -1;
  int epoll_fd_ = -1;
  uint16_t stats_port_ = 0;
  std::unordered_map<int, Connection> connections_;
  std::unordered_map<int, StatsConn> stats_conns_;
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

// Selftest stats probe: issues `command` against the stats port the way a
// scraper would and returns the response body (empty on any failure).
std::string QueryStatsPort(uint16_t port, const char* command) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::string req = command;
  req.push_back('\n');
  if (::write(fd, req.data(), req.size()) !=
      static_cast<ssize_t>(req.size())) {
    ::close(fd);
    return "";
  }
  std::string body;
  char buf[16384];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r <= 0) break;
    body.append(buf, static_cast<size_t>(r));
  }
  ::close(fd);
  return body;
}

// Selftest client: connects to the loopback port and streams zipf-drawn
// keys until the deadline, returning how many elements it wrote in full.
uint64_t RunClient(uint16_t port, int seconds, uint64_t seed) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return 0;
  }
  cots::Xoshiro256 rng(seed);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
  std::vector<unsigned char> wire(4096 * 8);
  uint64_t sent = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const size_t burst = 1024 + rng.NextBounded(3072);
    for (size_t i = 0; i < burst; ++i) {
      // Skewed synthetic workload: a few hot keys over a long tail.
      const bool hot = rng.NextBounded(10) < 6;
      const uint64_t key =
          hot ? 1 + rng.NextBounded(16) : 1000 + rng.NextBounded(100000);
      EncodeLE64(key, wire.data() + i * 8);
    }
    size_t off = 0;
    const size_t want = burst * 8;
    bool ok = true;
    while (off < want) {
      const ssize_t w = ::write(fd, wire.data() + off, want - off);
      if (w <= 0) {
        ok = false;
        break;
      }
      off += static_cast<size_t>(w);
    }
    if (!ok) break;
    sent += burst;
  }
  ::close(fd);
  return sent;
}

int RunSelftest(const ServerConfig& config) {
  CotsFleetOptions opt;
  opt.num_shards = config.shards;
  opt.engine.capacity = config.capacity;
  opt.view_refresh_interval = config.view_refresh;
  if (!opt.Validate().ok()) {
    std::fprintf(stderr, "selftest: invalid fleet options\n");
    return 1;
  }
  CotsFleet fleet(opt);
  IngestServer server(config, &fleet);
  const uint16_t port = server.Start();
  if (port == 0) {
    std::fprintf(stderr, "selftest: cannot bind loopback socket\n");
    return 1;
  }
  std::printf("selftest: %d client(s) -> 127.0.0.1:%u, %d second(s), "
              "%zu shard(s), stats on 127.0.0.1:%u\n",
              config.clients, port, config.seconds, fleet.num_shards(),
              server.stats_port());

  std::atomic<bool> done{false};
  std::thread server_thread([&] { server.Run(&done); });

  std::vector<std::thread> clients;
  std::atomic<uint64_t> total_sent{0};
  for (int c = 0; c < config.clients; ++c) {
    clients.emplace_back([&, c] {
      total_sent.fetch_add(
          RunClient(port, config.seconds, 0x5eed + 31 * c));
    });
  }
  // Probe the stats endpoint mid-ingest, the way a live scraper would:
  // the snapshot must parse as an object and carry the gauges section.
  std::atomic<bool> stats_ok{false};
  std::thread prober([&] {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(500 * config.seconds));
    const std::string body = QueryStatsPort(server.stats_port(), "stats");
    stats_ok.store(!body.empty() && body.front() == '{' &&
                   body.find("\"gauges\"") != std::string::npos &&
                   body.find("\"overload\"") != std::string::npos &&
                   body.find("\"stream_length\"") != std::string::npos);
  });
  for (std::thread& t : clients) t.join();
  prober.join();
  done.store(true);
  server_thread.join();
  server.Close();
  fleet.Stop();

  if (!config.trace_out.empty()) {
    const std::string trace = cots::TraceRegistry::Global().DrainJson();
    if (!WriteFile(config.trace_out, trace)) {
      std::fprintf(stderr, "selftest FAIL: cannot write %s\n",
                   config.trace_out.c_str());
      return 1;
    }
    std::printf("selftest: wrote trace (%zu bytes) to %s\n", trace.size(),
                config.trace_out.c_str());
  }

  server.PrintTopK();
  if (!stats_ok.load()) {
    std::fprintf(stderr, "selftest FAIL: stats endpoint probe failed\n");
    return 1;
  }
  const uint64_t sent = total_sent.load();
  const uint64_t counted = fleet.stream_length();
  std::printf("selftest: sent %llu, counted %llu, shed %llu\n",
              static_cast<unsigned long long>(sent),
              static_cast<unsigned long long>(counted),
              static_cast<unsigned long long>(server.shed()));
  if (sent == 0) {
    std::fprintf(stderr, "selftest FAIL: clients sent nothing\n");
    return 1;
  }
  // Conservation: the server flushed every connection before stopping the
  // fleet, so every element written in full by a client must be counted.
  // A healthy loopback selftest must never trip the admission controller,
  // so shed must stay zero here (the shed path has its own selftest).
  if (counted != sent || server.shed() != 0) {
    std::fprintf(stderr, "selftest FAIL: conservation violated\n");
    return 1;
  }
  std::printf("selftest PASS\n");
  return 0;
}

// End-to-end overload drill (the CI "refused offer" e2e): drive a real
// socket through a forced shedding window and verify the full contract —
// busy replies arrive and are honored, shedding shows in the stats
// endpoint, counted + shed conserves the stream, and every exact count
// lies inside the shed-widened bounds of the merged view.
int RunShedSelftest(ServerConfig config) {
  config.selftest = true;  // reuse the quiet event-loop mode
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
  if (config.ingest_rcvbuf == 0) config.ingest_rcvbuf = 16384;
  CotsFleetOptions opt;
  opt.num_shards = config.shards;
  opt.engine.capacity = config.capacity;
  opt.view_refresh_interval = config.view_refresh;
  if (!opt.Validate().ok()) {
    std::fprintf(stderr, "shed-selftest: invalid fleet options\n");
    return 1;
  }
  CotsFleet fleet(opt);
  IngestServer server(config, &fleet);
  const uint16_t port = server.Start();
  if (port == 0) {
    std::fprintf(stderr, "shed-selftest: cannot bind loopback socket\n");
    return 1;
  }
  const uint64_t target = config.force_recover_at + 20000;
  std::printf("shed-selftest: 127.0.0.1:%u, shed window [%llu, %llu), "
              "sending %llu keys\n",
              port,
              static_cast<unsigned long long>(config.force_shed_at),
              static_cast<unsigned long long>(config.force_recover_at),
              static_cast<unsigned long long>(target));

  std::atomic<bool> done{false};
  std::thread server_thread([&] { server.Run(&done); });

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 1;
  int sndbuf = 8192;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::fprintf(stderr, "shed-selftest: cannot connect\n");
    ::close(fd);
    done.store(true);
    server_thread.join();
    return 1;
  }

  // Small key universe so the client-side exact tally stays cheap and the
  // bound check below exercises both monitored and unmonitored keys.
  cots::Xoshiro256 rng(0x5eed);
  std::unordered_map<uint64_t, uint64_t> exact;
  std::vector<unsigned char> wire(1024 * 8);
  std::string rxbuf;
  uint64_t sent = 0;
  uint64_t busy_seen = 0;
  long long last_retry_ms = -1;
  bool stats_showed_shedding = false;
  while (sent < target) {
    const size_t burst = 1024;
    for (size_t i = 0; i < burst; ++i) {
      const bool hot = rng.NextBounded(10) < 6;
      const uint64_t key =
          hot ? 1 + rng.NextBounded(16) : 100 + rng.NextBounded(496);
      ++exact[key];
      EncodeLE64(key, wire.data() + i * 8);
    }
    size_t off = 0;
    const size_t want = burst * 8;
    while (off < want) {
      const ssize_t w = ::write(fd, wire.data() + off, want - off);
      if (w <= 0) {
        std::fprintf(stderr, "shed-selftest: short write\n");
        ::close(fd);
        done.store(true);
        server_thread.join();
        return 1;
      }
      off += static_cast<size_t>(w);
    }
    sent += burst;
    // Drain any busy replies and honor the most recent retry hint.
    char rbuf[256];
    ssize_t r;
    while ((r = ::recv(fd, rbuf, sizeof(rbuf), MSG_DONTWAIT)) > 0) {
      rxbuf.append(rbuf, static_cast<size_t>(r));
    }
    size_t nl;
    bool saw_busy_now = false;
    while ((nl = rxbuf.find('\n')) != std::string::npos) {
      const std::string line = rxbuf.substr(0, nl);
      rxbuf.erase(0, nl + 1);
      if (line.rfind("busy ", 0) == 0) {
        ++busy_seen;
        saw_busy_now = true;
        last_retry_ms = std::strtoll(line.c_str() + 5, nullptr, 10);
      }
    }
    if (saw_busy_now) {
      if (!stats_showed_shedding) {
        // While the client is paused the ingest total is frozen inside
        // the forced window, so the stats endpoint must report shedding.
        const std::string body =
            QueryStatsPort(server.stats_port(), "stats");
        stats_showed_shedding =
            body.find("\"overload\"") != std::string::npos &&
            body.find("\"shedding\"") != std::string::npos;
      }
      const long long pause =
          last_retry_ms > 0 ? (last_retry_ms < 200 ? last_retry_ms : 200) : 1;
      std::this_thread::sleep_for(std::chrono::milliseconds(pause));
    }
  }
  // Half-close and drain to EOF instead of a hard close: a close() with
  // unread busy replies in the receive queue would RST the connection and
  // destroy in-flight data the server has not consumed yet.
  ::shutdown(fd, SHUT_WR);
  {
    char rbuf[256];
    ssize_t r;
    while ((r = ::read(fd, rbuf, sizeof(rbuf))) > 0) {
      rxbuf.append(rbuf, static_cast<size_t>(r));
    }
    size_t nl;
    while ((nl = rxbuf.find('\n')) != std::string::npos) {
      const std::string line = rxbuf.substr(0, nl);
      rxbuf.erase(0, nl + 1);
      if (line.rfind("busy ", 0) == 0) {
        ++busy_seen;
        last_retry_ms = std::strtoll(line.c_str() + 5, nullptr, 10);
      }
    }
  }
  ::close(fd);
  done.store(true);
  server_thread.join();

  // Snapshot the merged view before stopping so the bound check sees the
  // same shed-widened errors a live query would.
  const cots::CounterSet view = fleet.GlobalView();
  server.Close();
  fleet.Stop();

  if (!config.trace_out.empty()) {
    const std::string trace = cots::TraceRegistry::Global().DrainJson();
    if (!WriteFile(config.trace_out, trace)) {
      std::fprintf(stderr, "shed-selftest FAIL: cannot write %s\n",
                   config.trace_out.c_str());
      return 1;
    }
    std::printf("shed-selftest: wrote trace (%zu bytes) to %s\n",
                trace.size(), config.trace_out.c_str());
  }

  const uint64_t counted = fleet.stream_length();
  const uint64_t shed = server.shed();
  std::printf("shed-selftest: sent %llu, counted %llu, shed %llu, "
              "busy replies %llu (last retry-after %lld ms)\n",
              static_cast<unsigned long long>(sent),
              static_cast<unsigned long long>(counted),
              static_cast<unsigned long long>(shed),
              static_cast<unsigned long long>(busy_seen), last_retry_ms);
  int failures = 0;
  if (busy_seen == 0) {
    std::fprintf(stderr, "shed-selftest FAIL: no busy reply received\n");
    ++failures;
  }
  if (last_retry_ms < 0 && busy_seen > 0) {
    std::fprintf(stderr, "shed-selftest FAIL: busy reply carried no "
                         "retry-after hint\n");
    ++failures;
  }
  if (!stats_showed_shedding) {
    std::fprintf(stderr, "shed-selftest FAIL: stats endpoint never "
                         "reported the shedding state\n");
    ++failures;
  }
  if (shed == 0) {
    std::fprintf(stderr, "shed-selftest FAIL: nothing was shed\n");
    ++failures;
  }
  // Shedding must END: the forced window is bounded, so everything past
  // it (plus everything before it) is counted, not shed.
  const uint64_t window = config.force_recover_at - config.force_shed_at;
  if (shed > window) {
    std::fprintf(stderr, "shed-selftest FAIL: shed %llu exceeds the "
                         "forced window %llu — recovery never happened\n",
                 static_cast<unsigned long long>(shed),
                 static_cast<unsigned long long>(window));
    ++failures;
  }
  // Conservation with shedding: every key written in full was either
  // counted or shed — nothing vanishes without accounting.
  if (counted + shed != sent) {
    std::fprintf(stderr, "shed-selftest FAIL: conservation violated "
                         "(counted %llu + shed %llu != sent %llu)\n",
                 static_cast<unsigned long long>(counted),
                 static_cast<unsigned long long>(shed),
                 static_cast<unsigned long long>(sent));
    ++failures;
  }
  if (view.shed_weight() != shed) {
    std::fprintf(stderr, "shed-selftest FAIL: view shed_weight %llu != "
                         "server shed %llu\n",
                 static_cast<unsigned long long>(view.shed_weight()),
                 static_cast<unsigned long long>(shed));
    ++failures;
  }
  // Degrade, don't lie: after folding shed weight into the bounds, every
  // key's exact count must be inside them.
  uint64_t bound_checked = 0;
  for (const auto& [key, truth] : exact) {
    const auto c = view.Lookup(key);
    if (c.has_value()) {
      if (c->count > truth + c->error || truth > c->count + c->error) {
        std::fprintf(stderr, "shed-selftest FAIL: key %llu exact %llu "
                             "outside [%llu - %llu, %llu + %llu]\n",
                     static_cast<unsigned long long>(key),
                     static_cast<unsigned long long>(truth),
                     static_cast<unsigned long long>(c->count),
                     static_cast<unsigned long long>(c->error),
                     static_cast<unsigned long long>(c->count),
                     static_cast<unsigned long long>(c->error));
        ++failures;
      }
    } else if (truth > view.min_freq()) {
      std::fprintf(stderr, "shed-selftest FAIL: unmonitored key %llu "
                           "exact %llu exceeds min_freq %llu\n",
                   static_cast<unsigned long long>(key),
                   static_cast<unsigned long long>(truth),
                   static_cast<unsigned long long>(view.min_freq()));
      ++failures;
    }
    ++bound_checked;
  }
  std::printf("shed-selftest: %llu keys bound-checked against the "
              "shed-widened view\n",
              static_cast<unsigned long long>(bound_checked));
  if (failures != 0) return 1;
  std::printf("shed-selftest PASS\n");
  return 0;
}

// Idle-connection drill: keys written on a connection that then stays
// open must be counted promptly, not when a later read fills the batch.
int RunIdleSelftest(ServerConfig config) {
  config.selftest = true;  // quiet event loop
  CotsFleetOptions opt;
  opt.num_shards = config.shards;
  opt.engine.capacity = config.capacity;
  opt.view_refresh_interval = config.view_refresh;
  if (!opt.Validate().ok()) {
    std::fprintf(stderr, "idle-selftest: invalid fleet options\n");
    return 1;
  }
  CotsFleet fleet(opt);
  IngestServer server(config, &fleet);
  const uint16_t port = server.Start();
  if (port == 0) {
    std::fprintf(stderr, "idle-selftest: cannot bind loopback socket\n");
    return 1;
  }
  std::atomic<bool> done{false};
  std::thread server_thread([&] { server.Run(&done); });

  constexpr uint64_t kKeys = 100;
  uint64_t counted = 0;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (fd >= 0 &&
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    unsigned char wire[kKeys * 8];
    for (uint64_t i = 0; i < kKeys; ++i) EncodeLE64(1 + i % 7, wire + i * 8);
    // Split mid-word, so the partial-word path runs too.
    constexpr size_t kSplit = 8 * 49 + 3;
    const bool written =
        ::write(fd, wire, kSplit) == static_cast<ssize_t>(kSplit) &&
        ::write(fd, wire + kSplit, sizeof(wire) - kSplit) ==
            static_cast<ssize_t>(sizeof(wire) - kSplit);
    const auto deadline = SteadyClock::now() + std::chrono::seconds(1);
    while (written && counted != kKeys && SteadyClock::now() < deadline) {
      const std::string body = QueryStatsPort(server.stats_port(), "stats");
      const size_t at = body.find("\"stream_length\":");
      if (at != std::string::npos) {
        counted = std::strtoull(body.c_str() + at + 16, nullptr, 10);
      }
      if (counted != kKeys) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  }
  // The connection stays open until the verdict is in.
  if (fd >= 0) ::close(fd);
  done.store(true);
  server_thread.join();
  server.Close();
  fleet.Stop();
  std::printf("idle-selftest: %llu of %llu keys counted within 1 s\n",
              static_cast<unsigned long long>(counted),
              static_cast<unsigned long long>(kKeys));
  if (counted != kKeys) {
    std::fprintf(stderr, "idle-selftest FAIL\n");
    return 1;
  }
  std::printf("idle-selftest PASS\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const ServerConfig config = ParseArgs(argc, argv);
  std::signal(SIGPIPE, SIG_IGN);
  if (config.selftest) return RunSelftest(config);
  if (config.shed_selftest) return RunShedSelftest(config);
  if (config.idle_selftest) return RunIdleSelftest(config);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);

  CotsFleetOptions opt;
  opt.num_shards = config.shards;
  opt.engine.capacity = config.capacity;
  opt.view_refresh_interval = config.view_refresh;
  if (!opt.Validate().ok()) {
    std::fprintf(stderr, "ingest_server: invalid fleet options\n");
    return 1;
  }
  CotsFleet fleet(opt);
  IngestServer server(config, &fleet);
  const uint16_t port = server.Start();
  if (port == 0) {
    std::fprintf(stderr, "ingest_server: cannot bind 127.0.0.1:%u\n",
                 config.port);
    return 1;
  }
  std::printf("ingest_server: listening on 127.0.0.1:%u (%zu shard(s), "
              "capacity %zu); protocol: raw little-endian uint64 keys\n",
              port, fleet.num_shards(), config.capacity);
  std::printf("ingest_server: stats on 127.0.0.1:%u "
              "(send \"stats\\n\" or \"trace\\n\")\n",
              server.stats_port());
  server.Run(nullptr);
  server.Close();
  fleet.Stop();
  std::printf("ingest_server: stopped after %llu elements (%llu shed)\n",
              static_cast<unsigned long long>(server.ingested()),
              static_cast<unsigned long long>(server.shed()));
  server.PrintTopK();
  if (!config.trace_out.empty() &&
      WriteFile(config.trace_out,
                cots::TraceRegistry::Global().DrainJson())) {
    std::printf("ingest_server: wrote trace to %s\n",
                config.trace_out.c_str());
  }
  return 0;
}

#else  // !__linux__

#include <cstdio>

int main() {
  std::fprintf(stderr, "ingest_server requires Linux (epoll)\n");
  return 77;  // conventional "skipped"
}

#endif  // __linux__
