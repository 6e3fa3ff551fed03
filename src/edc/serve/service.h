// Fault-tolerant sweep service: a long-lived daemon over the
// content-addressed sweep cache (the "millions of users" shape of the
// ROADMAP — the cache becomes a shared store many frontends hit, and
// sweep_fanout.sh its backfill path).
//
// Layering:
//
//   Engine   protocol-agnostic request executor: warm hits straight from
//            sweep::Cache (no simulator), single-flight dedup of in-flight
//            identical points (by spec_hash), cold misses batched through
//            sweep::Runner, per-request deadlines, a watchdog that
//            requeues points stuck past point_timeout_ms, worker-death
//            retries, and graceful degradation on every cache fault.
//   Service  socket front-end: an accept loop feeding a *bounded*
//            connection queue drained by a fixed worker pool. A full
//            queue answers a loud `busy` frame immediately — backpressure
//            is explicit, the queue can never grow without bound.
//
// Robustness contract (tested in tests/serve_test.cpp and the
// `sweep_served smoke` ctest under injected chaos):
//
//  * Responses are byte-identical to a clean serial Runner::run of the
//    same points — warm or cold, faulted or not. The cache stores
//    canonical result text and the simulator is deterministic, so every
//    degradation path (quarantine -> resimulate, retry after a killed
//    worker, watchdog requeue) converges on the same bytes.
//  * Single-flight: concurrent identical cold points simulate once; the
//    followers wait on the owner's flight and reuse its row ("merged").
//    A follower never waits past point_timeout_ms: the watchdog marks
//    stale flights stuck, and a stuck/failed flight is requeued — the
//    follower simulates the point itself rather than hanging.
//  * Degradation: an unreadable/corrupt/unwritable cache never fails a
//    request — corrupt entries are quarantined (Cache self-healing) and
//    the point falls back to live simulation.
//  * Deadlines: a request past its deadline_ms answers a loud error
//    instead of occupying a worker forever.
//
// All counters are exposed via stats() so chaos tests can assert the
// storm actually stormed (nonzero quarantines/retries/requeues) and the
// warm path simulated zero points.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "edc/serve/protocol.h"
#include "edc/serve/socket.h"
#include "edc/sweep/cache.h"
#include "edc/sweep/fault_injector.h"
#include "edc/sweep/runner.h"

namespace edc::serve {

struct ServiceOptions {
  /// Shared result store; optional (nullptr = simulate everything) but the
  /// warm-hit path obviously needs it. Not owned.
  sweep::Cache* cache = nullptr;
  /// Chaos source threaded through the runner seam (wire the same injector
  /// into the cache via Cache::set_fault_injector). Not owned.
  const sweep::FaultInjector* fault_injector = nullptr;
  /// Connection-handling workers (concurrent requests in service).
  int request_workers = 2;
  /// Runner threads per request's cold batch (0 = hardware concurrency).
  int sim_threads = 1;
  /// Accepted-but-unhandled connections beyond this answer `busy`.
  std::size_t queue_capacity = 16;
  /// Single-flight wait cap: a follower stuck on another request's
  /// simulation past this requeues the point itself, and the watchdog
  /// flags the flight stuck for everyone else.
  double point_timeout_ms = 2000.0;
  /// Deadline applied to requests that carry none (0 = unlimited).
  double default_deadline_ms = 0.0;
  /// Simulation attempts per point before the request reports an error
  /// (worker deaths and injected kills consume attempts).
  int max_attempts = 4;
};

struct ServiceStats {
  // Request-level.
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t busy = 0;           ///< backpressure: queue-full rejections
  std::uint64_t errors = 0;         ///< malformed/deadline/failed requests
  std::uint64_t deadline_expired = 0;
  // Point-level (how each requested point was resolved).
  std::uint64_t points = 0;
  std::uint64_t warm_hits = 0;      ///< answered from cache, no simulator
  std::uint64_t simulated = 0;      ///< simulated by the owning request
  std::uint64_t merged = 0;         ///< reused another request's flight
  std::uint64_t requeued = 0;       ///< watchdog/stuck fallback re-sims
  std::uint64_t retries = 0;        ///< extra simulation attempts
  // Cache health (mirrors cache->stats() at sampling time).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_stores = 0;
  std::uint64_t cache_quarantined = 0;
  // Request latency (milliseconds; over the sliding sample window).
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

/// Renders stats as the protocol's "key value" lines (the `stats` op
/// payload) — parseable with canon::parse_* per line.
[[nodiscard]] std::string stats_text(const ServiceStats& stats);

class Engine {
 public:
  explicit Engine(ServiceOptions options);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Executes one `run` request. Thread-safe; called concurrently by the
  /// Service workers (and directly by in-process embedders/tests).
  [[nodiscard]] Response execute(const Request& request);

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] const ServiceOptions& options() const noexcept {
    return options_;
  }

  /// Service-level tallies the Engine owns so stats() is one-stop.
  void note_request_outcome(Response::Status status);
  void note_busy() { ++busy_; }
  void note_latency(double millis);

 private:
  using Clock = std::chrono::steady_clock;

  /// One in-flight cold point (single-flight table entry).
  struct Flight {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    bool failed = false;
    bool stuck = false;  ///< watchdog: past point_timeout_ms
    std::string row;     ///< canonical result text when done && !failed
    Clock::time_point started;
  };

  /// Resolves one point by direct simulation (the follower-requeue and
  /// last-ditch path); retries per max_attempts. Returns false when every
  /// attempt failed.
  [[nodiscard]] bool simulate_single(const std::string& point_text,
                                     std::string* row);

  void watchdog_loop();

  ServiceOptions options_;
  // Single-flight table: spec_hash -> shared flight state.
  std::mutex flights_mutex_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Flight>> flights_;
  // Watchdog.
  std::thread watchdog_;
  std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
  // Latency samples (sliding window, mutex-guarded).
  mutable std::mutex latency_mutex_;
  std::deque<double> latency_ms_;
  // Counters.
  std::atomic<std::uint64_t> requests_{0}, ok_{0}, busy_{0}, errors_{0};
  std::atomic<std::uint64_t> deadline_expired_{0};
  std::atomic<std::uint64_t> points_{0}, warm_hits_{0}, simulated_{0};
  std::atomic<std::uint64_t> merged_{0}, requeued_{0}, retries_{0};
};

/// The daemon: listener + bounded queue + worker pool around an Engine.
class Service {
 public:
  /// Binds 127.0.0.1:`port` (0 = ephemeral; see port()). Throws
  /// std::runtime_error when the bind fails.
  Service(ServiceOptions options, std::uint16_t port);
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept;

  /// Starts the accept loop and workers (idempotent).
  void start();
  /// Signals shutdown (safe from any thread, including a worker serving a
  /// `shutdown` op); does not join.
  void request_stop();
  /// Blocks until the service has stopped and joins all threads.
  void wait();

  [[nodiscard]] ServiceStats stats() const { return engine_.stats(); }
  [[nodiscard]] Engine& engine() noexcept { return engine_; }

  /// What became of one accepted connection.
  enum class Admission { kQueued, kBusy, kStopped };
  /// The accept loop's one way into the request queue (public so tests can
  /// drive it without racing a real accept). Under the queue mutex: a
  /// stopped service closes the connection at once — its workers may have
  /// drained the queue and returned, so a queued socket would never be
  /// answered — and a full queue leaves it to the caller to answer `busy`.
  [[nodiscard]] Admission admit(Socket& socket);

 private:
  void accept_loop();
  void worker_loop();
  void handle_connection(Socket socket);

  ServiceOptions options_;
  Engine engine_;
  Listener listener_;
  std::atomic<bool> running_{false};
  std::atomic<bool> started_{false};
  std::thread acceptor_;
  std::vector<std::thread> workers_;
  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Socket> queue_;
};

/// One-shot client call: connect to 127.0.0.1:`port`, send `request`,
/// read the response. nullopt (with `*error`) on transport failure.
[[nodiscard]] std::optional<Response> call_service(std::uint16_t port,
                                                   const Request& request,
                                                   std::string* error);

}  // namespace edc::serve
