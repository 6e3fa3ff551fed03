#include "edc/serve/service.h"

#include <algorithm>
#include <exception>
#include <functional>
#include <utility>

#include "edc/common/canon.h"
#include "edc/sim/result_io.h"
#include "edc/spec/serialize.h"
#include "edc/sweep/grid.h"

namespace edc::serve {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kLatencyWindow = 4096;

/// A grid whose points are exactly the parsed specs at `indices`, in
/// order: one "served_point" axis, each value substituting the whole
/// spec. Row j of Runner::run then answers request point indices[j].
sweep::Grid grid_of(const std::vector<spec::SystemSpec>& parsed,
                    const std::vector<std::size_t>& indices) {
  sweep::Grid grid(parsed[indices[0]]);
  if (indices.size() > 1) {
    std::vector<sweep::AxisValue> values;
    values.reserve(indices.size());
    for (const std::size_t i : indices) {
      spec::SystemSpec spec = parsed[i];
      values.push_back({std::to_string(i), [spec = std::move(spec)](
                                               spec::SystemSpec& s) { s = spec; }});
    }
    grid.axis("served_point", std::move(values));
  }
  return grid;
}

}  // namespace

std::string stats_text(const ServiceStats& stats) {
  std::string out;
  const auto line = [&out](const char* key, std::uint64_t value) {
    out += key;
    out += ' ';
    out += std::to_string(value);
    out += '\n';
  };
  line("requests", stats.requests);
  line("ok", stats.ok);
  line("busy", stats.busy);
  line("errors", stats.errors);
  line("deadline_expired", stats.deadline_expired);
  line("points", stats.points);
  line("warm_hits", stats.warm_hits);
  line("simulated", stats.simulated);
  line("merged", stats.merged);
  line("requeued", stats.requeued);
  line("retries", stats.retries);
  line("cache_hits", stats.cache_hits);
  line("cache_misses", stats.cache_misses);
  line("cache_stores", stats.cache_stores);
  line("cache_quarantined", stats.cache_quarantined);
  out += "p50_ms " + canon::double_text(stats.p50_ms) + '\n';
  out += "p99_ms " + canon::double_text(stats.p99_ms) + '\n';
  return out;
}

// ---- Engine ----------------------------------------------------------------

Engine::Engine(ServiceOptions options) : options_(options) {
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

Engine::~Engine() {
  {
    const std::lock_guard<std::mutex> lock(watchdog_mutex_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

void Engine::watchdog_loop() {
  const auto timeout =
      std::chrono::duration<double, std::milli>(options_.point_timeout_ms);
  const auto period = std::chrono::duration<double, std::milli>(
      std::max(options_.point_timeout_ms / 4.0, 1.0));
  std::unique_lock<std::mutex> lock(watchdog_mutex_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(lock, period, [this] { return watchdog_stop_; });
    if (watchdog_stop_) break;
    const auto now = Clock::now();
    std::vector<std::shared_ptr<Flight>> stale;
    {
      const std::lock_guard<std::mutex> flights_lock(flights_mutex_);
      for (const auto& [hash, flight] : flights_) {
        if (now - flight->started > timeout) stale.push_back(flight);
      }
    }
    for (const auto& flight : stale) {
      const std::lock_guard<std::mutex> flight_lock(flight->mutex);
      if (!flight->done && !flight->stuck) {
        // Cancel the wait, not the thread: C++ threads cannot be killed
        // safely, so "cancelling" a stuck point means releasing every
        // follower to requeue it while the stuck worker's eventual result
        // is simply discarded (its cache store is harmless — identical
        // bytes by determinism).
        flight->stuck = true;
        flight->cv.notify_all();
      }
    }
  }
}

bool Engine::simulate_single(const std::string& point_text, std::string* row) {
  sweep::RunnerOptions runner_options;
  runner_options.cache = options_.cache;
  runner_options.fault_injector = options_.fault_injector;
  runner_options.threads = 1;
  for (int attempt = 1; attempt <= options_.max_attempts; ++attempt) {
    if (attempt > 1) ++retries_;
    try {
      std::vector<spec::SystemSpec> parsed{spec::parse_spec(point_text)};
      const auto results =
          sweep::Runner(runner_options).run(grid_of(parsed, {0}));
      *row = sim::serialize_result(results.at(0));
      return true;
    } catch (const std::exception&) {
      // Killed worker / injected fault: retry. The cache may already hold
      // the row by now (another worker finished it), which the next
      // Runner pass picks up as a warm hit.
      continue;
    }
  }
  return false;
}

Response Engine::execute(const Request& request) {
  const auto start = Clock::now();
  ++requests_;
  const auto fail = [this](const std::string& reason) {
    ++errors_;
    Response response;
    response.status = Response::Status::kError;
    response.error = reason;
    return response;
  };
  if (request.op != Request::Op::kRun) {
    return fail("engine only executes 'run' requests");
  }
  if (request.points.size() > kMaxPoints) {
    return fail("request exceeds " + std::to_string(kMaxPoints) + " points");
  }

  const double deadline_ms = request.deadline_ms > 0.0
                                 ? request.deadline_ms
                                 : options_.default_deadline_ms;
  const bool has_deadline = deadline_ms > 0.0;
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double, std::milli>(deadline_ms));
  const auto expired = [has_deadline, deadline] {
    return has_deadline && Clock::now() >= deadline;
  };

  const std::size_t count = request.points.size();
  points_ += count;

  // Strict up-front validation: a request carrying bytes that are not a
  // canonical spec never reaches a worker thread.
  std::vector<spec::SystemSpec> parsed;
  parsed.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    try {
      parsed.push_back(spec::parse_spec(request.points[i]));
    } catch (const std::exception& e) {
      return fail("point " + std::to_string(i) +
                  " is not canonical spec text: " + e.what());
    }
  }

  std::vector<std::string> rows(count);
  std::vector<bool> resolved(count, false);
  std::uint64_t warm_local = 0, simulated_local = 0, merged_local = 0,
                requeued_local = 0;

  // Phase 1: warm hits straight from the cache — the simulator is never
  // touched for them. A corrupt entry quarantines inside load() and the
  // point falls through to the cold path.
  if (options_.cache != nullptr) {
    for (std::size_t i = 0; i < count; ++i) {
      if (auto hit = options_.cache->load(request.points[i])) {
        rows[i] = sim::serialize_result(hit->result);
        resolved[i] = true;
        ++warm_local;
      }
    }
  }

  // Phase 2: claim single-flight ownership of the cold points. The first
  // occurrence of a hash in this request owns (or follows another
  // request's flight); repeats within the request copy the first's row.
  struct FollowerRef {
    std::size_t index;
    std::shared_ptr<Flight> flight;
  };
  std::vector<std::size_t> owned;
  std::vector<FollowerRef> followers;
  std::vector<std::pair<std::size_t, std::size_t>> duplicates;  // (i, first)
  std::unordered_map<std::uint64_t, std::size_t> first_occurrence;
  std::unordered_map<std::size_t, std::shared_ptr<Flight>> our_flights;
  std::vector<std::uint64_t> hashes(count, 0);
  for (std::size_t i = 0; i < count; ++i) {
    if (resolved[i]) continue;
    hashes[i] = spec::fnv1a64(request.points[i]);
    const auto [it, fresh] = first_occurrence.try_emplace(hashes[i], i);
    if (!fresh) {
      duplicates.emplace_back(i, it->second);
      continue;
    }
    const std::lock_guard<std::mutex> lock(flights_mutex_);
    const auto flight_it = flights_.find(hashes[i]);
    if (flight_it != flights_.end()) {
      followers.push_back({i, flight_it->second});
    } else {
      auto flight = std::make_shared<Flight>();
      flight->started = Clock::now();
      flights_[hashes[i]] = flight;
      our_flights[i] = flight;
      owned.push_back(i);
    }
  }

  // Fulfils an owned point's flight and removes it from the table; also
  // the failure path (scope guard below), so a dying request can never
  // leave a zombie flight that blocks followers forever.
  const auto settle_flight = [this, &our_flights, &hashes](std::size_t i,
                                                          const std::string* row) {
    const auto it = our_flights.find(i);
    if (it == our_flights.end()) return;
    {
      const std::lock_guard<std::mutex> lock(it->second->mutex);
      it->second->done = true;
      if (row != nullptr) {
        it->second->row = *row;
      } else {
        it->second->failed = true;
      }
      it->second->cv.notify_all();
    }
    {
      const std::lock_guard<std::mutex> lock(flights_mutex_);
      const auto table_it = flights_.find(hashes[i]);
      if (table_it != flights_.end() && table_it->second == it->second) {
        flights_.erase(table_it);
      }
    }
    our_flights.erase(it);
  };
  struct FlightGuard {
    const std::function<void(std::size_t, const std::string*)>& settle;
    std::unordered_map<std::size_t, std::shared_ptr<Flight>>& flights;
    ~FlightGuard() {
      std::vector<std::size_t> open;
      open.reserve(flights.size());
      for (const auto& [i, flight] : flights) open.push_back(i);
      for (const std::size_t i : open) settle(i, nullptr);
    }
  };
  const std::function<void(std::size_t, const std::string*)> settle_fn =
      settle_flight;
  FlightGuard guard{settle_fn, our_flights};

  const auto commit_tallies = [&] {
    warm_hits_ += warm_local;
    simulated_ += simulated_local;
    merged_ += merged_local;
    requeued_ += requeued_local;
    note_latency(std::chrono::duration<double, std::milli>(Clock::now() - start)
                     .count());
  };
  const auto fail_request = [&](const std::string& reason, bool deadline_hit) {
    if (deadline_hit) ++deadline_expired_;
    commit_tallies();
    return fail(reason);
  };

  // Phase 3: simulate the owned cold points, batched through the Runner
  // (cache + fault injector + its thread pool). A thrown worker death
  // fails the whole batch attempt, but every point that finished first is
  // already in the cache — harvest those, then retry the rest.
  if (!owned.empty()) {
    sweep::RunnerOptions runner_options;
    runner_options.cache = options_.cache;
    runner_options.fault_injector = options_.fault_injector;
    runner_options.threads = options_.sim_threads;
    std::vector<std::size_t> remaining = owned;
    for (int attempt = 1; !remaining.empty(); ++attempt) {
      if (expired()) {
        return fail_request("deadline exceeded while simulating cold points",
                            true);
      }
      if (attempt > options_.max_attempts) {
        return fail_request(
            "cold point failed after " + std::to_string(options_.max_attempts) +
                " simulation attempts",
            false);
      }
      if (attempt > 1) retries_ += remaining.size();
      try {
        const auto results =
            sweep::Runner(runner_options).run(grid_of(parsed, remaining));
        for (std::size_t j = 0; j < remaining.size(); ++j) {
          const std::size_t i = remaining[j];
          rows[i] = sim::serialize_result(results[j]);
          resolved[i] = true;
          ++simulated_local;
          settle_flight(i, &rows[i]);
        }
        remaining.clear();
      } catch (const std::exception&) {
        std::vector<std::size_t> rest;
        for (const std::size_t i : remaining) {
          std::optional<sweep::CachedPoint> hit;
          if (options_.cache != nullptr) {
            hit = options_.cache->load(request.points[i]);
          }
          if (hit) {
            rows[i] = sim::serialize_result(hit->result);
            resolved[i] = true;
            ++simulated_local;
            settle_flight(i, &rows[i]);
          } else {
            rest.push_back(i);
          }
        }
        remaining = std::move(rest);
      }
    }
  }

  // Phase 4: followers wait on the owning request's flight — but never
  // past point_timeout_ms. A done flight merges its row; a stuck, failed
  // or timed-out one is requeued: the follower simulates the point itself
  // instead of hanging on a worker that may never answer.
  const auto point_timeout = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(options_.point_timeout_ms));
  for (const auto& [i, flight] : followers) {
    if (expired()) {
      return fail_request("deadline exceeded while waiting on in-flight points",
                          true);
    }
    bool merged_row = false;
    {
      std::unique_lock<std::mutex> lock(flight->mutex);
      auto wait_until = Clock::now() + point_timeout;
      if (has_deadline && deadline < wait_until) wait_until = deadline;
      flight->cv.wait_until(lock, wait_until, [&flight] {
        return flight->done || flight->stuck;
      });
      if (flight->done && !flight->failed) {
        rows[i] = flight->row;
        merged_row = true;
      }
    }
    if (merged_row) {
      resolved[i] = true;
      ++merged_local;
      continue;
    }
    // Stuck / failed / timed out: requeue on this thread.
    ++requeued_local;
    if (expired()) {
      return fail_request("deadline exceeded while requeuing a stuck point",
                          true);
    }
    if (!simulate_single(request.points[i], &rows[i])) {
      return fail_request("requeued point failed after " +
                              std::to_string(options_.max_attempts) +
                              " simulation attempts",
                          false);
    }
    resolved[i] = true;
  }

  // Intra-request duplicates copy their first occurrence's row.
  for (const auto& [i, first] : duplicates) {
    rows[i] = rows[first];
    resolved[i] = true;
    ++merged_local;
  }

  for (std::size_t i = 0; i < count; ++i) {
    if (!resolved[i]) {
      return fail_request("internal: point " + std::to_string(i) +
                              " left unresolved",
                          false);
    }
  }

  commit_tallies();
  ++ok_;
  Response response;
  response.status = Response::Status::kOk;
  response.rows = std::move(rows);
  response.stats_text = "warm " + std::to_string(warm_local) + "\nsimulated " +
                        std::to_string(simulated_local) + "\nmerged " +
                        std::to_string(merged_local) + "\nrequeued " +
                        std::to_string(requeued_local) + "\n";
  return response;
}

void Engine::note_request_outcome(Response::Status status) {
  ++requests_;
  switch (status) {
    case Response::Status::kOk: ++ok_; break;
    case Response::Status::kBusy: ++busy_; break;
    case Response::Status::kError: ++errors_; break;
  }
}

void Engine::note_latency(double millis) {
  const std::lock_guard<std::mutex> lock(latency_mutex_);
  latency_ms_.push_back(millis);
  if (latency_ms_.size() > kLatencyWindow) latency_ms_.pop_front();
}

ServiceStats Engine::stats() const {
  ServiceStats stats;
  stats.requests = requests_.load();
  stats.ok = ok_.load();
  stats.busy = busy_.load();
  stats.errors = errors_.load();
  stats.deadline_expired = deadline_expired_.load();
  stats.points = points_.load();
  stats.warm_hits = warm_hits_.load();
  stats.simulated = simulated_.load();
  stats.merged = merged_.load();
  stats.requeued = requeued_.load();
  stats.retries = retries_.load();
  if (options_.cache != nullptr) {
    const sweep::CacheStats cache_stats = options_.cache->stats();
    stats.cache_hits = cache_stats.hits;
    stats.cache_misses = cache_stats.misses;
    stats.cache_stores = cache_stats.stores;
    stats.cache_quarantined = cache_stats.quarantined;
  }
  {
    const std::lock_guard<std::mutex> lock(latency_mutex_);
    if (!latency_ms_.empty()) {
      std::vector<double> sorted(latency_ms_.begin(), latency_ms_.end());
      std::sort(sorted.begin(), sorted.end());
      const auto at = [&sorted](double quantile) {
        const std::size_t index = std::min(
            sorted.size() - 1,
            static_cast<std::size_t>(quantile *
                                     static_cast<double>(sorted.size())));
        return sorted[index];
      };
      stats.p50_ms = at(0.50);
      stats.p99_ms = at(0.99);
    }
  }
  return stats;
}

// ---- Service ---------------------------------------------------------------

Service::Service(ServiceOptions options, std::uint16_t port)
    : options_(options), engine_(options), listener_(port) {}

Service::~Service() {
  request_stop();
  wait();
}

std::uint16_t Service::port() const noexcept { return listener_.port(); }

void Service::start() {
  if (started_.exchange(true)) return;
  running_.store(true);
  acceptor_ = std::thread([this] { accept_loop(); });
  const int workers = std::max(options_.request_workers, 1);
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void Service::request_stop() {
  {
    // Under the queue mutex, so a worker between its predicate check and
    // its wait cannot miss the notification below.
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    running_.store(false);
  }
  listener_.shutdown();
  queue_cv_.notify_all();
}

void Service::wait() {
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

Service::Admission Service::admit(Socket& socket) {
  const std::lock_guard<std::mutex> lock(queue_mutex_);
  if (!running_.load()) {
    socket.close();
    return Admission::kStopped;
  }
  if (queue_.size() >= options_.queue_capacity) return Admission::kBusy;
  queue_.push_back(std::move(socket));
  queue_cv_.notify_one();
  return Admission::kQueued;
}

void Service::accept_loop() {
  while (running_.load()) {
    auto socket = listener_.accept();
    if (!socket) break;  // shutdown
    if (admit(*socket) == Admission::kBusy) {
      // Explicit backpressure: the queue is bounded, so overload answers
      // a loud `busy` frame right now instead of growing a silent backlog.
      engine_.note_busy();
      Stream stream(std::move(*socket));
      Response response;
      response.status = Response::Status::kBusy;
      (void)stream.write_all(encode_response(response));
    }
  }
}

void Service::worker_loop() {
  for (;;) {
    Socket socket;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return !queue_.empty() || !running_.load();
      });
      if (queue_.empty()) {
        if (!running_.load()) return;  // stopped and drained
        continue;
      }
      socket = std::move(queue_.front());
      queue_.pop_front();
    }
    handle_connection(std::move(socket));
  }
}

void Service::handle_connection(Socket socket) {
  Stream stream(std::move(socket));
  std::string error;
  const auto request = read_request(stream, &error);
  if (!request) {
    // A malformed frame costs one error reply, never the daemon.
    engine_.note_request_outcome(Response::Status::kError);
    Response response;
    response.status = Response::Status::kError;
    response.error = "malformed request: " + error;
    (void)stream.write_all(encode_response(response));
    return;
  }

  Response response;
  switch (request->op) {
    case Request::Op::kRun:
      response = engine_.execute(*request);
      break;
    case Request::Op::kPing:
      response.status = Response::Status::kOk;
      response.stats_text = "pong 1\n";
      engine_.note_request_outcome(Response::Status::kOk);
      break;
    case Request::Op::kStats:
      response.status = Response::Status::kOk;
      response.stats_text = stats_text(engine_.stats());
      engine_.note_request_outcome(Response::Status::kOk);
      break;
    case Request::Op::kShutdown:
      response.status = Response::Status::kOk;
      response.stats_text = "shutting_down 1\n";
      engine_.note_request_outcome(Response::Status::kOk);
      (void)stream.write_all(encode_response(response));
      request_stop();
      return;
  }
  (void)stream.write_all(encode_response(response));
}

std::optional<Response> call_service(std::uint16_t port, const Request& request,
                                     std::string* error) {
  Socket socket = connect_local(port);
  if (!socket.valid()) {
    if (error != nullptr) *error = "connect to 127.0.0.1:" + std::to_string(port) + " failed";
    return std::nullopt;
  }
  Stream stream(std::move(socket));
  if (!stream.write_all(encode_request(request))) {
    if (error != nullptr) *error = "send failed";
    return std::nullopt;
  }
  return read_response(stream, error);
}

}  // namespace edc::serve
