// design_service: design questions answered through the cache, then served.
//
// The measured phase is a sequence of rounds, so every metric samples the
// whole of --seconds rather than one stretch of it. Each round runs:
//
//  1. the query set (sweep::Search) on an empty on-disk Cache
//     (query_cold_s, and the simulated seconds per host second of its
//     fresh probes: sim_s_per_host_s) — the first round on the service's
//     cache, later rounds on fresh directories;
//  2. kWarmPerRound reruns of the query set on the service's now-warm cache
//     (query_warm_s), which must simulate nothing and return the cold rows;
//  3. a block of kRequestsPerRound requests from a closed loop of 2 client
//     connections against an in-process serve::Service (2 request workers,
//     1 sim thread) sharing that cache. Each client sends its next request
//     when the previous one answered. The seeded mix: mostly warm repeats
//     of kWarmPoints query probe points per request (cache reads), new
//     short-horizon points (simulate + store) and points both clients ask
//     for at the same request index (single-flight merges). The shares and
//     the request size are assumptions (no record of real sweep_served
//     traffic exists); the measured shares are reported with the request
//     metrics;
//  4. kSetupPerRound repetitions of the set-up, each on a service and cache
//     of its own, so setup_s samples the whole run.
//
// Every served row must be byte-identical to a direct Runner::run of the
// same point: the cold query rows for warm repeats, a fresh scalar run for
// the new points.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_map>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include "edc/serve/protocol.h"
#include "edc/serve/service.h"
#include "edc/serve/socket.h"
#include "edc/sim/result_io.h"
#include "edc/spec/serialize.h"
#include "edc/sweep/cache.h"
#include "edc/sweep/runner.h"
#include "layer_probes.h"
#include "scenarios.h"
#include "tracing.h"
#include "workload.h"

namespace perfbench {

namespace fs = std::filesystem;
namespace serve = edc::serve;
namespace spec = edc::spec;
namespace sweep = edc::sweep;
using edc::sim::SimResult;

namespace {

constexpr int kSetupPerRound = 8;
constexpr int kMinRounds = 3;
constexpr int kWarmPerRound = 10;
constexpr std::uint64_t kRequestsPerRound = 1000;  // >= 3000 per run: p99 has 30 beyond it
constexpr int kClients = 2;
// Points per warm request, drawn without repetition from the query probes:
// enough cache reads and row codecs that the server's work, not the three
// thread hand-offs of a loopback round trip, sets the request's latency.
constexpr std::size_t kWarmPoints = 16;
// Assumed request mix (not measured from real traffic): the rest are warm.
constexpr double kDuplicateShare = 0.01;  // both clients, same request index
constexpr double kNewShare = 0.02;        // one client, a point nobody asked for
constexpr int kTraceBlock = 50;           // requests per traced/untraced block

serve::ServiceOptions service_options(sweep::Cache* cache) {
  serve::ServiceOptions o;
  o.cache = cache;
  o.request_workers = 2;
  o.sim_threads = 1;
  return o;
}

/// Stops the service and joins its threads. Service::request_stop flips
/// the running flag and notifies the request workers without holding their
/// queue mutex, so a worker that is just about to wait can miss that one
/// notification and sleep forever. request_stop is safe to repeat from any
/// thread, so it is repeated until wait() returns.
void stop_service(serve::Service& service) {
  std::atomic<bool> stopped{false};
  std::thread nudger([&] {
    while (!stopped.load()) {
      service.request_stop();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  service.wait();
  stopped.store(true);
  nudger.join();
}

/// Removes `dir` and flushes the file system holding it, so the journal and
/// writeback work of deleting a run's cache entries is paid here, untimed,
/// rather than inside the next run. (Deleting them still slows the next
/// few runs' cache stores on a disk mounted with online discard; see
/// README.md.)
void remove_and_flush(const fs::path& dir) {
  fs::remove_all(dir);
  const fs::path parent = dir.parent_path().empty() ? fs::path(".") : dir.parent_path();
  const int fd = ::open(parent.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
}

/// One cold or warm answer of the whole query set.
struct QueryRun {
  double wall = 0.0;
  double simulated_seconds = 0.0;  ///< Σ end_time of the freshly simulated rows
  std::vector<sweep::SearchOutcome> outcomes;
  std::vector<double> contract_ms;
};

QueryRun run_queries(const std::vector<QueryDef>& queries, sweep::Cache& cache, int threads) {
  sweep::SearchOptions search_options;
  search_options.runner.threads = threads;
  search_options.runner.cache = &cache;
  QueryRun run;
  const auto start = Clock::now();
  for (const QueryDef& query : queries) {
    const tracing::Span span("sweep.search");
    const auto query_start = Clock::now();
    run.outcomes.push_back(run_query(query, search_options));
    run.contract_ms.push_back(seconds_since(query_start) * 1e3);
    for (const sweep::SearchProbe& probe : run.outcomes.back().probes) {
      if (probe.simulated != probe.rows.size()) continue;  // (partly) warm
      for (const SimResult& row : probe.rows) run.simulated_seconds += row.end_time;
    }
  }
  run.wall = seconds_since(start);
  return run;
}

/// A warm point a client may request: its canonical text and the hash of
/// its reference row (the cold query's Runner::run row, byte for byte).
struct PoolPoint {
  std::string text;
  std::uint64_t row_hash = 0;
};
/// The warm points: every distinct probe point of the query set.
using Pool = std::vector<PoolPoint>;

/// A new point's served rows, by hash: every copy must be byte-identical
/// to the direct run of the point.
struct ServedNew {
  std::uint64_t first_hash = 0;
  std::uint64_t copies = 0;
  std::uint64_t mismatched_copies = 0;
};

struct ClientLog {
  std::vector<double> latency_ms;
  std::vector<char> kind;  ///< per request: 'w' warm, 'n' new, 'd' duplicate
  std::vector<double> traced_ms, untraced_ms;
  std::uint64_t attempted = 0, refused = 0, pool_mismatches = 0;
  std::uint64_t warm_requests = 0, new_requests = 0, duplicate_requests = 0;
  std::uint64_t warm_simulated = 0;
  std::vector<std::string> errors;
};

/// Shared state of the request loop.
struct Loop {
  std::uint16_t port = 0;
  std::uint64_t seed = 0;
  bool trace = false;
  const Pool* pool = nullptr;
  std::uint64_t limit = 0;  ///< requests to have sent when the current block ends
  std::atomic<std::uint64_t> sent{0};
  std::mutex new_mutex;
  std::unordered_map<std::uint64_t, ServedNew> served_new;  // guarded by new_mutex

  /// Takes one request of the current block; false once it is used up.
  bool claim() {
    std::uint64_t current = sent.load();
    do {
      if (current >= limit) return false;
    } while (!sent.compare_exchange_weak(current, current + 1));
    return true;
  }
};

/// One client connection's state, kept across request blocks.
struct Client {
  explicit Client(std::uint64_t seed, int id_) : id(id_), rng(seed * 31 + id_ + 1) {}
  int id;
  Rng rng;
  std::uint64_t index = 0;      ///< requests this client has sent
  std::uint64_t new_count = 0;  ///< new points this client has asked for
  ClientLog log;
};

/// serve::call_service with an abortive close: the client resets the
/// connection once the response is read, so no TIME_WAIT entry is left.
/// One connection per request at several thousand requests per second
/// otherwise leaves ~10 000 TIME_WAIT sockets per run; back-to-back runs
/// pile them up towards the ~28 000 ephemeral ports, and connects (and
/// with them request_p99_ms) slowed run after run until they expired.
std::optional<serve::Response> call(std::uint16_t port, const serve::Request& request,
                                    std::string* error) {
  serve::Socket socket = serve::connect_local(port);
  if (!socket.valid()) {
    *error = "connect to 127.0.0.1:" + std::to_string(port) + " failed";
    return std::nullopt;
  }
  const ::linger abort_on_close{1, 0};
  (void)::setsockopt(socket.fd(), SOL_SOCKET, SO_LINGER, &abort_on_close,
                     sizeof(abort_on_close));
  serve::Stream stream(std::move(socket));
  if (!stream.write_all(serve::encode_request(request))) {
    *error = "send failed";
    return std::nullopt;
  }
  return serve::read_response(stream, error);
}

/// Parses "simulated N" out of a per-request stats text.
std::uint64_t simulated_points(const std::string& stats_text) {
  const std::string key = "simulated ";
  const auto at = stats_text.find(key);
  return at == std::string::npos ? 0 : std::strtoull(stats_text.c_str() + at + key.size(), nullptr, 10);
}

/// Sends requests until the current block is used up.
void client_loop(Loop& loop, Client& client) {
  const Pool& pool = *loop.pool;
  ClientLog& log = client.log;
  for (; loop.claim(); ++client.index) {
    const std::uint64_t i = client.index;
    // Build the request: which points, and which of them are new.
    Rng shared(loop.seed ^ (0xd1b54a32d192ed03ULL * (i + 1)));
    std::vector<const PoolPoint*> pool_picks;
    std::vector<std::uint64_t> new_ids;
    const double draw = client.rng.uniform();
    char kind = 'w';
    if (shared.uniform() < kDuplicateShare) {
      kind = 'd';
      new_ids.push_back(2 * i);  // the same id for both clients
      ++log.duplicate_requests;
    } else if (draw < kNewShare) {
      new_ids.push_back(2 * (1'000'000'000ULL * static_cast<std::uint64_t>(client.id + 1) +
                             client.new_count++) + 1);
      ++log.new_requests;
      kind = 'n';
    } else {
      // kWarmPoints distinct pool points: a partial Fisher-Yates draw.
      std::vector<std::size_t> order(pool.size());
      for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
      for (std::size_t k = 0; k < std::min(kWarmPoints, order.size()); ++k) {
        std::swap(order[k], order[k + client.rng.below(order.size() - k)]);
        pool_picks.push_back(&pool[order[k]]);
      }
      ++log.warm_requests;
    }
    const bool traced = loop.trace && (i / kTraceBlock) % 2 == 1;
    tracing::set_thread_active(traced);
    const tracing::Span request_span("bench.request");
    serve::Request request;
    for (const PoolPoint* point : pool_picks) request.points.push_back(point->text);
    for (const std::uint64_t id : new_ids) {
      const spec::SystemSpec point = new_point_spec(loop.seed, id);
      const tracing::Span span("spec.serialize");
      request.points.push_back(spec::serialize(point));
    }

    std::string error;
    const auto start = Clock::now();
    std::optional<serve::Response> response;
    {
      const tracing::Span span("serve.call");
      response = call(loop.port, request, &error);
    }
    const double ms = seconds_since(start) * 1e3;
    ++log.attempted;
    log.latency_ms.push_back(ms);
    log.kind.push_back(kind);
    (traced ? log.traced_ms : log.untraced_ms).push_back(ms);

    if (!response || response->status != serve::Response::Status::kOk ||
        response->rows.size() != request.points.size()) {
      ++log.refused;
      if (log.errors.size() < 5) {
        log.errors.push_back(!response ? error
                             : response->status == serve::Response::Status::kBusy
                                 ? std::string("busy")
                                 : "error: " + response->error);
      }
      continue;
    }
    for (std::size_t j = 0; j < pool_picks.size(); ++j) {
      if (spec::fnv1a64(response->rows[j]) != pool_picks[j]->row_hash) ++log.pool_mismatches;
    }
    if (new_ids.empty()) {
      log.warm_simulated += simulated_points(response->stats_text);
    }
    for (std::size_t j = 0; j < new_ids.size(); ++j) {
      const std::string& row = response->rows[pool_picks.size() + j];
      const std::uint64_t hash = spec::fnv1a64(row);
      const std::lock_guard<std::mutex> lock(loop.new_mutex);
      ServedNew& served = loop.served_new[new_ids[j]];
      if (served.copies++ == 0) {
        served.first_hash = hash;
      } else if (hash != served.first_hash) {
        ++served.mismatched_copies;
      }
    }
  }
  tracing::set_thread_active(false);
}

/// One set-up: generate the queries, validate their specs by instantiating
/// them, open an empty cache (its directory is made on the first store)
/// and start a service on it.
struct Setup {
  std::vector<QueryDef> queries;
  std::unique_ptr<sweep::Cache> cache;
  std::unique_ptr<serve::Service> service;
  double seconds = 0.0;
  double instantiate_us = 0.0;  ///< per instantiated spec
};

Setup set_up(std::uint64_t seed, const fs::path& cache_dir) {
  Setup out;
  const auto start = Clock::now();
  out.queries = design_queries(seed);
  const auto inst_start = Clock::now();
  std::size_t instantiated = 0;
  for (const QueryDef& query : out.queries) {
    for (std::size_t v = 0; v < std::max<std::size_t>(query.variants.size(), 1); ++v) {
      spec::SystemSpec s = query.base;
      query.axis.set(s, query.lattice.empty() ? query.lo : query.lattice.front());
      if (!query.variants.empty()) query.variants[v].apply(s);
      auto system = spec::instantiate(s);
      ++instantiated;
    }
  }
  out.instantiate_us = seconds_since(inst_start) * 1e6 / static_cast<double>(instantiated);
  out.cache = std::make_unique<sweep::Cache>(cache_dir);
  out.service = std::make_unique<serve::Service>(service_options(out.cache.get()), 0);
  out.service->start();
  out.seconds = seconds_since(start);
  return out;
}

/// Mean microseconds per call of `body()` over `calls` calls.
template <typename Body>
double us_per_call(std::size_t calls, const Body& body) {
  const auto start = Clock::now();
  for (std::size_t i = 0; i < calls; ++i) body(i);
  return calls == 0 ? 0.0 : seconds_since(start) * 1e6 / static_cast<double>(calls);
}

}  // namespace

Outcome run_design_service(const Options& options) {
  Outcome out;
  const fs::path work = fs::path(options.work_dir) / ("design_service-" + std::to_string(options.seed));
  remove_and_flush(work);

  // ---- set-up: the service and cache the measured phase uses.
  std::vector<double> setup_times, instantiate_us;
  Setup main_setup = set_up(options.seed, work / "cache");
  setup_times.push_back(main_setup.seconds);
  instantiate_us.push_back(main_setup.instantiate_us);
  const std::vector<QueryDef>& queries = main_setup.queries;
  sweep::Cache& cache = *main_setup.cache;
  serve::Service& service = *main_setup.service;

  // ---- round 0's cold queries fill the service's cache; their probe rows
  // are the reference rows and the warm pool the clients draw from.
  const auto measure_start = Clock::now();
  std::vector<QueryRun> cold;
  tracing::set_thread_active(options.trace);
  cold.push_back(run_queries(queries, cache, options.threads));
  tracing::set_thread_active(false);
  std::vector<std::vector<ProbeRow>> cold_rows;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    cold_rows.push_back(probe_rows(queries[q], cold.front().outcomes[q]));
  }

  // Every cold row: ledger check; the warm pool the clients draw from.
  Pool pool;
  std::vector<spec::SystemSpec> pool_specs;
  std::vector<SimResult> pool_rows;
  StepMix cold_mix;
  std::set<std::string> seen;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    for (const ProbeRow& probe : cold_rows[q]) {
      ++out.attempted;
      cold_mix.add(probe.row);
      if (const std::string bad = ledger_violation(probe.row); !bad.empty()) {
        out.fail(queries[q].name + ": " + bad);
      }
      PoolPoint point;
      point.text = spec::serialize(probe.spec);
      if (!seen.insert(point.text).second) continue;
      point.row_hash = spec::fnv1a64(edc::sim::serialize_result(probe.row));
      pool.push_back(std::move(point));
      pool_specs.push_back(probe.spec);
      pool_rows.push_back(probe.row);
    }
  }

  // ---- the rounds.
  const serve::ServiceStats before = service.stats();
  Loop loop;
  loop.port = service.port();
  loop.seed = options.seed;
  loop.trace = options.trace;
  loop.pool = &pool;
  std::vector<Client> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(options.seed, c);
  std::vector<double> warm_walls;
  double loop_wall = 0.0;
  for (int round = 0; round < kMinRounds || seconds_since(measure_start) < options.seconds;
       ++round) {
    if (round > 0) {
      // A directory of its own per round; all are removed at the end, so
      // no deletion I/O runs between timed repetitions.
      sweep::Cache scratch(work / ("cold" + std::to_string(round)));
      tracing::set_thread_active(options.trace);
      cold.push_back(run_queries(queries, scratch, options.threads));
      tracing::set_thread_active(false);
    }

    // Warm reruns on the service's cache: zero simulations, the cold rows.
    for (int rep = 0; rep < kWarmPerRound; ++rep) {
      const QueryRun warm = run_queries(queries, cache, options.threads);
      warm_walls.push_back(warm.wall);
      for (std::size_t q = 0; q < queries.size(); ++q) {
        const auto rows = probe_rows(queries[q], warm.outcomes[q]);
        out.attempted += rows.size();
        if (warm.outcomes[q].simulated_points() != 0) {
          out.fail(queries[q].name + ": warm rerun simulated " +
                   std::to_string(warm.outcomes[q].simulated_points()) + " points");
        }
        for (std::size_t k = 0; k < rows.size(); ++k) {
          if (k >= cold_rows[q].size() ||
              statistics_text(rows[k].row) != statistics_text(cold_rows[q][k].row)) {
            out.fail(queries[q].name + ": warm row " + std::to_string(k) + " differs from cold");
          }
        }
      }
    }

    // A block of requests from the closed loop.
    loop.limit += kRequestsPerRound;
    const auto block_start = Clock::now();
    std::vector<std::thread> threads;
    for (Client& client : clients) {
      threads.emplace_back([&loop, &client] {
        try {
          client_loop(loop, client);
        } catch (const std::exception& error) {
          ++client.log.refused;
          client.log.errors.push_back(std::string("client: ") + error.what());
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    loop_wall += seconds_since(block_start);

    // Set-up repetitions, each on a service and cache of its own.
    for (int rep = 0; rep < kSetupPerRound; ++rep) {
      Setup setup = set_up(options.seed, work / ("setup" + std::to_string(setup_times.size())));
      setup_times.push_back(setup.seconds);
      instantiate_us.push_back(setup.instantiate_us);
      stop_service(*setup.service);
    }
  }
  const serve::ServiceStats after = service.stats();
  const sweep::CacheStats cache_after = cache.stats();
  stop_service(service);

  // ---- checks on what was served.
  std::vector<double> latencies, traced_ms, untraced_ms;
  std::map<char, std::vector<double>> by_kind;
  std::uint64_t requests = 0, warm_simulated = 0, warm_requests = 0, new_requests = 0,
                duplicate_requests = 0;
  for (const Client& client : clients) {
    const ClientLog& log = client.log;
    requests += log.attempted;
    out.attempted += log.attempted;
    latencies.insert(latencies.end(), log.latency_ms.begin(), log.latency_ms.end());
    for (std::size_t k = 0; k < log.kind.size(); ++k) by_kind[log.kind[k]].push_back(log.latency_ms[k]);
    traced_ms.insert(traced_ms.end(), log.traced_ms.begin(), log.traced_ms.end());
    untraced_ms.insert(untraced_ms.end(), log.untraced_ms.begin(), log.untraced_ms.end());
    warm_simulated += log.warm_simulated;
    warm_requests += log.warm_requests;
    new_requests += log.new_requests;
    duplicate_requests += log.duplicate_requests;
    for (std::uint64_t k = 0; k < log.refused; ++k) {
      out.fail("request refused: " + (k < log.errors.size() ? log.errors[k] : std::string("")));
    }
    for (std::uint64_t k = 0; k < log.pool_mismatches; ++k) {
      out.fail("served row of a warm point differs from the direct run");
    }
  }
  if (warm_simulated != 0) {
    out.fail("warm-only requests simulated " + std::to_string(warm_simulated) + " points");
  }
  {
    // New points: a direct scalar Runner::run of every one, no cache.
    std::vector<NamedSpec> direct;
    std::vector<const ServedNew*> served;
    for (const auto& [id, point] : loop.served_new) {
      direct.push_back({"new", std::to_string(id), new_point_spec(options.seed, id)});
      served.push_back(&point);
    }
    sweep::RunnerOptions runner_options;
    runner_options.threads = options.threads;
    const auto rows = sweep::Runner(runner_options).run(point_grid(direct));
    for (std::size_t k = 0; k < rows.size(); ++k) {
      const ServedNew& point = *served[k];
      if (!ledger_violation(rows[k]).empty()) out.fail("new point: " + ledger_violation(rows[k]));
      if (point.first_hash != spec::fnv1a64(edc::sim::serialize_result(rows[k]))) {
        out.fail("served row of new point " + direct[k].label + " differs from the direct run");
      } else if (point.mismatched_copies != 0) {
        out.fail("new point " + direct[k].label + " served differing copies");
      }
    }
  }

  // ---- end-to-end metrics.
  std::vector<double> cold_walls, cold_rates;
  for (const QueryRun& run : cold) {
    cold_walls.push_back(run.wall);
    cold_rates.push_back(run.simulated_seconds / run.wall);
  }
  Metrics& e = out.end_to_end;
  e["setup_s"] = {median(setup_times), "s"};
  e["sim_s_per_host_s"] = {median(cold_rates), "s/s"};
  e["query_cold_s"] = {median(cold_walls), "s"};
  e["query_warm_s"] = {median(warm_walls), "s"};
  const std::vector<double>& timed = options.trace ? untraced_ms : latencies;
  e["request_p50_ms"] = {quantile(timed, 0.5), "ms"};
  e["request_p99_ms"] = {quantile(timed, 0.99), "ms"};
  e["requests_per_s"] = {static_cast<double>(requests) / loop_wall, "1/s"};
  const double sent = static_cast<double>(std::max<std::uint64_t>(requests, 1));
  const double warm_share = static_cast<double>(warm_requests) / sent;
  {
    std::ostringstream line;
    line << "request latency = client-observed round trip over " << timed.size()
         << " requests (closed loop, " << kClients << " clients, "
         << std::min(kWarmPoints, pool.size()) << " of " << pool.size()
         << " query probe points per warm request, " << loop.served_new.size() << " distinct new points); measured mix: warm "
         << warm_share << ", new " << static_cast<double>(new_requests) / sent
         << ", duplicate " << static_cast<double>(duplicate_requests) / sent
         << " (assumed shares, not observed traffic)";
    out.notes.push_back(line.str());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      std::vector<double> walls, sim_s;
      for (const QueryRun& run : cold) {
        walls.push_back(run.contract_ms[q]);
        double seconds = 0.0;
        for (const sweep::SearchProbe& probe : run.outcomes[q].probes) {
          for (const SimResult& row : probe.rows) seconds += row.end_time;
        }
        sim_s.push_back(seconds);
      }
      std::ostringstream per_query;
      per_query << "cold query " << queries[q].name << ": "
                << cold.front().outcomes[q].probe_count() << " probes, "
                << cold.front().outcomes[q].simulated_points() << " rows, " << median(sim_s)
                << " simulated s, median " << median(walls) << " ms over " << cold.size()
                << " rounds";
      out.notes.push_back(per_query.str());
    }
    for (const auto& [kind, ms] : by_kind) {
      std::ostringstream per_kind;
      per_kind << (kind == 'w' ? "warm" : kind == 'n' ? "new" : "duplicate") << " requests: "
               << ms.size() << ", p50 " << quantile(ms, 0.5) << " ms, p90 " << quantile(ms, 0.9)
               << " ms, p99 " << quantile(ms, 0.99) << " ms";
      out.notes.push_back(per_kind.str());
    }
  }

  // ---- per-layer metrics.
  Metrics& l = out.layers;
  const QueryRun& first = cold.front();
  double probes = 0, simulated = 0, contract_ms = 0, fresh_us = 0;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    probes += static_cast<double>(first.outcomes[q].probe_count());
    simulated += static_cast<double>(first.outcomes[q].simulated_points());
    contract_ms += first.contract_ms[q];
    fresh_us += first.outcomes[q].micros_total();
  }
  l["spec.instantiate_us"] = {median(instantiate_us), "us"};
  l["sweep.search.probes"] = {probes, "count"};
  l["sweep.search.simulated"] = {simulated, "count"};
  l["sweep.search.contract_ms"] = {contract_ms, "ms"};
  l["sim.run_ms"] = {fresh_us * 1e-3, "ms"};
  l["sim.fine_steps"] = {static_cast<double>(cold_mix.fine), "count"};
  l["sim.span_steps"] = {static_cast<double>(cold_mix.span_steps), "count"};
  l["sim.spans"] = {static_cast<double>(cold_mix.spans), "count"};
  l["sim.steps_per_span"] = {cold_mix.spans > 0 ? static_cast<double>(cold_mix.span_steps) /
                                                      static_cast<double>(cold_mix.spans)
                                                : 0.0,
                             "count"};
  l["sim.span_fraction"] = {static_cast<double>(cold_mix.span_steps) /
                                static_cast<double>(cold_mix.fine + cold_mix.span_steps),
                            "ratio"};
  l["sim.ns_per_fine_step"] = {
      cold_mix.fine > 0 ? fresh_us * 1e3 / static_cast<double>(cold_mix.fine) : 0.0, "ns"};
  const double hits = static_cast<double>(cache_after.hits);
  const double misses = static_cast<double>(cache_after.misses);
  l["sweep.cache.hits"] = {hits, "count"};
  l["sweep.cache.misses"] = {misses, "count"};
  l["sweep.cache.stores"] = {static_cast<double>(cache_after.stores), "count"};
  l["sweep.cache.hit_ratio"] = {hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio"};
  l["serve.warm_hits"] = {static_cast<double>(after.warm_hits - before.warm_hits), "count"};
  l["serve.simulated"] = {static_cast<double>(after.simulated - before.simulated), "count"};
  l["serve.merged"] = {static_cast<double>(after.merged - before.merged), "count"};
  l["serve.retries"] = {static_cast<double>(after.retries - before.retries), "count"};
  l["serve.requeued"] = {static_cast<double>(after.requeued - before.requeued), "count"};
  l["serve.busy"] = {static_cast<double>(after.busy - before.busy), "count"};
  l["serve.warm_request_simulated"] = {static_cast<double>(warm_simulated), "count"};
  l["serve.warm_share"] = {warm_share, "ratio"};
  l["serve.transport_ms"] = {quantile(timed, 0.5) - after.p50_ms, "ms"};

  if (options.trace) {
    // Codec, cache and protocol probes on this workload's own specs/rows.
    std::vector<std::string> texts, row_texts;
    for (const auto& s : pool_specs) texts.push_back(spec::serialize(s));
    for (const auto& r : pool_rows) row_texts.push_back(edc::sim::serialize_result(r));
    const std::size_t n = texts.size();
    constexpr int kReps = 20;
    double sink = 0.0;
    l["spec.serialize_us"] = {us_per_call(n * kReps, [&](std::size_t i) {
                                sink += static_cast<double>(spec::serialize(pool_specs[i % n]).size());
                              }), "us"};
    l["spec.parse_us"] = {us_per_call(n * kReps, [&](std::size_t i) {
                            sink += spec::parse_spec(texts[i % n]).storage.capacitance;
                          }), "us"};
    l["spec.hash_us"] = {us_per_call(n * kReps, [&](std::size_t i) {
                           sink += static_cast<double>(spec::spec_hash(pool_specs[i % n]) & 1);
                         }), "us"};
    l["sim.result_serialize_us"] = {us_per_call(n * kReps, [&](std::size_t i) {
                                      sink += static_cast<double>(
                                          edc::sim::serialize_result(pool_rows[i % n]).size());
                                    }), "us"};
    l["sim.result_parse_us"] = {us_per_call(n * kReps, [&](std::size_t i) {
                                  sink += edc::sim::parse_result(row_texts[i % n]).end_time;
                                }), "us"};
    {
      sweep::Cache probe_cache(work / "probe_cache");
      l["sweep.cache.store_us"] = {us_per_call(n, [&](std::size_t i) {
                                     probe_cache.store(texts[i], pool_rows[i], 1.0, 's');
                                   }), "us"};
      l["sweep.cache.load_us"] = {us_per_call(n * 4, [&](std::size_t i) {
                                    sink += probe_cache.load(texts[i % n]) ? 1.0 : 0.0;
                                  }), "us"};
    }
    {
      // One exchange per pool point: a 1-point request and its response.
      std::vector<serve::Request> requests_probe(n);
      std::vector<serve::Response> responses(n);
      for (std::size_t i = 0; i < n; ++i) {
        requests_probe[i].points = {texts[i]};
        responses[i].rows = {row_texts[i]};
        responses[i].stats_text = "warm 1\nsimulated 0\nmerged 0\nrequeued 0\n";
      }
      std::vector<std::string> req_bytes(n), resp_bytes(n);
      l["serve.protocol.encode_us"] = {us_per_call(n * kReps, [&](std::size_t i) {
                                         req_bytes[i % n] = serve::encode_request(requests_probe[i % n]);
                                         resp_bytes[i % n] = serve::encode_response(responses[i % n]);
                                       }), "us"};
      l["serve.protocol.decode_us"] = {us_per_call(n * kReps, [&](std::size_t i) {
                                         std::string error;
                                         serve::StringSource req(req_bytes[i % n]);
                                         serve::StringSource resp(resp_bytes[i % n]);
                                         sink += serve::read_request(req, &error) ? 1.0 : 0.0;
                                         sink += serve::read_response(resp, &error) ? 1.0 : 0.0;
                                       }), "us"};
    }
    if (sink < 0.0) out.notes.push_back("unreachable");

    // Layer probes on the query bases, weighted by the cold query set's rows.
    LayerEstimate estimate;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const LayerCosts costs = probe_layers(cold_rows[q].front().spec);
      for (const ProbeRow& probe : cold_rows[q]) {
        estimate.add(costs, probe.row, probe.spec.sim.node_substeps, probe.spec.sim.dt);
      }
    }
    estimate.report(l);  // over one cold query set

    const double traced = median(traced_ms);
    const double untraced = median(untraced_ms);
    l["trace.overhead_pct"] = {untraced > 0.0 ? (traced / untraced - 1.0) * 100.0 : 0.0, "%"};
    const auto spans = tracing::collect();
    const auto self = tracing::self_time_ms(spans);
    const double traced_requests = static_cast<double>(traced_ms.size());
    for (const char* name : {"bench.request", "serve.call", "spec.serialize"}) {
      const auto it = self.find(name);
      l[std::string("self.") + name + "_ms"] = {
          it == self.end() || traced_requests == 0 ? 0.0 : it->second / traced_requests, "ms"};
    }
    {
      // Searches are traced on the cold repetitions only.
      const auto it = self.find("sweep.search");
      l["self.sweep.search_ms"] = {
          it == self.end() ? 0.0 : it->second / static_cast<double>(cold.size()), "ms"};
    }
    if (!tracing::write_chrome_trace(options.trace_path, spans)) {
      out.notes.push_back("could not write trace to " + options.trace_path);
    }
  }

  remove_and_flush(work);
  return out;
}

}  // namespace perfbench
