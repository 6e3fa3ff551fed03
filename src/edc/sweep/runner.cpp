#include "edc/sweep/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <numeric>
#include <thread>

#include "edc/spec/serialize.h"
#include "edc/sweep/batch.h"
#include "edc/sweep/cache.h"
#include "edc/sweep/fault_injector.h"

namespace edc::sweep {

namespace {

/// Wall time of instantiate + run for one point, in microseconds.
template <typename Body>
sim::SimResult timed_simulation(Body&& body, double& micros) {
  const auto start = std::chrono::steady_clock::now();
  sim::SimResult result = body();
  micros = std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - start)
               .count();
  return result;
}

}  // namespace

sim::SimResult Runner::simulate_point(const Point& point, double& micros,
                                      char& provenance, char& origin) const {
  const auto simulate = [&point] {
    auto system = spec::instantiate(point.spec);
    return system.run();
  };
  provenance = kProvenanceScalar;
  origin = kOriginFresh;
  Cache* cache = options_.cache;
  const FaultInjector* chaos = options_.fault_injector;
  if (cache == nullptr && chaos == nullptr) {
    return timed_simulation(simulate, micros);
  }
  if (!spec::is_cacheable(point.spec)) {
    // No canonical key: neither cacheable nor fault-injectable.
    if (cache != nullptr) cache->note_non_cacheable();
    return timed_simulation(simulate, micros);
  }
  const std::string key = spec::serialize(point.spec);
  if (cache != nullptr) {
    if (auto cached = cache->load(key)) {
      // Report the point's *original* simulation cost and provenance, not
      // the load time — that is what a cost-weighted re-shard of the warm
      // grid needs (and a warm batch-produced point must keep reporting
      // its amortized lane cost as such). Only `origin` says "warm": it
      // describes this run, not the stored entry.
      micros = cached->micros;
      provenance = cached->provenance;
      origin = kOriginWarm;
      return std::move(cached->result);
    }
  }
  // May inject latency or throw WorkerKilledError (see RunnerOptions).
  if (chaos != nullptr) chaos->before_simulate(spec::fnv1a64(key));
  sim::SimResult result = timed_simulation(simulate, micros);
  if (cache != nullptr) cache->store(key, result, micros, kProvenanceScalar);
  return result;
}

std::vector<sim::SimResult> Runner::run(const Grid& grid, RunReport* report) const {
  std::vector<std::size_t> points(grid.size());
  std::iota(points.begin(), points.end(), std::size_t{0});
  return run_points(grid, points, report);
}

std::vector<sim::SimResult> Runner::run_assignment(const Grid& grid,
                                                   const ShardAssignment& assignment,
                                                   std::size_t shard_index,
                                                   RunReport* report) const {
  return run_points(grid, assignment.owned.at(shard_index), report);
}

std::vector<sim::SimResult> Runner::run_points(const Grid& grid,
                                               const std::vector<std::size_t>& points,
                                               RunReport* report) const {
  // Row slot i belongs to points[i]; every execution path writes disjoint
  // slots, so rows are bit-identical at any thread count.
  std::vector<sim::SimResult> rows(points.size());
  if (report != nullptr) {
    report->micros.assign(rows.size(), 0.0);
    report->provenance.assign(rows.size(), kProvenanceScalar);
    report->origin.assign(rows.size(), kOriginFresh);
  }
  const auto simulate_slot = [&](std::size_t slot) {
    double cost = 0.0;
    char source = kProvenanceScalar;
    char from = kOriginFresh;
    rows[slot] = simulate_point(grid.point(points[slot]), cost, source, from);
    record_row(report, slot, cost, source, from);
  };
  if (!options_.batch) {
    for_each_unit(points.size(), simulate_slot);
    return rows;
  }
  const std::vector<BatchUnit> units =
      plan_batch_units(grid, points, options_, rows, report);
  for_each_unit(units.size(), [&](std::size_t u) {
    if (units[u].lockstep) {
      run_lockstep_unit(grid, points, units[u], options_.cache, rows, report);
    } else {
      simulate_slot(units[u].slots.front());
    }
  });
  return rows;
}

int Runner::thread_count(std::size_t point_count) const noexcept {
  int threads = options_.threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  if (point_count < static_cast<std::size_t>(threads)) {
    threads = static_cast<int>(point_count);
  }
  return std::max(threads, 1);
}

void Runner::for_each_point(const Grid& grid,
                            const std::function<void(const Point&)>& body) const {
  for_each_unit(grid.size(), [&](std::size_t i) { body(grid.point(i)); });
}

void Runner::for_each_unit(std::size_t count,
                           const std::function<void(std::size_t)>& unit) const {
  if (count == 0) return;
  const int threads = thread_count(count);
  if (threads == 1) {
    for (std::size_t i = 0; i < count; ++i) unit(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  auto worker = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        unit(i);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) pool.emplace_back(worker);
  for (auto& thread : pool) thread.join();

  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace edc::sweep
