#include "edc/sweep/batch.h"

#include <chrono>
#include <cmath>
#include <map>
#include <utility>
#include <variant>

#include "edc/core/system.h"
#include "edc/sim/batch_kernel.h"
#include "edc/spec/serialize.h"
#include "edc/sweep/cache.h"

namespace edc::sweep {

std::vector<double> amortize_lane_micros(double wall_micros, std::size_t lanes) {
  if (lanes == 0) return {};
  const auto total = static_cast<long long>(
      std::llround(wall_micros < 0.0 ? 0.0 : wall_micros));
  const auto n = static_cast<long long>(lanes);
  const long long base = total / n;
  const long long extra = total % n;
  std::vector<double> per_lane(lanes);
  for (std::size_t k = 0; k < lanes; ++k) {
    per_lane[k] =
        static_cast<double>(base + (static_cast<long long>(k) < extra ? 1 : 0));
  }
  return per_lane;
}

std::optional<std::string> batch_group_key(const spec::SystemSpec& spec) {
  if (!spec::has_source(spec.source) ||
      std::holds_alternative<spec::CustomVoltageSource>(spec.source) ||
      std::holds_alternative<spec::CustomPowerSource>(spec.source)) {
    return std::nullopt;
  }
  // Embed the shared-lattice axes in an otherwise default spec so the
  // canonical serializer yields one stable key text per lockstep group.
  spec::SystemSpec key;
  key.source = spec.source;
  key.rectifier = spec.rectifier;
  key.harvester = spec.harvester;
  key.sim.dt = spec.sim.dt;
  key.sim.node_substeps = spec.sim.node_substeps;
  if (!spec::is_cacheable(key)) return std::nullopt;
  return spec::serialize(key);
}

void record_row(RunReport* report, std::size_t slot, double micros,
                char provenance, char origin) {
  if (report == nullptr) return;
  report->micros[slot] = micros;
  report->provenance[slot] = provenance;
  report->origin[slot] = origin;
}

std::vector<BatchUnit> plan_batch_units(const Grid& grid,
                                        const std::vector<std::size_t>& points,
                                        const RunnerOptions& options,
                                        std::vector<sim::SimResult>& rows,
                                        RunReport* report) {
  Cache* cache = options.cache;

  // Phase 1 (serial, cheap): resolve warm cache points, partition the rest
  // into lockstep groups / scalar fallbacks. std::map keeps group order —
  // and therefore chunk boundaries and cache stores — deterministic.
  std::map<std::string, std::vector<std::size_t>> groups;
  std::vector<std::size_t> scalar_slots;
  for (std::size_t slot = 0; slot < points.size(); ++slot) {
    const Point point = grid.point(points[slot]);
    if (cache != nullptr && spec::is_cacheable(point.spec)) {
      if (auto cached = cache->load(spec::serialize(point.spec))) {
        rows[slot] = std::move(cached->result);
        record_row(report, slot, cached->micros, cached->provenance, kOriginWarm);
        continue;
      }
    }
    if (auto key = batch_group_key(point.spec)) {
      groups[*key].push_back(slot);
    } else {
      scalar_slots.push_back(slot);
    }
  }

  // Phase 2: chunk each group into <= batch_lanes lanes (balanced, so a
  // trailing chunk is never starved down to one lane unless the group
  // itself is tiny). Singleton groups gain nothing from the kernel — they
  // take the scalar path and keep scalar provenance.
  std::vector<BatchUnit> units;
  const auto lane_cap = static_cast<std::size_t>(
      options.batch_lanes > 1 ? options.batch_lanes : 1);
  for (auto& [key, slots] : groups) {
    (void)key;
    if (slots.size() < 2 || lane_cap < 2) {
      scalar_slots.insert(scalar_slots.end(), slots.begin(), slots.end());
      continue;
    }
    const std::size_t n = slots.size();
    const std::size_t chunks = (n + lane_cap - 1) / lane_cap;
    const std::size_t base = n / chunks;
    const std::size_t extra = n % chunks;
    std::size_t begin = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t size = base + (c < extra ? 1 : 0);
      BatchUnit unit;
      unit.lockstep = true;
      unit.slots.assign(slots.begin() + static_cast<std::ptrdiff_t>(begin),
                        slots.begin() + static_cast<std::ptrdiff_t>(begin + size));
      units.push_back(std::move(unit));
      begin += size;
    }
  }
  for (const std::size_t slot : scalar_slots) units.push_back(BatchUnit{{slot}});
  return units;
}

void run_lockstep_unit(const Grid& grid, const std::vector<std::size_t>& points,
                       const BatchUnit& unit, Cache* cache,
                       std::vector<sim::SimResult>& rows, RunReport* report) {
  const auto start = std::chrono::steady_clock::now();
  // Instantiate every lane's fresh system, then wire the non-owning lane
  // table (pointers are taken only after the vector stops growing).
  std::vector<core::EnergyDrivenSystem> systems;
  systems.reserve(unit.slots.size());
  for (const std::size_t slot : unit.slots) {
    systems.push_back(spec::instantiate(grid.point(points[slot]).spec));
  }
  std::vector<sim::BatchLane> lanes;
  lanes.reserve(systems.size());
  for (core::EnergyDrivenSystem& system : systems) {
    sim::BatchLane lane;
    lane.config = system.sim_config();
    lane.node = &system.node();
    lane.driver = &system.driver();
    lane.mcu = &system.mcu();
    lane.governor = system.governor();
    lanes.push_back(lane);
  }
  std::vector<sim::SimResult> results = sim::BatchKernel(std::move(lanes)).run();
  // Amortized lane cost: the chunk's wall time split evenly — the point's
  // marginal cost under *batched* re-execution, which is what a batched
  // shard plan should weigh — with the sub-lane remainder distributed so
  // the recorded costs sum back to the measured wall time (see
  // amortize_lane_micros; a plain wall/n split drifts shard-plan totals by
  // up to lanes-1 us per chunk). The provenance contract in the header
  // says why these must not silently mix with scalar timings.
  const double wall = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  const std::vector<double> per_lane = amortize_lane_micros(wall, unit.slots.size());
  for (std::size_t k = 0; k < unit.slots.size(); ++k) {
    const std::size_t slot = unit.slots[k];
    if (cache != nullptr) {
      const Point point = grid.point(points[slot]);
      if (spec::is_cacheable(point.spec)) {
        cache->store(spec::serialize(point.spec), results[k], per_lane[k],
                     kProvenanceBatch);
      }
    }
    rows[slot] = std::move(results[k]);
    record_row(report, slot, per_lane[k], kProvenanceBatch, kOriginFresh);
  }
}

}  // namespace edc::sweep
