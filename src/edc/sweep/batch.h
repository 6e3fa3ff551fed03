// Lockstep batching of sweep grids (the sweep-side half of the batched SoA
// kernel; the stepping itself lives in sim/batch_kernel.h).
//
// Grid points whose *shared-lattice* axes agree — source, front-end, dt,
// node substeps — can advance in lockstep with one source evaluation per
// substep instant broadcast across all of them. batch_group_key() canonises
// exactly those axes into a string key (via spec::serialize on a stripped
// spec), so grouping is a hash-map partition; everything else — storage,
// policy, workload, horizon, probes, governor, macro flags — varies freely
// within a group. Points whose source cannot be shared (custom factories,
// unset sources) get no key and take the scalar path unchanged.
//
// This is the Runner's batch execution strategy (RunnerOptions::batch):
// plan_batch_units() resolves cache hits, groups the rest, and chunks
// groups into <= batch_lanes lanes; the Runner's one worker pool then runs
// each chunk through run_lockstep_unit() (sim::BatchKernel), with
// singleton groups and ungroupable points left to the Runner's scalar
// path. Per-point results are bit-identical to the scalar runner
// (tests/batch_diff_test.cpp); what changes is the wall time and the
// *provenance* of the recorded cost: a batched point's micros is the
// chunk's wall time amortized over its lanes, which is the right weight
// for LPT sharding of a future batched run but must never be silently
// mixed into a scalar shard plan — hence the provenance codes below,
// carried through the cache (sweep/cache.h), the run report
// (sweep/runner.h) and the shard-plan tooling (bench/eq5_crossover.cpp).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "edc/sim/simulator.h"
#include "edc/spec/system_spec.h"
#include "edc/sweep/grid.h"
#include "edc/sweep/runner.h"

namespace edc::sweep {

/// Execution-path provenance of a sweep row's result + recorded cost.
inline constexpr char kProvenanceScalar = 's';  ///< scalar Simulator, per-point wall time
inline constexpr char kProvenanceBatch = 'b';   ///< SoA kernel, amortized lane cost

/// The lockstep grouping key: a canonical serialization of exactly the
/// axes every lane of a sim::BatchKernel must share (source + front-end
/// + dt + node_substeps, embedded in an otherwise default spec). Returns
/// nullopt when the point cannot join a group: custom source factories
/// (not serializable, and each instantiation may differ), or no source at
/// all. Two points with equal keys instantiate structurally identical,
/// batchable drivers — deterministic sources make equal specs sample
/// identically — which is what SupplyNode::step_lanes' broadcast relies on.
[[nodiscard]] std::optional<std::string> batch_group_key(
    const spec::SystemSpec& spec);

/// One schedulable unit of a batched run, named by slots: positions in
/// the run's point list, which are also the rows and report columns the
/// unit writes. A lockstep unit steps its lanes through sim::BatchKernel;
/// any other unit is one point for the scalar path.
struct BatchUnit {
  std::vector<std::size_t> slots;
  bool lockstep = false;
};

/// Splits a lane group's measured wall time into per-lane amortized costs
/// whose *sum reproduces the measurement* at microsecond resolution: each
/// lane gets floor(total/n) whole microseconds and the first total%n lanes
/// carry one extra. Plain wall/n leaks up to (lanes-1) us of rounding per
/// group once the costs are serialized, so the shard plan's cost totals
/// drift away from the wall time a shard planner has to budget against;
/// remainder distribution keeps the totals exact while every lane still
/// differs by at most 1 us from the even split. Returns an empty vector
/// when `lanes` is 0; negative measurements clamp to zero.
[[nodiscard]] std::vector<double> amortize_lane_micros(double wall_micros,
                                                       std::size_t lanes);

/// Writes one row's telemetry into report column slot `slot` (a no-op when
/// `report` is null); shared by the Runner's scalar path and the batch
/// units below.
void record_row(RunReport* report, std::size_t slot, double micros,
                char provenance, char origin);

/// Plans a batched run of the grid points `points` (global indices; row i
/// is points[i]). Warm cache points are resolved up front straight into
/// rows[i] and the report (replaying their stored provenance, marked
/// kOriginWarm); the rest are grouped by batch_group_key and chunked into
/// lockstep units of <= options.batch_lanes lanes, while singleton groups
/// and ungroupable points become scalar units. Rows and report must
/// already be sized to `points`. The unit order is deterministic.
[[nodiscard]] std::vector<BatchUnit> plan_batch_units(
    const Grid& grid, const std::vector<std::size_t>& points,
    const RunnerOptions& options, std::vector<sim::SimResult>& rows,
    RunReport* report);

/// Runs one lockstep unit of plan_batch_units(grid, points, ...): writes
/// each lane's row, its amortized lane cost and kProvenanceBatch into its
/// slot, and stores the fresh rows in `cache` when it is non-null.
void run_lockstep_unit(const Grid& grid, const std::vector<std::size_t>& points,
                       const BatchUnit& unit, Cache* cache,
                       std::vector<sim::SimResult>& rows, RunReport* report);

}  // namespace edc::sweep
