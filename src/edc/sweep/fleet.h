// Fleet adapters for the sweep stack: FleetSpec in, ordinary grid out.
//
// Because coupling is lowered into each node's spec (spec/fleet_spec.h),
// a fleet is just a one-axis grid whose points are the lowered per-node
// SystemSpecs — and the whole Cache/Runner/Search stack works on it
// unchanged. Warm fleet reruns replay every node from the cache (the
// cache keys are the lowered node specs' spec_hashes), shards split a
// fleet across processes, and solver-guided searches treat the node axis
// as a variant axis (tools/design_query --fleet-demo asks "the smallest
// capacitance at which *every* coupled node completes").
//
//   const spec::FleetSpec fleet = spec::example_rf_fleet(3);
//   sweep::Runner runner({.cache = &cache});
//   sweep::RunReport report;
//   const sim::FleetResult result = sweep::run_fleet(fleet, runner, &report);
//   // report.fresh_count() == 3 cold, == 0 on the warm rerun
#pragma once

#include <vector>

#include "edc/sim/fleet_result.h"
#include "edc/spec/fleet_spec.h"
#include "edc/sweep/grid.h"
#include "edc/sweep/runner.h"

namespace edc::sweep {

/// One AxisValue per fleet node: label "node<i>", mutator substituting the
/// *lowered* node spec wholesale (coupling folded in). Suitable both for
/// fleet_grid() and as the variant axis of a sweep::Search. Validates the
/// fleet (throws std::invalid_argument, see spec::validate_fleet).
[[nodiscard]] std::vector<AxisValue> fleet_node_axis(const spec::FleetSpec& fleet);

/// The fleet as an ordinary sweep grid: one "node" axis over the lowered
/// per-node specs (grid.point(i).spec == spec::fleet_node_spec(fleet, i)).
/// Compose further axes on top to sweep a design parameter across the
/// whole fleet at once.
[[nodiscard]] Grid fleet_grid(const spec::FleetSpec& fleet);

/// Simulates the fleet through `runner` (cache, batching, threads and
/// fault injection all apply) and returns the per-node results as a
/// sim::FleetResult. Row i is node i, bit-identical at any thread count,
/// batched or not, to running the lowered node spec on its own
/// (spec::instantiate(spec::fleet_node_spec(fleet, i)).run()) — pinned in
/// tests/fleet_test.cpp.
/// When `report` is non-null it receives the per-node RunReport, whose
/// fresh/warm accounting is what the fleet smoke test gates on.
[[nodiscard]] sim::FleetResult run_fleet(const spec::FleetSpec& fleet,
                                         const Runner& runner,
                                         RunReport* report = nullptr);

}  // namespace edc::sweep
