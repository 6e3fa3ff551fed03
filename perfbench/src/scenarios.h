// Seeded workload generation: the benchmark's inputs, built from the
// paper's scenario families through the public spec API only.
//
// Every family is a fixed design point whose continuous parameters
// (capacitance, bleed, source strength) are jittered by a few percent and
// whose workload data seeds are drawn from the benchmark seed. The jitter
// keeps the amount of simulated work near-constant across seeds, so host
// times stay comparable between runs, while every seed still feeds the
// library inputs it has not seen before.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "edc/spec/system_spec.h"
#include "edc/sweep/grid.h"
#include "edc/sweep/search.h"

namespace perfbench {

/// One generated grid point, tagged with the family it came from.
struct NamedSpec {
  std::string family;
  std::string label;
  edc::spec::SystemSpec spec;
};

/// The paper's scenarios on the default reference path (macro off).
[[nodiscard]] std::vector<NamedSpec> paper_reference_points(std::uint64_t seed);

/// The survey grids of the opt-in fast path (macro on; run batched).
[[nodiscard]] std::vector<NamedSpec> survey_fast_points(std::uint64_t seed);

/// The points as one sweep grid: a single "point" axis whose values
/// substitute each generated spec wholesale.
[[nodiscard]] edc::sweep::Grid point_grid(const std::vector<NamedSpec>& points);

/// One inverse design question answered by sweep::Search.
struct QueryDef {
  std::string name;
  edc::spec::SystemSpec base;
  edc::sweep::SearchAxis axis;
  std::string variant_axis;                     ///< empty = no variants
  std::vector<edc::sweep::AxisValue> variants;
  edc::sweep::SearchObjective objective;
  int direction = 0;
  /// Continuous contraction over [lo, hi] to tol, or, when `lattice` is
  /// non-empty, discrete bisection over it.
  double lo = 0.0, hi = 0.0, tol = 0.0;
  std::vector<double> lattice;
};

/// The design-service query set: a capacitance threshold on the wind
/// turbine, the Eq 5 hibernus/QuickRecall crossover and the shared-RF fleet
/// node-variant search.
[[nodiscard]] std::vector<QueryDef> design_queries(std::uint64_t seed);

/// Runs one query on a fresh Search (so nothing is memoised in-process).
[[nodiscard]] edc::sweep::SearchOutcome run_query(const QueryDef& query,
                                                  const edc::sweep::SearchOptions& options);

/// The specs and rows of every probe of an outcome, one entry per probe row
/// (variant order within a probe).
struct ProbeRow {
  edc::spec::SystemSpec spec;
  edc::sim::SimResult row;
};
[[nodiscard]] std::vector<ProbeRow> probe_rows(const QueryDef& query,
                                               const edc::sweep::SearchOutcome& outcome);

/// A short-horizon cacheable point no earlier request has asked for: the
/// service's cold requests. Distinct `index` values give distinct specs.
[[nodiscard]] edc::spec::SystemSpec new_point_spec(std::uint64_t seed, std::uint64_t index);

}  // namespace perfbench
