// Sweep result reporting: grid rows into the existing sim::Table / CSV
// machinery.
//
// Every row carries the grid point's axis labels followed by the standard
// completion/energy metrics of its SimResult, in grid order.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "edc/sim/simulator.h"
#include "edc/sim/table.h"
#include "edc/sweep/grid.h"
#include "edc/sweep/shard.h"

namespace edc::sweep {

/// Axis names followed by the standard metric column names.
[[nodiscard]] std::vector<std::string> summary_header(const Grid& grid);

/// One table row: the point's axis labels + formatted metrics.
[[nodiscard]] std::vector<std::string> summary_row(const Point& point,
                                                   const sim::SimResult& result);

/// An aligned text table of the whole sweep (`results` in grid order, as
/// returned by Runner::run).
[[nodiscard]] sim::Table summary_table(const Grid& grid,
                                       const std::vector<sim::SimResult>& results);

/// CSV export of the same rows (numeric metrics unformatted; labels quoted
/// when they contain separators).
void write_csv(std::ostream& out, const Grid& grid,
               const std::vector<sim::SimResult>& results);

/// Per-shard CSV export for slice `shard_index` of `assignment`: `results`
/// holds the slice's rows in its own order (as returned by
/// Runner::run_assignment). The file carries the shard metadata, the
/// unsharded header, and each row prefixed with its global index, so the
/// rows carry their own ownership and shards merge back into exact grid
/// order:
///
///   # edc-sweep-shard v2 shard <k>/<N> grid <size>
///   # header <unsharded CSV header line>
///   <global index>,<unsharded CSV row>
void write_shard_csv(std::ostream& out, const Grid& grid,
                     const ShardAssignment& assignment, std::size_t shard_index,
                     const std::vector<sim::SimResult>& results);

/// Reassembles the shard CSV texts of a complete k/N partition into the
/// byte stream write_csv would have produced for the unsharded grid.
/// Throws std::invalid_argument when a file is not a write_shard_csv file,
/// or the shards disagree on grid size, shard count or header, repeat a
/// shard id, duplicate a point, or leave a point uncovered.
void merge_shard_csvs(const std::vector<std::string>& shard_csvs, std::ostream& out);

}  // namespace edc::sweep
