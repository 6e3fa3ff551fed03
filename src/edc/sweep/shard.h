// Process-level sharding of sweep grids.
//
// A ShardAssignment partitions a grid's global point indices into N
// slices; independent processes (or machines) each run one slice with
// Runner::run_assignment and write a shard CSV (report.h:
// write_shard_csv); tools/sweep_merge — or merge_shard_csvs() —
// reassembles the per-shard files into a CSV byte-identical to the
// unsharded serial run:
//
//   bench --shard 0/2 --csv a.csv     # machine A
//   bench --shard 1/2 --csv b.csv     # machine B
//   sweep_merge merged.csv a.csv b.csv
//
// Two partitions are built here: index striding (shard k owns every i
// with i % N == k — balanced when per-point cost changes smoothly along
// the grid, and independent of the grid shape) and the cost-weighted LPT
// partition of measured per-point wall times. Every shard CSV row names
// its own global index, so the merge needs no ownership rule: it checks
// that the shards agree on grid size, shard count and header, cover every
// point exactly once and carry no duplicates — anything else throws, so a
// lost or doubled shard can never produce a silently truncated table.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace edc::sweep {

/// The "k/N" label of one shard: which slice a process runs, and of how
/// many (the CLI's --shard flag and the shard CSV's metadata line).
struct Shard {
  std::size_t index = 0;  ///< this shard's id, in [0, count)
  std::size_t count = 1;  ///< total number of shards

  /// Parses "k/N" (e.g. "0/4"); requires N >= 1 and k < N. Throws
  /// std::invalid_argument on malformed input.
  static Shard parse(const std::string& text);

  /// "k/N" — the inverse of parse().
  [[nodiscard]] std::string to_string() const;
};

/// An explicit partition of a grid's points into shards.
///
/// Index striding balances only when per-point cost varies smoothly along
/// the grid; one expensive corner (a long brown-out tail, a slow policy)
/// can make one stride-shard the straggler. balanced() builds the
/// cost-weighted alternative from the measured per-point wall times a
/// previous run recorded (Runner::run(grid, &report).micros; cache hits
/// replay the point's original cost, so a warm grid re-shards for free).
/// It runs LPT (longest-processing-time-first): points in descending cost
/// order, each to the currently least-loaded shard — a classic
/// 4/3-approximation of the optimal makespan, deterministic here so every
/// process computes the identical partition from the identical timings.
struct ShardAssignment {
  /// owned[k] = the global indices shard k simulates, in the order its
  /// rows come back from Runner::run_assignment (ascending for the
  /// partitions built below). Every point appears exactly once across the
  /// shards.
  std::vector<std::vector<std::size_t>> owned;

  [[nodiscard]] std::size_t count() const noexcept { return owned.size(); }

  /// The index-striding partition: shard k owns every i < grid_size with
  /// i % count == k.
  static ShardAssignment striding(std::size_t grid_size, std::size_t count);

  /// LPT-balanced partition of `micros` (one positive cost per grid
  /// point). Ties break deterministically (lower point index first, lower
  /// shard index on equal load). Falls back to striding(micros.size(),
  /// count) when timings are absent: an empty vector or any non-positive
  /// entry (a point that never ran has no measured cost).
  static ShardAssignment balanced(const std::vector<double>& micros,
                                  std::size_t count);

  /// Predicted wall time of the slowest shard under per-point costs
  /// `micros` — what LPT minimises; lets callers report the expected
  /// balance win before launching processes.
  [[nodiscard]] double makespan(const std::vector<double>& micros) const;
};

}  // namespace edc::sweep
