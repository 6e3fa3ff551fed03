// Shard equivalence: for several grid shapes and every N in {1, 2, 3, 7},
// the merged union of the k/N striding shard CSVs is byte-identical to the
// unsharded serial run, and the merge rejects incomplete or inconsistent
// partitions loudly. Cost-weighted (LPT) and hand-built slices run through
// the same Runner::run_assignment body and the same shard CSV dialect.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "edc/sim/result_io.h"
#include "edc/sweep/grid.h"
#include "edc/sweep/report.h"
#include "edc/sweep/runner.h"
#include "edc/sweep/shard.h"

namespace {

using namespace edc;

spec::SystemSpec cheap_spec() {
  spec::SystemSpec s;
  s.source = spec::SquareSource{3.3, 25.0, 0.5, 0.0, 50.0};
  s.storage.capacitance = 22e-6;
  s.storage.bleed = 20000.0;
  s.workload.kind = "fft-small";
  s.workload.seed = 3;
  s.sim.t_end = 0.25;
  return s;
}

sweep::Grid one_axis_grid() {
  sweep::Grid grid(cheap_spec());
  grid.capacitance_axis({4.7e-6, 10e-6, 22e-6, 33e-6, 47e-6});
  return grid;
}

sweep::Grid two_axis_grid() {
  sweep::Grid grid(cheap_spec());
  grid.capacitance_axis({10e-6, 22e-6, 47e-6})
      .axis("policy",
            {{"hibernus",
              [](spec::SystemSpec& s) { s.policy = spec::Hibernus{}; }},
             {"none", [](spec::SystemSpec& s) { s.policy = spec::NoCheckpoint{}; }},
             {"quickrecall",
              [](spec::SystemSpec& s) { s.policy = spec::QuickRecall{}; }},
             {"nvp", [](spec::SystemSpec& s) { s.policy = spec::Nvp{}; }}});
  return grid;
}

sweep::Grid three_axis_grid() {
  sweep::Grid grid(cheap_spec());
  grid.capacitance_axis({10e-6, 22e-6})
      .workload_seed_axis({1, 2, 3})
      .axis("fast-path",
            {{"on", [](spec::SystemSpec& s) { s.sim.quiescent_fast_path = true; }},
             {"off",
              [](spec::SystemSpec& s) { s.sim.quiescent_fast_path = false; }}});
  return grid;
}

std::string full_csv(const sweep::Grid& grid,
                     const std::vector<sim::SimResult>& rows) {
  std::ostringstream out;
  sweep::write_csv(out, grid, rows);
  return out.str();
}

std::string shard_csv(const sweep::Grid& grid,
                      const sweep::ShardAssignment& assignment, std::size_t k,
                      const std::vector<sim::SimResult>& rows) {
  std::ostringstream out;
  sweep::write_shard_csv(out, grid, assignment, k, rows);
  return out.str();
}

/// Runs slice k of `assignment` and returns its shard CSV text.
std::string slice_csv(const sweep::Runner& runner, const sweep::Grid& grid,
                      const sweep::ShardAssignment& assignment, std::size_t k) {
  return shard_csv(grid, assignment, k, runner.run_assignment(grid, assignment, k));
}

TEST(Shard, ParseAndOwnership) {
  const sweep::Shard shard = sweep::Shard::parse("2/7");
  EXPECT_EQ(shard.index, 2u);
  EXPECT_EQ(shard.count, 7u);
  EXPECT_EQ(shard.to_string(), "2/7");

  EXPECT_THROW((void)sweep::Shard::parse("3"), std::invalid_argument);
  EXPECT_THROW((void)sweep::Shard::parse("/2"), std::invalid_argument);
  EXPECT_THROW((void)sweep::Shard::parse("1/"), std::invalid_argument);
  EXPECT_THROW((void)sweep::Shard::parse("a/b"), std::invalid_argument);
  EXPECT_THROW((void)sweep::Shard::parse("2/2"), std::invalid_argument);
  EXPECT_THROW((void)sweep::Shard::parse("0/0"), std::invalid_argument);

  // The striding partition: every point is owned by exactly one shard,
  // and shard k owns exactly the points with i % N == k, in ascending
  // order, for awkward sizes.
  for (std::size_t grid_size : {1u, 5u, 12u, 13u}) {
    for (std::size_t count : {1u, 2u, 3u, 7u}) {
      const auto assignment = sweep::ShardAssignment::striding(grid_size, count);
      ASSERT_EQ(assignment.count(), count);
      std::vector<int> owners(grid_size, 0);
      for (std::size_t k = 0; k < count; ++k) {
        std::vector<std::size_t> expected;
        for (std::size_t p = k; p < grid_size; p += count) expected.push_back(p);
        EXPECT_EQ(assignment.owned[k], expected)
            << "shard " << k << " of " << count << ", grid " << grid_size;
        for (std::size_t p : assignment.owned[k]) owners[p] += 1;
      }
      for (std::size_t p = 0; p < grid_size; ++p) {
        EXPECT_EQ(owners[p], 1) << "point " << p << " with N=" << count;
      }
    }
  }
}

TEST(Shard, MergedShardsAreByteIdenticalToSerialRun) {
  const sweep::Runner runner;
  const std::vector<sweep::Grid> grids = {one_axis_grid(), two_axis_grid(),
                                          three_axis_grid()};
  for (std::size_t g = 0; g < grids.size(); ++g) {
    const sweep::Grid& grid = grids[g];
    const auto serial_rows = runner.run(grid);
    const std::string serial_text = full_csv(grid, serial_rows);

    for (std::size_t count : {1u, 2u, 3u, 7u}) {
      SCOPED_TRACE("grid " + std::to_string(g) + " N=" + std::to_string(count));
      const auto assignment = sweep::ShardAssignment::striding(grid.size(), count);
      std::vector<std::string> shard_texts;
      for (std::size_t k = 0; k < count; ++k) {
        const auto rows = runner.run_assignment(grid, assignment, k);

        // Row payloads match the serial run bit-for-bit at the owned
        // global indices.
        const auto& owned = assignment.owned[k];
        ASSERT_EQ(rows.size(), owned.size());
        for (std::size_t pos = 0; pos < owned.size(); ++pos) {
          EXPECT_EQ(sim::serialize_result(rows[pos]),
                    sim::serialize_result(serial_rows[owned[pos]]));
        }

        shard_texts.push_back(shard_csv(grid, assignment, k, rows));
      }

      std::ostringstream merged;
      sweep::merge_shard_csvs(shard_texts, merged);
      EXPECT_EQ(merged.str(), serial_text);
    }
  }
}

TEST(Shard, MergeRejectsBrokenPartitions) {
  const sweep::Runner runner;
  const sweep::Grid grid = one_axis_grid();

  const auto halves = sweep::ShardAssignment::striding(grid.size(), 2);
  const std::string text0 = slice_csv(runner, grid, halves, 0);
  const std::string text1 = slice_csv(runner, grid, halves, 1);

  std::ostringstream sink;
  // Missing shard.
  EXPECT_THROW(sweep::merge_shard_csvs({text0}, sink), std::invalid_argument);
  // Duplicate shard.
  EXPECT_THROW(sweep::merge_shard_csvs({text0, text0}, sink),
               std::invalid_argument);
  // Mixed partition sizes.
  const auto thirds = sweep::ShardAssignment::striding(grid.size(), 3);
  const std::string text_t0 = slice_csv(runner, grid, thirds, 0);
  EXPECT_THROW(sweep::merge_shard_csvs({text_t0, text1}, sink),
               std::invalid_argument);
  // Disagreeing headers (different grid axes).
  const sweep::Grid other = two_axis_grid();
  const std::string text_other = slice_csv(
      runner, other, sweep::ShardAssignment::striding(other.size(), 2), 1);
  EXPECT_THROW(sweep::merge_shard_csvs({text0, text_other}, sink),
               std::invalid_argument);
  // The retired v1 (striding-ownership) dialect is no longer a shard CSV.
  const std::string v2_magic = "# edc-sweep-shard v2 ";
  ASSERT_EQ(text1.rfind(v2_magic, 0), 0u);
  const std::string text1_v1 =
      "# edc-sweep-shard v1 " + text1.substr(v2_magic.size());
  EXPECT_THROW(sweep::merge_shard_csvs({text0, text1_v1}, sink),
               std::invalid_argument);
  // Not a shard CSV at all.
  EXPECT_THROW(sweep::merge_shard_csvs({"hello\n"}, sink), std::invalid_argument);
  EXPECT_THROW(sweep::merge_shard_csvs({}, sink), std::invalid_argument);
}

TEST(Shard, ShardedRunnerComposesWithEmptyShards) {
  // N greater than the point count: the excess shards own nothing and
  // write header-only files that still merge cleanly.
  sweep::Grid grid(cheap_spec());
  grid.capacitance_axis({10e-6, 22e-6});  // 2 points, N = 3
  const sweep::Runner runner;
  const std::string serial_text = full_csv(grid, runner.run(grid));

  const auto assignment = sweep::ShardAssignment::striding(grid.size(), 3);
  std::vector<std::string> shard_texts;
  for (std::size_t k = 0; k < 3; ++k) {
    const auto rows = runner.run_assignment(grid, assignment, k);
    if (k == 2) EXPECT_TRUE(rows.empty());
    shard_texts.push_back(shard_csv(grid, assignment, k, rows));
  }
  std::ostringstream merged;
  sweep::merge_shard_csvs(shard_texts, merged);
  EXPECT_EQ(merged.str(), serial_text);
}

// ------------------------------------- cost-weighted shard scheduling ----

TEST(ShardAssignment, StridingMatchesShardOwnership) {
  const auto assignment = sweep::ShardAssignment::striding(11, 3);
  ASSERT_EQ(assignment.count(), 3u);
  EXPECT_EQ(assignment.owned[0], (std::vector<std::size_t>{0, 3, 6, 9}));
  EXPECT_EQ(assignment.owned[1], (std::vector<std::size_t>{1, 4, 7, 10}));
  EXPECT_EQ(assignment.owned[2], (std::vector<std::size_t>{2, 5, 8}));
}

TEST(ShardAssignment, BalancedBeatsStridingOnSkewedCosts) {
  // One pathological straggler point plus uniform cheap points: striding
  // stacks the straggler on top of a full stride of cheap work, LPT gives
  // the straggler a shard of its own.
  std::vector<double> micros(12, 100.0);
  micros[0] = 1000.0;
  const auto lpt = sweep::ShardAssignment::balanced(micros, 3);
  const auto strided = sweep::ShardAssignment::striding(micros.size(), 3);
  EXPECT_LT(lpt.makespan(micros), strided.makespan(micros));
  // LPT bound: within 4/3 of the ideal split (here the straggler alone).
  EXPECT_LE(lpt.makespan(micros), 1000.0 + 100.0);

  // Every point owned exactly once.
  std::vector<std::size_t> all;
  for (const auto& points : lpt.owned) {
    EXPECT_TRUE(std::is_sorted(points.begin(), points.end()));
    all.insert(all.end(), points.begin(), points.end());
  }
  std::sort(all.begin(), all.end());
  std::vector<std::size_t> expected(micros.size());
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(all, expected);

  // Deterministic: the identical timing vector yields the identical plan.
  const auto again = sweep::ShardAssignment::balanced(micros, 3);
  EXPECT_EQ(lpt.owned, again.owned);
}

TEST(ShardAssignment, FallsBackToStridingWithoutTimings) {
  // Timings absent entirely, or incomplete (a never-simulated point has no
  // positive cost): both degrade to index striding.
  const auto empty = sweep::ShardAssignment::balanced({}, 2);
  EXPECT_EQ(empty.owned, sweep::ShardAssignment::striding(0, 2).owned);

  std::vector<double> partial(6, 50.0);
  partial[4] = 0.0;
  const auto fallback = sweep::ShardAssignment::balanced(partial, 2);
  EXPECT_EQ(fallback.owned, sweep::ShardAssignment::striding(6, 2).owned);
}

TEST(ShardAssignment, AssignmentShardCsvsMergeByteIdenticallyToSerialRun) {
  // The cost-weighted CSV loop: LPT slices written as shard CSVs must
  // merge into the exact write_csv bytes of the unsharded run, for skewed
  // partitions striding could never produce.
  const sweep::Grid grid = two_axis_grid();
  const sweep::Runner runner;
  sweep::RunReport report;
  const auto serial = runner.run(grid, &report);
  const std::string expected = full_csv(grid, serial);

  for (std::size_t count : {1u, 2u, 3u, 5u}) {
    const auto assignment = sweep::ShardAssignment::balanced(report.micros, count);
    std::vector<std::string> shard_texts;
    for (std::size_t k = 0; k < assignment.count(); ++k) {
      shard_texts.push_back(slice_csv(runner, grid, assignment, k));
    }
    std::ostringstream merged;
    sweep::merge_shard_csvs(shard_texts, merged);
    EXPECT_EQ(merged.str(), expected) << "N=" << count;

    // Assignment shards still fail loudly on incomplete partitions.
    if (count > 1) {
      std::ostringstream sink;
      EXPECT_THROW(sweep::merge_shard_csvs({shard_texts[0]}, sink),
                   std::invalid_argument);
    }
  }
}

TEST(ShardAssignment, RunAssignmentMatchesRunBitIdentically) {
  // The cost-weighted re-run path: rows of every LPT slice must be the
  // exact rows of the unsharded run, in each slice's ascending order.
  const sweep::Grid grid = two_axis_grid();
  const sweep::Runner runner;
  sweep::RunReport report;
  const auto serial = runner.run(grid, &report);
  ASSERT_EQ(report.micros.size(), grid.size());

  const auto assignment = sweep::ShardAssignment::balanced(report.micros, 3);
  std::size_t covered = 0;
  for (std::size_t k = 0; k < assignment.count(); ++k) {
    const auto rows = runner.run_assignment(grid, assignment, k);
    ASSERT_EQ(rows.size(), assignment.owned[k].size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(sim::serialize_result(rows[i]),
                sim::serialize_result(serial[assignment.owned[k][i]]))
          << "shard " << k << " row " << i;
    }
    covered += rows.size();
  }
  EXPECT_EQ(covered, grid.size());
}

TEST(ShardAssignment, UnsortedSliceRowsFollowSliceOrder) {
  // `owned` is a public field, so a hand-built slice may list its points
  // in any order. Row i must be the point at owned[k][i] on the scalar and
  // the batch path alike (points 1 and 3 share a source, so the batch path
  // steps them as one lockstep unit).
  const sweep::Grid grid = two_axis_grid();
  const auto serial = sweep::Runner().run(grid);
  sweep::ShardAssignment assignment;
  assignment.owned = {{3, 1}, {0, 2}};

  for (const bool batch : {false, true}) {
    SCOPED_TRACE(batch ? "batch" : "scalar");
    sweep::RunnerOptions options;
    options.threads = 1;
    options.batch = batch;
    const sweep::Runner runner(options);
    for (std::size_t k = 0; k < assignment.count(); ++k) {
      sweep::RunReport report;
      const auto rows = runner.run_assignment(grid, assignment, k, &report);
      ASSERT_EQ(rows.size(), assignment.owned[k].size());
      ASSERT_EQ(report.micros.size(), rows.size());
      for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(sim::serialize_result(rows[i]),
                  sim::serialize_result(serial[assignment.owned[k][i]]))
            << "shard " << k << " row " << i;
      }
    }
  }
}

}  // namespace
