// Pins the step-lattice helper of the per-lane stepping core
// (sim/step_lattice.h, sim/lane_core.h): steps_starting_before must never
// claim a step whose lattice start dt * (step + k) lands at or past the
// limit, even when ceil((limit - t) / dt) rounds up across a representable
// boundary. A historical over-claim: limit = 3 * 0.1 (which is
// 0.30000000000000004 > 0.3), dt = 0.1, step = 0 — the raw ceil yields 4,
// but the 4th step would start at dt * 3 == limit exactly, i.e. *at* the
// deadline the caller promised to stop before.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "edc/sim/step_lattice.h"

namespace edc::sim {
namespace {

/// The defining property, checked directly on the lattice: n steps fit iff
/// the last claimed start dt*(step+n-1) lies strictly before the limit and
/// (maximality, when asserted) the next one does not.
void expect_exact(std::uint64_t step, Seconds limit, Seconds dt) {
  const std::uint64_t n = steps_starting_before(step, limit, dt);
  if (dt * static_cast<double>(step) >= limit) {
    EXPECT_EQ(n, 0u) << "step " << step << " already at/past the limit";
    return;
  }
  ASSERT_GE(n, 1u);
  EXPECT_LT(dt * static_cast<double>(step + (n - 1)), limit)
      << "over-claim: claimed start at/past the limit";
  EXPECT_GE(dt * static_cast<double>(step + n), limit)
      << "under-claim: an unclaimed start is still before the limit";
}

TEST(StepsStartingBefore, PinsTheRoundUpOverClaimCase) {
  // 3 * 0.1 rounds up past 0.3, so the naive ceil((limit - 0) / 0.1) is 4;
  // the guard must walk it back to 3 because dt * 3 == limit exactly.
  const double dt = 0.1;
  const double limit = 3 * 0.1;
  ASSERT_GT(limit, 0.3);  // the premise of the scenario
  EXPECT_EQ(steps_starting_before(0, limit, dt), 3u);
  expect_exact(0, limit, dt);
}

TEST(StepsStartingBefore, ZeroAtOrPastTheLimit) {
  EXPECT_EQ(steps_starting_before(5, 0.5, 0.1), 0u);   // dt*5 == 0.5 == limit
  EXPECT_EQ(steps_starting_before(7, 0.5, 0.1), 0u);   // past it
  EXPECT_EQ(steps_starting_before(0, 0.0, 0.1), 0u);   // degenerate limit
}

TEST(StepsStartingBefore, OffLatticeLimitCountsTheStraddlingStep) {
  // Starts at 0, .1, .2, dt*3 = 0.30000000000000004 < 0.35 — four steps
  // begin before an off-lattice limit.
  EXPECT_EQ(steps_starting_before(0, 0.35, 0.1), 4u);
  expect_exact(0, 0.35, 0.1);
}

TEST(StepsStartingBefore, ExactOnLatticeLimitsAcrossAwkwardDts) {
  // Lattice limits dt*K must yield exactly K - step for every dt whose
  // multiples are inexact, from any starting step.
  const std::vector<double> dts = {0.1, 1.0 / 3.0, 10e-6, 7e-3, 0.2};
  for (const double dt : dts) {
    for (const std::uint64_t k : {1u, 2u, 3u, 7u, 100u, 4999u}) {
      const double limit = dt * static_cast<double>(k);
      for (const std::uint64_t step : {0u, 1u, 2u, 5u, 99u}) {
        if (step >= k) {
          EXPECT_EQ(steps_starting_before(step, limit, dt), 0u)
              << "dt=" << dt << " k=" << k << " step=" << step;
        } else {
          EXPECT_EQ(steps_starting_before(step, limit, dt), k - step)
              << "dt=" << dt << " k=" << k << " step=" << step;
        }
      }
    }
  }
}

TEST(StepsStartingBefore, PropertyHoldsOnADenseScan) {
  // Brute-force the invariant over a dense set of off-lattice limits.
  const double dt = 0.1;
  for (int i = 1; i <= 400; ++i) {
    const double limit = 0.01 * i + 0.003;
    for (std::uint64_t step = 0; step < 12; ++step) {
      expect_exact(step, limit, dt);
    }
  }
}

}  // namespace
}  // namespace edc::sim
