// The unified quiescent-state engine: analytic span planning for every
// regime in which the simulated system is provably idle.
//
// Energy-driven systems are defined by their quiescent time: Hibernus-class
// devices (paper §III, Fig 7/8) spend the bulk of every harvesting gap
// *sleeping* with live comparators, browning out through a bled decay, or
// sitting fully discharged waiting for the source. The fine-stepped loop
// pays a fixed dt through all of it although nothing discrete can happen.
// This engine collapses the simulator's historical special cases — the
// bit-exact V = 0 skip, the MCU-off macro stepper, and (new) sleep-span
// planning — into one description + one horizon planner:
//
//   * a QuiescentState: who draws constant current (off-leakage while the
//     MCU is off, i_sleep / i_deep_wait while hibernating) and which
//     discrete watchers are armed (none below the power-on threshold; the
//     supply comparators + the v_min brown-out while powered);
//   * a generalized horizon: the earliest of driver activity
//     (SupplyDriver::quiescent_until), the analytic comparator/v_min
//     crossing on the closed-form decay (DecaySolution::time_to_reach via
//     ComparatorBank::plan_falling_crossing / Mcu::plan_wake_crossing),
//     and the caller's own deadlines (t_end, governor period, folded into
//     max_steps).
//
// The engine jumps whole dt-lattice spans to that horizon. Spans end
// strictly *before* the first crossing step, so the resumed fine stepping
// delivers the v_prev > trip >= v_now transition and every comparator
// event, interpolated crossing time, policy callback and the energy ledger
// stay in lock-step with the fine path. A span's energy split is exact in
// the continuum: the stored-energy drop 0.5*C*(V0^2 - V1^2) is booked as
// constant-draw (consumed) energy plus bleed dissipation with zero ledger
// residual.
//
// Two accuracy regimes coexist (SimConfig):
//   * quiescent_fast_path (default on): only the dead-node case (MCU off,
//     V = 0, source quiet) — *bit-exact*; one span covers every whole step
//     inside the lane's cached driver quiet window (sim/lane_core.h).
//   * macro_stepping (opt-in): the analytic decay spans — agree with the
//     fine path within its own discretisation error (the contract
//     differential-tested in tests/macro_step_test.cpp).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>

#include "edc/circuit/supply_driver.h"
#include "edc/circuit/supply_node.h"
#include "edc/common/units.h"
#include "edc/mcu/mcu.h"
#include "edc/sim/simulator.h"

namespace edc::sim {

/// One planned quiescent span: `steps` whole dt steps the loop may jump in
/// one go, with the end state and the exact energy booking. The simulator
/// books every span the same way — time/energy via
/// Mcu::note_quiescent_span, ledger shares into the run totals, probe
/// samples replayed from `decay` — and a bit-exact dead-node skip is
/// simply the degenerate span whose bookings and trajectory are
/// identically zero (its time is booked one dt at a time, as the fine
/// path adds it).
struct QuiescentSpan {
  std::uint64_t steps = 0;       ///< always >= 1 when planned
  Volts v_end = 0.0;             ///< node voltage at the end of the span
  Joules harvested = 0.0;        ///< driver-delivered share (charge/ramp spans)
  Joules consumed = 0.0;         ///< constant-draw share (MCU-drawn)
  Joules dissipated = 0.0;       ///< bleed share (+ snapped sub-tolerance charge)
  Amps draw = 0.0;               ///< the state's constant current (probe replay)
  bool charging = false;         ///< trajectory lives in `charge`, not `decay`
  bool ramping = false;          ///< trajectory lives in `ramp` (overrides both)
  /// Bit-exact dead-node span: nothing changes but time, which the loop
  /// books one dt at a time, as the fine path would.
  bool dead = false;
  circuit::DecaySolution decay;        ///< analytic decay trajectory
  circuit::ChargeSolution charge;      ///< analytic charge trajectory
  circuit::LinearRampSolution ramp;    ///< analytic linear-source trajectory

  /// The span's analytic node voltage `elapsed` seconds in (probe replay).
  [[nodiscard]] Volts voltage_at(Seconds elapsed) const {
    if (ramping) return ramp.voltage_at(elapsed);
    return charging ? charge.voltage_at(elapsed) : decay.voltage_at(elapsed);
  }
};

/// A cached floor-0 driver quiet window, from SupplyDriver::quiescent_until
/// (0.0, t0) with t0 at or before the planning instant: the driver injects
/// nothing at any node voltage at instants before `until`, and the `steps`
/// whole lattice steps from the planning instant on lie inside it with
/// every substep instant. The default is no window.
struct QuietWindow {
  Seconds until = -std::numeric_limits<Seconds>::infinity();
  std::uint64_t steps = 0;
};

class QuiescentEngine {
 public:
  /// Copies `config`; the other references must outlive the engine.
  QuiescentEngine(const SimConfig& config, const circuit::SupplyNode& node,
                  const circuit::SupplyDriver& driver, const mcu::Mcu& mcu);

  /// True when some quiescent planning is configured at all; when false the
  /// simulator loop skips the per-step plan() call entirely.
  [[nodiscard]] bool enabled() const noexcept;

  /// Plans the longest skippable span starting at step time `t`, up to
  /// `max_steps` steps (the caller folds its t_end / governor deadlines in
  /// there). Returns nullopt when the current MCU state is not quiescent,
  /// the policy does not certify its wake conditions, or not even one whole
  /// step is provably quiet — the caller then takes one fine step.
  /// `quiet` is the caller's cached driver quiet window (see LaneCore):
  /// the dead-node skip spans its whole steps in one go, and samples the
  /// driver only at instants past its end.
  [[nodiscard]] std::optional<QuiescentSpan> plan(Seconds t, std::uint64_t max_steps,
                                                  const QuietWindow& quiet = {}) const;

 private:
  /// Largest provably-quiet step count <= n_cap for a span following
  /// `decay`: probes the driver window (quiescent_until, monotone in the
  /// floor) at the candidate floor and retries geometrically shallower
  /// candidates when the deepest band is already violated — so a slowly
  /// decaying node next to a driver that is only briefly quiet still gets
  /// its short spans instead of a blanket rejection.
  [[nodiscard]] std::uint64_t quiet_steps_on_decay(
      const circuit::DecaySolution& decay, Seconds t, Seconds dt,
      std::uint64_t n_cap) const;

  /// Bit-exact dead-node skip (MCU off, V exactly 0, v_on above ground):
  /// one span over the whole steps inside the quiet window (capped at
  /// max_steps), else a single step whose substep instants past the
  /// window all probe quiet — decision identical to the fine path.
  [[nodiscard]] std::optional<QuiescentSpan> plan_dead(Seconds t, std::uint64_t max_steps,
                                                       const QuietWindow& quiet) const;

  /// Analytic decay span while the MCU is off below its power-on threshold
  /// (no watchers armed: the horizon is driver activity alone).
  [[nodiscard]] std::optional<QuiescentSpan> plan_off(Seconds t,
                                                      std::uint64_t max_steps) const;

  /// Analytic decay span while the MCU sleeps/waits/is done with live
  /// comparators: the horizon additionally stops strictly before the first
  /// analytic comparator or v_min crossing.
  [[nodiscard]] std::optional<QuiescentSpan> plan_low_power(
      Seconds t, std::uint64_t max_steps) const;

  /// Analytic charging ramp while the driver certifies a piecewise-constant
  /// window (SupplyDriver::plan_charge_span) and the MCU is off or in a
  /// certified low-power state: the closed-form rectifier+RC rise, stopped
  /// strictly before the first power-on / rising-comparator crossing. The
  /// span's energy booking derives the harvested share from the exact
  /// continuum ledger (stored delta + load + bleed), so the residual is
  /// zero by construction.
  [[nodiscard]] std::optional<QuiescentSpan> plan_charge(
      Seconds t, std::uint64_t max_steps) const;

  /// Analytic *linear-ramp* span while the driver certifies a piecewise-
  /// linear chord window with an interval error envelope
  /// (SupplyDriver::plan_ramp_span) and the MCU is off or in a certified
  /// low-power state. An ICP-style contractor halves the candidate horizon
  /// until the chord envelope fits macro_v_tol (chord error shrinks ~h^2,
  /// so a few halvings converge), then certifies on the closed form that
  /// (a) the ground clamp provably never engages, (b) the rectifier
  /// provably keeps conducting (source margin clears chord + node
  /// envelopes), and (c) every comparator / power watcher stays provably
  /// clear of the trajectory's error band (Mcu::plan_ramp_crossing), so
  /// the crossing step is unique within the envelope when fine stepping
  /// resumes. This is what claims the sine/wind arcs charge spans cannot.
  [[nodiscard]] std::optional<QuiescentSpan> plan_ramp(
      Seconds t, std::uint64_t max_steps) const;

  SimConfig config_;
  const circuit::SupplyNode* node_;
  const circuit::SupplyDriver* driver_;
  const mcu::Mcu* mcu_;
};

}  // namespace edc::sim
