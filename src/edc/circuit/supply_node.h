// The single supply node of an energy-driven system (Fig 4): total node
// capacitance (decoupling + parasitic + any added storage), driven by a
// SupplyDriver and discharged by a Load.
//
// Integration: semi-implicit Euler with fixed substeps. The node ODE is
//   C dV/dt = I_in(V, t) - I_load(V, t)
// which is stiff only through the source series resistance; the default
// substep keeps R_s*C >> dt_sub for every modelled source.
#pragma once

#include "edc/circuit/supply_driver.h"
#include "edc/common/units.h"

namespace edc::circuit {

/// Closed-form solution of the unpowered node decay
///
///   C dV/dt = -V/R_bleed - I_load,     V(0) = v0,  V clamped at ground,
///
/// i.e. the quiescent spans of Fig 7: no injected current, a parallel bleed
/// resistance, and a constant load current (the off-state MCU leakage, or
/// i_sleep while hibernating with live comparators). Produced by
/// SupplyNode::decay_from and consumed by sim::QuiescentEngine, which books
/// the exact continuum energy split instead of substepping and plans event
/// horizons from the inverse solve time_to_reach().
struct DecaySolution {
  Farads capacitance = 0.0;
  Ohms bleed = 0.0;  ///< 0 = no bleed path
  Amps load = 0.0;   ///< constant load current while V > 0
  Volts v0 = 0.0;

  /// Node voltage after `elapsed` seconds (clamped at 0).
  [[nodiscard]] Volts voltage_at(Seconds elapsed) const;

  /// When the trajectory reaches exactly 0 V (+infinity when it never
  /// does, e.g. a pure exponential bleed with no constant load).
  [[nodiscard]] Seconds time_to_zero() const;

  /// Inverse solve: the first instant the (monotonically decaying)
  /// trajectory reaches `v`, i.e. the exact comparator-crossing time of a
  /// falling threshold. 0 when v >= v0; +infinity when the decay never
  /// gets there (e.g. an exponential tail asked for a voltage at or below
  /// its asymptote). Inverse of voltage_at up to floating-point rounding.
  [[nodiscard]] Seconds time_to_reach(Volts v) const;

  /// Energy the constant load drew over [0, elapsed]: load * integral of V
  /// (the integral stops where V hits ground — a load draws nothing from a
  /// dead node). The bleed's share of the decay is the remainder
  /// 0.5*C*(v0^2 - V(elapsed)^2) - load_energy, so booking it that way
  /// closes the energy ledger exactly.
  [[nodiscard]] Joules load_energy(Seconds elapsed) const;
};

/// Closed-form solution of the *driven* node: a Thevenin source of constant
/// (rectified) open-circuit voltage conducting through its series
/// resistance against the bleed and a constant load current,
///
///   C dV/dt = (v_source - V)/r_series - V/R_bleed - I_load,   V(0) = v0,
///
/// i.e. the charging ramps of Fig 7: the supply is on, the MCU is off (or
/// parked in a comparator-watched low-power state), and the node climbs the
/// RC exponential toward the conduction equilibrium. Produced by
/// SupplyNode::charge_from for the window a SupplyDriver::plan_charge_span
/// certificate covers, and consumed by sim::QuiescentEngine, which books
/// the exact continuum energy split and plans event horizons from the
/// inverse solve time_to_reach() — the charging mirror of DecaySolution.
///
/// The linear ODE is monotone toward the asymptote
/// v_inf = (v_source/r_series - I_load) / G with G = 1/r_series + 1/R_bleed
/// and time constant tau = C/G. Started below v_source it stays below
/// (v_inf < v_source whenever the bleed or load draw anything, and is
/// approached from below otherwise), so the rectifier keeps conducting and
/// the closed form stays valid over the whole certified window. The engine
/// only plans *rising* trajectories (v0 < v_inf); the struct itself is
/// direction-agnostic.
struct ChargeSolution {
  Farads capacitance = 0.0;
  Volts v_source = 0.0;  ///< constant rectified open-circuit voltage
  Ohms r_series = 0.0;   ///< source series resistance (> 0)
  Ohms bleed = 0.0;      ///< 0 = no bleed path
  Amps load = 0.0;       ///< constant load current
  Volts v0 = 0.0;

  /// The conduction equilibrium v_inf the trajectory approaches.
  [[nodiscard]] Volts asymptote() const;

  /// The RC time constant C / (1/r_series + 1/bleed).
  [[nodiscard]] Seconds tau() const;

  /// Node voltage after `elapsed` seconds (clamped at ground).
  [[nodiscard]] Volts voltage_at(Seconds elapsed) const;

  /// Inverse solve: the first instant the monotone trajectory reaches `v` —
  /// the exact comparator/power-on crossing time of a rising threshold. 0
  /// when the start already satisfies it (v <= v0 on a rise, v >= v0 on a
  /// sag); +infinity when `v` lies beyond the asymptote. Inverse of
  /// voltage_at up to floating-point rounding.
  [[nodiscard]] Seconds time_to_reach(Volts v) const;

  /// Energy the constant load drew over [0, elapsed]: load * integral of V.
  [[nodiscard]] Joules load_energy(Seconds elapsed) const;

  /// Energy the bleed dissipated over [0, elapsed]: integral of V^2/R_b.
  /// Booking harvested = stored-energy delta + load_energy + bleed_energy
  /// closes the span's ledger exactly in the continuum.
  [[nodiscard]] Joules bleed_energy(Seconds elapsed) const;
};

/// Closed-form solution of the node driven by an *affine* Thevenin source:
/// the rectified open-circuit voltage ramps linearly over the window,
///
///   C dV/dt = (v_source0 + slope*t - V)/r_series - V/R_bleed - I_load,
///
/// i.e. a certified piecewise-linear source chord (a sine arc, a wind-gust
/// tail, one trace cell) instead of ChargeSolution's constant window. With
/// G = 1/r_series + 1/R_bleed and tau = C/G the trajectory is
///
///   V(t) = a + b*t + (v0 - a) e^{-t/tau},
///   b = slope / (r_series * G),   a = (v_source0/r_series - I_load - C*b)/G,
///
/// the affine particular solution plus a decaying transient. V'(t) is
/// monotone (single interior extremum at most), so the inverse solve walks
/// at most two monotone pieces with safeguarded bisection. Produced by
/// SupplyNode::ramp_from for the window a SupplyDriver::plan_ramp_span
/// certificate covers, and consumed by sim::QuiescentEngine, which books
/// the continuum energy split exactly like the constant-window spans.
struct LinearRampSolution {
  Farads capacitance = 0.0;
  Volts v_source0 = 0.0;  ///< rectified open-circuit voltage at span start
  double slope = 0.0;     ///< source ramp rate dVs/dt over the window [V/s]
  Ohms r_series = 0.0;    ///< source series resistance (> 0)
  Ohms bleed = 0.0;       ///< 0 = no bleed path
  Amps load = 0.0;        ///< constant load current
  Volts v0 = 0.0;

  /// The RC time constant C / (1/r_series + 1/bleed).
  [[nodiscard]] Seconds tau() const;

  /// Slope b of the affine particular solution a + b*t.
  [[nodiscard]] double drift() const;

  /// Offset a of the affine particular solution a + b*t.
  [[nodiscard]] Volts offset() const;

  /// Node voltage after `elapsed` seconds (clamped at ground; the engine
  /// certifies min_voltage > 0 before committing, so the clamp is inert
  /// over any planned span).
  [[nodiscard]] Volts voltage_at(Seconds elapsed) const;

  /// Inverse solve over [0, t_max]: the first instant the trajectory
  /// reaches `v`, or +infinity when it never does within the window. The
  /// trajectory is not monotone in general (the transient can overshoot
  /// the ramp), so the solve brackets the at-most-one interior extremum
  /// and bisects each monotone piece.
  [[nodiscard]] Seconds time_to_reach(Volts v, Seconds t_max) const;

  /// Minimum of the (unclamped) trajectory over [0, elapsed]: ground-clamp
  /// certification — a span is only valid while this stays above the node
  /// error envelope.
  [[nodiscard]] Volts min_voltage(Seconds elapsed) const;

  /// Maximum of the (unclamped) trajectory over [0, elapsed].
  [[nodiscard]] Volts max_voltage(Seconds elapsed) const;

  /// Minimum of the conduction margin Vs(t) - V(t) over [0, elapsed]:
  /// rectifier certification — the diode provably keeps conducting while
  /// this stays above the chord + node error envelopes.
  [[nodiscard]] Volts min_source_margin(Seconds elapsed) const;

  /// Energy the constant load drew over [0, elapsed]: load * integral of V.
  [[nodiscard]] Joules load_energy(Seconds elapsed) const;

  /// Energy the bleed dissipated over [0, elapsed]: integral of V^2/R_b.
  /// Booking harvested = stored-energy delta + load_energy + bleed_energy
  /// closes the span's ledger exactly in the continuum.
  [[nodiscard]] Joules bleed_energy(Seconds elapsed) const;
};

class SupplyNode {
 public:
  /// `capacitance` is the *total* node capacitance. `v_initial` is the node
  /// voltage at t = 0 (usually 0: system starts discharged).
  SupplyNode(Farads capacitance, Volts v_initial = 0.0);

  [[nodiscard]] Volts voltage() const noexcept { return voltage_; }
  [[nodiscard]] Farads capacitance() const noexcept { return capacitance_; }

  /// Stored energy 0.5*C*V^2.
  [[nodiscard]] Joules stored_energy() const noexcept {
    return 0.5 * capacitance_ * voltage_ * voltage_;
  }

  /// Energy accounting accumulated by one step() call.
  struct StepEnergy {
    Joules harvested = 0.0;   ///< delivered into the node by the driver
    Joules consumed = 0.0;    ///< drawn from the node by the load
    Joules dissipated = 0.0;  ///< lost in the bleed/board-leakage resistance
  };

  /// Board leakage: a resistor in parallel with the node (regulator
  /// quiescents, pull-ups, measurement dividers). 0 disables it. Real
  /// transient platforms rely on this bleed to fully discharge between
  /// supply bursts (cf. the decay-to-zero intervals in Fig 7).
  void set_bleed(Ohms bleed_resistance);
  [[nodiscard]] Ohms bleed() const noexcept { return bleed_; }

  /// Advances the node from `t` by `dt` using `substeps` semi-implicit Euler
  /// substeps. The load current is sampled at the start-of-substep voltage.
  StepEnergy step(Seconds t, Seconds dt, const SupplyDriver& driver,
                  const Load& load, int substeps = 4);

  /// The simulation loop's step (sim::Simulator): the same substeps with a
  /// load draw `i_load` that is constant over the step — the MCU's draw
  /// depends only on its discrete state, which nothing advances between
  /// substeps (BatchKernel hoists SoaLanes::i_load the same way) — and
  /// with every substep instant before `quiet_until` taking zero injected
  /// current without calling the driver. The caller must have obtained
  /// `quiet_until` from driver.quiescent_until(0.0, t0) with t0 <= t; the
  /// quiescent_until contract then makes the result bit-identical to
  /// sampling the driver at every substep.
  StepEnergy step(Seconds t, Seconds dt, const SupplyDriver& driver, Amps i_load,
                  int substeps, Seconds quiet_until);

  /// Structure-of-arrays view over the node state of many *lockstep* lanes
  /// (batched sweeps, sim/batch_kernel.h): contiguous parallel arrays of
  /// `count` lanes, each lane an independent node advancing through the
  /// same (t, dt, substeps) schedule under the same driver. Per-lane
  /// capacitance/bleed may differ (the sweep's storage axes); the per-step
  /// load draw is hoisted by the caller (the MCU's state draw is constant
  /// across one step's substeps — nothing advances its state machine
  /// between them). The `harvested`/`consumed`/`dissipated` slots are
  /// *overwritten* with the step's energy split, mirroring StepEnergy.
  struct SoaLanes {
    std::size_t count = 0;
    double* v = nullptr;             ///< node voltage, in/out
    const double* capacitance = nullptr;
    const double* bleed = nullptr;   ///< 0 = no bleed path
    const double* i_load = nullptr;  ///< hoisted constant load draw over the step
    double* harvested = nullptr;     ///< out: StepEnergy.harvested per lane
    double* consumed = nullptr;      ///< out: StepEnergy.consumed per lane
    double* dissipated = nullptr;    ///< out: StepEnergy.dissipated per lane
  };

  /// The SoA mirror of step(): advances every lane by dt with the exact
  /// per-lane arithmetic of the scalar substep loop (same expression
  /// structure, no reassociation), but with the source evaluated *once*
  /// per substep instant through SupplyDriver::batch_sample and broadcast
  /// across lanes. Per-lane results are bit-identical to `count`
  /// independent step() calls (differential-tested in
  /// tests/batch_diff_test.cpp); the inner lane loops are omp-simd
  /// vectorizable because each lane is a pure element-wise recurrence.
  /// Precondition: driver.batchable().
  static void step_lanes(Seconds t, Seconds dt, const SupplyDriver& driver,
                         int substeps, const SoaLanes& lanes);

  /// Forces the node voltage (tests; initial conditions).
  void set_voltage(Volts v);

  /// The analytic decay this node follows from `v0` with no injected
  /// current and a constant `load` draw (see DecaySolution).
  [[nodiscard]] DecaySolution decay_from(Volts v0, Amps load) const;

  /// The analytic charge this node follows from `v0` while a constant
  /// rectified Thevenin source conducts into it (see ChargeSolution).
  [[nodiscard]] ChargeSolution charge_from(Volts v0, Volts v_source,
                                           Ohms r_series, Amps load) const;

  /// The analytic trajectory this node follows from `v0` while an *affine*
  /// rectified Thevenin source conducts into it (see LinearRampSolution).
  [[nodiscard]] LinearRampSolution ramp_from(Volts v0, Volts v_source0,
                                             double slope, Ohms r_series,
                                             Amps load) const;

 private:
  /// The one substep body of both step() entries; `i_out_at(t_sub)` is the
  /// load draw at the start of the substep.
  template <class LoadDraw>
  StepEnergy integrate(Seconds t, Seconds dt, const SupplyDriver& driver, int substeps,
                       Seconds quiet_until, LoadDraw i_out_at);

  Farads capacitance_;
  Volts voltage_;
  Ohms bleed_ = 0.0;  // 0 = no bleed
};

}  // namespace edc::circuit
