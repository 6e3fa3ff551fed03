// The per-lane stepping core: the one definition of the simulation loop.
//
// A lane is one wired system — supply node, front-end driver, MCU (+ its
// checkpoint policy) and an optional DFS governor — advancing on the exact
// step lattice t == dt * step (sim/step_lattice.h). The core owns every
// piece of loop state: the lattice position, the previous end-of-step
// voltage, the last MCU state, the energy totals, the probe buffers, the
// probe and governor deadlines, and the quiescent engine. A driver loop
// only integrates the node ODE between two calls:
//
//   while (lane.running()) {
//     if (!lane.begin_step()) continue;  // finished, or a span was booked
//     <integrate the node over [lane.time(), lane.time() + dt)>;
//     lane.end_step(energy, v_now);
//   }
//
// begin_step() ends the lane at t_end, or asks the quiescent engine for a
// span capped at t_end and the next governor deadline and books it: probe
// samples replayed from the analytic trajectory, time and energy through
// Mcu::note_quiescent_span, a lattice jump. With the quiescent fast path
// on, the lane caches one floor-0 driver quiet window
// (SupplyDriver::quiescent_until(0.0, t)), which the dead-node skip and the
// scalar fine step read (quiet_until()). end_step() is the post-step
// sequence:
//
//   1. deliver the voltage transition to the MCU (power-on, comparator
//      events at interpolated instants, brown-out);
//   2. let the MCU execute for dt (program ticks, saves/restores);
//   3. run the governor at its control period;
//   4. record state transitions and probes;
//   5. advance the lattice and stop on workload completion.
//
// Simulator::run is the one-lane case (node.step between the calls);
// BatchKernel integrates many lanes at once with one shared source sample
// per substep (SupplyNode::step_lanes). Both paths share this sequence, so
// their results are bit-identical by construction.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "edc/circuit/supply_driver.h"
#include "edc/circuit/supply_node.h"
#include "edc/common/check.h"
#include "edc/common/units.h"
#include "edc/mcu/hooks.h"
#include "edc/mcu/mcu.h"
#include "edc/sim/quiescent_engine.h"
#include "edc/sim/simulator.h"
#include "edc/sim/step_lattice.h"

namespace edc::sim {

class LaneCore {
 public:
  /// Validates the lattice (dt > 0, t_end > 0, >= 1 substep) and records
  /// the node's initial stored energy. `config` is copied; the parts must
  /// outlive the core, and the policy must already be attached to the MCU.
  LaneCore(const SimConfig& config, circuit::SupplyNode& node,
           const circuit::SupplyDriver& driver, mcu::Mcu& mcu,
           mcu::FrequencyGovernor* governor);

  [[nodiscard]] bool running() const noexcept { return running_; }
  /// Lattice index and start instant (dt * step) of the next step.
  [[nodiscard]] std::uint64_t step() const noexcept { return step_; }
  [[nodiscard]] Seconds time() const noexcept { return t_; }
  /// End of the lane's cached floor-0 driver quiet window for the fine
  /// step a begin_step() returning true asked for: the driver injects
  /// nothing at any node voltage at instants in [time(), this). -infinity
  /// while no window is known (or the fast path is off). The scalar path
  /// reads it; the batch path samples its shared source once per substep.
  [[nodiscard]] Seconds quiet_until() const noexcept { return quiet_until_; }

  /// Starts the step at time(): finishes the lane once t_end is reached,
  /// or books a quiescent span when the engine plans one. Returns true
  /// only when the caller must integrate one fine step and call end_step.
  bool begin_step();

  /// Completes a fine step whose node integration delivered `energy` and
  /// ended at `v_now` (already written back to the node).
  void end_step(const circuit::SupplyNode::StepEnergy& energy, Volts v_now);

  /// The finished lane's result. Call once, after running() turned false.
  [[nodiscard]] SimResult take_result();

 private:
  /// Asks the driver for a new floor-0 quiet window once the cached one
  /// is stale, at most every kQuietRetrySteps steps while it certifies
  /// nothing.
  void refresh_quiet_window();
  /// Replays the fine path's probe schedule across a planned span.
  void replay_probes(const QuiescentSpan& span);
  /// End-of-run bookkeeping: end time, probe waveforms, final snapshots.
  void finish();

  /// Steps to wait after a quiet-window query that certified nothing.
  /// Trades only speed: a step without a window samples the driver.
  static constexpr std::uint64_t kQuietRetrySteps = 100;

  SimConfig config_;
  circuit::SupplyNode* node_;
  const circuit::SupplyDriver* driver_;
  mcu::Mcu* mcu_;
  mcu::FrequencyGovernor* governor_;
  QuiescentEngine engine_;
  bool engine_enabled_;
  bool probing_;
  bool running_ = true;

  std::uint64_t step_ = 0;
  Seconds t_ = 0.0;
  Volts v_prev_;
  mcu::McuState last_state_;
  Seconds next_probe_ = 0.0;
  Seconds next_governor_ = 0.0;
  /// The lane's one cached driver quiet window, [query instant,
  /// quiet_until_) from quiescent_until(0.0, t). The lane only moves
  /// forward, so its start never needs checking. Whole steps
  /// [.., quiet_end_step_) lie inside it with every substep instant.
  Seconds quiet_until_;
  std::uint64_t quiet_end_step_ = 0;
  std::uint64_t quiet_retry_step_ = 0;
  std::vector<double> probe_vcc_, probe_freq_, probe_state_, probe_power_;
  SimResult result_;  ///< energy totals and step-mix counters accumulate here
};

inline bool LaneCore::begin_step() {
  if (!(t_ < config_.t_end)) {
    finish();
    return false;
  }
  if (!engine_enabled_) return true;
  // The dead-node skip is the planner's only reader of the window; in any
  // other state it is refreshed only before a fine step (below).
  if (config_.quiescent_fast_path && node_->voltage() == 0.0 &&
      mcu_->state() == mcu::McuState::off) {
    refresh_quiet_window();
  }
  const Seconds dt = config_.dt;
  std::uint64_t max_steps = steps_starting_before(step_, config_.t_end, dt);
  if (governor_ != nullptr) {
    max_steps = std::min(max_steps, steps_starting_before(step_, next_governor_, dt));
  }
  const QuietWindow quiet{quiet_until_, quiet_end_step_ > step_ ? quiet_end_step_ - step_ : 0};
  const auto span = engine_.plan(t_, max_steps, quiet);
  if (!span) {
    // Refreshed before every fine step in both paths, although only the
    // scalar one reads it there: the cache, and so every later dead span,
    // then evolves identically in both.
    if (config_.quiescent_fast_path) refresh_quiet_window();
    return true;
  }
  // A planned span must make progress: a zero-step span would spin the
  // loop forever at the same t (the plan/fine-step livelock a zero-length
  // quiet-index sliver once caused). Fail loudly instead.
  EDC_CHECK(span->steps >= 1, "quiescent span must cover >= 1 step");
  if (probing_) replay_probes(*span);
  if (span->dead) {
    // The fine path books each dead step's time_off += dt (and a zero
    // energy) on its own; replaying the additions keeps every metric bit
    // identical however long the span.
    for (std::uint64_t k = 0; k < span->steps; ++k) mcu_->note_quiescent_span(dt);
  } else {
    mcu_->note_quiescent_span(static_cast<double>(span->steps) * dt, span->consumed);
  }
  result_.harvested += span->harvested;  // nonzero for charge/ramp spans only
  result_.consumed += span->consumed;
  result_.dissipated += span->dissipated;
  node_->set_voltage(span->v_end);
  step_ += span->steps;
  t_ = dt * static_cast<double>(step_);
  result_.span_steps += span->steps;
  ++result_.spans;
  v_prev_ = span->v_end;
  // Spans never cover a governor deadline (max_steps stops at it), so the
  // re-schedule — like every other discrete action — happens on a fine step.
  return false;
}

inline void LaneCore::end_step(const circuit::SupplyNode::StepEnergy& energy,
                               Volts v_now) {
  const Seconds dt = config_.dt;
  mcu::Mcu& mcu = *mcu_;
  result_.harvested += energy.harvested;
  result_.consumed += energy.consumed;
  result_.dissipated += energy.dissipated;

  mcu.supply_update(v_prev_, t_, v_now, t_ + dt);
  mcu.advance(t_, dt, v_now);

  if (governor_ != nullptr && t_ >= next_governor_) {
    if (mcu.state() != mcu::McuState::off) governor_->control(mcu, v_now, t_);
    next_governor_ = t_ + governor_->period();
  }

  if (mcu.state() != last_state_) {
    result_.transitions.push_back(StateChange{t_ + dt, last_state_, mcu.state(), v_now});
    last_state_ = mcu.state();
  }

  if (probing_ && t_ >= next_probe_) {
    probe_vcc_.push_back(v_now);
    probe_freq_.push_back(mcu.frequency() / 1e6);
    probe_state_.push_back(static_cast<double>(mcu.state()));
    probe_power_.push_back(mcu.current_draw(v_now, t_) * v_now * 1e3);
    next_probe_ += config_.probe_interval;
  }

  ++step_;
  ++result_.fine_steps;
  t_ = dt * static_cast<double>(step_);
  v_prev_ = v_now;

  if (config_.stop_on_completion && mcu.metrics().completed) finish();
}

}  // namespace edc::sim
