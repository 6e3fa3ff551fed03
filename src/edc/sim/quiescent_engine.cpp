#include "edc/sim/quiescent_engine.h"

#include <algorithm>
#include <cmath>

#include "edc/common/check.h"
#include "edc/sim/simulator.h"

namespace edc::sim {


namespace {

/// Number of whole dt steps starting at t that fit strictly inside [t, u),
/// clamped to max_steps. A skipped step spans [s, s + dt], so the whole
/// span must sit inside the driver's quiet window.
std::uint64_t steps_within(Seconds t, Seconds u, Seconds dt,
                           std::uint64_t max_steps) {
  if (!(u > t)) return 0;
  if (std::isinf(u)) return max_steps;
  const double n = std::floor((u - t) / dt);
  if (n <= 0.0) return 0;
  if (n >= static_cast<double>(max_steps)) return max_steps;
  return static_cast<std::uint64_t>(n);
}

/// Books the exact continuum energy split of a decay span into `span`:
/// the stored-energy drop divides between the constant draw (consumed) and
/// the bleed (dissipated) with zero ledger residual. Clamping guards the
/// last few ulp.
void book_decay_energy(QuiescentSpan& span, Farads capacitance, Volts v0,
                       Seconds elapsed) {
  const Joules delta =
      0.5 * capacitance * (v0 * v0 - span.v_end * span.v_end);
  span.consumed = std::min(span.decay.load_energy(elapsed), delta);
  span.dissipated = delta - span.consumed;
  EDC_ASSERT(span.consumed >= 0.0 && span.dissipated >= 0.0);
}

}  // namespace

std::uint64_t QuiescentEngine::quiet_steps_on_decay(
    const circuit::DecaySolution& decay, Seconds t, Seconds dt,
    std::uint64_t n_cap) const {
  // The driver window is evaluated at the candidate span's voltage floor
  // (quiescent_until is monotone in v_floor, so one most-conservative
  // query per candidate is sound). A deep candidate can tighten the band
  // so far that not even one step fits although the first steps decay
  // barely at all — retrying geometrically shallower candidates recovers
  // those spans. Every accepted count is sound: the window was probed at a
  // floor at least as deep as the span it licenses, and a shorter span
  // only raises the true floor.
  std::uint64_t n = n_cap;
  while (n > 0) {
    const Volts v_floor = decay.voltage_at(dt * static_cast<double>(n));
    const std::uint64_t m =
        steps_within(t, driver_->quiescent_until(v_floor, t), dt, n);
    if (m > 0) return m;
    n /= 16;
  }
  return 0;
}

QuiescentEngine::QuiescentEngine(const SimConfig& config,
                                 const circuit::SupplyNode& node,
                                 const circuit::SupplyDriver& driver,
                                 const mcu::Mcu& mcu)
    : config_(config), node_(&node), driver_(&driver), mcu_(&mcu) {}

bool QuiescentEngine::enabled() const noexcept {
  return config_.quiescent_fast_path || config_.macro_stepping;
}

std::optional<QuiescentSpan> QuiescentEngine::plan(Seconds t, std::uint64_t max_steps,
                                                   const QuietWindow& quiet) const {
  if (max_steps == 0) return std::nullopt;
  const mcu::McuState state = mcu_->state();
  if (state == mcu::McuState::off) {
    // Below the power-on threshold the node can only decay or follow a
    // certified charging ramp toward it, so the span planners stop
    // strictly before any boot; at or above the threshold the fine path
    // must run (it will boot the MCU this step).
    if (config_.macro_stepping && node_->voltage() < mcu_->power().v_on) {
      if (auto span = plan_off(t, max_steps)) return span;
      if (config_.charge_spans) {
        if (auto span = plan_charge(t, max_steps)) return span;
      }
      if (config_.ramp_spans) {
        if (auto span = plan_ramp(t, max_steps)) return span;
      }
    }
    // The bit-exact dead-node skip also covers drivers without usable
    // hints (per-substep probing), so try it even when a macro plan
    // found no provably-quiet step.
    if (config_.quiescent_fast_path) return plan_dead(t, max_steps, quiet);
    return std::nullopt;
  }
  if (config_.macro_stepping &&
      (state == mcu::McuState::sleep || state == mcu::McuState::wait ||
       state == mcu::McuState::done) &&
      mcu_->wake_is_comparator_driven()) {
    if (auto span = plan_low_power(t, max_steps)) return span;
    if (config_.charge_spans) {
      if (auto span = plan_charge(t, max_steps)) return span;
    }
    if (config_.ramp_spans) return plan_ramp(t, max_steps);
  }
  return std::nullopt;
}

std::optional<QuiescentSpan> QuiescentEngine::plan_dead(Seconds t, std::uint64_t max_steps,
                                                        const QuietWindow& quiet) const {
  // With the node clamped at exactly 0 V and no injected current, every
  // energy flow of the step is identically zero (all flows integrate
  // i * v_mid with v_mid = 0) and neither the node voltage nor the MCU
  // state machine can change, so skipping the step is bit-exact. The
  // driver must be quiet at *every* substep instant the ODE would have
  // sampled, or the slow path could have started charging mid-step.
  // A power-on threshold at (or below) ground would boot the MCU from a
  // dead node in the slow path; the skip must never engage then.
  if (node_->voltage() != 0.0 || mcu_->power().v_on <= 0.0) return std::nullopt;
  QuiescentSpan span;
  span.dead = true;
  span.v_end = 0.0;
  span.decay = node_->decay_from(0.0, 0.0);
  // Every whole step inside the quiet window goes in one span. The
  // booking replays the fine path's per-step metric additions, so the
  // length does not change any result bit.
  if (quiet.steps > 0) {
    span.steps = std::min(quiet.steps, max_steps);
    return span;
  }
  // No window over this whole step (no usable hint, or the window ends
  // mid-step): probe the substep instants past the window, exactly the
  // samples the fine step would take.
  const Seconds h = config_.dt / static_cast<double>(config_.node_substeps);
  for (int i = 0; i < config_.node_substeps; ++i) {
    const Seconds t_sub = t + h * static_cast<double>(i);
    if (t_sub >= quiet.until && driver_->current_into(0.0, t_sub) > 0.0) {
      return std::nullopt;
    }
  }
  span.steps = 1;
  return span;
}

std::optional<QuiescentSpan> QuiescentEngine::plan_off(
    Seconds t, std::uint64_t max_steps) const {
  const Seconds dt = config_.dt;
  const Volts v0 = node_->voltage();
  const Amps off_leakage = mcu_->current_draw(v0, t);
  QuiescentSpan span;
  span.draw = off_leakage;

  if (v0 <= config_.macro_v_tol) {
    // Dead (or tolerance-dead) node: nothing decays, so the span is limited
    // by driver activity alone. The sub-tolerance residual charge is booked
    // to the bleed in one lump so the energy ledger still closes exactly.
    const std::uint64_t n =
        steps_within(t, driver_->quiescent_until(0.0, t), dt, max_steps);
    if (n == 0) return std::nullopt;
    span.steps = n;
    span.v_end = 0.0;
    span.dissipated = 0.5 * node_->capacitance() * v0 * v0;
    span.decay = node_->decay_from(0.0, off_leakage);
    return span;
  }

  // Cheap rejection first: quiescent_until is monotone in v_floor and the
  // node only decays from v0, so the hint at v0 bounds every achievable
  // horizon from above. During charging ramps (driver active) this is the
  // per-step cost of an enabled-but-idle macro path — one virtual call, no
  // decay math.
  if (steps_within(t, driver_->quiescent_until(v0, t), dt, 1) == 0) {
    return std::nullopt;
  }

  span.decay = node_->decay_from(v0, off_leakage);
  // The node only decays over the span, so its trajectory is bounded below
  // by the value at the candidate horizon; quiet_steps_on_decay probes the
  // driver window there and retries shallower when the deep band is
  // already violated.
  const std::uint64_t n = quiet_steps_on_decay(span.decay, t, dt, max_steps);
  if (n == 0) return std::nullopt;

  const Seconds elapsed = dt * static_cast<double>(n);
  span.steps = n;
  span.v_end = span.decay.voltage_at(elapsed);
  book_decay_energy(span, node_->capacitance(), v0, elapsed);
  return span;
}

std::optional<QuiescentSpan> QuiescentEngine::plan_low_power(
    Seconds t, std::uint64_t max_steps) const {
  const Seconds dt = config_.dt;
  const Volts v0 = node_->voltage();
  // Cheap rejection: while the driver conducts (charging ramps, active
  // supply arcs) the span cannot start — one virtual call per fine step.
  if (steps_within(t, driver_->quiescent_until(v0, t), dt, 1) == 0) {
    return std::nullopt;
  }

  QuiescentSpan span;
  span.draw = mcu_->current_draw(v0, t);  // constant per state
  span.decay = node_->decay_from(v0, span.draw);

  // The watchers' horizon: the first analytic comparator trip or v_min
  // brown-out crossing on this decay. The crossing step itself must run
  // finely — supply_update needs to see the v_prev > trip >= v_now
  // transition to emit the event at its interpolated instant — so the span
  // may only cover steps whose end stays strictly above the trip.
  std::uint64_t n = max_steps;
  const mcu::Mcu::WakeCrossing crossing = mcu_->plan_wake_crossing(span.decay);
  const bool has_crossing = std::isfinite(crossing.time);
  if (has_crossing) {
    const double whole = std::ceil(crossing.time / dt) - 1.0;
    if (whole <= 0.0) return std::nullopt;
    if (whole < static_cast<double>(n)) n = static_cast<std::uint64_t>(whole);
  }

  // Driver horizon at the span's voltage floor (same shallower-retry
  // scheme as the off-state span).
  n = quiet_steps_on_decay(span.decay, t, dt, n);
  if (n == 0) return std::nullopt;

  span.v_end = span.decay.voltage_at(dt * static_cast<double>(n));
  if (has_crossing) {
    // Float-inverse guard: time_to_reach and voltage_at are analytic
    // inverses only up to rounding, and a span that lands at or below the
    // trip would swallow the crossing (fine stepping resumes with
    // v_prev <= trip and the edge never fires). Backing off a step is
    // always sound — the event then simply fires during fine stepping.
    while (n > 0 && span.v_end <= crossing.trip) {
      --n;
      span.v_end = span.decay.voltage_at(dt * static_cast<double>(n));
    }
    if (n == 0) return std::nullopt;
  }

  span.steps = n;
  book_decay_energy(span, node_->capacitance(), v0, dt * static_cast<double>(n));
  return span;
}

std::optional<QuiescentSpan> QuiescentEngine::plan_charge(
    Seconds t, std::uint64_t max_steps) const {
  const circuit::ChargeSpanCert cert = driver_->plan_charge_span(t);
  if (!cert.valid) return std::nullopt;
  const Seconds dt = config_.dt;
  std::uint64_t n = steps_within(t, cert.until, dt, max_steps);
  if (n == 0) return std::nullopt;
  const Volts v0 = node_->voltage();
  // The rectifier conducts — and the closed form applies — only while the
  // node sits strictly below the constant rectified source; at or above
  // it the driver is dead and the decay planners own the span.
  if (!(v0 < cert.v_source)) return std::nullopt;

  QuiescentSpan span;
  span.charging = true;
  span.draw = mcu_->current_draw(v0, t);  // constant per state
  span.charge = node_->charge_from(v0, cert.v_source, cert.r_series, span.draw);
  // Only the monotone *rise* is a charging ramp; a node sagging toward a
  // lower conduction equilibrium would arm falling watchers and is rare
  // enough to leave to fine stepping.
  if (!(span.charge.asymptote() > v0)) return std::nullopt;

  // The watchers' horizon: the power-on boot (MCU off) or the first rising
  // comparator trip on this rise. The crossing step itself must run finely
  // — supply_update needs to see the v_prev < trip <= v_now transition —
  // so the span may only cover steps whose end stays strictly below the
  // trip.
  const mcu::Mcu::WakeCrossing crossing = mcu_->plan_charge_crossing(span.charge);
  const bool has_crossing = std::isfinite(crossing.time);
  if (has_crossing) {
    const double whole = std::ceil(crossing.time / dt) - 1.0;
    if (whole <= 0.0) return std::nullopt;
    if (whole < static_cast<double>(n)) n = static_cast<std::uint64_t>(whole);
  }

  span.v_end = span.charge.voltage_at(dt * static_cast<double>(n));
  if (has_crossing) {
    // Rising mirror of the decay spans' float-inverse guard: a span that
    // lands at or above the trip would swallow the crossing (fine stepping
    // resumes with v_prev >= trip and the edge never fires). Backing off a
    // step is always sound.
    while (n > 0 && span.v_end >= crossing.trip) {
      --n;
      span.v_end = span.charge.voltage_at(dt * static_cast<double>(n));
    }
    if (n == 0) return std::nullopt;
  }

  span.steps = n;
  const Seconds elapsed = dt * static_cast<double>(n);
  span.consumed = span.charge.load_energy(elapsed);
  span.dissipated = span.charge.bleed_energy(elapsed);
  // Deriving the harvested share from the continuum identity
  // harvested == stored delta + consumed + dissipated closes the span's
  // ledger exactly, mirroring book_decay_energy's zero residual.
  const Joules delta =
      0.5 * node_->capacitance() * (span.v_end * span.v_end - v0 * v0);
  span.harvested = delta + span.consumed + span.dissipated;
  EDC_ASSERT(span.consumed >= 0.0 && span.dissipated >= 0.0 &&
             span.harvested >= 0.0);
  return span;
}

std::optional<QuiescentSpan> QuiescentEngine::plan_ramp(
    Seconds t, std::uint64_t max_steps) const {
  const Seconds dt = config_.dt;
  const Volts tol = config_.macro_v_tol;

  // ICP-style contraction (the bound-and-shrink idiom): ask the driver for
  // a certified chord over a candidate horizon and shrink the horizon
  // while the interval envelope exceeds the span tolerance. Chord error
  // scales ~h^2 for the C2 sources, so a few halvings converge; give up
  // below a 2-step window, where nothing is left to claim. Even 2-3 step
  // spans pay for themselves: near every chord-run boundary the
  // alternative is a fine step *plus* this same contractor run ending in
  // rejection. An invalid certificate exits immediately — that is the
  // per-fine-step rejection path during uncertifiable stretches, and must
  // stay one virtual call.
  const double n_cap =
      static_cast<double>(std::min<std::uint64_t>(max_steps, 256));
  Seconds horizon = n_cap * dt;
  circuit::RampSpanCert cert;
  for (int iter = 0;; ++iter) {
    if (iter >= 16 || !(horizon >= 2.0 * dt)) return std::nullopt;
    cert = driver_->plan_ramp_span(t, horizon);
    if (!cert.valid) return std::nullopt;
    const Volts envelope = std::max(-cert.err_lo, cert.err_hi);
    if (envelope <= tol) break;
    horizon = std::min(cert.until - t, horizon) * 0.5;
  }
  // The chord may deviate from the true source by env_pad; the node (a
  // stable linear ODE with DC gain <= 1 from the source and zero initial
  // deviation) then deviates from the modeled trajectory by at most
  // env_pad too.
  const Volts env_pad = std::max(-cert.err_lo, cert.err_hi);

  std::uint64_t n = steps_within(t, cert.until, dt, max_steps);
  if (n == 0) return std::nullopt;

  const Volts v0 = node_->voltage();
  QuiescentSpan span;
  span.ramping = true;
  span.draw = mcu_->current_draw(v0, t);  // constant per state
  span.ramp = node_->ramp_from(v0, cert.v_source0, cert.slope, cert.r_series,
                               span.draw);

  Seconds elapsed = dt * static_cast<double>(n);
  // Certify the closed form's validity over the whole window:
  //  * the ground clamp provably never engages — the modeled minimum
  //    clears the node deviation envelope;
  //  * the rectifier provably keeps conducting — the modeled source-node
  //    margin clears the chord envelope plus the node envelope, so the
  //    true rectified source stays strictly above the true node voltage
  //    and current_into never takes its zero branch.
  // Either failing leaves the span to fine stepping (or to a later, closer
  // equilibrium where the margins reopen).
  if (!(span.ramp.min_voltage(elapsed) > env_pad)) return std::nullopt;
  if (!(span.ramp.min_source_margin(elapsed) > 2.0 * env_pad)) {
    return std::nullopt;
  }

  // The watchers' horizon on the (possibly non-monotone) ramp: the first
  // instant the modeled trajectory enters any armed watcher's +/- env_pad
  // band bounds every possible discrete event from below. The crossing
  // step itself must run finely, so the span may only cover steps whose
  // end provably stays outside the binding band.
  const mcu::Mcu::WakeCrossing crossing = mcu_->plan_ramp_crossing(
      span.ramp, env_pad, elapsed + dt);
  const bool has_crossing = std::isfinite(crossing.time);
  if (has_crossing) {
    const double whole = std::ceil(crossing.time / dt) - 1.0;
    if (whole <= 0.0) return std::nullopt;
    if (whole < static_cast<double>(n)) {
      n = static_cast<std::uint64_t>(whole);
      elapsed = dt * static_cast<double>(n);
    }
  }

  span.v_end = span.ramp.voltage_at(elapsed);
  if (has_crossing) {
    // Float-inverse guard, interval edition: the span's end must sit
    // strictly outside the binding trip's err_pad band on the starting
    // side, so the resumed fine stepping still owns the whole crossing
    // edge. Backing off a step is always sound.
    const bool from_above = span.ramp.v0 > crossing.trip;
    const Volts guard =
        from_above ? crossing.trip + env_pad : crossing.trip - env_pad;
    while (n > 0 &&
           (from_above ? span.v_end <= guard : span.v_end >= guard)) {
      --n;
      elapsed = dt * static_cast<double>(n);
      span.v_end = span.ramp.voltage_at(elapsed);
    }
    if (n == 0) return std::nullopt;
  }

  span.steps = n;
  span.consumed = span.ramp.load_energy(elapsed);
  span.dissipated = span.ramp.bleed_energy(elapsed);
  // Same continuum identity as plan_charge: deriving the harvested share
  // from stored delta + consumed + dissipated closes the ledger exactly.
  const Joules delta =
      0.5 * node_->capacitance() * (span.v_end * span.v_end - v0 * v0);
  span.harvested = delta + span.consumed + span.dissipated;
  EDC_ASSERT(span.consumed >= 0.0 && span.dissipated >= 0.0 &&
             span.harvested >= 0.0);
  return span;
}

}  // namespace edc::sim
