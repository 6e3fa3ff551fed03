#include "edc/circuit/supply_node.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "edc/common/check.h"

namespace edc::circuit {

namespace {
constexpr Seconds kForever = std::numeric_limits<Seconds>::infinity();
}  // namespace

Volts DecaySolution::voltage_at(Seconds elapsed) const {
  EDC_ASSERT(elapsed >= 0.0);
  if (v0 <= 0.0) return 0.0;
  Volts v = 0.0;
  if (bleed > 0.0) {
    // V(s) = (v0 - v_inf) e^{-s/tau} + v_inf with v_inf = -load*R.
    const Seconds tau = bleed * capacitance;
    const Volts v_inf = -load * bleed;
    v = (v0 - v_inf) * std::exp(-elapsed / tau) + v_inf;
  } else {
    // Pure constant-current discharge: a straight ramp.
    v = v0 - load * elapsed / capacitance;
  }
  return v > 0.0 ? v : 0.0;
}

Seconds DecaySolution::time_to_zero() const {
  if (v0 <= 0.0) return 0.0;
  if (load <= 0.0) return kForever;  // exponential tails never touch ground
  if (bleed > 0.0) {
    const Seconds tau = bleed * capacitance;
    return tau * std::log1p(v0 / (load * bleed));
  }
  return capacitance * v0 / load;
}

Seconds DecaySolution::time_to_reach(Volts v) const {
  EDC_ASSERT(v >= 0.0);
  if (v >= v0) return 0.0;
  if (v <= 0.0) return time_to_zero();
  if (bleed > 0.0) {
    // Invert V(s) = (v0 - v_inf) e^{-s/tau} + v_inf. The asymptote v_inf is
    // -load*bleed <= 0, so any v in (0, v0) lies strictly above it and the
    // logarithm is well-defined.
    const Seconds tau = bleed * capacitance;
    const Volts v_inf = -load * bleed;
    return tau * std::log((v0 - v_inf) / (v - v_inf));
  }
  if (load <= 0.0) return kForever;  // no bleed, no load: V holds at v0
  return capacitance * (v0 - v) / load;
}

Joules DecaySolution::load_energy(Seconds elapsed) const {
  EDC_ASSERT(elapsed >= 0.0);
  if (v0 <= 0.0 || load <= 0.0) return 0.0;
  const Seconds s = std::min(elapsed, time_to_zero());
  double v_integral = 0.0;  // integral of V over [0, s]
  if (bleed > 0.0) {
    const Seconds tau = bleed * capacitance;
    const Volts v_inf = -load * bleed;
    v_integral = (v0 - v_inf) * tau * -std::expm1(-s / tau) + v_inf * s;
  } else {
    v_integral = v0 * s - load * s * s / (2.0 * capacitance);
  }
  return std::max(load * v_integral, 0.0);
}

Volts ChargeSolution::asymptote() const {
  const double conductance = 1.0 / r_series + (bleed > 0.0 ? 1.0 / bleed : 0.0);
  return (v_source / r_series - load) / conductance;
}

Seconds ChargeSolution::tau() const {
  const double conductance = 1.0 / r_series + (bleed > 0.0 ? 1.0 / bleed : 0.0);
  return capacitance / conductance;
}

Volts ChargeSolution::voltage_at(Seconds elapsed) const {
  EDC_ASSERT(elapsed >= 0.0);
  const Volts v_inf = asymptote();
  const Volts v = v_inf + (v0 - v_inf) * std::exp(-elapsed / tau());
  return v > 0.0 ? v : 0.0;
}

Seconds ChargeSolution::time_to_reach(Volts v) const {
  const Volts v_inf = asymptote();
  if (v0 < v_inf) {
    if (v <= v0) return 0.0;
    if (v >= v_inf) return kForever;
  } else if (v0 > v_inf) {
    if (v >= v0) return 0.0;
    if (v <= v_inf) return kForever;
  } else {
    return v == v0 ? 0.0 : kForever;
  }
  // Both differences share a sign, so the logarithm's argument is > 1.
  return tau() * std::log((v_inf - v0) / (v_inf - v));
}

Joules ChargeSolution::load_energy(Seconds elapsed) const {
  EDC_ASSERT(elapsed >= 0.0);
  if (load <= 0.0) return 0.0;
  const Volts v_inf = asymptote();
  const Seconds time_constant = tau();
  const double v_integral =
      v_inf * elapsed +
      (v0 - v_inf) * time_constant * -std::expm1(-elapsed / time_constant);
  return std::max(load * v_integral, 0.0);
}

Joules ChargeSolution::bleed_energy(Seconds elapsed) const {
  EDC_ASSERT(elapsed >= 0.0);
  if (bleed <= 0.0) return 0.0;
  const Volts v_inf = asymptote();
  const Volts dv = v0 - v_inf;
  const Seconds time_constant = tau();
  // integral of (v_inf + dv e^{-s/tau})^2 over [0, elapsed].
  const double sq_integral =
      v_inf * v_inf * elapsed +
      2.0 * v_inf * dv * time_constant * -std::expm1(-elapsed / time_constant) +
      dv * dv * 0.5 * time_constant * -std::expm1(-2.0 * elapsed / time_constant);
  return std::max(sq_integral / bleed, 0.0);
}

namespace {

double node_conductance(Ohms r_series, Ohms bleed) {
  return 1.0 / r_series + (bleed > 0.0 ? 1.0 / bleed : 0.0);
}

}  // namespace

Seconds LinearRampSolution::tau() const {
  return capacitance / node_conductance(r_series, bleed);
}

double LinearRampSolution::drift() const {
  return slope / (r_series * node_conductance(r_series, bleed));
}

Volts LinearRampSolution::offset() const {
  const double g = node_conductance(r_series, bleed);
  return (v_source0 / r_series - load - capacitance * drift()) / g;
}

Volts LinearRampSolution::voltage_at(Seconds elapsed) const {
  EDC_ASSERT(elapsed >= 0.0);
  const Volts a = offset();
  const Volts v =
      a + drift() * elapsed + (v0 - a) * std::exp(-elapsed / tau());
  return v > 0.0 ? v : 0.0;
}

Seconds LinearRampSolution::time_to_reach(Volts v, Seconds t_max) const {
  EDC_ASSERT(t_max >= 0.0);
  const Volts a = offset();
  const double b = drift();
  const Volts c = v0 - a;
  const Seconds time_constant = tau();
  const auto raw = [&](Seconds t) {
    return a + b * t + c * std::exp(-t / time_constant);
  };
  // V'(t) = b - (c/tau) e^{-t/tau} is monotone, so the trajectory has at
  // most one interior extremum, at t* = -tau ln(b*tau/c) when the log
  // argument lies in (0, 1]. Split the window there into monotone pieces.
  Seconds pieces[3] = {0.0, t_max, t_max};
  int n_pieces = 1;
  if (c != 0.0 && b != 0.0) {
    const double arg = b * time_constant / c;
    if (arg > 0.0 && arg <= 1.0) {
      const Seconds t_star = -time_constant * std::log(arg);
      if (t_star > 0.0 && t_star < t_max) {
        pieces[1] = t_star;
        n_pieces = 2;
      }
    }
  }
  for (int p = 0; p < n_pieces; ++p) {
    Seconds lo = pieces[p];
    Seconds hi = pieces[p + 1];
    const Volts v_lo = raw(lo);
    const Volts v_hi = raw(hi);
    if (v == v_lo) return lo;
    const bool rising = v_hi >= v_lo;
    const bool inside = rising ? (v_lo < v && v <= v_hi)
                               : (v_hi <= v && v < v_lo);
    if (!inside) continue;
    // Safeguarded bisection on the monotone piece. Returns the *lower*
    // bracket, so the reported instant is at or just before the true
    // crossing — the conservative side for every planner (a span capped at
    // ceil(time/dt)-1 then provably ends before the crossing step no
    // matter how loose the bracket is). That soundness-by-direction is
    // what lets the loop stop at ~1e-6 of the piece width instead of
    // grinding to one ulp: each iteration costs an exp(), and this is the
    // hot inner call of the ramp-span crossing planners.
    const Seconds width_tol = (hi - lo) * 9.5e-7 + 1e-15;
    for (int i = 0; i < 64 && hi - lo > width_tol; ++i) {
      const Seconds mid = 0.5 * (lo + hi);
      if (mid <= lo || mid >= hi) break;
      const bool before = rising ? (raw(mid) < v) : (raw(mid) > v);
      if (before) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return lo;
  }
  return kForever;
}

Volts LinearRampSolution::min_voltage(Seconds elapsed) const {
  EDC_ASSERT(elapsed >= 0.0);
  const Volts a = offset();
  const double b = drift();
  const Volts c = v0 - a;
  const Seconds time_constant = tau();
  const auto raw = [&](Seconds t) {
    return a + b * t + c * std::exp(-t / time_constant);
  };
  Volts lo = std::min(raw(0.0), raw(elapsed));
  if (c != 0.0 && b != 0.0) {
    const double arg = b * time_constant / c;
    if (arg > 0.0 && arg <= 1.0) {
      const Seconds t_star = -time_constant * std::log(arg);
      if (t_star > 0.0 && t_star < elapsed) lo = std::min(lo, raw(t_star));
    }
  }
  return lo;
}

Volts LinearRampSolution::max_voltage(Seconds elapsed) const {
  EDC_ASSERT(elapsed >= 0.0);
  const Volts a = offset();
  const double b = drift();
  const Volts c = v0 - a;
  const Seconds time_constant = tau();
  const auto raw = [&](Seconds t) {
    return a + b * t + c * std::exp(-t / time_constant);
  };
  Volts hi = std::max(raw(0.0), raw(elapsed));
  if (c != 0.0 && b != 0.0) {
    const double arg = b * time_constant / c;
    if (arg > 0.0 && arg <= 1.0) {
      const Seconds t_star = -time_constant * std::log(arg);
      if (t_star > 0.0 && t_star < elapsed) hi = std::max(hi, raw(t_star));
    }
  }
  return hi;
}

Volts LinearRampSolution::min_source_margin(Seconds elapsed) const {
  EDC_ASSERT(elapsed >= 0.0);
  const Volts a = offset();
  const double b = drift();
  const Volts c = v0 - a;
  const Seconds time_constant = tau();
  // D(t) = Vs(t) - V(t) = (v_source0 - a) + (slope - b) t - c e^{-t/tau}.
  // D'(t) = (slope - b) + (c/tau) e^{-t/tau} is monotone, so the margin's
  // minimum sits at an endpoint or the single critical point.
  const auto margin = [&](Seconds t) {
    return (v_source0 - a) + (slope - b) * t -
           c * std::exp(-t / time_constant);
  };
  Volts lo = std::min(margin(0.0), margin(elapsed));
  if (c != 0.0 && slope != b) {
    const double arg = (b - slope) * time_constant / c;
    if (arg > 0.0 && arg <= 1.0) {
      const Seconds t_crit = -time_constant * std::log(arg);
      if (t_crit > 0.0 && t_crit < elapsed) lo = std::min(lo, margin(t_crit));
    }
  }
  return lo;
}

Joules LinearRampSolution::load_energy(Seconds elapsed) const {
  EDC_ASSERT(elapsed >= 0.0);
  if (load <= 0.0) return 0.0;
  const Volts a = offset();
  const double b = drift();
  const Volts c = v0 - a;
  const Seconds time_constant = tau();
  const double v_integral =
      a * elapsed + 0.5 * b * elapsed * elapsed +
      c * time_constant * -std::expm1(-elapsed / time_constant);
  return std::max(load * v_integral, 0.0);
}

Joules LinearRampSolution::bleed_energy(Seconds elapsed) const {
  EDC_ASSERT(elapsed >= 0.0);
  if (bleed <= 0.0) return 0.0;
  const Volts a = offset();
  const double b = drift();
  const Volts c = v0 - a;
  const Seconds time_constant = tau();
  const double s = elapsed;
  const double e1 = -std::expm1(-s / time_constant);        // 1 - e^{-s/tau}
  const double e2 = -std::expm1(-2.0 * s / time_constant);  // 1 - e^{-2s/tau}
  // integral of t e^{-t/tau} over [0, s].
  const double t_exp = time_constant * time_constant * e1 -
                       time_constant * s * std::exp(-s / time_constant);
  // integral of (a + b t + c e^{-t/tau})^2 over [0, s].
  const double sq_integral = a * a * s + a * b * s * s +
                             b * b * s * s * s / 3.0 +
                             2.0 * c * (a * time_constant * e1 + b * t_exp) +
                             c * c * 0.5 * time_constant * e2;
  return std::max(sq_integral / bleed, 0.0);
}

SupplyNode::SupplyNode(Farads capacitance, Volts v_initial)
    : capacitance_(capacitance), voltage_(v_initial) {
  EDC_CHECK(capacitance > 0.0, "capacitance must be positive");
  EDC_CHECK(v_initial >= 0.0, "initial voltage must be non-negative");
}

SupplyNode::StepEnergy SupplyNode::step(Seconds t, Seconds dt,
                                        const SupplyDriver& driver, const Load& load,
                                        int substeps) {
  return integrate(t, dt, driver, substeps, -kForever,
                   [&](Seconds t_sub) { return load.current_draw(voltage_, t_sub); });
}

SupplyNode::StepEnergy SupplyNode::step(Seconds t, Seconds dt,
                                        const SupplyDriver& driver, Amps i_load,
                                        int substeps, Seconds quiet_until) {
  return integrate(t, dt, driver, substeps, quiet_until,
                   [i_load](Seconds) { return i_load; });
}

template <class LoadDraw>
SupplyNode::StepEnergy SupplyNode::integrate(Seconds t, Seconds dt,
                                             const SupplyDriver& driver, int substeps,
                                             Seconds quiet_until, LoadDraw i_out_at) {
  EDC_CHECK(dt > 0.0, "dt must be positive");
  EDC_CHECK(substeps >= 1, "need at least one substep");
  StepEnergy energy;
  const Seconds h = dt / static_cast<double>(substeps);
  for (int i = 0; i < substeps; ++i) {
    const Seconds t_sub = t + h * static_cast<double>(i);
    // Inside the caller's floor-0 quiet window the driver provably injects
    // nothing at any node voltage (SupplyDriver::quiescent_until), so the
    // sample it would return is exactly 0 and need not be asked for.
    const Amps i_in = t_sub < quiet_until ? 0.0 : driver.current_into(voltage_, t_sub);
    const Amps i_out = i_out_at(t_sub);
    const Amps i_bleed = bleed_ > 0.0 ? voltage_ / bleed_ : 0.0;
    EDC_ASSERT(i_in >= 0.0 && i_out >= 0.0);
    Volts v_next = voltage_ + (i_in - i_out - i_bleed) / capacitance_ * h;
    v_next = std::max(v_next, 0.0);  // node cannot go below ground
    // Energy delivered/drawn during the substep, evaluated at the mean
    // voltage so the ledger balances with the 0.5*C*V^2 stored energy.
    const Volts v_mid = 0.5 * (voltage_ + v_next);
    energy.harvested += i_in * v_mid * h;
    energy.consumed += i_out * v_mid * h;
    energy.dissipated += i_bleed * v_mid * h;
    voltage_ = v_next;
  }
  return energy;
}

void SupplyNode::step_lanes(Seconds t, Seconds dt, const SupplyDriver& driver,
                            int substeps, const SoaLanes& lanes) {
  EDC_CHECK(dt > 0.0, "dt must be positive");
  EDC_CHECK(substeps >= 1, "need at least one substep");
  const std::size_t n = lanes.count;
  double* v = lanes.v;
  const double* cap = lanes.capacitance;
  const double* bleed = lanes.bleed;
  const double* i_load = lanes.i_load;
  double* harvested = lanes.harvested;
  double* consumed = lanes.consumed;
  double* dissipated = lanes.dissipated;
  for (std::size_t l = 0; l < n; ++l) {
    harvested[l] = 0.0;
    consumed[l] = 0.0;
    dissipated[l] = 0.0;
  }

  const Seconds h = dt / static_cast<double>(substeps);
  // One substep over all lanes with the injected current supplied by
  // `i_in_of(v_lane)`. The body is the scalar step() substep verbatim —
  // same expression structure, same evaluation order — so each lane's
  // trajectory and energy split match the scalar path bit-for-bit. Each
  // lane is a pure element-wise recurrence, so the loop vectorizes.
  const auto run_lanes = [&](auto i_in_of) {
#pragma omp simd
    for (std::size_t l = 0; l < n; ++l) {
      const double v_lane = v[l];
      const double i_in = i_in_of(v_lane);
      const double i_out = i_load[l];
      const double i_bleed = bleed[l] > 0.0 ? v_lane / bleed[l] : 0.0;
      double v_next = v_lane + (i_in - i_out - i_bleed) / cap[l] * h;
      v_next = std::max(v_next, 0.0);  // node cannot go below ground
      const double v_mid = 0.5 * (v_lane + v_next);
      harvested[l] += i_in * v_mid * h;
      consumed[l] += i_out * v_mid * h;
      dissipated[l] += i_bleed * v_mid * h;
      v[l] = v_next;
    }
  };
  for (int i = 0; i < substeps; ++i) {
    const Seconds t_sub = t + h * static_cast<double>(i);
    // One shared source evaluation per substep instant, broadcast across
    // the lanes via the reconstruction contract on DriverSample.
    const DriverSample sample = driver.batch_sample(t_sub);
    switch (sample.kind) {
      case DriverSample::Kind::quiet:
        run_lanes([](double) { return 0.0; });
        break;
      case DriverSample::Kind::rectified:
        run_lanes([v_open = sample.v_open, r = sample.r_series](double v_lane) {
          return v_open <= v_lane ? 0.0 : (v_open - v_lane) / r;
        });
        break;
      case DriverSample::Kind::harvester:
        run_lanes([p = sample.power, v_ceiling = sample.v_ceiling,
                   i_max = sample.i_max, v_floor = sample.v_floor](double v_lane) {
          if (v_lane >= v_ceiling) return 0.0;
          if (p <= 0.0) return 0.0;
          const double v_eff = std::max(v_lane, v_floor);
          return std::min(p / v_eff, i_max);
        });
        break;
      case DriverSample::Kind::none:
        EDC_CHECK(false, "step_lanes needs a batchable driver");
    }
  }
}

void SupplyNode::set_bleed(Ohms bleed_resistance) {
  EDC_CHECK(bleed_resistance >= 0.0, "bleed resistance must be non-negative");
  bleed_ = bleed_resistance;
}

void SupplyNode::set_voltage(Volts v) {
  EDC_CHECK(v >= 0.0, "voltage must be non-negative");
  voltage_ = v;
}

DecaySolution SupplyNode::decay_from(Volts v0, Amps load) const {
  EDC_CHECK(v0 >= 0.0, "decay start voltage must be non-negative");
  EDC_CHECK(load >= 0.0, "load current must be non-negative");
  return DecaySolution{capacitance_, bleed_, load, v0};
}

ChargeSolution SupplyNode::charge_from(Volts v0, Volts v_source, Ohms r_series,
                                       Amps load) const {
  EDC_CHECK(v0 >= 0.0, "charge start voltage must be non-negative");
  EDC_CHECK(r_series > 0.0, "series resistance must be positive");
  EDC_CHECK(load >= 0.0, "load current must be non-negative");
  return ChargeSolution{capacitance_, v_source, r_series, bleed_, load, v0};
}

LinearRampSolution SupplyNode::ramp_from(Volts v0, Volts v_source0,
                                         double slope, Ohms r_series,
                                         Amps load) const {
  EDC_CHECK(v0 >= 0.0, "ramp start voltage must be non-negative");
  EDC_CHECK(r_series > 0.0, "series resistance must be positive");
  EDC_CHECK(load >= 0.0, "load current must be non-negative");
  return LinearRampSolution{capacitance_, v_source0, slope,
                            r_series,     bleed_,    load, v0};
}

}  // namespace edc::circuit
