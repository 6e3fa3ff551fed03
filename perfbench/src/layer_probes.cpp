#include "layer_probes.h"

#include <algorithm>

#include "edc/core/system.h"
#include "edc/sim/quiescent_engine.h"

namespace perfbench {

namespace spec = edc::spec;

namespace {

volatile double g_sink = 0.0;  // keeps timed results observable

/// Median-of-3 ns per call of `body(i)` over `calls` calls.
template <typename Body>
double ns_per_call(int calls, const Body& body) {
  std::vector<double> reps;
  for (int rep = 0; rep < 3; ++rep) {
    double acc = 0.0;
    const auto start = Clock::now();
    for (int i = 0; i < calls; ++i) acc += body(i);
    reps.push_back(seconds_since(start) * 1e9 / calls);
    g_sink = g_sink + acc;
  }
  return median(reps);
}

}  // namespace

LayerCosts probe_layers(const spec::SystemSpec& s) {
  LayerCosts costs;
  const double dt = s.sim.dt;
  const double horizon = s.sim.t_end;
  // Sample instants spread over the whole horizon, so trace lookups and
  // stochastic schedules are exercised everywhere, not only near t = 0.
  constexpr int kCalls = 20000;
  const double stride = horizon / kCalls;

  if (spec::is_voltage_source(s.source)) {
    const auto source = spec::make_voltage_source(s.source);
    costs.sample_ns = ns_per_call(
        kCalls, [&](int i) { return source->open_circuit_voltage(i * stride); });
    costs.hint_ns = ns_per_call(kCalls / 4, [&](int i) {
      return source->linear_until(4 * i * stride, 1e-3).until;
    });
  } else {
    const auto source = spec::make_power_source(s.source);
    costs.sample_ns =
        ns_per_call(kCalls, [&](int i) { return source->available_power(i * stride); });
    costs.hint_ns = ns_per_call(
        kCalls / 4, [&](int i) { return source->dormant_until(4 * i * stride); });
  }

  {
    auto system = spec::instantiate(s);
    const auto& driver = system.driver();
    costs.driver_ns =
        ns_per_call(kCalls, [&](int i) { return driver.current_into(1.0, i * stride); });
    edc::circuit::SupplyNode node = system.node();
    costs.node_step_ns = ns_per_call(kCalls / 4, [&](int i) {
      return node.step(i * dt, dt, driver, system.mcu(), s.sim.node_substeps).harvested;
    });
  }
  {
    // A fresh system's MCU on a steady 3 V supply: boots, then executes.
    auto system = spec::instantiate(s);
    auto& mcu = system.mcu();
    costs.mcu_step_ns = ns_per_call(kCalls / 4, [&](int i) {
      const double t = i * dt;
      mcu.supply_update(3.0, t, 3.0, t + dt);
      mcu.advance(t, dt, 3.0);
      return mcu.metrics().cycles_active;
    });
  }
  {
    auto program = spec::make_workload(s.workload);
    int ticks = 0;
    while (!program->done()) {
      program->run_tick();
      ++ticks;
    }
    costs.cycles_per_tick = program->total_cycles() / std::max(ticks, 1);
    program->reset();
    costs.tick_ns = ns_per_call(kCalls / 4, [&](int) {
      if (program->done()) program->reset();
      program->run_tick();
      return 1.0;
    });
  }
  {
    // A fresh, discharged system: MCU off at 0 V, the state the reference
    // path's dead-node skip plans from.
    auto system = spec::instantiate(s);
    const edc::sim::QuiescentEngine engine(system.sim_config(), system.node(),
                                           system.driver(), system.mcu());
    if (engine.enabled()) {
      costs.plan_ns = ns_per_call(kCalls / 4, [&](int i) {
        const auto span = engine.plan(4 * i * stride, 1000);
        return span ? static_cast<double>(span->steps) : 0.0;
      });
    }
  }
  return costs;
}

void LayerEstimate::add(const LayerCosts& costs, const edc::sim::SimResult& row,
                        int substeps, double dt) {
  const double fine = static_cast<double>(row.fine_steps);
  // The probe times plan() from the MCU-off state; the loop pays that cost
  // once per span plus once per fine step taken while the MCU is off.
  const double off_steps = row.mcu.time_off / dt;
  const double spans = static_cast<double>(row.spans);
  const double plans =
      costs.plan_ns > 0.0
          ? spans + std::max(0.0, off_steps - static_cast<double>(row.span_steps))
          : 0.0;
  const double ticks =
      (row.mcu.forward_cycles + row.mcu.reexecuted_cycles) / costs.cycles_per_tick;
  const auto book = [this](const char* layer, double ns, double calls) {
    sums_[layer].ns += ns * calls;
    sums_[layer].calls += calls;
  };
  book("trace.sample", costs.sample_ns, fine * substeps);
  book("trace.hint", costs.hint_ns, plans);
  book("circuit.driver", costs.driver_ns, fine * substeps);
  book("circuit.node_step", costs.node_step_ns, fine);
  book("mcu.step", costs.mcu_step_ns, fine);
  book("workloads.tick", costs.tick_ns, ticks);
  book("sim.plan", costs.plan_ns, plans);
}

void LayerEstimate::report(Metrics& out) const {
  for (const char* layer : {"trace.sample", "trace.hint", "circuit.driver",
                            "circuit.node_step", "mcu.step", "workloads.tick", "sim.plan"}) {
    const auto it = sums_.find(layer);
    const Sum sum = it == sums_.end() ? Sum{} : it->second;
    out[std::string(layer) + "_ns"] = {sum.calls > 0.0 ? sum.ns / sum.calls : 0.0, "ns"};
    // Hint queries happen inside plan(); their estimate is part of sim.plan.
    if (std::string(layer) != "trace.hint") {
      out[std::string(layer) + "_ms"] = {sum.ns * 1e-6, "ms"};
    }
  }
}

}  // namespace perfbench
