// The traced run's layer-probe phase: a workload's own specs replayed
// through the lower layers' public functions, timed per call.
//
// The simulator loop is opaque from outside the library, so per-layer
// host time inside EnergyDrivenSystem::run is estimated: per-call cost of
// each layer (measured here on the workload's specs) times the number of
// calls the SimResult step counts imply. The layers nest the way the loop
// calls them: a node step calls the driver once per substep, the driver
// samples the source, and an MCU step runs program ticks.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "edc/sim/simulator.h"
#include "edc/spec/system_spec.h"

namespace perfbench {

/// Per-call costs on one spec (ns), plus the mean program cycles per tick.
struct LayerCosts {
  double sample_ns = 0.0;     ///< source open_circuit_voltage / available_power
  double hint_ns = 0.0;       ///< source linear_until / dormant_until
  double driver_ns = 0.0;     ///< SupplyDriver::current_into
  double node_step_ns = 0.0;  ///< SupplyNode::step (all substeps)
  double mcu_step_ns = 0.0;   ///< Mcu::supply_update + advance, powered
  double tick_ns = 0.0;       ///< Program::run_tick
  double plan_ns = 0.0;       ///< QuiescentEngine::plan
  double cycles_per_tick = 1.0;
};

[[nodiscard]] LayerCosts probe_layers(const edc::spec::SystemSpec& spec);

/// Accumulates per-family costs weighted by the family's simulated step
/// counts, into per-layer metrics: `<layer>_ns` (count-weighted mean per
/// call) and `<layer>_ms` (estimated host ms over the rows added).
class LayerEstimate {
 public:
  void add(const LayerCosts& costs, const edc::sim::SimResult& row, int substeps,
           double dt);
  void report(Metrics& out) const;

 private:
  struct Sum {
    double ns = 0.0;     ///< sum of ns x calls
    double calls = 0.0;
  };
  std::map<std::string, Sum> sums_;
};

}  // namespace perfbench
