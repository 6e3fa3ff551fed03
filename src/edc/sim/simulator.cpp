#include "edc/sim/simulator.h"

#include "edc/sim/lane_core.h"

namespace edc::sim {

Simulator::Simulator(const SimConfig& config, circuit::SupplyNode& node,
                     const circuit::SupplyDriver& driver, mcu::Mcu& mcu)
    : config_(config), node_(&node), driver_(&driver), mcu_(&mcu) {}

SimResult Simulator::run() {
  LaneCore lane(config_, *node_, *driver_, *mcu_, governor_);
  while (lane.running()) {
    if (!lane.begin_step()) continue;
    // The MCU's draw reads only its discrete state: one sample per step.
    const Amps i_load = mcu_->current_draw(node_->voltage(), lane.time());
    const auto energy = node_->step(lane.time(), config_.dt, *driver_, i_load,
                                    config_.node_substeps, lane.quiet_until());
    lane.end_step(energy, node_->voltage());
  }
  return lane.take_result();
}

}  // namespace edc::sim
