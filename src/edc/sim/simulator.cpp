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
    const auto energy =
        node_->step(lane.time(), config_.dt, *driver_, *mcu_, config_.node_substeps);
    lane.end_step(energy, node_->voltage());
  }
  return lane.take_result();
}

}  // namespace edc::sim
