// Batched SoA fine-step kernel: advance many independent simulations
// ("lanes") in lockstep on a shared dt lattice.
//
// The sweep runner groups grid points whose source/front-end/lattice axes
// agree structurally (sweep/batch.h); each group becomes one BatchKernel.
// Every lane is a sim::LaneCore — the same per-lane stepping core
// Simulator::run drives — so span booking and the whole post-step sequence
// (supply events, MCU advance, governor, transitions, probes, termination)
// have one definition. The kernel adds only what is batch-specific: per
// step it gathers the fine-stepping lanes' node state into contiguous
// structure-of-arrays blocks, advances the node ODE for all of them with
// one shared source evaluation per substep instant
// (circuit::SupplyNode::step_lanes — the vectorizable inner loop), and
// scatters the results back into each lane's end_step. Each lane's
// SimResult is therefore bit-identical to Simulator::run() on the same
// system — the contract tests/batch_diff_test.cpp holds across every
// source and policy family.
//
// Lanes diverge: the quiescent engine jumps one lane over a span while its
// neighbours fine-step, and lanes finish at different times (t_end and
// stop_on_completion are per-lane). The kernel handles both by lockstep
// compaction: each round it advances only the lanes at the *minimum*
// lattice step; span-jumped lanes simply wait (masked out) until the rest
// catch up, and finished lanes drop out of the working set. A lane whose
// planner keeps it permanently ahead costs nothing but its plan() calls.
#pragma once

#include <cstdint>
#include <vector>

#include "edc/circuit/supply_driver.h"
#include "edc/circuit/supply_node.h"
#include "edc/common/units.h"
#include "edc/mcu/hooks.h"
#include "edc/mcu/mcu.h"
#include "edc/sim/lane_core.h"
#include "edc/sim/simulator.h"

namespace edc::sim {

/// One lane of a batch: the wired parts of a single system, non-owning (the
/// caller keeps the systems alive — sweep::run_lockstep_unit holds the
/// instantiated core::EnergyDrivenSystem per lane). All lanes of one kernel
/// must share dt, node_substeps, and a structurally identical batchable
/// driver (the grouping contract enforced by sweep::batch_group_key);
/// everything else — capacitance, bleed, policy, workload, t_end, probes,
/// governor, macro flags — may differ per lane.
struct BatchLane {
  SimConfig config;
  circuit::SupplyNode* node = nullptr;
  const circuit::SupplyDriver* driver = nullptr;
  mcu::Mcu* mcu = nullptr;
  mcu::FrequencyGovernor* governor = nullptr;  ///< optional
};

class BatchKernel {
 public:
  /// Validates the lockstep preconditions (>= 1 lane with all required
  /// parts; shared dt and node_substeps; a batchable driver) and builds one
  /// LaneCore per lane, which validates each lane's own lattice. Throws
  /// std::invalid_argument on any violation. The pointed-to parts must
  /// outlive the kernel.
  explicit BatchKernel(std::vector<BatchLane> lanes);

  /// Runs every lane to its own horizon and returns one SimResult per lane,
  /// in lane order. Single-shot: run() may be called once.
  std::vector<SimResult> run();

 private:
  std::vector<BatchLane> lanes_;
  std::vector<LaneCore> cores_;  ///< cores_[i] steps lanes_[i]
};

}  // namespace edc::sim
