#include "edc/sim/lane_core.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "edc/trace/waveform.h"

namespace edc::sim {

LaneCore::LaneCore(const SimConfig& config, circuit::SupplyNode& node,
                   const circuit::SupplyDriver& driver, mcu::Mcu& mcu,
                   mcu::FrequencyGovernor* governor)
    : config_(config),
      node_(&node),
      mcu_(&mcu),
      governor_(governor),
      engine_(config, node, driver, mcu),
      engine_enabled_(engine_.enabled()),
      probing_(config.probe_interval > 0.0),
      v_prev_(node.voltage()),
      last_state_(mcu.state()) {
  EDC_CHECK(config.dt > 0.0, "dt must be positive");
  EDC_CHECK(config.t_end > 0.0, "t_end must be positive");
  EDC_CHECK(config.node_substeps >= 1, "need at least one substep");
  result_.stored_initial = node.stored_energy();
  if (probing_) {
    // At most one sample is taken per step, so the sample count is bounded
    // by the step count even when probe_interval < dt.
    const auto capacity = static_cast<std::size_t>(std::min(
                              config.t_end / config.probe_interval, config.t_end / config.dt)) +
                          2;
    probe_vcc_.reserve(capacity);
    probe_freq_.reserve(capacity);
    probe_state_.reserve(capacity);
    probe_power_.reserve(capacity);
  }
}

void LaneCore::replay_probes(const QuiescentSpan& span) {
  // A sample lands on every skipped step whose start is at or past the
  // deadline, carrying the end-of-step analytic voltage.
  const Seconds dt = config_.dt;
  const double freq_mhz = mcu_->frequency() / 1e6;
  const auto state_channel = static_cast<double>(mcu_->state());
  double k_min = 0.0;
  while (true) {
    double k = std::ceil((next_probe_ - t_) / dt);
    if (k < k_min) k = k_min;
    if (k >= static_cast<double>(span.steps)) break;
    const Volts v_probe = span.voltage_at((k + 1.0) * dt);
    probe_vcc_.push_back(v_probe);
    probe_freq_.push_back(freq_mhz);
    probe_state_.push_back(state_channel);
    probe_power_.push_back(span.draw * v_probe * 1e3);
    next_probe_ += config_.probe_interval;
    k_min = k + 1.0;
  }
}

void LaneCore::finish() {
  running_ = false;
  result_.end_time = t_;
  if (probing_ && probe_vcc_.size() >= 2) {
    // Samples are end-of-step values: the k-th sample was captured at the
    // end of the step that began at k * probe_interval, so the waveforms
    // start at t = dt, not t = 0.
    const Seconds t0 = config_.dt;
    const Seconds interval = config_.probe_interval;
    result_.probes.add("vcc", trace::Waveform(t0, interval, std::move(probe_vcc_)));
    result_.probes.add("freq_mhz", trace::Waveform(t0, interval, std::move(probe_freq_)));
    result_.probes.add("state", trace::Waveform(t0, interval, std::move(probe_state_)));
    result_.probes.add("power_mw", trace::Waveform(t0, interval, std::move(probe_power_)));
  }
  result_.stored_final = node_->stored_energy();
  result_.mcu = mcu_->metrics();
  result_.nvm_torn_writes = mcu_->nvm().torn_writes();
  result_.nvm_commits = mcu_->nvm().commits();
}

SimResult LaneCore::take_result() {
  EDC_ASSERT(!running_);
  return std::move(result_);
}

}  // namespace edc::sim
