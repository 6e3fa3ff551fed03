#include "edc/sim/lane_core.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "edc/trace/waveform.h"

namespace edc::sim {

LaneCore::LaneCore(const SimConfig& config, circuit::SupplyNode& node,
                   const circuit::SupplyDriver& driver, mcu::Mcu& mcu,
                   mcu::FrequencyGovernor* governor)
    : config_(config),
      node_(&node),
      driver_(&driver),
      mcu_(&mcu),
      governor_(governor),
      engine_(config, node, driver, mcu),
      engine_enabled_(engine_.enabled()),
      probing_(config.probe_interval > 0.0),
      v_prev_(node.voltage()),
      last_state_(mcu.state()),
      quiet_until_(-std::numeric_limits<Seconds>::infinity()) {
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

void LaneCore::refresh_quiet_window() {
  if (t_ < quiet_until_ || step_ < quiet_retry_step_) return;
  const Seconds until = driver_->quiescent_until(0.0, t_);
  if (!(until > t_)) {
    quiet_retry_step_ = step_ + kQuietRetrySteps;
    return;
  }
  quiet_until_ = until;
  const Seconds dt = config_.dt;
  if (until > config_.t_end + 2.0 * dt) {
    // Covers every step that starts before t_end (max_steps caps spans
    // there), including a permanently dead source's infinite hint.
    quiet_end_step_ = std::numeric_limits<std::uint64_t>::max();
    return;
  }
  // A whole step is inside when its last substep instant, computed as the
  // fine step computes it, lies before `until`. The estimate is exact up
  // to rounding; the walks settle it on the lattice.
  const Seconds last_substep =
      dt / static_cast<double>(config_.node_substeps) *
      static_cast<double>(config_.node_substeps - 1);
  const auto inside = [&](std::uint64_t k) {
    return dt * static_cast<double>(k) + last_substep < until;
  };
  std::uint64_t end = step_ + static_cast<std::uint64_t>(std::floor((until - t_) / dt));
  while (end > step_ && !inside(end - 1)) --end;
  while (inside(end)) ++end;
  quiet_end_step_ = end;
}

void LaneCore::replay_probes(const QuiescentSpan& span) {
  // A sample lands on every skipped step whose start is at or past the
  // deadline, carrying the end-of-step analytic voltage. The step is found
  // on the lattice the fine path checks (dt * step >= next_probe_), so a
  // replayed sample lands on the very step a fine run would take it.
  const Seconds dt = config_.dt;
  const double freq_mhz = mcu_->frequency() / 1e6;
  const auto state_channel = static_cast<double>(mcu_->state());
  const std::uint64_t n = span.steps;
  const auto due = [&](std::uint64_t k) {
    return dt * static_cast<double>(step_ + k) >= next_probe_;
  };
  std::uint64_t k_min = 0;
  while (true) {
    // Estimate the first due step, then settle it on the lattice.
    const double guess = std::ceil((next_probe_ - t_) / dt);
    std::uint64_t k = k_min;
    if (guess > static_cast<double>(k_min)) {
      k = guess >= static_cast<double>(n) ? n : static_cast<std::uint64_t>(guess);
    }
    while (k > k_min && due(k - 1)) --k;
    while (k < n && !due(k)) ++k;
    if (k >= n) break;
    const Volts v_probe = span.voltage_at((static_cast<double>(k) + 1.0) * dt);
    probe_vcc_.push_back(v_probe);
    probe_freq_.push_back(freq_mhz);
    probe_state_.push_back(state_channel);
    probe_power_.push_back(span.draw * v_probe * 1e3);
    next_probe_ += config_.probe_interval;
    k_min = k + 1;
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
