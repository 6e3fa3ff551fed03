// Tests for the simulation loop, probes, tables and plots (edc/sim).
#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "edc/core/system.h"
#include "edc/sim/ascii_plot.h"
#include "edc/sim/result_io.h"
#include "edc/sim/table.h"
#include "edc/spec/system_spec.h"
#include "edc/trace/csv.h"
#include "edc/workloads/crc32.h"

namespace edc::sim {
namespace {

core::EnergyDrivenSystem make_system(Seconds probe_interval = 0.0) {
  core::SystemBuilder builder;
  builder
      .voltage_source(
          std::make_unique<trace::SquareVoltageSource>(3.3, 10.0, 0.3, 0.0, 50.0))
      .capacitance(22e-6)
      .bleed(10000.0)
      .program(std::make_unique<workloads::Crc32Program>(64 * 1024, 3))
      .policy_hibernus();
  if (probe_interval > 0.0) builder.probe(probe_interval);
  return builder.build();
}

TEST(Simulator, EnergyLedgerResidualIsTiny) {
  auto system = make_system();
  const auto result = system.run(5.0);
  ASSERT_TRUE(result.mcu.completed);
  EXPECT_GT(result.harvested, 0.0);
  EXPECT_GT(result.consumed, 0.0);
  EXPECT_LT(std::abs(result.ledger_residual()), 1e-6 + 1e-6 * result.harvested);
}

TEST(Simulator, ProbesRecordedWhenRequested) {
  auto system = make_system(1e-3);
  const auto result = system.run(5.0);
  ASSERT_NE(result.probes.find("vcc"), nullptr);
  ASSERT_NE(result.probes.find("freq_mhz"), nullptr);
  ASSERT_NE(result.probes.find("state"), nullptr);
  ASSERT_NE(result.probes.find("power_mw"), nullptr);
  const auto* vcc = result.probes.find("vcc");
  EXPECT_GT(vcc->size(), 100u);
  EXPECT_GE(vcc->min(), 0.0);
  EXPECT_LT(vcc->max(), 3.5);
}

TEST(Simulator, NoProbesByDefault) {
  auto system = make_system();
  const auto result = system.run(5.0);
  EXPECT_EQ(result.probes.find("vcc"), nullptr);
}

TEST(Simulator, ProbeTimeBaseMatchesSampleInstants) {
  // Probe samples are end-of-step values — the first one is captured at the
  // end of the step that began at t = 0 — so the waveform must start at
  // t = dt, not t = 0 (the historical off-by-one skewed every trace by one
  // step).
  auto system = make_system(1e-3);
  const auto result = system.run(5.0);
  const auto* vcc = result.probes.find("vcc");
  ASSERT_NE(vcc, nullptr);
  const Seconds dt = sim::SimConfig{}.dt;  // make_system keeps the default dt
  EXPECT_DOUBLE_EQ(vcc->t0(), dt);
  EXPECT_DOUBLE_EQ(result.probes.find("state")->t0(), dt);
}

TEST(Simulator, QuiescentFastPathIsBitExact) {
  // A duty-cycled RF field leaves long spans with the node clamped at 0 V
  // and the MCU off — exactly what the fast path skips. The skipped steps
  // must not change a single bit of the outcome.
  auto run_with_fast_path = [](bool enabled) {
    core::SystemBuilder builder;
    sim::SimConfig config;
    config.t_end = 4.0;
    config.quiescent_fast_path = enabled;
    trace::RfFieldSource::Params rf;
    rf.field_power = 2e-3;
    rf.burst_length = 0.5;
    rf.burst_period = 2.0;
    builder.power_source(std::make_unique<trace::RfFieldSource>(rf, 11, 4.0))
        .capacitance(22e-6)
        .bleed(5000.0)
        .workload("crc", 3)
        .policy_hibernus()
        .sim_config(config)
        .probe(1e-3);
    auto system = builder.build();
    return system.run(4.0);
  };
  const auto fast = run_with_fast_path(true);
  const auto slow = run_with_fast_path(false);
  EXPECT_EQ(fast.end_time, slow.end_time);
  EXPECT_EQ(fast.harvested, slow.harvested);
  EXPECT_EQ(fast.consumed, slow.consumed);
  EXPECT_EQ(fast.dissipated, slow.dissipated);
  EXPECT_EQ(fast.stored_final, slow.stored_final);
  EXPECT_EQ(fast.mcu.completed, slow.mcu.completed);
  EXPECT_EQ(fast.mcu.completion_time, slow.mcu.completion_time);
  EXPECT_EQ(fast.mcu.boots, slow.mcu.boots);
  EXPECT_EQ(fast.mcu.brownouts, slow.mcu.brownouts);
  EXPECT_EQ(fast.mcu.saves_completed, slow.mcu.saves_completed);
  EXPECT_EQ(fast.mcu.energy_total(), slow.mcu.energy_total());
  EXPECT_EQ(fast.mcu.time_off, slow.mcu.time_off);
  EXPECT_EQ(fast.transitions.size(), slow.transitions.size());
  const auto* fast_vcc = fast.probes.find("vcc");
  const auto* slow_vcc = slow.probes.find("vcc");
  ASSERT_NE(fast_vcc, nullptr);
  ASSERT_NE(slow_vcc, nullptr);
  ASSERT_EQ(fast_vcc->size(), slow_vcc->size());
  EXPECT_EQ(fast_vcc->samples(), slow_vcc->samples());
}

// ---- the lane's cached driver quiet window --------------------------------

/// Wraps a driver, recording every current_into instant and every floor-0
/// quiet window it hands out. With hints off it claims nothing, like the
/// SupplyDriver default, so the loop must sample every substep.
class SpyDriver final : public circuit::SupplyDriver {
 public:
  SpyDriver(const circuit::SupplyDriver& inner, bool hints) : inner_(&inner), hints_(hints) {}

  [[nodiscard]] Amps current_into(Volts v_node, Seconds t) const override {
    calls.push_back(t);
    return inner_->current_into(v_node, t);
  }
  [[nodiscard]] Seconds quiescent_until(Volts v_floor, Seconds t) const override {
    if (!hints_) return t;
    const Seconds until = inner_->quiescent_until(v_floor, t);
    if (v_floor == 0.0 && until > t) windows.emplace_back(t, until);
    return until;
  }
  [[nodiscard]] std::string name() const override { return "spy"; }

  mutable std::vector<Seconds> calls;
  mutable std::vector<std::pair<Seconds, Seconds>> windows;

 private:
  const circuit::SupplyDriver* inner_;
  bool hints_;
};

struct SpiedRun {
  SimResult result;
  std::vector<Seconds> calls;
  std::vector<std::pair<Seconds, Seconds>> windows;
};

/// Runs `s` with its own driver seen through a SpyDriver.
SpiedRun run_spied(const spec::SystemSpec& s, bool hints) {
  auto system = spec::instantiate(s);
  SpyDriver spy(system.driver(), hints);
  Simulator simulator(system.sim_config(), system.node(), spy, system.mcu());
  if (system.governor() != nullptr) simulator.set_governor(system.governor());
  SpiedRun run{simulator.run(), std::move(spy.calls), std::move(spy.windows)};
  return run;
}

std::string without_step_mix(SimResult result) {
  result.fine_steps = 0;
  result.span_steps = 0;
  result.spans = 0;
  return serialize_result(result);
}

/// Driver samples taken at instants some handed-out window covered.
std::size_t calls_inside_windows(const SpiedRun& run) {
  std::size_t inside = 0;
  for (const Seconds t : run.calls) {
    // Windows are asked for at increasing instants and never overlap, so
    // the last one starting at or before t is the only candidate.
    const auto after = std::upper_bound(
        run.windows.begin(), run.windows.end(), t,
        [](Seconds value, const std::pair<Seconds, Seconds>& w) { return value < w.first; });
    if (after != run.windows.begin() && t < std::prev(after)->second) ++inside;
  }
  return inside;
}

TEST(Simulator, QuietWindowSkipsDriverSamplesBitExactly) {
  std::vector<double> v_samples, p_samples;
  for (int i = 0; i <= 60; ++i) {
    v_samples.push_back(i % 20 < 7 ? 3.3 : 0.0);
    p_samples.push_back(i % 16 < 5 ? 3e-3 : 0.0);
  }
  trace::RfFieldSource::Params rf;
  rf.field_power = 2e-3;
  rf.burst_length = 0.1;
  rf.burst_period = 0.4;
  const std::vector<std::pair<std::string, spec::SourceSpec>> sources = {
      {"sine", spec::SineSource{3.3, 4.0, 0.0, 50.0}},
      {"square", spec::SquareSource{3.3, 5.0, 0.3, 0.0, 50.0}},
      {"rf", spec::RfFieldPower{rf, 11, 1.2}},
      {"voltage-trace",
       spec::VoltageTraceSource{trace::Waveform(0.0, 0.02, v_samples), 50.0, "trace"}},
      {"power-trace", spec::PowerTraceSource{trace::Waveform(0.0, 0.02, p_samples), "ptrace"}},
  };
  for (const auto& [name, source] : sources) {
    SCOPED_TRACE(name);
    spec::SystemSpec s;
    s.source = source;
    s.storage.capacitance = 22e-6;
    s.storage.bleed = 5000.0;
    s.workload.kind = "crc";
    s.sim.t_end = 1.2;
    s.sim.stop_on_completion = false;
    s.sim.probe_interval = 1e-3;
    const SpiedRun hinted = run_spied(s, true);
    const SpiedRun sampled = run_spied(s, false);
    EXPECT_EQ(without_step_mix(hinted.result), without_step_mix(sampled.result));
    EXPECT_FALSE(hinted.windows.empty());
    EXPECT_EQ(calls_inside_windows(hinted), 0u);
    EXPECT_LT(hinted.calls.size(), sampled.calls.size());
    EXPECT_EQ(hinted.result.fine_steps + hinted.result.span_steps,
              sampled.result.fine_steps + sampled.result.span_steps);
  }
}

TEST(Simulator, InfiniteHintSpansTheWholeDeadHorizon) {
  // NullDriver's hint is +infinity: from a dead node the lane books one
  // span up to t_end, or up to each governor deadline, and replays the
  // probes the fine path would have taken.
  for (const bool governed : {false, true}) {
    SCOPED_TRACE(governed ? "governed" : "plain");
    spec::SystemSpec s;
    s.source = spec::DcSource{3.3, 50.0};  // replaced by the NullDriver below
    s.storage.capacitance = 22e-6;
    s.workload.kind = "crc";
    s.sim.t_end = 0.5;
    s.sim.probe_interval = 1e-3;
    if (governed) s.governor.emplace();
    const auto run = [&](bool fast_path) {
      spec::SystemSpec variant = s;
      variant.sim.quiescent_fast_path = fast_path;
      auto system = spec::instantiate(variant);
      const circuit::NullDriver dead;
      Simulator simulator(system.sim_config(), system.node(), dead, system.mcu());
      if (system.governor() != nullptr) simulator.set_governor(system.governor());
      return simulator.run();
    };
    const SimResult fast = run(true);
    const SimResult fine = run(false);
    EXPECT_EQ(without_step_mix(fast), without_step_mix(fine));
    EXPECT_EQ(fast.span_steps + fast.fine_steps, fine.fine_steps);
    ASSERT_NE(fast.probes.find("vcc"), nullptr);
    EXPECT_EQ(fast.probes.find("vcc")->size(), fine.probes.find("vcc")->size());
    if (!governed) {
      EXPECT_EQ(fast.spans, 1u);
      EXPECT_EQ(fast.fine_steps, 0u);
    } else {
      // Every governor deadline is processed on a fine step; the span
      // between two deadlines is one span.
      EXPECT_GT(fast.fine_steps, 1u);
      EXPECT_EQ(fast.spans, fast.fine_steps);
    }
  }
}

/// Quiet (hint and samples) before `quiet_until`; silent but hint-less up
/// to `on_at`; then a 1 mA source. Records every current_into instant.
class MidStepWindowDriver final : public circuit::SupplyDriver {
 public:
  MidStepWindowDriver(Seconds quiet_until, Seconds on_at, bool hints)
      : quiet_until_(quiet_until), on_at_(on_at), hints_(hints) {}

  [[nodiscard]] Amps current_into(Volts v_node, Seconds t) const override {
    calls.push_back(t);
    return t >= on_at_ && v_node < 3.0 ? 1e-3 : 0.0;
  }
  [[nodiscard]] Seconds quiescent_until(Volts, Seconds t) const override {
    return hints_ && t < quiet_until_ ? quiet_until_ : t;
  }
  [[nodiscard]] std::string name() const override { return "mid-step"; }

  mutable std::vector<Seconds> calls;

 private:
  Seconds quiet_until_, on_at_;
  bool hints_;
};

TEST(Simulator, QuietWindowEndingMidStepFallsBackToSampling) {
  spec::SystemSpec s;
  s.source = spec::DcSource{3.3, 50.0};  // replaced by the test driver below
  s.storage.capacitance = 22e-6;
  s.workload.kind = "crc";
  s.sim.t_end = 5e-3;
  s.sim.probe_interval = 1e-4;
  const Seconds dt = s.sim.dt;
  // The window ends between the 2nd and 3rd substep of step 100.
  const Seconds until = dt * 100.0 + dt * 0.4;
  const Seconds on_at = dt * 200.0;
  const auto run = [&](bool hints, std::vector<Seconds>* calls) {
    auto system = spec::instantiate(s);
    const MidStepWindowDriver driver(until, on_at, hints);
    Simulator simulator(system.sim_config(), system.node(), driver, system.mcu());
    SimResult result = simulator.run();
    *calls = driver.calls;
    return result;
  };
  std::vector<Seconds> hinted_calls, sampled_calls;
  const SimResult hinted = run(true, &hinted_calls);
  const SimResult sampled = run(false, &sampled_calls);
  EXPECT_EQ(without_step_mix(hinted), without_step_mix(sampled));
  EXPECT_GT(hinted.fine_steps, 0u);  // the source did come on
  // Steps 0-99 are one span; step 100 samples only its substeps past the
  // window; steps 101-199 sample every substep (no hint), one span each.
  EXPECT_EQ(hinted.span_steps, 200u);
  EXPECT_EQ(hinted.spans, 101u);
  EXPECT_EQ(sampled.spans, 200u);
  std::size_t in_step_100 = 0;
  for (const Seconds t : hinted_calls) {
    EXPECT_GE(t, until);
    if (t < dt * 101.0) ++in_step_100;
  }
  EXPECT_EQ(in_step_100, 2u);
}

TEST(Simulator, TransitionsIncludeSaveAndRestore) {
  auto system = make_system();
  const auto result = system.run(5.0);
  bool saw_saving = false, saw_restoring = false, saw_off = false;
  for (const auto& change : result.transitions) {
    if (change.to == mcu::McuState::saving) saw_saving = true;
    if (change.to == mcu::McuState::restoring) saw_restoring = true;
    if (change.to == mcu::McuState::off) saw_off = true;
    EXPECT_GE(change.time, 0.0);
    EXPECT_LE(change.time, result.end_time + 1e-9);
  }
  EXPECT_TRUE(saw_saving);
  EXPECT_TRUE(saw_restoring);
  EXPECT_TRUE(saw_off);
}

TEST(Simulator, StopsOnCompletion) {
  auto system = make_system();
  const auto result = system.run(100.0);
  ASSERT_TRUE(result.mcu.completed);
  EXPECT_LT(result.end_time, 10.0);
}

TEST(Simulator, HonoursHorizonWhenIncomplete) {
  core::SystemBuilder builder;
  auto system = builder
                    .voltage_source(std::make_unique<trace::SquareVoltageSource>(
                        3.3, 20.0, 0.5, 0.0, 50.0))
                    .capacitance(22e-6)
                    .bleed(2000.0)
                    .workload("fft", 3)
                    .policy_none()  // never completes across outages
                    .build();
  const auto result = system.run(1.0);
  EXPECT_FALSE(result.mcu.completed);
  EXPECT_NEAR(result.end_time, 1.0, 1e-3);
}

TEST(Simulator, StepSizeConvergence) {
  // Halving dt should not change the outcome qualitatively: completion and
  // save counts stay stable.
  auto run_with_dt = [](Seconds dt) {
    core::SystemBuilder builder;
    sim::SimConfig config;
    config.dt = dt;
    builder
        .voltage_source(
            std::make_unique<trace::SquareVoltageSource>(3.3, 10.0, 0.3, 0.0, 50.0))
        .capacitance(22e-6)
        .bleed(10000.0)
        .program(std::make_unique<workloads::Crc32Program>(64 * 1024, 3))
        .policy_hibernus()
        .sim_config(config);
    auto system = builder.build();
    return system.run(5.0);
  };
  const auto coarse = run_with_dt(2e-5);
  const auto fine = run_with_dt(5e-6);
  ASSERT_TRUE(coarse.mcu.completed);
  ASSERT_TRUE(fine.mcu.completed);
  EXPECT_NEAR(coarse.mcu.completion_time, fine.mcu.completion_time,
              0.15 * fine.mcu.completion_time);
  EXPECT_LE(
      std::abs(static_cast<long>(coarse.mcu.saves_completed) -
               static_cast<long>(fine.mcu.saves_completed)),
      2);
}

// -------------------------------------------------------- CSV playback -----

TEST(TracePlayback, RecordedCsvTraceReproducesTheLiveRun) {
  // The workflow behind the paper's dataset DOI: record a source trace,
  // export it as CSV, load it back, and drive the same system from the
  // recorded file. The played-back run must complete with the identical
  // digest (and near-identical timing, up to trace sampling).
  const auto turbine = trace::WindTurbineSource::single_gust();
  const auto recorded = trace::Waveform::sample(
      [&](Seconds t) { return turbine.open_circuit_voltage(t); }, 0.0, 8.0, 160001);

  std::stringstream csv;
  trace::write_csv(csv, "v_oc", recorded);
  const auto loaded = trace::read_csv(csv);

  auto run_from = [](std::unique_ptr<trace::VoltageSource> source) {
    core::SystemBuilder builder;
    builder.voltage_source(std::move(source))
        .capacitance(47e-6)
        .bleed(10000.0)
        .program(std::make_unique<workloads::Crc32Program>(32 * 1024, 3))
        .policy_hibernus();
    auto system = builder.build();
    auto result = system.run(8.0);
    return std::make_pair(result.mcu.completed ? 1 : 0,
                          result.mcu.completed ? system.program().result_digest() : 0);
  };

  const auto live = run_from(std::make_unique<trace::WaveformVoltageSource>(
      recorded, 220.0, "live"));
  const auto playback = run_from(std::make_unique<trace::WaveformVoltageSource>(
      loaded, 220.0, "playback"));
  ASSERT_EQ(live.first, 1);
  ASSERT_EQ(playback.first, 1);
  EXPECT_EQ(live.second, playback.second);
}

// ----------------------------------------------------------------- Table ---

TEST(Table, FormatsAlignedColumns) {
  Table table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"bb", "22"});
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("| name  | value |"), std::string::npos);
  EXPECT_NE(text.find("| alpha | 1     |"), std::string::npos);
}

TEST(Table, RejectsArityMismatch) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, EngineeringFormat) {
  EXPECT_EQ(Table::eng(4.7e-6, "F", 1), "4.7 uF");
  EXPECT_EQ(Table::eng(2.2e3, "Hz", 1), "2.2 kHz");
  EXPECT_EQ(Table::eng(0.0, "J", 1), "0 J");
}

// ------------------------------------------------------------ AsciiPlot ----

TEST(AsciiPlot, RendersWaveform) {
  const auto wave = trace::Waveform::sample(
      [](Seconds t) { return std::sin(2 * M_PI * t); }, 0.0, 1.0, 101);
  std::ostringstream out;
  PlotOptions options;
  options.title = "test";
  options.width = 60;
  options.height = 10;
  plot(out, "sine", wave, options);
  const std::string text = out.str();
  EXPECT_NE(text.find("test"), std::string::npos);
  EXPECT_NE(text.find('*'), std::string::npos);
  // 10 data rows plus axis/legend lines.
  EXPECT_GT(std::count(text.begin(), text.end(), '\n'), 10);
}

TEST(AsciiPlot, MarkersDrawn) {
  const auto wave = trace::Waveform::sample(
      [](Seconds t) { return 2.0 + std::sin(2 * M_PI * t); }, 0.0, 1.0, 101);
  std::ostringstream out;
  PlotOptions options;
  options.width = 60;
  options.height = 12;
  plot_with_markers(out, "vcc", wave, {{2.5, "VH"}, {2.9, "VR"}}, options);
  const std::string text = out.str();
  EXPECT_NE(text.find("VH"), std::string::npos);
  EXPECT_NE(text.find("VR"), std::string::npos);
  EXPECT_NE(text.find('-'), std::string::npos);
}

}  // namespace
}  // namespace edc::sim
