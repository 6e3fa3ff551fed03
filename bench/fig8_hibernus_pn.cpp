// Fig 8 — Power-neutral operation: a microcontroller dynamically adapts its
// core frequency (DFS) to modulate its power consumption in response to the
// half-wave rectified output of a micro wind turbine [14].
//
// Runs the same system twice — fixed-frequency hibernus vs hibernus-PN
// (hibernus + the DFS governor) — on one wind gust. Plots V_CC and the
// selected frequency, and checks the Fig 8 claims: the frequency gracefully
// rises and falls with the harvested power, and around the gust peak the
// system rides through the AC troughs without hibernating (the paper's
// 0.4-1.1 s window).
//
// --macro reruns both configurations with quiescent-engine macro-stepping
// (SimConfig::macro_stepping), reports the wall-clock speedup and the
// macro-vs-fine deltas, and then validates the *macro* results against the
// Fig 8 shape checks — the governed leg of the accuracy contract
// (BENCH_7.json tracks the same pair as BM_MacroPair/Fig8Wind_*). It also
// runs the *wind survey*: the same design point riding the turbine's
// native multi-gust schedule (one gust every ~10 s) for 30 s — the Fig
// 8-class regime where the stochastic source used to publish no quiet
// hints at all and macro-stepping sat at ~1.0x. The wind source's
// quiet-segment index (built per seed over the gust schedule) claims the
// inter-gust gaps, the stalled stretches and the sub-conduction arcs, and
// the survey speedup is gated so the index can never silently regress
// (BM_MacroPair/Fig8WindSurvey_* records the same pair).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>

#include "common_flags.h"
#include "edc/core/system.h"
#include "edc/sim/ascii_plot.h"
#include "edc/sim/result_io.h"
#include "edc/sim/table.h"
#include "edc/spec/system_spec.h"
#include "edc/workloads/crc32.h"
#include "fig8_scenarios.h"
#include "macro_survey.h"

using namespace edc;

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++g_failures;
}

sim::SimResult run_once(bool with_governor, trace::TraceSet* probes_out,
                        bool macro = false, double* wall_ms = nullptr) {
  // bench/fig8_scenarios.h: the governed leg is the exact scenario
  // BM_MacroPair/Fig8Wind_* records in BENCH_7.json.
  spec::SystemSpec s =
      with_governor ? fig8::governed_figure_spec() : fig8::figure_spec();
  s.sim.macro_stepping = macro;
  auto system = spec::instantiate(s);
  const auto start = std::chrono::steady_clock::now();
  auto result = system.run();
  if (wall_ms != nullptr) {
    *wall_ms = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  }
  if (probes_out != nullptr) *probes_out = std::move(result.probes);
  return result;
}

/// Longest interval (s) with no off/sleep period, from the state probe.
Seconds longest_uninterrupted_run(const trace::Waveform& state) {
  Seconds best = 0.0, current = 0.0;
  for (std::size_t i = 0; i < state.size(); ++i) {
    const auto s = static_cast<mcu::McuState>(static_cast<int>(state.samples()[i]));
    if (s == mcu::McuState::active || s == mcu::McuState::saving ||
        s == mcu::McuState::restoring) {
      current += state.dt();
      best = std::max(best, current);
    } else {
      current = 0.0;
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bool macro = false;
  bool batch = false;
  bench::FlagParser flags;
  flags.on("--macro", [&] { macro = true; }).on("--batch", [&] { batch = true; });
  if (!flags.parse(argc, argv)) return 2;

  std::printf("=== Fig 8: hibernus-PN on a micro wind turbine ===\n\n");

  if (batch) {
    // Batched-sweep survey: the Fig 8 design point across 16 node
    // capacitances on one seeded gust (bench/fig8_scenarios.h — the exact
    // grid BM_BatchPair/Fig8Wind_* records in BENCH_7.json), scalar
    // runner vs the SoA batch kernel, single worker thread in both legs.
    // The WindSource spec serializes, so the whole grid is one batch
    // group and the turbine EMF is evaluated once per substep for all 16
    // lanes; rows must stay bit-identical by the kernel's contract.
    const sweep::Grid grid = fig8::batch_survey_grid();
    std::vector<sim::SimResult> scalar_rows, batch_rows;
    const double scalar_ms =
        macro_survey::sweep_wall_millis(grid, scalar_rows, false, /*repeats=*/2);
    const double batch_ms =
        macro_survey::sweep_wall_millis(grid, batch_rows, true, /*repeats=*/5);
    const double speedup = scalar_ms / batch_ms;
    std::printf("batched-sweep survey (16-lane capacitance grid, wind gust): "
                "%.1f ms batch vs %.1f ms scalar (%.2fx)\n",
                batch_ms, scalar_ms, speedup);
    bool identical = scalar_rows.size() == batch_rows.size();
    for (std::size_t i = 0; identical && i < scalar_rows.size(); ++i) {
      identical = sim::serialize_result(scalar_rows[i]) ==
                  sim::serialize_result(batch_rows[i]);
    }
    check(identical, "batch rows are bit-identical to the scalar rows");
    // An uncontended Release build measures 2.3-2.9x here (BENCH_7.json) —
    // the wind harvester's power model is the expensive per-substep
    // evaluation, and the batch path prices it once per substep instead
    // of once per lane. The scalar leg no longer evaluates it inside the
    // turbine's quiet windows (the lane's cached window; the batch kernel
    // keeps sampling), which took this ratio down from ~3.5x. The hard
    // gate sits at 1.6x, as on the Fig 7 survey, so shared-runner noise
    // has headroom while a regression to scalar-equivalent (~1x) still
    // fails loudly.
    check(speedup >= 1.6,
          "batched-sweep speedup is in the >=2.3x class "
          "(hard gate at 1.6x for contended-runner headroom)");
    std::printf("\n");
  }

  trace::TraceSet pn_probes;
  double pn_ms = 0.0, fixed_ms = 0.0;
  const auto pn = run_once(true, &pn_probes, macro, &pn_ms);
  const auto fixed = run_once(false, nullptr, macro, &fixed_ms);

  if (macro) {
    // Fine-path reference pair for the speedup and accuracy deltas (the
    // shape checks below then validate the macro results).
    double pn_fine_ms = 0.0, fixed_fine_ms = 0.0;
    const auto pn_fine = run_once(true, nullptr, false, &pn_fine_ms);
    const auto fixed_fine = run_once(false, nullptr, false, &fixed_fine_ms);
    std::printf("macro-stepping: hibernus-PN %.1f ms vs %.1f ms fine (%.1fx), "
                "fixed-f %.1f ms vs %.1f ms fine (%.1fx)\n",
                pn_ms, pn_fine_ms, pn_fine_ms / pn_ms, fixed_ms, fixed_fine_ms,
                fixed_fine_ms / fixed_ms);
    std::printf("deltas (PN): harvested %+.3g J, consumed %+.3g J, "
                "saves %+lld, outages %+lld\n",
                pn.harvested - pn_fine.harvested, pn.consumed - pn_fine.consumed,
                static_cast<long long>(pn.mcu.saves_completed) -
                    static_cast<long long>(pn_fine.mcu.saves_completed),
                static_cast<long long>(pn.mcu.brownouts) -
                    static_cast<long long>(pn_fine.mcu.brownouts));

    // Wind survey: the turbine's native multi-gust schedule over 30 s —
    // the Fig 8-class regime that sat at ~1.0x while the wind source
    // published no quiet hints. The quiet-segment index claims inter-gust
    // gaps, stalled stretches and sub-conduction arcs.
    sim::SimResult survey_macro, survey_fine;
    // bench/macro_survey.h owns the best-of-N timing loop; the survey is
    // the exact scenario BM_MacroPair/Fig8WindSurvey_* records in
    // BENCH_7.json (bench/fig8_scenarios.h).
    const double survey_macro_ms = macro_survey::wall_millis(
        fig8::wind_survey_spec(), survey_macro, true, /*repeats=*/3);
    const double survey_fine_ms = macro_survey::wall_millis(
        fig8::wind_survey_spec(), survey_fine, false, /*repeats=*/2);
    const double survey_speedup = survey_fine_ms / survey_macro_ms;
    std::printf("wind survey (multi-gust, 30 s horizon): %.1f ms vs %.1f ms "
                "fine (%.1fx, %.1f%% of steps analytic); deltas: harvested "
                "%+.3g J, consumed %+.3g J\n\n",
                survey_macro_ms, survey_fine_ms, survey_speedup,
                100.0 * macro_survey::span_coverage(survey_macro),
                survey_macro.harvested - survey_fine.harvested,
                survey_macro.consumed - survey_fine.consumed);
    // An uncontended Release build measures 5-6.5x here (BENCH_7.json): the
    // certified piecewise-linear chain (ramp spans + chord-certified dark
    // windows) claims the gust arcs the quiet-index cells alone could not,
    // on top of the inter-gust gaps. The fine leg is the default reference
    // path, which no longer samples the turbine inside its quiet windows
    // and runs ~2x faster than when this gate read ~12x. Measured on the
    // same machine, the constant-window-only class (ramp_spans = false)
    // now reads 1.3-1.7x, so the 3x gate fails it — let alone the
    // hint-less class — by ~2x, with ~2x headroom for shared-runner noise.
    check(survey_speedup >= 3.0,
          "wind-survey macro speedup is in the >=5x class "
          "(hard gate at 3x: constant-window-only ~1.5x must fail)");
    check(survey_macro.mcu.boots == survey_fine.mcu.boots &&
              survey_macro.mcu.brownouts == survey_fine.mcu.brownouts &&
              survey_macro.mcu.saves_completed == survey_fine.mcu.saves_completed &&
              survey_macro.transitions.size() == survey_fine.transitions.size(),
          "wind-survey event sequence matches the fine path");
  }

  const auto* vcc = pn_probes.find("vcc");
  const auto* freq = pn_probes.find("freq_mhz");
  if (vcc != nullptr) {
    sim::PlotOptions options;
    options.title = "V_CC from the rectified micro wind turbine (hibernus-PN)";
    options.y_label = "V_CC (V)";
    options.width = 110;
    options.height = 14;
    sim::plot(std::cout, "vcc", *vcc, options);
  }
  if (freq != nullptr) {
    sim::PlotOptions options;
    options.title = "DFS-selected core frequency tracking the harvested power";
    options.y_label = "frequency (MHz)";
    options.width = 110;
    options.height = 10;
    sim::plot(std::cout, "f", *freq, options);
  }

  sim::Table table({"configuration", "snapshots", "restores", "outages",
                    "forward Mcycles", "longest uninterrupted run"});
  const auto* pn_state = pn_probes.find("state");
  const Seconds pn_streak = pn_state != nullptr ? longest_uninterrupted_run(*pn_state) : 0.0;
  table.add_row({"hibernus-PN (DFS governor)", std::to_string(pn.mcu.saves_completed),
                 std::to_string(pn.mcu.restores), std::to_string(pn.mcu.brownouts),
                 sim::Table::num(pn.mcu.forward_cycles / 1e6, 2),
                 sim::Table::num(pn_streak, 2) + " s"});
  table.add_row({"hibernus (fixed 8 MHz)", std::to_string(fixed.mcu.saves_completed),
                 std::to_string(fixed.mcu.restores), std::to_string(fixed.mcu.brownouts),
                 sim::Table::num(fixed.mcu.forward_cycles / 1e6, 2), "-"});
  std::printf("\n");
  table.print(std::cout);

  // Frequency range exercised by the governor.
  double f_min = 1e12, f_max = 0.0;
  if (freq != nullptr) {
    for (double f : freq->samples()) {
      if (f <= 0.0) continue;
      f_min = std::min(f_min, f);
      f_max = std::max(f_max, f);
    }
  }
  std::printf("\nDFS range exercised: %.0f .. %.0f MHz\n", f_min, f_max);

  std::printf("\nShape checks vs the paper:\n");
  check(f_max > f_min, "frequency gracefully modulated up and down (DFS)");
  check(f_max >= 16.0, "upshifts to high frequency at the gust peak");
  check(f_min <= 2.0, "degrades to low frequency as the gust decays");
  check(pn_streak >= 0.4,
        "a sustained window rides through the AC troughs without interruption");
  check(pn.mcu.saves_completed <= fixed.mcu.saves_completed,
        "power-neutral operation avoids hibernate/restore overheads vs fixed-f");
  check(pn.mcu.forward_cycles > 0.8 * fixed.mcu.forward_cycles,
        "comparable or better forward progress than the fixed configuration");

  std::printf("\n%s\n", g_failures == 0 ? "ALL SHAPE CHECKS PASSED"
                                        : "SOME SHAPE CHECKS FAILED");
  return g_failures == 0 ? 0 : 1;
}
