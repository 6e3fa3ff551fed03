// paper_reference and survey_fast: the point set of one workload run as
// repeated passes through sweep::Runner, timed per pass.
//
// A pass is one Runner::run of every generated point (nothing is cached in
// these workloads, so every pass simulates everything). Before each pass
// the set-up is repeated and timed: generate the specs from the seed, build
// the grid and validate every spec by instantiating it. Spreading the
// set-up repetitions over the whole run, rather than timing them all at
// process start, keeps setup_s from reading one moment of host load.
//
// An untimed warm-up pass first fills caches and gives every point's cost;
// the timed passes run the points costliest first (longest-processing-time
// order), so a pass's wall time does not depend on when its longest point
// happens to be picked up by the pool. Per-point RunReport micros are the
// request latencies; the throughput is the median over the passes.
#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_map>

#include "edc/core/system.h"
#include "edc/sweep/batch.h"
#include "edc/sweep/runner.h"
#include "layer_probes.h"
#include "scenarios.h"
#include "tracing.h"
#include "workload.h"

namespace perfbench {

namespace sweep = edc::sweep;
using edc::sim::SimResult;

namespace {

constexpr int kBatchLanes = 16;  // RunnerOptions::batch_lanes default

struct Pass {
  double wall = 0.0;  ///< Runner::run
  bool traced = false;
  sweep::RunReport report;
  StepMix mix;
};

/// Grouped lanes per lane slot of the batch kernel: points that share a
/// batch_group_key with at least one other point run as lanes; each group
/// is chunked into kernels of kBatchLanes slots.
double batch_lane_fill(const std::vector<NamedSpec>& points) {
  std::unordered_map<std::string, std::size_t> groups;
  for (const NamedSpec& point : points) {
    if (const auto key = sweep::batch_group_key(point.spec)) ++groups[*key];
  }
  double lanes = 0.0, slots = 0.0;
  for (const auto& [key, size] : groups) {
    if (size < 2) continue;
    lanes += static_cast<double>(size);
    slots += static_cast<double>((size + kBatchLanes - 1) / kBatchLanes * kBatchLanes);
  }
  return slots > 0.0 ? lanes / slots : 0.0;
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// One set-up repetition: generate the workload, build its grid and
/// validate every spec by instantiating it.
struct Setup {
  std::vector<NamedSpec> points;
  double seconds = 0.0;
  double instantiate_us = 0.0;  ///< per point
};

Setup set_up(std::uint64_t seed, bool survey) {
  Setup out;
  const tracing::Span span("bench.setup");
  const auto start = Clock::now();
  out.points = survey ? survey_fast_points(seed) : paper_reference_points(seed);
  const sweep::Grid grid = point_grid(out.points);
  const auto inst_start = Clock::now();
  {
    const tracing::Span inst_span("spec.instantiate");
    for (std::size_t i = 0; i < grid.size(); ++i) {
      auto system = edc::spec::instantiate(grid.point(i).spec);
    }
  }
  out.instantiate_us =
      seconds_since(inst_start) * 1e6 / static_cast<double>(out.points.size());
  out.seconds = seconds_since(start);
  return out;
}

/// Point indices, costliest first by a pass's per-point micros.
std::vector<std::size_t> costliest_first(const sweep::RunReport& report) {
  std::vector<std::size_t> order(report.micros.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return report.micros[a] > report.micros[b];
  });
  return order;
}

template <typename T>
std::vector<T> permuted(const std::vector<T>& values, const std::vector<std::size_t>& order) {
  std::vector<T> out;
  out.reserve(order.size());
  for (const std::size_t i : order) out.push_back(values[i]);
  return out;
}

}  // namespace

Outcome run_sim_workload(const Options& options, bool survey) {
  Outcome out;

  sweep::RunnerOptions runner_options;
  runner_options.threads = options.threads;
  runner_options.batch = survey;
  const sweep::Runner runner(runner_options);

  // ---- warm-up: one set-up and one untimed pass in generation order. Its
  // rows are the reference every timed pass must reproduce; its per-point
  // costs fix the order of the timed passes.
  std::vector<double> setup_times, instantiate_us;
  Setup first = set_up(options.seed, survey);
  setup_times.push_back(first.seconds);
  instantiate_us.push_back(first.instantiate_us);
  sweep::RunReport warmup_report;
  const std::vector<SimResult> warmup_rows = runner.run(point_grid(first.points), &warmup_report);
  const std::vector<std::size_t> order = costliest_first(warmup_report);
  const std::vector<NamedSpec> points = permuted(first.points, order);
  const std::vector<SimResult> first_rows = permuted(warmup_rows, order);
  const double lane_fill = survey ? batch_lane_fill(points) : 0.0;
  std::vector<std::string> first_stats;
  for (std::size_t i = 0; i < points.size(); ++i) {
    ++out.attempted;
    first_stats.push_back(statistics_text(first_rows[i]));
    if (const std::string bad = ledger_violation(first_rows[i]); !bad.empty()) {
      out.fail(points[i].family + "/" + points[i].label + ": " + bad);
    }
  }

  // ---- measured passes, each after a timed set-up repetition.
  std::vector<Pass> passes;
  const auto measure_start = Clock::now();
  while (passes.size() < 4 || seconds_since(measure_start) < options.seconds) {
    Pass pass;
    // The traced run alternates untraced and traced passes; the difference
    // of their mean wall times is the tracing overhead.
    pass.traced = options.trace && passes.size() % 2 == 1;
    tracing::set_thread_active(pass.traced);
    const Setup setup = set_up(options.seed, survey);
    setup_times.push_back(setup.seconds);
    instantiate_us.push_back(setup.instantiate_us);
    const sweep::Grid grid = point_grid(permuted(setup.points, order));
    std::vector<SimResult> rows;
    {
      const tracing::Span span("sweep.runner.run");
      const auto start = Clock::now();
      rows = runner.run(grid, &pass.report);
      pass.wall = seconds_since(start);
    }
    tracing::set_thread_active(false);

    for (std::size_t i = 0; i < rows.size(); ++i) {
      ++out.attempted;
      pass.mix.add(rows[i]);
      // Every pass must reproduce the warm-up pass's statistics exactly.
      if (statistics_text(rows[i]) != first_stats[i]) {
        out.fail(points[i].family + "/" + points[i].label + ": pass " +
                 std::to_string(passes.size() + 1) + " differs from the warm-up pass");
      }
    }
    passes.push_back(std::move(pass));
  }

  // ---- survey checks: macro rows against the fine reference of the same
  // points, and a seeded sample of batch rows against scalar rows.
  double macro_err = 0.0;
  if (survey) {
    std::vector<NamedSpec> fine_points = points;
    for (NamedSpec& point : fine_points) point.spec.sim.macro_stepping = false;
    sweep::RunnerOptions fine_options;
    fine_options.threads = options.threads;
    const auto fine_rows = sweep::Runner(fine_options).run(point_grid(fine_points));
    for (std::size_t i = 0; i < points.size(); ++i) {
      ++out.attempted;
      const std::string bad =
          macro_violation(first_rows[i], fine_rows[i], points[i].spec.sim.dt, macro_err);
      if (!bad.empty()) out.fail(points[i].family + "/" + points[i].label + " macro: " + bad);
    }

    Rng rng(options.seed ^ 0x6261746368ULL);
    std::vector<NamedSpec> sample;
    std::vector<std::size_t> sample_index;
    for (int k = 0; k < 6; ++k) {
      const std::size_t i = rng.below(points.size());
      sample.push_back(points[i]);
      sample_index.push_back(i);
    }
    sweep::RunnerOptions scalar_options;
    scalar_options.threads = options.threads;
    const auto scalar_rows = sweep::Runner(scalar_options).run(point_grid(sample));
    for (std::size_t k = 0; k < sample.size(); ++k) {
      ++out.attempted;
      if (statistics_text(scalar_rows[k]) != first_stats[sample_index[k]]) {
        out.fail(sample[k].family + "/" + sample[k].label + ": batch row differs from scalar");
      }
    }
  }

  // ---- end-to-end metrics (untraced passes only).
  std::vector<double> latencies_ms, busy, straggler;
  std::vector<double> run_ms, traced_walls, untraced_walls, rates;
  const int threads = runner.thread_count(points.size());
  for (const Pass& pass : passes) {
    (pass.traced ? traced_walls : untraced_walls).push_back(pass.wall);
    if (pass.traced) continue;
    rates.push_back(pass.mix.end_time / pass.wall);
    double micros_total = 0.0;
    for (const double us : pass.report.micros) {
      latencies_ms.push_back(us * 1e-3);
      micros_total += us;
    }
    run_ms.push_back(micros_total * 1e-3);
    busy.push_back(micros_total * 1e-6 / (pass.wall * threads));
    const double med = median(pass.report.micros);
    const double max = *std::max_element(pass.report.micros.begin(), pass.report.micros.end());
    straggler.push_back(med > 0.0 ? max / med : 0.0);
  }
  Metrics& e = out.end_to_end;
  e["setup_s"] = {median(setup_times), "s"};
  e["sim_s_per_host_s"] = {median(rates), "s/s"};
  e["request_p50_ms"] = {quantile(latencies_ms, 0.5), "ms"};
  e["request_p99_ms"] = {quantile(latencies_ms, 0.99), "ms"};
  if (survey) e["macro_err_pct"] = {macro_err * 100.0, "%"};
  {
    std::ostringstream line;
    line << "pass wall s: min " << quantile(untraced_walls, 0.0) << ", q1 "
         << quantile(untraced_walls, 0.25) << ", median " << median(untraced_walls) << ", q3 "
         << quantile(untraced_walls, 0.75) << ", max " << quantile(untraced_walls, 1.0);
    out.notes.push_back(line.str());
  }
  out.notes.push_back("request latency = per-point host time over " +
                      std::to_string(latencies_ms.size()) + " points (" +
                      std::to_string(untraced_walls.size()) + " untraced passes x " +
                      std::to_string(points.size()) + " points, " + std::to_string(threads) +
                      " threads)");

  // ---- per-layer metrics.
  Metrics& l = out.layers;
  const StepMix& mix = passes.front().mix;
  const double sim_ms = median(run_ms);
  l["spec.instantiate_us"] = {median(instantiate_us), "us"};
  l["sim.run_ms"] = {sim_ms, "ms"};
  l["sim.fine_steps"] = {static_cast<double>(mix.fine), "count"};
  l["sim.span_steps"] = {static_cast<double>(mix.span_steps), "count"};
  l["sim.spans"] = {static_cast<double>(mix.spans), "count"};
  l["sim.steps_per_span"] = {
      mix.spans > 0 ? static_cast<double>(mix.span_steps) / static_cast<double>(mix.spans) : 0.0,
      "count"};
  l["sim.span_fraction"] = {
      static_cast<double>(mix.span_steps) / static_cast<double>(mix.fine + mix.span_steps),
      "ratio"};
  l["sim.ns_per_fine_step"] = {mix.fine > 0 ? sim_ms * 1e6 / static_cast<double>(mix.fine) : 0.0,
                               "ns"};
  l["sim.batch.lane_fill"] = {lane_fill, "ratio"};
  l["sweep.runner.busy_frac"] = {median(busy), "ratio"};
  l["sweep.runner.straggler_ratio"] = {median(straggler), "ratio"};

  // Step mix per family: where the reference path's dead-node skip shows.
  std::map<std::string, StepMix> families;
  std::map<std::string, double> family_ms;  // warm-up pass host time
  for (std::size_t i = 0; i < points.size(); ++i) {
    families[points[i].family].add(first_rows[i]);
    family_ms[points[i].family] += warmup_report.micros[order[i]] * 1e-3;
  }
  StepMix dead;
  for (const auto& [family, fam] : families) {
    std::ostringstream line;
    line << "step mix " << family << ": fine " << fam.fine << ", span_steps " << fam.span_steps
         << ", spans " << fam.spans << ", steps/span "
         << (fam.spans > 0 ? static_cast<double>(fam.span_steps) / fam.spans : 0.0)
         << ", warm-up host ms " << family_ms[family];
    out.notes.push_back(line.str());
    if (family == "rf_idle" || family == "brownout_tail") {
      dead.fine += fam.fine;
      dead.span_steps += fam.span_steps;
      dead.spans += fam.spans;
    }
  }
  l["sim.dead_skip.steps_per_span"] = {
      dead.spans > 0 ? static_cast<double>(dead.span_steps) / static_cast<double>(dead.spans)
                     : 0.0,
      "count"};

  if (options.trace) {
    // Layer probes: one representative spec per family, weighted by that
    // family's step counts in the first pass.
    LayerEstimate estimate;
    std::map<std::string, LayerCosts> costs;
    for (std::size_t i = 0; i < points.size(); ++i) {
      auto it = costs.find(points[i].family);
      if (it == costs.end()) {
        it = costs.emplace(points[i].family, probe_layers(points[i].spec)).first;
      }
      estimate.add(it->second, first_rows[i], points[i].spec.sim.node_substeps,
                   points[i].spec.sim.dt);
    }
    estimate.report(l);  // over one pass
    const double traced = mean(traced_walls);
    const double untraced = mean(untraced_walls);
    l["trace.overhead_pct"] = {untraced > 0.0 ? (traced / untraced - 1.0) * 100.0 : 0.0, "%"};
    const auto spans = tracing::collect();
    const auto self = tracing::self_time_ms(spans);
    const double traced_passes = static_cast<double>(traced_walls.size());
    for (const char* name : {"bench.setup", "sweep.runner.run"}) {
      const auto it = self.find(name);
      l[std::string("self.") + name + "_ms"] = {
          it == self.end() || traced_passes == 0 ? 0.0 : it->second / traced_passes, "ms"};
    }
    if (!tracing::write_chrome_trace(options.trace_path, spans)) {
      out.notes.push_back("could not write trace to " + options.trace_path);
    }
  }
  return out;
}

}  // namespace perfbench
