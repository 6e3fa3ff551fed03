// edc_perfbench — the repository's end-to-end and per-layer benchmark.
//
//   edc_perfbench --workload paper_reference|survey_fast|design_service
//                 --seed N --seconds S --trace 0|1
//                 [--work-dir DIR] [--trace-dir DIR]
//   edc_perfbench --list-metrics
//
// Prints a human-readable report, then a `RESULT {...}` line holding every
// metric plus the machine description (what perfbench/report.py collects
// into result sets), and as the last line the JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. See README.md.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "workload.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The bounded end-to-end metrics (BENCHMARK.json "end_to_end"): every
/// workload reports each of them.
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"sim_s_per_host_s", "s/s"},
    {"request_p50_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

/// End-to-end metrics that are printed and kept in result sets but not
/// bounded: the tail latency (too noisy on a shared host for the largest
/// bound the format allows, see README.md), metrics that belong to one
/// workload only, a simulated statistic and a failure count that is 0 at
/// a correct commit.
const std::vector<MetricDef> kPrinted = {
    {"request_p99_ms", "ms"}, {"query_cold_s", "s"},    {"query_warm_s", "s"},
    {"requests_per_s", "1/s"}, {"macro_err_pct", "%"}, {"failed_frac", "ratio"},
};

/// The per-layer metrics (BENCHMARK.json "per_layer"). A layer a workload
/// never calls reports 0.
const std::vector<MetricDef> kPerLayer = {
    {"spec.instantiate_us", "us"},
    {"spec.serialize_us", "us"},
    {"spec.parse_us", "us"},
    {"spec.hash_us", "us"},
    {"sim.run_ms", "ms"},
    {"sim.fine_steps", "count"},
    {"sim.span_steps", "count"},
    {"sim.spans", "count"},
    {"sim.steps_per_span", "count"},
    {"sim.span_fraction", "ratio"},
    {"sim.ns_per_fine_step", "ns"},
    {"sim.dead_skip.steps_per_span", "count"},
    {"sim.batch.lane_fill", "ratio"},
    {"sim.result_serialize_us", "us"},
    {"sim.result_parse_us", "us"},
    {"trace.sample_ns", "ns"},
    {"trace.hint_ns", "ns"},
    {"circuit.driver_ns", "ns"},
    {"circuit.node_step_ns", "ns"},
    {"mcu.step_ns", "ns"},
    {"workloads.tick_ns", "ns"},
    {"sim.plan_ns", "ns"},
    {"trace.sample_ms", "ms"},
    {"circuit.driver_ms", "ms"},
    {"circuit.node_step_ms", "ms"},
    {"mcu.step_ms", "ms"},
    {"workloads.tick_ms", "ms"},
    {"sim.plan_ms", "ms"},
    {"sweep.runner.busy_frac", "ratio"},
    {"sweep.runner.straggler_ratio", "ratio"},
    {"sweep.cache.hits", "count"},
    {"sweep.cache.misses", "count"},
    {"sweep.cache.stores", "count"},
    {"sweep.cache.hit_ratio", "ratio"},
    {"sweep.cache.load_us", "us"},
    {"sweep.cache.store_us", "us"},
    {"sweep.search.probes", "count"},
    {"sweep.search.simulated", "count"},
    {"sweep.search.contract_ms", "ms"},
    {"serve.protocol.encode_us", "us"},
    {"serve.protocol.decode_us", "us"},
    {"serve.warm_hits", "count"},
    {"serve.simulated", "count"},
    {"serve.merged", "count"},
    {"serve.retries", "count"},
    {"serve.requeued", "count"},
    {"serve.busy", "count"},
    {"serve.warm_request_simulated", "count"},
    {"serve.warm_share", "ratio"},
    {"serve.transport_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"self.bench.setup_ms", "ms"},
    {"self.sweep.runner.run_ms", "ms"},
    {"self.sweep.search_ms", "ms"},
    {"self.bench.request_ms", "ms"},
    {"self.serve.call_ms", "ms"},
    {"self.spec.serialize_ms", "ms"},
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload paper_reference|survey_fast|design_service --seed N\n"
               "          --seconds S --trace 0|1 [--work-dir DIR] [--trace-dir DIR]\n",
               argv0);
  return 2;
}

/// The listed metrics as a JSON object. A per-layer metric the workload
/// did not produce is a layer it never calls and reads 0; a missing
/// end-to-end metric is a defect of the benchmark and throws.
std::string metrics_json(const std::vector<MetricDef>& defs, const Metrics& values,
                         bool missing_is_zero) {
  std::string out = "{";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = values.find(defs[i].name);
    if (it == values.end() && !missing_is_zero) {
      throw std::logic_error(std::string("end-to-end metric ") + defs[i].name +
                             " was not produced");
    }
    const double value = it == values.end() ? 0.0 : it->second.value;
    out += (i == 0 ? "" : ", ") + json_quote(defs[i].name) + ": {\"value\": " +
           json_number(value) + ", \"unit\": " + json_quote(defs[i].unit) + "}";
  }
  return out + "}";
}

/// `--list-metrics`: the metric catalogue, one "<kind> <name> <unit>" line
/// each, which run.py checks against BENCHMARK.json before every run.
int list_metrics() {
  for (const MetricDef& def : kEndToEnd) std::printf("end_to_end %s %s\n", def.name, def.unit);
  for (const MetricDef& def : kPerLayer) std::printf("per_layer %s %s\n", def.name, def.unit);
  return 0;
}

void print_metric(const char* name, const char* unit, const Metrics& values) {
  const auto it = values.find(name);
  if (it == values.end()) {
    std::printf("  %-32s n/a\n", name);
  } else {
    std::printf("  %-32s %.6g %s\n", name, it->second.value, unit);
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string trace_dir = ".bench_build/traces";
  options.work_dir = ".bench_build/work";
  bool have_seed = false, have_seconds = false, have_trace = false;
  if (argc == 2 && std::strcmp(argv[1], "--list-metrics") == 0) return list_metrics();
  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* value = nullptr;
    if (std::strcmp(argv[i], "--workload") == 0 && (value = next())) {
      options.workload = value;
    } else if (std::strcmp(argv[i], "--seed") == 0 && (value = next())) {
      options.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (std::strcmp(argv[i], "--seconds") == 0 && (value = next())) {
      options.seconds = std::atof(value);
      have_seconds = options.seconds > 0.0;
    } else if (std::strcmp(argv[i], "--trace") == 0 && (value = next())) {
      options.trace = std::strcmp(value, "1") == 0;
      have_trace = options.trace || std::strcmp(value, "0") == 0;
    } else if (std::strcmp(argv[i], "--work-dir") == 0 && (value = next())) {
      options.work_dir = value;
    } else if (std::strcmp(argv[i], "--trace-dir") == 0 && (value = next())) {
      trace_dir = value;
    } else {
      return usage(argv[0]);
    }
  }
  const bool sim_workload =
      options.workload == "paper_reference" || options.workload == "survey_fast";
  if (!(sim_workload || options.workload == "design_service") || !have_seed ||
      !have_seconds || !have_trace) {
    return usage(argv[0]);
  }

  const Machine machine = measure_machine();
  options.threads = static_cast<int>(std::min(4u, machine.nproc));
  std::filesystem::create_directories(options.work_dir);
  if (options.trace) {
    std::filesystem::create_directories(trace_dir);
    options.trace_path = trace_dir + "/" + options.workload + "-seed" +
                         std::to_string(options.seed) + ".trace.json";
  }

  Outcome outcome;
  try {
    outcome = sim_workload ? run_sim_workload(options, options.workload == "survey_fast")
                           : run_design_service(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(), error.what());
    return 1;
  }
  outcome.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  const double failed_frac = static_cast<double>(outcome.failed) /
                             static_cast<double>(std::max<std::uint64_t>(outcome.attempted, 1));
  outcome.end_to_end["failed_frac"] = {failed_frac, "ratio"};

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d threads=%d\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0, options.threads);
  std::printf("machine: calib_ns=%.4f nproc=%u mhz=%.0f cpu=\"%s\"\n", machine.calib_ns,
              machine.nproc, machine.mhz, machine.cpu.c_str());
  std::printf("end-to-end:\n");
  for (const MetricDef& def : kEndToEnd) print_metric(def.name, def.unit, outcome.end_to_end);
  std::printf("end-to-end, not bounded:\n");
  for (const MetricDef& def : kPrinted) print_metric(def.name, def.unit, outcome.end_to_end);
  std::printf("  (%llu failed of %llu attempted)\n",
              static_cast<unsigned long long>(outcome.failed),
              static_cast<unsigned long long>(outcome.attempted));
  if (options.trace) {
    std::printf("per-layer:\n");
    for (const MetricDef& def : kPerLayer) print_metric(def.name, def.unit, outcome.layers);
    std::printf("trace: %s\n", options.trace_path.c_str());
  }
  for (const std::string& note : outcome.notes) std::printf("note: %s\n", note.c_str());
  for (const std::string& failure : outcome.failures) {
    std::printf("FAILED: %s\n", failure.c_str());
  }

  // Everything, for result sets: every metric this run produced.
  Metrics all = outcome.end_to_end;
  if (options.trace) {
    for (const MetricDef& def : kPerLayer) {
      const auto it = outcome.layers.find(def.name);
      all[def.name] = {it == outcome.layers.end() ? 0.0 : it->second.value, def.unit};
    }
  }
  std::string all_json = "{";
  for (const auto& [name, metric] : all) {
    all_json += (all_json.size() > 1 ? ", " : "") + json_quote(name) + ": {\"value\": " +
                json_number(metric.value) + ", \"unit\": " + json_quote(metric.unit) + "}";
  }
  all_json += "}";
  std::printf(
      "RESULT {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
      "\"machine\": {\"calib_ns\": %s, \"nproc\": %u, \"mhz\": %s, \"cpu\": %s}, "
      "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
      json_quote(options.workload).c_str(), static_cast<unsigned long long>(options.seed),
      json_number(options.seconds).c_str(), options.trace ? 1 : 0,
      json_number(machine.calib_ns).c_str(), machine.nproc, json_number(machine.mhz).c_str(),
      json_quote(machine.cpu).c_str(), outcome.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(outcome.attempted),
      static_cast<unsigned long long>(outcome.failed), all_json.c_str());

  std::string result;
  try {
    for (const auto& [name, metric] : outcome.layers) {
      const bool listed = std::any_of(kPerLayer.begin(), kPerLayer.end(),
                                      [&](const MetricDef& def) { return name == def.name; });
      if (!listed) throw std::logic_error("per-layer metric " + name + " is not in the catalogue");
    }
    result = options.trace ? metrics_json(kPerLayer, outcome.layers, true)
                           : metrics_json(kEndToEnd, outcome.end_to_end, false);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              outcome.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed), result.c_str());
  std::fflush(stdout);
  return 0;
}
