// The three benchmark workloads and what one run of them reports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "edc/sim/simulator.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 4;             ///< min(4, nproc)
  std::string work_dir;        ///< scratch space (caches), inside the checkout
  std::string trace_path;      ///< where the traced run writes its spans
};

/// What a run measured and checked.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< the first few, for the log
  Metrics end_to_end;
  Metrics layers;
  std::vector<std::string> notes;     ///< human-readable detail lines

  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }
};

/// paper_reference (macro off, scalar) and survey_fast (macro on, batched).
[[nodiscard]] Outcome run_sim_workload(const Options& options, bool survey);

/// design_service: cold/warm design queries, then a closed request loop
/// against an in-process serve::Service sharing the cache.
[[nodiscard]] Outcome run_design_service(const Options& options);

// ---- output checks (checks.cpp) -------------------------------------------

/// Canonical result text with the step-mix diagnostics (fine_steps,
/// span_steps, spans) cleared: the simulated statistics a bit-exact
/// speed-up must leave unchanged.
[[nodiscard]] std::string statistics_text(const edc::sim::SimResult& row);

/// Empty when the row's energy ledger closes within the bound the
/// library's own tests use; else the reason.
[[nodiscard]] std::string ledger_violation(const edc::sim::SimResult& row);

/// The macro path's 1 % / sub-ms agreement contract against the fine
/// reference of the same point. `max_rel` receives the largest relative
/// ledger-energy deviation (harvested / consumed / dissipated). Empty when
/// the contract holds; else the reason.
[[nodiscard]] std::string macro_violation(const edc::sim::SimResult& macro,
                                          const edc::sim::SimResult& fine,
                                          edc::Seconds dt, double& max_rel);

/// Fine-step / span counters summed over rows.
struct StepMix {
  double end_time = 0.0;
  std::uint64_t fine = 0, span_steps = 0, spans = 0;
  void add(const edc::sim::SimResult& row) {
    end_time += row.end_time;
    fine += row.fine_steps;
    span_steps += row.span_steps;
    spans += row.spans;
  }
};

}  // namespace perfbench
