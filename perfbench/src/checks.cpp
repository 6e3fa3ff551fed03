#include <algorithm>
#include <cmath>
#include <sstream>

#include "edc/sim/result_io.h"
#include "workload.h"

namespace perfbench {

std::string statistics_text(const edc::sim::SimResult& row) {
  edc::sim::SimResult copy = row;
  copy.fine_steps = 0;
  copy.span_steps = 0;
  copy.spans = 0;
  return edc::sim::serialize_result(copy);
}

std::string ledger_violation(const edc::sim::SimResult& row) {
  const double residual = std::abs(row.ledger_residual());
  if (residual < 1e-6 + 1e-6 * row.harvested) return {};
  std::ostringstream out;
  out << "ledger residual " << residual << " J (harvested " << row.harvested << " J)";
  return out.str();
}

std::string macro_violation(const edc::sim::SimResult& macro, const edc::sim::SimResult& fine,
                            edc::Seconds dt, double& max_rel) {
  std::ostringstream out;
  const auto energy = [&](const char* name, double m, double f) {
    const double dev = std::abs(m - f);
    if (f != 0.0) max_rel = std::max(max_rel, dev / std::abs(f));
    if (dev > std::max(std::abs(f) * 0.01, 1e-9)) {
      out << name << " " << m << " vs fine " << f << "; ";
    }
  };
  energy("harvested", macro.harvested, fine.harvested);
  energy("consumed", macro.consumed, fine.consumed);
  energy("dissipated", macro.dissipated, fine.dissipated);

  const auto& m = macro.mcu;
  const auto& f = fine.mcu;
  if (m.boots != f.boots || m.brownouts != f.brownouts ||
      m.saves_completed != f.saves_completed || m.restores != f.restores ||
      m.completed != f.completed) {
    out << "event counts differ; ";
  }
  if (std::abs(macro.end_time - fine.end_time) > dt) out << "end time differs; ";
  if (macro.transitions.size() != fine.transitions.size()) {
    out << "transition count " << macro.transitions.size() << " vs "
        << fine.transitions.size() << "; ";
  } else {
    // Sub-millisecond: every state transition within 50 fine steps.
    for (std::size_t i = 0; i < fine.transitions.size(); ++i) {
      const auto& a = macro.transitions[i];
      const auto& b = fine.transitions[i];
      if (a.from != b.from || a.to != b.to || std::abs(a.time - b.time) > 50.0 * dt) {
        out << "transition " << i << " at " << a.time << " vs " << b.time << "; ";
        break;
      }
    }
  }
  return out.str();
}

}  // namespace perfbench
