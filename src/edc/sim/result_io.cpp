#include "edc/sim/result_io.h"

#include <array>
#include <cstddef>

#include "edc/common/canon.h"

namespace edc::sim {

namespace {

using canon::FormatError;
using canon::Rec;
using canon::Tag;

constexpr std::array<Tag<mcu::McuState>, 8> kStateTags{{
    {mcu::McuState::off, "off"},
    {mcu::McuState::boot, "boot"},
    {mcu::McuState::active, "active"},
    {mcu::McuState::saving, "saving"},
    {mcu::McuState::restoring, "restoring"},
    {mcu::McuState::sleep, "sleep"},
    {mcu::McuState::wait, "wait"},
    {mcu::McuState::done, "done"},
}};

template <typename IO>
void fields(IO& io, Rec<IO, mcu::McuMetrics> m) {
  io.field("time_off", m.time_off);
  io.field("time_boot", m.time_boot);
  io.field("time_active", m.time_active);
  io.field("time_saving", m.time_saving);
  io.field("time_restoring", m.time_restoring);
  io.field("time_sleep", m.time_sleep);
  io.field("time_wait", m.time_wait);
  io.field("time_done", m.time_done);
  io.field("cycles_active", m.cycles_active);
  io.field("forward_cycles", m.forward_cycles);
  io.field("reexecuted_cycles", m.reexecuted_cycles);
  io.field("poll_cycles", m.poll_cycles);
  io.field("boots", m.boots);
  io.field("brownouts", m.brownouts);
  io.field("saves_started", m.saves_started);
  io.field("saves_completed", m.saves_completed);
  io.field("restores", m.restores);
  io.field("direct_resumes", m.direct_resumes);
  io.field("peripheral_reinits", m.peripheral_reinits);
  io.field("energy_active", m.energy_active);
  io.field("energy_save", m.energy_save);
  io.field("energy_restore", m.energy_restore);
  io.field("energy_sleep", m.energy_sleep);
  io.field("energy_other", m.energy_other);
  io.field("completed", m.completed);
  io.field("completion_time", m.completion_time);
}

template <typename IO>
void fields(IO& io, Rec<IO, StateChange> change) {
  canon::begin_valued(io, "at", change.time);
  canon::enumeration(io, "from", change.from, kStateTags);
  canon::enumeration(io, "to", change.to, kStateTags);
  io.field("vcc", change.vcc);
  io.end();
}

template <typename IO>
void fields(IO& io, Rec<IO, SimResult> result) {
  io.field("end_time", result.end_time);
  io.field("harvested", result.harvested);
  io.field("consumed", result.consumed);
  io.field("dissipated", result.dissipated);
  io.field("stored_initial", result.stored_initial);
  io.field("stored_final", result.stored_final);
  io.field("nvm_torn_writes", result.nvm_torn_writes);
  io.field("nvm_commits", result.nvm_commits);
  io.field("fine_steps", result.fine_steps);
  io.field("span_steps", result.span_steps);
  io.field("spans", result.spans);

  io.begin("mcu");
  fields(io, result.mcu);
  io.end();

  canon::list(io, "transitions", result.transitions,
              [&io](auto& change) { fields(io, change); });

  // TraceSet keeps names and waves side by side; one `probe` block each.
  auto& probes = result.probes;
  const std::size_t n = canon::begin_count(io, "probes", probes.names.size());
  if constexpr (IO::kReads) {
    probes.names.assign(n, {});
    probes.waves.assign(n, {});
  }
  for (std::size_t i = 0; i < n; ++i) {
    io.begin("probe");
    io.field("name", probes.names[i]);
    canon::waveform(io, probes.waves[i]);
    io.end();
  }
  io.end();
}

}  // namespace

std::string serialize_result(const SimResult& result) {
  canon::Writer w;
  w.begin("edc.SimResult", canon::version_tag(kResultFormatVersion));
  fields(w, result);
  w.end();
  return w.take();
}

SimResult parse_result(const std::string& text) {
  canon::Reader r(text);
  const std::string_view version = r.begin_tagged("edc.SimResult");
  if (version != canon::version_tag(kResultFormatVersion)) {
    throw FormatError("unsupported result format version: '" +
                      std::string(version) + "'");
  }
  SimResult result;
  fields(r, result);
  r.end();
  r.finish();
  return result;
}

// ---- fleets ----------------------------------------------------------------

std::string serialize_fleet_result(const FleetResult& result) {
  std::string out = "edc.FleetResult v" +
                    std::to_string(kFleetResultFormatVersion) + '\n';
  out += "nodes " + std::to_string(result.nodes.size()) + '\n';
  for (const SimResult& node : result.nodes) {
    canon::append_block(out, "node_bytes", serialize_result(node));
  }
  return out;
}

FleetResult parse_fleet_result(const std::string& text) {
  canon::StringSource in(text);
  const auto magic = in.read_line();
  if (!magic || *magic != "edc.FleetResult v" + std::to_string(kFleetResultFormatVersion)) {
    throw FormatError("unsupported fleet result header");
  }
  const std::uint64_t node_count = canon::parse_u64(canon::line_value(in.read_line(), "nodes"));
  if (node_count > in.remaining()) {
    throw FormatError("fleet result node count exceeds its bytes");
  }
  FleetResult result;
  result.nodes.reserve(static_cast<std::size_t>(node_count));
  for (std::uint64_t i = 0; i < node_count; ++i) {
    result.nodes.push_back(parse_result(canon::read_block(in, "node_bytes")));
  }
  if (!in.exhausted()) {
    throw FormatError("fleet result has trailing bytes after the last node");
  }
  return result;
}

}  // namespace edc::sim
