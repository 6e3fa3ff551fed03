#include "edc/spec/serialize.h"

#include <array>
#include <cstddef>
#include <stdexcept>

namespace edc::spec {

namespace {

using canon::Reader;
using canon::Rec;
using canon::Tag;
using canon::Writer;

// ---- tag tables (read by both directions) ---------------------------------

constexpr std::array<Tag<mcu::MemoryMode>, 3> kMemoryModeTags{{
    {mcu::MemoryMode::sram_execution, "sram"},
    {mcu::MemoryMode::unified_fram, "unified_fram"},
    {mcu::MemoryMode::nv_processor, "nvp"},
}};

constexpr std::array<Tag<circuit::RectifierKind>, 2> kRectifierTags{{
    {circuit::RectifierKind::half_wave, "half_wave"},
    {circuit::RectifierKind::full_wave, "full_wave"},
}};

constexpr std::array<Tag<checkpoint::MementosPolicy::Mode>, 3> kMementosModeTags{{
    {checkpoint::MementosPolicy::Mode::loop, "loop"},
    {checkpoint::MementosPolicy::Mode::function, "function"},
    {checkpoint::MementosPolicy::Mode::timer, "timer"},
}};

// In SourceSpec / PolicySpec / CouplingSpec alternative order; opaque
// callbacks have no tag (non_cacheable_reason() keeps them out).
constexpr canon::VariantTags<SourceSpec> kSourceTags{
    "none",           "sine",         "dc",         "square",
    "wind",           "kinetic",      "voltage_trace", "",
    "constant_power", "markov_power", "rf_field",   "coupled_rf",
    "indoor_pv",      "solar",        "power_trace", ""};

constexpr canon::VariantTags<PolicySpec> kPolicyTags{
    "hibernus", "none", "hibernus_pp", "quickrecall", "nvp",
    "mementos", "burst", "adaptive_buffer", ""};

constexpr canon::VariantTags<CouplingSpec> kCouplingTags{"none", "shared_rf"};

// ---- field lists: sources -------------------------------------------------

template <typename IO>
void fields(IO&, Rec<IO, std::monostate>) {}

template <typename IO>
void fields(IO& io, Rec<IO, SineSource> s) {
  io.field("amplitude", s.amplitude);
  io.field("frequency", s.frequency);
  io.field("offset", s.offset);
  io.field("series_resistance", s.series_resistance);
}

template <typename IO>
void fields(IO& io, Rec<IO, DcSource> s) {
  io.field("voltage", s.voltage);
  io.field("series_resistance", s.series_resistance);
}

template <typename IO>
void fields(IO& io, Rec<IO, SquareSource> s) {
  io.field("high", s.high);
  io.field("frequency", s.frequency);
  io.field("duty", s.duty);
  io.field("low", s.low);
  io.field("series_resistance", s.series_resistance);
}

template <typename IO>
void fields(IO& io, Rec<IO, WindSource> s) {
  io.field("peak_voltage", s.params.peak_voltage);
  io.field("peak_frequency", s.params.peak_frequency);
  io.field("gust_rise", s.params.gust_rise);
  io.field("gust_fall", s.params.gust_fall);
  io.field("gust_period", s.params.gust_period);
  io.field("gust_jitter", s.params.gust_jitter);
  io.field("cut_in_voltage", s.params.cut_in_voltage);
  io.field("coil_resistance", s.params.coil_resistance);
  io.field("seed", s.seed);
  io.field("horizon", s.horizon);
}

template <typename IO>
void fields(IO& io, Rec<IO, KineticSource> s) {
  io.field("impulse_peak", s.params.impulse_peak);
  io.field("resonance", s.params.resonance);
  io.field("ring_tau", s.params.ring_tau);
  io.field("step_period", s.params.step_period);
  io.field("step_jitter", s.params.step_jitter);
  io.field("coil_resistance", s.params.coil_resistance);
  io.field("seed", s.seed);
  io.field("horizon", s.horizon);
}

template <typename IO>
void fields(IO& io, Rec<IO, VoltageTraceSource> s) {
  io.begin("wave");
  canon::waveform(io, s.wave);
  io.end();
  io.field("series_resistance", s.series_resistance);
  io.field("label", s.label);
}

// Opaque callbacks have an empty tag, so the variant codec never reaches
// these; they exist so every alternative has a field list.
template <typename IO>
void fields(IO&, Rec<IO, CustomVoltageSource>) {}

template <typename IO>
void fields(IO& io, Rec<IO, ConstantPower> s) {
  io.field("power", s.power);
}

template <typename IO>
void fields(IO& io, Rec<IO, MarkovPower> s) {
  io.field("on_power", s.on_power);
  io.field("mean_on", s.mean_on);
  io.field("mean_off", s.mean_off);
  io.field("seed", s.seed);
  io.field("horizon", s.horizon);
}

template <typename IO>
void fields(IO& io, Rec<IO, trace::RfFieldSource::Params> p) {
  io.field("field_power", p.field_power);
  io.field("burst_length", p.burst_length);
  io.field("burst_period", p.burst_period);
  io.field("jitter", p.jitter);
}

template <typename IO>
void fields(IO& io, Rec<IO, RfFieldPower> s) {
  fields(io, s.params);
  io.field("seed", s.seed);
  io.field("horizon", s.horizon);
}

template <typename IO>
void fields(IO& io, Rec<IO, CoupledRfPower> s) {
  fields(io, s.field);
  io.field("seed", s.seed);
  io.field("horizon", s.horizon);
  io.field("gain", s.gain);
  io.field("window_period", s.window_period);
  io.field("window_duty", s.window_duty);
  io.field("window_phase", s.window_phase);
}

template <typename IO>
void fields(IO& io, Rec<IO, IndoorPvPower> s) {
  io.field("night_current_ua", s.params.night_current_ua);
  io.field("day_current_ua", s.params.day_current_ua);
  io.field("day_start_h", s.params.day_start_h);
  io.field("day_end_h", s.params.day_end_h);
  io.field("shoulder_h", s.params.shoulder_h);
  io.field("noise_ua", s.params.noise_ua);
  io.field("operating_voltage", s.params.operating_voltage);
  io.field("day_to_day_jitter", s.params.day_to_day_jitter);
  io.field("seed", s.seed);
  io.field("days", s.days);
}

template <typename IO>
void fields(IO& io, Rec<IO, SolarPower> s) {
  io.field("panel_peak", s.params.panel_peak);
  io.field("sunrise_h", s.params.sunrise_h);
  io.field("sunset_h", s.params.sunset_h);
  io.field("cloud_depth", s.params.cloud_depth);
  io.field("cloud_correlation", s.params.cloud_correlation);
  io.field("day_to_day_jitter", s.params.day_to_day_jitter);
  io.field("seed", s.seed);
  io.field("days", s.days);
}

template <typename IO>
void fields(IO& io, Rec<IO, PowerTraceSource> s) {
  io.begin("wave");
  canon::waveform(io, s.wave);
  io.end();
  io.field("label", s.label);
}

template <typename IO>
void fields(IO&, Rec<IO, CustomPowerSource>) {}

// ---- field lists: policies ------------------------------------------------

template <typename IO>
void fields(IO& io, Rec<IO, checkpoint::InterruptPolicy::Config> c) {
  io.field("capacitance", c.capacitance);
  io.field("margin", c.margin);
  io.field("v_hibernate", c.v_hibernate);
  io.field("v_restore", c.v_restore);
  io.field("restore_headroom", c.restore_headroom);
  canon::enumeration(io, "memory_mode", c.memory_mode, kMemoryModeTags);
}

template <typename IO>
void fields(IO& io, Rec<IO, Hibernus> p) {
  fields(io, p.config);
}

template <typename IO>
void fields(IO&, Rec<IO, NoCheckpoint>) {}

template <typename IO>
void fields(IO& io, Rec<IO, checkpoint::HibernusPlusPlusPolicy::PlusConfig> c) {
  io.field("measurement_error", c.measurement_error);
  io.field("calibration_cycles", c.calibration_cycles);
  io.field("initial_margin", c.initial_margin);
  io.field("restore_headroom", c.restore_headroom);
  io.field("seed", c.seed);
}

template <typename IO>
void fields(IO& io, Rec<IO, HibernusPlusPlus> p) {
  canon::optional(io, "config", p.config, "default", "set",
                  [&io](auto& c) { fields(io, c); });
}

template <typename IO>
void fields(IO& io, Rec<IO, QuickRecall> p) {
  fields(io, p.config);
}

template <typename IO>
void fields(IO& io, Rec<IO, Nvp> p) {
  fields(io, p.config);
}

template <typename IO>
void fields(IO& io, Rec<IO, Mementos> p) {
  canon::enumeration(io, "mode", p.config.mode, kMementosModeTags);
  io.field("v_threshold", p.config.v_threshold);
  io.field("timer_interval", p.config.timer_interval);
  io.field("poll_stride", p.config.poll_stride);
}

template <typename IO>
void fields(IO& io, Rec<IO, BurstTask> p) {
  io.field("task_energy", p.config.task_energy);
  io.field("capacitance", p.config.capacitance);
  io.field("margin", p.config.margin);
}

template <typename IO>
void fields(IO& io, Rec<IO, AdaptiveBuffer> p) {
  io.field("task_energy", p.config.task_energy);
  io.field("capacitance", p.config.capacitance);
  io.field("margin", p.config.margin);
  io.field("ewma_alpha", p.config.ewma_alpha);
  io.field("rate_reference", p.config.rate_reference);
  io.field("min_buffer", p.config.min_buffer);
  io.field("max_buffer", p.config.max_buffer);
}

template <typename IO>
void fields(IO&, Rec<IO, CustomPolicy>) {}

// ---- field lists: the spec body (shared by SystemSpec and FleetSpec) ------

template <typename IO>
void fields(IO& io, Rec<IO, neutral::McuDfsGovernor::Config> g) {
  io.field("v_ref", g.v_ref);
  io.field("band", g.band);
  io.field("period", g.period);
  canon::numbers(io, "frequencies", g.frequencies);
}

template <typename IO>
void fields(IO& io, Rec<IO, circuit::RectifierParams> r) {
  canon::enumeration(io, "kind", r.kind, kRectifierTags);
  io.field("diode_drop", r.diode_drop);
}

template <typename IO>
void fields(IO& io, Rec<IO, circuit::HarvesterPowerDriver::Params> h) {
  io.field("efficiency", h.efficiency);
  io.field("v_ceiling", h.v_ceiling);
  io.field("i_max", h.i_max);
  io.field("v_floor", h.v_floor);
}

template <typename IO>
void fields(IO& io, Rec<IO, StorageSpec> s) {
  io.field("capacitance", s.capacitance);
  io.field("initial_voltage", s.initial_voltage);
  io.field("bleed", s.bleed);
}

template <typename IO>
void fields(IO& io, Rec<IO, WorkloadSpec> w) {
  io.field("kind", w.kind);
  io.field("seed", w.seed);
}

template <typename IO>
void fields(IO& io, Rec<IO, mcu::McuPowerModel> p) {
  io.field("v_min", p.v_min);
  io.field("v_on", p.v_on);
  io.field("i_base", p.i_base);
  io.field("i_per_hz_sram", p.i_per_hz_sram);
  io.field("i_per_hz_fram", p.i_per_hz_fram);
  io.field("i_per_hz_nvp", p.i_per_hz_nvp);
  io.field("i_per_hz_nvm_write", p.i_per_hz_nvm_write);
  io.field("i_sleep", p.i_sleep);
  io.field("i_deep_wait", p.i_deep_wait);
  io.field("boot_cycles", p.boot_cycles);
  io.field("save_overhead_cycles", p.save_overhead_cycles);
  io.field("save_cycles_per_byte", p.save_cycles_per_byte);
  io.field("restore_overhead_cycles", p.restore_overhead_cycles);
  io.field("restore_cycles_per_byte", p.restore_cycles_per_byte);
  io.field("register_file_bytes", p.register_file_bytes);
  io.field("vcc_poll_cycles", p.vcc_poll_cycles);
}

template <typename IO>
void fields(IO& io, Rec<IO, sim::SimConfig> c) {
  io.field("dt", c.dt);
  io.field("t_end", c.t_end);
  io.field("node_substeps", c.node_substeps);
  io.field("stop_on_completion", c.stop_on_completion);
  io.field("probe_interval", c.probe_interval);
  io.field("quiescent_fast_path", c.quiescent_fast_path);
  io.field("macro_stepping", c.macro_stepping);
  io.field("charge_spans", c.charge_spans);
  io.field("ramp_spans", c.ramp_spans);
  io.field("macro_v_tol", c.macro_v_tol);
}

template <typename IO>
void fields(IO& io, Rec<IO, mcu::McuParams> m) {
  io.begin("power");
  fields(io, m.power);
  io.end();
  io.field("initial_frequency", m.initial_frequency);
  canon::enumeration(io, "memory_mode", m.memory_mode, kMemoryModeTags);
  io.field("peripheral_file_bytes", m.peripheral_file_bytes);
  io.field("peripheral_reinit_cycles", m.peripheral_reinit_cycles);
}

/// A `key` section holding one record's field list. Defined after every
/// list it opens: `fields` is looked up where this template is defined.
template <typename IO, typename T>
void section(IO& io, std::string_view key, T& record) {
  io.begin(key);
  fields(io, record);
  io.end();
}

template <typename IO>
void fields(IO& io, Rec<IO, SystemSpec> spec) {
  canon::variant(io, "source", spec.source, kSourceTags,
                 [&io](auto& s) { fields(io, s); });
  section(io, "rectifier", spec.rectifier);
  section(io, "harvester", spec.harvester);
  section(io, "storage", spec.storage);
  section(io, "workload", spec.workload);
  canon::variant(io, "policy", spec.policy, kPolicyTags,
                 [&io](auto& p) { fields(io, p); });
  canon::optional(io, "governor", spec.governor, "none", "dfs",
                  [&io](auto& g) { fields(io, g); });
  section(io, "mcu", spec.mcu);
  io.field("snapshot_peripherals", spec.snapshot_peripherals);
  section(io, "sim", spec.sim);
}

template <typename IO>
void fields(IO& io, Rec<IO, SharedRfCoupling> rf) {
  fields(io, rf.field);
  io.field("seed", rf.seed);
  io.field("horizon", rf.horizon);
  io.field("window_period", rf.window_period);
  io.field("window_duty", rf.window_duty);
  canon::numbers(io, "gains", rf.gains);
  canon::numbers(io, "phases", rf.phases);
}

template <typename IO>
void fields(IO& io, Rec<IO, FleetSpec> fleet) {
  std::size_t expected = 0;
  canon::list(io, "nodes", fleet.nodes, [&io, &expected](auto& node) {
    std::size_t index = expected;
    canon::begin_valued(io, "node", index);
    if (index != expected++) {
      throw SpecFormatError("fleet node blocks out of order: expected node " +
                            std::to_string(expected - 1) + ", got " +
                            std::to_string(index));
    }
    fields(io, node);
    io.end();
  });
  canon::variant(io, "coupling", fleet.coupling, kCouplingTags,
                 [&io](auto& c) { fields(io, c); });
}

/// `<container> v<kSpecFormatVersion>` around one record's field list.
template <typename T>
std::string write_versioned(std::string_view container, const T& record) {
  Writer w;
  w.begin(container, canon::version_tag(kSpecFormatVersion));
  fields(w, record);
  w.end();
  return w.take();
}

template <typename T>
T read_versioned(std::string_view container, const std::string& text) {
  Reader r(text);
  const std::string_view version = r.begin_tagged(container);
  if (version != canon::version_tag(kSpecFormatVersion)) {
    throw SpecFormatError("unsupported " + std::string(container) +
                          " format version: '" + std::string(version) + "'");
  }
  T record;
  fields(r, record);
  r.end();
  r.finish();
  return record;
}

}  // namespace

// ---- public API -----------------------------------------------------------

std::string non_cacheable_reason(const SystemSpec& spec) {
  if (std::holds_alternative<CustomVoltageSource>(spec.source)) {
    return "source: CustomVoltageSource holds an opaque factory callback";
  }
  if (std::holds_alternative<CustomPowerSource>(spec.source)) {
    return "source: CustomPowerSource holds an opaque factory callback";
  }
  if (spec.workload.factory) {
    return "workload: custom program factory is an opaque callback";
  }
  if (std::holds_alternative<CustomPolicy>(spec.policy)) {
    return "policy: CustomPolicy holds an opaque factory callback";
  }
  if (const auto* hpp = std::get_if<HibernusPlusPlus>(&spec.policy)) {
    if (hpp->config.has_value() && hpp->config->capacitance_probe) {
      return "policy: hibernus++ carries a custom capacitance probe callback";
    }
  }
  return {};
}

bool is_cacheable(const SystemSpec& spec) { return non_cacheable_reason(spec).empty(); }

std::string serialize(const SystemSpec& spec) {
  const std::string reason = non_cacheable_reason(spec);
  if (!reason.empty()) {
    throw SpecFormatError("spec is not serializable — " + reason);
  }

  return write_versioned("edc.SystemSpec", spec);
}

SystemSpec parse_spec(const std::string& text) {
  return read_versioned<SystemSpec>("edc.SystemSpec", text);
}

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::uint64_t spec_hash(const SystemSpec& spec) { return fnv1a64(serialize(spec)); }

// ---- fleets ----------------------------------------------------------------

std::string non_cacheable_reason(const FleetSpec& fleet) {
  for (std::size_t i = 0; i < fleet.nodes.size(); ++i) {
    const std::string reason = non_cacheable_reason(fleet.nodes[i]);
    if (!reason.empty()) {
      return "node " + std::to_string(i) + ": " + reason;
    }
  }
  return {};
}

bool is_cacheable(const FleetSpec& fleet) {
  return non_cacheable_reason(fleet).empty();
}

std::string serialize_fleet(const FleetSpec& fleet) {
  validate_fleet(fleet);
  const std::string reason = non_cacheable_reason(fleet);
  if (!reason.empty()) {
    throw SpecFormatError("fleet is not serializable — " + reason);
  }

  return write_versioned("edc.FleetSpec", fleet);
}

FleetSpec parse_fleet(const std::string& text) {
  FleetSpec fleet = read_versioned<FleetSpec>("edc.FleetSpec", text);
  try {
    validate_fleet(fleet);
  } catch (const std::invalid_argument& error) {
    throw SpecFormatError(std::string("invalid fleet: ") + error.what());
  }
  return fleet;
}

std::uint64_t fleet_hash(const FleetSpec& fleet) {
  return fnv1a64(serialize_fleet(fleet));
}

}  // namespace edc::spec
