// Determinism lock-down for the canonical SystemSpec serialization
// (edc/spec/serialize): byte-identical round-trips for every spec variant,
// loud failures on unknown/future fields, run-to-run stable hashes pinned
// by a golden file, and the non_cacheable opt-out for opaque callbacks.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "edc/checkpoint/null_policy.h"
#include "edc/core/system.h"
#include "edc/spec/fleet_spec.h"
#include "edc/spec/serialize.h"
#include "edc/spec/system_spec.h"
#include "edc/sim/result_io.h"
#include "edc/sweep/batch.h"
#include "edc/sweep/grid.h"
#include "edc/sweep/runner.h"
#include "edc/workloads/program.h"

namespace {

using namespace edc;

// One deterministically-constructed spec per serializable variant, with
// non-default values so every field actually round-trips. Do NOT change
// existing entries lightly: their hashes are pinned in
// tests/golden/spec_hashes.txt, and a change there means the cache format
// version must be bumped (see serialize.h versioning policy).
struct NamedSpec {
  std::string name;
  spec::SystemSpec spec;
};

spec::SystemSpec base_spec() {
  spec::SystemSpec s;
  s.source = spec::DcSource{3.1, 47.0};
  s.storage.capacitance = 33e-6;
  s.storage.initial_voltage = 0.5;
  s.storage.bleed = 56000.0;
  s.workload.kind = "fft-small";
  s.workload.seed = 7;
  s.sim.t_end = 1.25;
  return s;
}

trace::Waveform fixture_wave() {
  return trace::Waveform(0.25, 0.5, {0.0, 1.5, 3.25, 2.125, 0.375});
}

std::vector<NamedSpec> covering_specs() {
  std::vector<NamedSpec> specs;

  {
    NamedSpec n{"sine-hibernus", base_spec()};
    n.spec.source = spec::SineSource{3.3, 4.5, 0.25, 51.0};
    checkpoint::InterruptPolicy::Config c;
    c.capacitance = 20e-6;
    c.margin = 1.75;
    c.restore_headroom = 0.35;
    n.spec.policy = spec::Hibernus{c};
    specs.push_back(std::move(n));
  }
  {
    NamedSpec n{"dc-nocheckpoint", base_spec()};
    n.spec.policy = spec::NoCheckpoint{};
    n.spec.snapshot_peripherals = true;
    specs.push_back(std::move(n));
  }
  {
    NamedSpec n{"square-mementos-timer", base_spec()};
    n.spec.source = spec::SquareSource{3.2, 12.5, 0.375, 0.125, 49.0};
    checkpoint::MementosPolicy::Config c;
    c.mode = checkpoint::MementosPolicy::Mode::timer;
    c.v_threshold = 2.375;
    c.timer_interval = 7.5e-3;
    c.poll_stride = 3;
    n.spec.policy = spec::Mementos{c};
    specs.push_back(std::move(n));
  }
  {
    NamedSpec n{"wind-hibernuspp-default", base_spec()};
    spec::WindSource w;
    w.params.peak_voltage = 5.5;
    w.params.gust_period = 8.25;
    w.seed = 99;
    w.horizon = 25.0;
    n.spec.source = w;
    n.spec.policy = spec::HibernusPlusPlus{};
    specs.push_back(std::move(n));
  }
  {
    NamedSpec n{"kinetic-hibernuspp-set", base_spec()};
    spec::KineticSource k;
    k.params.impulse_peak = 4.25;
    k.params.resonance = 47.5;
    k.seed = 3;
    k.horizon = 12.0;
    n.spec.source = k;
    checkpoint::HibernusPlusPlusPolicy::PlusConfig c;
    c.measurement_error = 0.045;
    c.calibration_cycles = 35000;
    c.initial_margin = 1.25;
    c.restore_headroom = 0.4;
    c.seed = 1234;
    n.spec.policy = spec::HibernusPlusPlus{c};
    specs.push_back(std::move(n));
  }
  {
    NamedSpec n{"voltage-trace-quickrecall", base_spec()};
    spec::VoltageTraceSource t;
    t.wave = fixture_wave();
    t.series_resistance = 75.0;
    t.label = "bench \"A\",\ttrace";  // exercises string escaping
    n.spec.source = t;
    checkpoint::InterruptPolicy::Config c;
    c.margin = 2.5;
    n.spec.policy = spec::QuickRecall{c};
    specs.push_back(std::move(n));
  }
  {
    NamedSpec n{"constant-power-nvp", base_spec()};
    n.spec.source = spec::ConstantPower{2.5e-3};
    checkpoint::InterruptPolicy::Config c;
    c.v_hibernate = 2.25;
    c.v_restore = 2.75;
    n.spec.policy = spec::Nvp{c};
    specs.push_back(std::move(n));
  }
  {
    NamedSpec n{"markov-burst", base_spec()};
    n.spec.source = spec::MarkovPower{4e-3, 0.125, 0.25, 21, 30.0};
    taskmodel::BurstTaskPolicy::Config c;
    c.task_energy = 65e-6;
    c.capacitance = 150e-6;
    c.margin = 1.4;
    n.spec.policy = spec::BurstTask{c};
    specs.push_back(std::move(n));
  }
  {
    NamedSpec n{"rf-governed", base_spec()};
    spec::RfFieldPower r;
    r.params.field_power = 300e-6;
    r.params.burst_length = 1.5;
    r.params.burst_period = 5.5;
    r.params.jitter = 0.125;
    r.seed = 11;
    r.horizon = 45.0;
    n.spec.source = r;
    neutral::McuDfsGovernor::Config g;
    g.v_ref = 2.85;
    g.band = 0.125;
    g.period = 1.25e-3;
    g.frequencies = {1e6, 4e6, 16e6};
    n.spec.governor = g;
    specs.push_back(std::move(n));
  }
  {
    NamedSpec n{"indoor-pv", base_spec()};
    spec::IndoorPvPower p;
    p.params.night_current_ua = 280.0;
    p.params.day_current_ua = 430.5;
    p.params.noise_ua = 3.5;
    p.seed = 5;
    p.days = 2;
    n.spec.source = p;
    specs.push_back(std::move(n));
  }
  {
    NamedSpec n{"solar-full-wave", base_spec()};
    spec::SolarPower p;
    p.params.panel_peak = 65e-3;
    p.params.cloud_depth = 0.625;
    p.seed = 8;
    p.days = 3;
    n.spec.source = p;
    n.spec.rectifier.kind = circuit::RectifierKind::full_wave;
    n.spec.rectifier.diode_drop = 0.3;
    specs.push_back(std::move(n));
  }
  {
    NamedSpec n{"power-trace-tuned-mcu", base_spec()};
    spec::PowerTraceSource p;
    p.wave = fixture_wave();
    p.label = "office_pv.csv";
    n.spec.source = p;
    n.spec.harvester.efficiency = 0.85;
    n.spec.harvester.v_ceiling = 4.75;
    n.spec.harvester.i_max = 0.25;
    n.spec.harvester.v_floor = 0.35;
    n.spec.mcu.power.v_min = 1.9;
    n.spec.mcu.power.i_base = 110e-6;
    n.spec.mcu.power.boot_cycles = 2500;
    n.spec.mcu.power.register_file_bytes = 128;
    n.spec.mcu.initial_frequency = 16e6;
    n.spec.mcu.memory_mode = mcu::MemoryMode::unified_fram;
    n.spec.mcu.peripheral_file_bytes = 96;
    n.spec.mcu.peripheral_reinit_cycles = 15000;
    n.spec.sim.dt = 5e-6;
    n.spec.sim.node_substeps = 8;
    n.spec.sim.stop_on_completion = false;
    n.spec.sim.probe_interval = 1e-3;
    n.spec.sim.quiescent_fast_path = false;
    specs.push_back(std::move(n));
  }
  {
    NamedSpec n{"unspecified-source", base_spec()};
    n.spec.source = std::monostate{};
    specs.push_back(std::move(n));
  }
  {
    NamedSpec n{"coupled-rf-windowed", base_spec()};
    spec::CoupledRfPower c;
    c.field.field_power = 1.5e-3;
    c.field.burst_length = 0.75;
    c.field.burst_period = 2.25;
    c.field.jitter = 0.1875;
    c.seed = 17;
    c.horizon = 15.0;
    c.gain = 0.375;
    c.window_period = 3.0;
    c.window_duty = 0.25;
    c.window_phase = 1.5;
    n.spec.source = c;
    specs.push_back(std::move(n));
  }
  {
    NamedSpec n{"sine-adaptive-buffer", base_spec()};
    n.spec.source = spec::SineSource{3.3, 4.5, 0.25, 51.0};
    n.spec.workload.kind = "sense";
    taskmodel::AdaptiveBufferPolicy::Config c;
    c.task_energy = 35e-6;
    c.capacitance = 180e-6;
    c.margin = 1.5;
    c.ewma_alpha = 0.375;
    c.rate_reference = 2.5e-4;
    c.min_buffer = 2;
    c.max_buffer = 6;
    n.spec.policy = spec::AdaptiveBuffer{c};
    specs.push_back(std::move(n));
  }

  return specs;
}

// Fleet counterparts: hashes pinned in tests/golden/fleet_hashes.txt under
// the same versioning contract (the fleet container shares
// kSpecFormatVersion with the node body).
struct NamedFleet {
  std::string name;
  spec::FleetSpec fleet;
};

std::vector<NamedFleet> covering_fleets() {
  std::vector<NamedFleet> fleets;
  fleets.push_back({"rf-fleet-1", spec::example_rf_fleet(1)});
  fleets.push_back({"rf-fleet-3", spec::example_rf_fleet(3)});
  {
    NamedFleet n{"uncoupled-pair", {}};
    spec::SystemSpec a = base_spec();
    a.source = spec::SineSource{3.3, 4.5, 0.25, 51.0};
    spec::SystemSpec b = base_spec();
    b.source = spec::ConstantPower{2.5e-3};
    b.storage.capacitance = 47e-6;
    n.fleet.nodes = {a, b};
    fleets.push_back(std::move(n));
  }
  return fleets;
}

// ---------------------------------------------------- result pinning -----
// Whole-SimResult pins: every serializable source family x every built-in
// policy family x four loop modes, run through both the scalar and the
// batched runner. batch_diff_test and fleet_test compare two execution
// paths against each other; these hashes pin what both must produce, so a
// refactor of the shared stepping loop cannot drift the two together
// unseen. They pin binary64 results of this compiler/libm family: a diff
// means simulated behaviour changed.

struct NamedSource {
  std::string name;
  spec::SourceSpec source;
};

std::vector<NamedSource> pinned_sources() {
  std::vector<double> v_samples, p_samples;
  for (int i = 0; i <= 40; ++i) {
    v_samples.push_back(i % 10 < 6 ? 3.3 : 0.0);
    p_samples.push_back(i % 8 < 5 ? 3e-3 : 0.0);
  }
  trace::RfFieldSource::Params rf;
  rf.burst_length = 0.1;
  rf.burst_period = 0.25;
  spec::CoupledRfPower coupled;
  coupled.field = rf;
  coupled.field.field_power = 4e-3;
  coupled.seed = 3;
  coupled.horizon = 1.0;
  coupled.gain = 0.5;
  coupled.window_period = 0.2;
  coupled.window_duty = 0.5;
  return {
      {"sine", spec::SineSource{3.3, 5.0, 0.0, 50.0}},
      {"dc", spec::DcSource{3.3, 50.0}},
      {"square", spec::SquareSource{3.3, 10.0, 0.5, 0.0, 50.0}},
      {"wind", spec::WindSource{{}, 3, 1.0}},
      {"kinetic", spec::KineticSource{{}, 5, 1.0}},
      {"voltage-trace",
       spec::VoltageTraceSource{trace::Waveform(0.0, 0.01, v_samples), 50.0, "trace"}},
      {"constant-power", spec::ConstantPower{2e-3}},
      {"markov", spec::MarkovPower{4e-3, 0.05, 0.05, 11, 1.0}},
      {"rf", spec::RfFieldPower{rf, 2, 1.0}},
      {"coupled-rf", coupled},
      {"indoor-pv", spec::IndoorPvPower{{}, 4, 1}},
      {"solar", spec::SolarPower{{}, 6, 1}},
      {"power-trace",
       spec::PowerTraceSource{trace::Waveform(0.0, 0.01, p_samples), "ptrace"}},
  };
}

/// One grid per source family: policy family x loop mode. Every point of a
/// grid shares the source and lattice, so the batched runner steps each
/// grid as multi-lane lockstep kernels.
sweep::Grid pinned_grid(const NamedSource& named) {
  spec::SystemSpec base;
  base.source = named.source;
  base.storage.capacitance = 22e-6;
  base.storage.bleed = 20000.0;
  base.workload.kind = "crc";
  base.sim.t_end = 0.25;
  sweep::Grid grid(std::move(base));
  grid.axis("policy",
            {{"hibernus", [](spec::SystemSpec& s) { s.policy = spec::Hibernus{}; }},
             {"none", [](spec::SystemSpec& s) { s.policy = spec::NoCheckpoint{}; }},
             {"hibernus++",
              [](spec::SystemSpec& s) { s.policy = spec::HibernusPlusPlus{}; }},
             {"quickrecall", [](spec::SystemSpec& s) { s.policy = spec::QuickRecall{}; }},
             {"nvp", [](spec::SystemSpec& s) { s.policy = spec::Nvp{}; }},
             {"mementos", [](spec::SystemSpec& s) { s.policy = spec::Mementos{}; }},
             {"burst", [](spec::SystemSpec& s) { s.policy = spec::BurstTask{}; }},
             {"adaptive", [](spec::SystemSpec& s) { s.policy = spec::AdaptiveBuffer{}; }}})
      .axis("mode",
            {{"plain", [](spec::SystemSpec&) {}},
             {"probed+governed",
              [](spec::SystemSpec& s) {
                s.sim.probe_interval = 1e-3;
                s.governor.emplace();
              }},
             {"macro", [](spec::SystemSpec& s) { s.sim.macro_stepping = true; }},
             {"fastpath-off",
              [](spec::SystemSpec& s) { s.sim.quiescent_fast_path = false; }}});
  return grid;
}

TEST(SpecSerial, RoundTripIsByteIdentical) {
  for (const NamedSpec& named : covering_specs()) {
    SCOPED_TRACE(named.name);
    const std::string text = spec::serialize(named.spec);
    const spec::SystemSpec reparsed = spec::parse_spec(text);
    EXPECT_EQ(text, spec::serialize(reparsed));
    EXPECT_EQ(spec::spec_hash(named.spec), spec::spec_hash(reparsed));
  }
}

TEST(SpecSerial, SerializationIsDeterministicWithinRun) {
  for (const NamedSpec& named : covering_specs()) {
    SCOPED_TRACE(named.name);
    EXPECT_EQ(spec::serialize(named.spec), spec::serialize(named.spec));
  }
}

TEST(SpecSerial, EveryCoveringSpecHashesDistinctly) {
  std::map<std::uint64_t, std::string> seen;
  for (const NamedSpec& named : covering_specs()) {
    const std::uint64_t hash = spec::spec_hash(named.spec);
    const auto [it, inserted] = seen.emplace(hash, named.name);
    EXPECT_TRUE(inserted) << named.name << " collides with " << it->second;
  }
}

TEST(SpecSerial, MutatingAnyKnobChangesTheHash) {
  const spec::SystemSpec base = base_spec();
  const std::uint64_t base_hash = spec::spec_hash(base);

  const std::vector<std::pair<std::string, std::function<void(spec::SystemSpec&)>>>
      mutations = {
          {"storage.capacitance", [](auto& s) { s.storage.capacitance *= 2; }},
          {"storage.bleed", [](auto& s) { s.storage.bleed += 1000; }},
          {"workload.seed", [](auto& s) { s.workload.seed += 1; }},
          {"workload.kind", [](auto& s) { s.workload.kind = "crc"; }},
          {"source voltage", [](auto& s) { s.source = spec::DcSource{3.2, 47.0}; }},
          {"policy margin",
           [](auto& s) {
             checkpoint::InterruptPolicy::Config c;
             c.margin = 9.0;
             s.policy = spec::Hibernus{c};
           }},
          {"mcu.power.i_base", [](auto& s) { s.mcu.power.i_base *= 1.5; }},
          {"sim.dt", [](auto& s) { s.sim.dt *= 0.5; }},
          {"sim.t_end", [](auto& s) { s.sim.t_end += 1; }},
          {"sim.quiescent_fast_path",
           [](auto& s) { s.sim.quiescent_fast_path = false; }},
          {"snapshot_peripherals", [](auto& s) { s.snapshot_peripherals = true; }},
      };
  for (const auto& [what, mutate] : mutations) {
    SCOPED_TRACE(what);
    spec::SystemSpec mutated = base;
    mutate(mutated);
    EXPECT_NE(spec::spec_hash(mutated), base_hash);
  }
}

TEST(SpecSerial, UnknownFieldFailsLoudly) {
  const std::string text = spec::serialize(base_spec());

  // An extra (future) field anywhere must be rejected, not skipped.
  const std::string marker = "  capacitance ";
  const std::size_t at = text.find(marker);
  ASSERT_NE(at, std::string::npos);
  std::string with_unknown = text;
  with_unknown.insert(at, "  esr_ohms 0.125\n");
  EXPECT_THROW((void)spec::parse_spec(with_unknown), spec::SpecFormatError);

  // Trailing garbage after a complete spec.
  EXPECT_THROW((void)spec::parse_spec(text + "extra 1\n"), spec::SpecFormatError);

  // Truncation (drop the last line).
  const std::size_t last_newline = text.rfind('\n', text.size() - 2);
  ASSERT_NE(last_newline, std::string::npos);
  EXPECT_THROW((void)spec::parse_spec(text.substr(0, last_newline + 1)),
               spec::SpecFormatError);

  // Missing trailing newline.
  EXPECT_THROW((void)spec::parse_spec(text.substr(0, text.size() - 1)),
               spec::SpecFormatError);

  // Future format version.
  std::string future = text;
  const std::string version_line =
      "edc.SystemSpec v" + std::to_string(spec::kSpecFormatVersion);
  ASSERT_EQ(future.rfind(version_line, 0), 0u);
  future.replace(0, version_line.size(), "edc.SystemSpec v999");
  EXPECT_THROW((void)spec::parse_spec(future), spec::SpecFormatError);

  // Empty input.
  EXPECT_THROW((void)spec::parse_spec(""), spec::SpecFormatError);
}

TEST(SpecSerial, MalformedValuesFailLoudly) {
  const std::string text = spec::serialize(base_spec());
  const std::string needle = "capacitance 3.3e-05";
  const std::size_t at = text.find(needle);
  ASSERT_NE(at, std::string::npos) << text;

  std::string bad = text;
  bad.replace(at, needle.size(), "capacitance 3.3e-05x");
  EXPECT_THROW((void)spec::parse_spec(bad), spec::SpecFormatError);

  bad = text;
  bad.replace(at, needle.size(), "capacitance");
  EXPECT_THROW((void)spec::parse_spec(bad), spec::SpecFormatError);
}

// Replaces the value on the (unique) line `  ...<key> <value>` of `text`.
std::string with_value(const std::string& text, const std::string& key,
                       const std::string& value) {
  const std::size_t at = text.find(" " + key + " ");
  EXPECT_NE(at, std::string::npos) << key << " in\n" << text;
  const std::size_t start = at + key.size() + 2;
  return text.substr(0, start) + value + text.substr(text.find('\n', start));
}

TEST(SpecSerial, OutOfRangeIntegersFailLoudlyInsteadOfNarrowing) {
  // Narrowing would make the text neither round-trip nor fail: 2^32 + 1
  // read into a 32-bit field would come back as 1.
  spec::SystemSpec indoor = base_spec();
  indoor.source = spec::IndoorPvPower{};
  spec::SystemSpec mementos = base_spec();
  mementos.policy = spec::Mementos{};
  spec::SystemSpec adaptive = base_spec();
  adaptive.policy = spec::AdaptiveBuffer{};
  const struct {
    spec::SystemSpec spec;
    std::string key;
  } cases[] = {{base_spec(), "node_substeps"},
               {indoor, "days"},
               {mementos, "poll_stride"},
               {adaptive, "min_buffer"}};
  for (const auto& c : cases) {
    const std::string text = spec::serialize(c.spec);
    EXPECT_NO_THROW((void)spec::parse_spec(with_value(text, c.key, "2")));
    for (const char* value : {"4294967297", "4294967296", "18446744073709551617"}) {
      EXPECT_THROW((void)spec::parse_spec(with_value(text, c.key, value)),
                   spec::SpecFormatError)
          << c.key << " " << value;
    }
  }
  // Signed fields reject values past either end of int.
  const std::string text = spec::serialize(base_spec());
  for (const char* value : {"2147483648", "-2147483649"}) {
    EXPECT_THROW((void)spec::parse_spec(with_value(text, "node_substeps", value)),
                 spec::SpecFormatError)
        << value;
  }
}

TEST(SpecSerial, OpaqueCallbacksAreNonCacheable) {
  {
    spec::SystemSpec s = base_spec();
    s.source = spec::CustomVoltageSource{[] {
      return std::make_unique<trace::SineVoltageSource>(3.3, 2.0);
    }};
    EXPECT_FALSE(spec::is_cacheable(s));
    EXPECT_NE(spec::non_cacheable_reason(s).find("source"), std::string::npos);
    EXPECT_THROW((void)spec::serialize(s), spec::SpecFormatError);
    EXPECT_THROW((void)spec::spec_hash(s), spec::SpecFormatError);
  }
  {
    spec::SystemSpec s = base_spec();
    s.source = spec::CustomPowerSource{[] {
      return std::make_unique<trace::ConstantPowerSource>(1e-3);
    }};
    EXPECT_FALSE(spec::is_cacheable(s));
    EXPECT_THROW((void)spec::serialize(s), spec::SpecFormatError);
  }
  {
    spec::SystemSpec s = base_spec();
    s.workload.factory = [] { return workloads::make_program("fft-small", 1); };
    EXPECT_FALSE(spec::is_cacheable(s));
    EXPECT_NE(spec::non_cacheable_reason(s).find("workload"), std::string::npos);
    EXPECT_THROW((void)spec::serialize(s), spec::SpecFormatError);
  }
  {
    spec::SystemSpec s = base_spec();
    s.policy = spec::CustomPolicy{
        [](const std::function<Farads()>&, Farads) {
          return std::unique_ptr<checkpoint::PolicyBase>(
              std::make_unique<checkpoint::NullPolicy>());
        }};
    EXPECT_FALSE(spec::is_cacheable(s));
    EXPECT_NE(spec::non_cacheable_reason(s).find("policy"), std::string::npos);
    EXPECT_THROW((void)spec::serialize(s), spec::SpecFormatError);
  }
  {
    spec::SystemSpec s = base_spec();
    checkpoint::HibernusPlusPlusPolicy::PlusConfig c;
    c.capacitance_probe = [] { return 10e-6; };
    s.policy = spec::HibernusPlusPlus{c};
    EXPECT_FALSE(spec::is_cacheable(s));
    EXPECT_NE(spec::non_cacheable_reason(s).find("probe"), std::string::npos);
    EXPECT_THROW((void)spec::serialize(s), spec::SpecFormatError);
  }
  // All covering specs are cacheable by construction.
  for (const NamedSpec& named : covering_specs()) {
    EXPECT_TRUE(spec::is_cacheable(named.spec)) << named.name;
    EXPECT_EQ(spec::non_cacheable_reason(named.spec), "") << named.name;
  }
}

// ---------------------------------------------------- golden registry -----
// Every golden file under tests/golden/ is registered here with the
// function that computes its expected content. EDC_UPDATE_GOLDEN=1
// regenerates *all* of them in one pass; the checking run compares all of
// them and fails once, listing every stale file — so an intentional format
// change is always a single regenerate-and-commit, never a
// fix-one-discover-the-next loop. A diff in any of these files means
// every existing cache entry is invalidated: bump spec::kSpecFormatVersion
// alongside the regeneration (see serialize.h versioning policy).

std::string hash_hex(std::uint64_t hash) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(hash));
  return hex;
}

struct GoldenFile {
  std::string name;    // file name under tests/golden/
  std::string header;  // '#' comment block written above the entries
  std::map<std::string, std::string> (*compute)();
};

std::string spec_golden_header(const std::string& what) {
  return "# FNV-1a-64 of the canonical serialization (spec format v" +
         std::to_string(spec::kSpecFormatVersion) +
         ") of tests/spec_serial_test.cpp's\n# " + what +
         ". EDC_UPDATE_GOLDEN=1 regenerates every\n"
         "# golden file in one pass; a diff here invalidates every cache\n"
         "# entry, so bump spec::kSpecFormatVersion alongside it.\n";
}

/// FNV-1a-64 of every pinned result, keyed source/policy/mode/runner. The
/// batched rows must also really come from the lockstep kernel.
std::map<std::string, std::string> pinned_result_hashes() {
  std::map<std::string, std::string> entries;
  for (const NamedSource& source : pinned_sources()) {
    const sweep::Grid grid = pinned_grid(source);
    sweep::RunnerOptions scalar;
    scalar.threads = 1;
    sweep::RunnerOptions batch = scalar;
    batch.batch = true;
    batch.batch_lanes = 8;
    sweep::RunReport report;
    const auto scalar_rows = sweep::Runner(scalar).run(grid);
    const auto batch_rows = sweep::Runner(batch).run(grid, &report);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const sweep::Point point = grid.point(i);
      const std::string key = source.name + "/" + point.labels[0] + "/" + point.labels[1];
      entries[key + "/scalar"] =
          hash_hex(spec::fnv1a64(sim::serialize_result(scalar_rows[i])));
      entries[key + "/batch"] =
          hash_hex(spec::fnv1a64(sim::serialize_result(batch_rows[i])));
      if (report.provenance[i] != sweep::kProvenanceBatch) {
        ADD_FAILURE() << key << " fell back to the scalar path";
      }
    }
  }
  return entries;
}

const std::vector<GoldenFile>& golden_registry() {
  static const std::vector<GoldenFile> registry = {
      {"spec_hashes.txt", spec_golden_header("covering SystemSpecs (spec::spec_hash)"),
       [] {
         std::map<std::string, std::string> entries;
         for (const NamedSpec& named : covering_specs()) {
           entries[named.name] = hash_hex(spec::spec_hash(named.spec));
         }
         return entries;
       }},
      {"fleet_hashes.txt", spec_golden_header("covering FleetSpecs (spec::fleet_hash)"),
       [] {
         std::map<std::string, std::string> entries;
         for (const NamedFleet& named : covering_fleets()) {
           entries[named.name] = hash_hex(spec::fleet_hash(named.fleet));
         }
         return entries;
       }},
      {"result_hashes.txt",
       "# FNV-1a-64 of sim::serialize_result (result format v" +
           std::to_string(sim::kResultFormatVersion) +
           ") for tests/spec_serial_test.cpp's\n"
           "# pinned grid: source family / policy family / loop mode / runner.\n"
           "# A diff here means simulated behaviour changed. EDC_UPDATE_GOLDEN=1\n"
           "# regenerates every golden file in one pass.\n",
       pinned_result_hashes},
  };
  return registry;
}

// The golden files pin the canonical hashes across runs, machines and
// compilers. Regenerate with EDC_UPDATE_GOLDEN=1 after an *intentional*
// format change — and bump spec::kSpecFormatVersion when you do.
TEST(SpecSerial, GoldenHashesAreStableAcrossRuns) {
  const std::string golden_dir = std::string(EDC_TESTS_DIR) + "/golden/";

  if (std::getenv("EDC_UPDATE_GOLDEN") != nullptr) {
    // One pass regenerates every registered golden file.
    for (const GoldenFile& file : golden_registry()) {
      const std::string path = golden_dir + file.name;
      std::ofstream out(path, std::ios::trunc);
      ASSERT_TRUE(out.good()) << "cannot write " << path;
      out << file.header;
      for (const auto& [name, hex] : file.compute()) out << name << ' ' << hex << '\n';
    }
    GTEST_SKIP() << "golden files regenerated under " << golden_dir;
  }

  std::vector<std::string> stale;
  for (const GoldenFile& file : golden_registry()) {
    SCOPED_TRACE(file.name);
    const std::string path = golden_dir + file.name;
    std::ifstream in(path);
    if (!in.good()) {
      ADD_FAILURE() << "missing golden file " << path;
      stale.push_back(file.name + " (missing)");
      continue;
    }
    std::map<std::string, std::string> golden;
    std::string line;
    bool malformed = false;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      std::string name, hex;
      if (!(fields >> name >> hex)) {
        ADD_FAILURE() << "malformed golden line in " << file.name << ": " << line;
        malformed = true;
        break;
      }
      golden[name] = hex;
    }
    if (malformed) {
      stale.push_back(file.name + " (malformed)");
      continue;
    }
    const std::map<std::string, std::string> actual = file.compute();
    EXPECT_EQ(actual, golden) << "canonical hashes drifted from tests/golden/"
                              << file.name;
    if (actual != golden) stale.push_back(file.name);
  }

  EXPECT_TRUE(stale.empty())
      << "stale golden files: " << [&] {
           std::string joined;
           for (const std::string& name : stale) {
             if (!joined.empty()) joined += ", ";
             joined += name;
           }
           return joined;
         }() << " — if the format change is intentional, bump "
                "spec::kSpecFormatVersion and regenerate ALL golden files in "
                "one pass with EDC_UPDATE_GOLDEN=1";
}

// The dead-node skip and the fine step's source-free substeps are pure
// speed: across the whole pinned matrix (every source and policy family,
// plain / probed+governed / macro loops, scalar and batch runners) a run
// with the fast path on serializes to exactly the bytes of the same point
// with it off, once the step-mix diagnostics that count the skipped work
// are cleared.
TEST(SpecSerial, FastPathOnEqualsOffAcrossThePinnedMatrix) {
  const auto canonical_without_step_mix = [](sim::SimResult result) {
    result.fine_steps = 0;
    result.span_steps = 0;
    result.spans = 0;
    return sim::serialize_result(result);
  };
  std::size_t compared = 0;
  for (const NamedSource& source : pinned_sources()) {
    const sweep::Grid grid = pinned_grid(source);
    sweep::RunnerOptions scalar;
    scalar.threads = 1;
    sweep::RunnerOptions batch = scalar;
    batch.batch = true;
    batch.batch_lanes = 8;
    const auto scalar_rows = sweep::Runner(scalar).run(grid);
    const auto batch_rows = sweep::Runner(batch).run(grid);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      sweep::Point point = grid.point(i);
      if (!point.spec.sim.quiescent_fast_path) continue;  // the off mode itself
      const std::string key = source.name + "/" + point.labels[0] + "/" + point.labels[1];
      point.spec.sim.quiescent_fast_path = false;
      const std::string off = canonical_without_step_mix(spec::instantiate(point.spec).run());
      EXPECT_EQ(canonical_without_step_mix(scalar_rows[i]), off) << key << "/scalar";
      EXPECT_EQ(canonical_without_step_mix(batch_rows[i]), off) << key << "/batch";
      ++compared;
    }
  }
  EXPECT_EQ(compared, pinned_sources().size() * 8 * 3);
}

// ------------------------------------------------- fleet hash coverage -----

TEST(SpecSerial, FleetCoveringSpecsRoundTripAndHashDistinctly) {
  std::map<std::uint64_t, std::string> seen;
  for (const NamedFleet& named : covering_fleets()) {
    SCOPED_TRACE(named.name);
    const std::string text = spec::serialize_fleet(named.fleet);
    EXPECT_EQ(spec::serialize_fleet(spec::parse_fleet(text)), text);
    const std::uint64_t hash = spec::fleet_hash(named.fleet);
    const auto [it, inserted] = seen.emplace(hash, named.name);
    EXPECT_TRUE(inserted) << named.name << " collides with " << it->second;
  }
}

TEST(SpecSerial, FleetHashIsNotTheNodeHash) {
  // A 1-node uncoupled fleet must not collide with its node's own hash:
  // the container header is part of the content address.
  spec::FleetSpec fleet;
  fleet.nodes = {base_spec()};
  EXPECT_NE(spec::fleet_hash(fleet), spec::spec_hash(base_spec()));
}

}  // namespace
