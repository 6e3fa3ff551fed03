#include "scenarios.h"

#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "bench_util.h"
#include "edc/checkpoint/interrupt_policy.h"
#include "edc/checkpoint/mementos.h"
#include "edc/neutral/dfs_governor.h"
#include "edc/spec/fleet_spec.h"
#include "edc/sweep/fleet.h"
#include "edc/trace/waveform.h"
#include "edc/workloads/crc32.h"

namespace perfbench {

using edc::Seconds;
namespace spec = edc::spec;
namespace sweep = edc::sweep;

namespace {

constexpr double kJitter = 0.03;  // relative jitter on continuous parameters

/// The Fig 7 hibernus design point: 47 uF, 3 kOhm bleed, FFT, Eq 4 margin
/// sized for the bleed share.
spec::SystemSpec fig7_base(Rng& rng, const char* workload) {
  spec::SystemSpec s;
  s.storage.capacitance = rng.jitter(47e-6, kJitter);
  s.storage.bleed = rng.jitter(3000.0, kJitter);
  s.workload.kind = workload;
  s.workload.seed = 1 + rng.below(1000);
  edc::checkpoint::InterruptPolicy::Config config;
  config.margin = 2.2;
  config.restore_headroom = 0.35;
  s.policy = spec::Hibernus{config};
  return s;
}

/// Fig 7: the 6 Hz half-wave sine riding the full 2 s window.
spec::SystemSpec fig7_sine(Rng& rng) {
  spec::SystemSpec s = fig7_base(rng, "fft");
  s.source = spec::SineSource{rng.jitter(3.3, kJitter), 6.0};
  s.sim.t_end = 2.0;
  s.sim.stop_on_completion = false;
  return s;
}

/// Fig 7 across harvesting gaps: 0.5 s sine bursts every 10 s, 20 s.
spec::SystemSpec fig7_gapped(Rng& rng) {
  const double amplitude = rng.jitter(3.3, kJitter);
  const auto wave = edc::trace::Waveform::sample(
      [amplitude](Seconds t) {
        const double cycle = t - std::floor(t / 10.0) * 10.0;
        return cycle < 0.5 ? amplitude * std::sin(2.0 * M_PI * 6.0 * t) : 0.0;
      },
      0.0, 20.0, 400001);
  spec::SystemSpec s = fig7_base(rng, "fft-large");
  s.source = spec::VoltageTraceSource{wave, 50.0, "fig7-gapped"};
  s.sim.t_end = 20.0;
  s.sim.stop_on_completion = false;
  return s;
}

/// Fig 7 charge ramps: 0.5 s DC bursts every 10 s, 20 s.
spec::SystemSpec fig7_charge_ramp(Rng& rng) {
  spec::SystemSpec s = fig7_base(rng, "fft-large");
  s.source = spec::SquareSource{rng.jitter(3.3, kJitter), 0.1, 0.05, 0.0, 50.0};
  s.sim.t_end = 20.0;
  s.sim.stop_on_completion = false;
  return s;
}

/// WISPCam-style RFID reader field: 0.2 s interrogations every 5 s.
spec::SystemSpec rf_idle(Rng& rng) {
  spec::SystemSpec s;
  edc::trace::RfFieldSource::Params rf;
  rf.field_power = rng.jitter(2e-3, kJitter);
  rf.burst_length = 0.2;
  rf.burst_period = 5.0;
  s.source = spec::RfFieldPower{rf, 11, 10.0};
  s.storage.capacitance = rng.jitter(22e-6, kJitter);
  s.storage.bleed = rng.jitter(5000.0, kJitter);
  s.workload.kind = "crc";
  s.workload.seed = 1 + rng.below(1000);
  s.sim.t_end = 10.0;
  s.sim.stop_on_completion = false;
  return s;
}

/// A 1 %-duty square supply: an 80 ms burst every 8 s, then a bled
/// brown-out tail decaying to a dead node.
spec::SystemSpec brownout_tail(Rng& rng) {
  spec::SystemSpec s;
  s.source = spec::SquareSource{rng.jitter(3.3, kJitter), 0.125, 0.01, 0.0, 50.0};
  s.storage.capacitance = rng.jitter(47e-6, kJitter);
  s.storage.bleed = rng.jitter(10000.0, kJitter);
  s.workload.kind = "fft-small";
  s.workload.seed = 1 + rng.below(1000);
  s.sim.t_end = 16.0;
  s.sim.stop_on_completion = false;
  return s;
}

/// The Fig 8 design point: micro wind turbine into 47 uF / 10 kOhm,
/// hibernus running a CRC over 512 KiB (an opaque program factory, so
/// these points are not cacheable).
spec::SystemSpec fig8_base(Rng& rng, Seconds horizon) {
  spec::SystemSpec s;
  edc::trace::WindTurbineSource::Params wind;
  wind.peak_voltage = rng.jitter(5.0, kJitter);
  wind.peak_frequency = 6.0;
  s.source = spec::WindSource{wind, 3, horizon};
  s.storage.capacitance = rng.jitter(47e-6, kJitter);
  s.storage.bleed = rng.jitter(10000.0, kJitter);
  const std::uint64_t data_seed = 1 + rng.below(1000);
  s.workload.factory = [data_seed] {
    return std::make_unique<edc::workloads::Crc32Program>(512 * 1024, data_seed);
  };
  s.sim.t_end = horizon;
  s.sim.stop_on_completion = false;
  return s;
}

/// Fig 8 governed: the 6 s single-gust window, probed, hibernus-PN DFS.
spec::SystemSpec fig8_governed(Rng& rng) {
  spec::SystemSpec s = fig8_base(rng, 6.0);
  s.sim.probe_interval = 1e-3;
  edc::neutral::McuDfsGovernor::Config governor;
  governor.v_ref = 2.9;
  governor.band = 0.2;
  governor.period = 2e-3;
  s.governor = governor;
  return s;
}

const std::vector<double> kSurveyCapacitances = {
    4.7e-6, 6.8e-6, 10e-6,  15e-6,  22e-6,  33e-6,   47e-6,   68e-6,
    100e-6, 150e-6, 220e-6, 330e-6, 470e-6, 680e-6, 1000e-6, 1500e-6};

void add(std::vector<NamedSpec>& out, std::string family, std::string label,
         spec::SystemSpec s) {
  out.push_back({std::move(family), std::move(label), std::move(s)});
}

/// Appends every node of a shared-RF fleet (through sweep::fleet_grid).
void add_fleet(std::vector<NamedSpec>& out, Rng& rng, std::size_t nodes,
               const char* family) {
  spec::FleetSpec fleet = spec::example_rf_fleet(nodes);
  auto& rf = std::get<spec::SharedRfCoupling>(fleet.coupling);
  rf.field.field_power = rng.jitter(rf.field.field_power, kJitter);
  for (auto& node : fleet.nodes) {
    node.storage.capacitance = rng.jitter(node.storage.capacitance, kJitter);
    node.workload.seed = 1 + rng.below(1000);
  }
  const sweep::Grid grid = sweep::fleet_grid(fleet);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    add(out, family, "node" + std::to_string(i), grid.point(i).spec);
  }
}

edc::checkpoint::InterruptPolicy::Config eq5_policy_config() {
  edc::checkpoint::InterruptPolicy::Config config;
  config.margin = 3.0;
  config.restore_headroom = 0.15;
  return config;
}

}  // namespace

std::vector<NamedSpec> paper_reference_points(std::uint64_t seed) {
  Rng rng(seed ^ 0x7061706572ULL);
  std::vector<NamedSpec> out;
  for (int i = 0; i < 2; ++i) add(out, "fig7_sine", "v" + std::to_string(i), fig7_sine(rng));
  add(out, "fig7_gapped", "v0", fig7_gapped(rng));
  add(out, "fig7_charge_ramp", "v0", fig7_charge_ramp(rng));
  for (int i = 0; i < 2; ++i) add(out, "rf_idle", "v" + std::to_string(i), rf_idle(rng));
  for (int i = 0; i < 2; ++i) {
    add(out, "brownout_tail", "v" + std::to_string(i), brownout_tail(rng));
  }
  add(out, "fig8_governed", "v0", fig8_governed(rng));

  // The Eq 5 square-wave grid: 7 interrupt frequencies x {hibernus,
  // QuickRecall}, on the reference path.
  {
    const auto config = eq5_policy_config();
    spec::SystemSpec base;
    base.storage.capacitance = rng.jitter(10e-6, kJitter);
    base.storage.bleed = rng.jitter(1000.0, kJitter);
    base.workload.kind = "fft";
    base.workload.seed = 1 + rng.below(1000);
    base.sim.t_end = 20.0;
    for (const double f : {5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0}) {
      spec::SystemSpec s = base;
      s.source = spec::SquareSource{3.3, f, 0.5, 0.0, 50.0};
      s.policy = spec::Hibernus{config};
      add(out, "eq5_grid", "hibernus@" + std::to_string(static_cast<int>(f)), s);
      s.policy = spec::QuickRecall{config};
      add(out, "eq5_grid", "quickrecall@" + std::to_string(static_cast<int>(f)), s);
    }
  }

  // The policy-comparison families: 3 sources x 7 checkpoint policies.
  {
    spec::SystemSpec base;
    base.storage.capacitance = rng.jitter(22e-6, kJitter);
    base.storage.bleed = rng.jitter(10000.0, kJitter);
    base.workload.kind = "fft-large";
    base.workload.seed = 1 + rng.below(1000);
    base.sim.t_end = 40.0;
    edc::checkpoint::InterruptPolicy::Config interrupt;
    interrupt.restore_headroom = 0.3;
    edc::checkpoint::MementosPolicy::Config loop;
    loop.mode = edc::checkpoint::MementosPolicy::Mode::loop;
    loop.poll_stride = 4;
    edc::checkpoint::MementosPolicy::Config timer;
    timer.mode = edc::checkpoint::MementosPolicy::Mode::timer;
    timer.timer_interval = 10e-3;
    const std::vector<std::pair<std::string, spec::SourceSpec>> sources = {
        {"square-10Hz", spec::SquareSource{3.3, 10.0, 0.4, 0.0, 50.0}},
        {"sine-4Hz", spec::SineSource{3.3, 4.0}},
        {"markov-rf", spec::MarkovPower{6e-3, 0.05, 0.05, 77, 40.0}}};
    const std::vector<std::pair<std::string, spec::PolicySpec>> policies = {
        {"none", spec::NoCheckpoint{}},        {"mementos-loop", spec::Mementos{loop}},
        {"mementos-timer", spec::Mementos{timer}}, {"quickrecall", spec::QuickRecall{interrupt}},
        {"nvp", spec::Nvp{interrupt}},         {"hibernus", spec::Hibernus{interrupt}},
        {"hibernus++", spec::HibernusPlusPlus{}}};
    for (const auto& [source_name, source] : sources) {
      for (const auto& [policy_name, policy] : policies) {
        spec::SystemSpec s = base;
        s.source = source;
        s.policy = policy;
        add(out, "policy_comparison", source_name + "/" + policy_name, s);
      }
    }
  }

  add_fleet(out, rng, 3, "fleet3");
  return out;
}

std::vector<NamedSpec> survey_fast_points(std::uint64_t seed) {
  Rng rng(seed ^ 0x7375727665ULL);
  std::vector<NamedSpec> out;

  // Fig 7 batch survey: 16 capacitances on the live 6 Hz sine (one batch
  // group), 8 node substeps, 0.25 s.
  {
    spec::SystemSpec base = fig7_base(rng, "fft-small");
    base.source = spec::SineSource{3.3, 6.0};
    base.sim.t_end = 0.25;
    base.sim.node_substeps = 8;
    base.sim.stop_on_completion = false;
    for (const double c : kSurveyCapacitances) {
      spec::SystemSpec s = base;
      s.storage.capacitance = rng.jitter(c, kJitter);
      add(out, "fig7_survey", "C" + std::to_string(out.size()), s);
    }
  }
  // Fig 8 batch survey: the 16 capacitances split across two seeded gusts
  // (1 s each, alternate capacitances), so the survey runs as two 8-lane
  // batch groups rather than one 16-lane chunk that would hold a single
  // pool thread for most of a pass.
  for (int gust = 0; gust < 2; ++gust) {
    const spec::SystemSpec base = fig8_base(rng, 1.0);
    for (std::size_t k = static_cast<std::size_t>(gust); k < kSurveyCapacitances.size();
         k += 2) {
      spec::SystemSpec s = base;
      s.storage.capacitance = rng.jitter(kSurveyCapacitances[k], kJitter);
      add(out, "fig8_survey", "C" + std::to_string(out.size()), s);
    }
  }
  add(out, "fig8_wind_survey", "30s", fig8_base(rng, 30.0));
  add(out, "fig7_gapped", "v0", fig7_gapped(rng));
  add(out, "fig7_charge_ramp", "v0", fig7_charge_ramp(rng));
  add_fleet(out, rng, 8, "fleet8");

  for (NamedSpec& point : out) point.spec.sim.macro_stepping = true;
  return out;
}

sweep::Grid point_grid(const std::vector<NamedSpec>& points) {
  std::vector<sweep::AxisValue> values;
  values.reserve(points.size());
  for (const NamedSpec& point : points) {
    values.push_back({point.family + "/" + point.label,
                      [s = point.spec](spec::SystemSpec& target) { target = s; }});
  }
  sweep::Grid grid{spec::SystemSpec{}};
  grid.axis("point", std::move(values));
  return grid;
}

std::vector<QueryDef> design_queries(std::uint64_t seed) {
  Rng rng(seed ^ 0x7175657279ULL);
  std::vector<QueryDef> queries;

  // The minimum capacitance that rides out a 10 s wind trace without a
  // brown-out (the design_query --demo question), macro-stepped.
  {
    QueryDef q;
    q.name = "capacitance_threshold";
    edc::trace::WindTurbineSource::Params wind;
    wind.peak_voltage = 5.0;
    wind.peak_frequency = 6.0;
    q.base.source = spec::WindSource{wind, 3, 10.0};
    q.base.storage.capacitance = 10e-6;
    q.base.storage.bleed = rng.jitter(10000.0, kJitter);
    q.base.workload.kind = "crc";
    q.base.workload.seed = 1 + rng.below(1000);
    q.base.sim.t_end = 10.0;
    q.base.sim.stop_on_completion = false;
    q.base.sim.macro_stepping = true;
    q.axis = {"capacitance (F)",
              [](spec::SystemSpec& s, double x) { s.storage.capacitance = x; },
              {}};
    q.objective = [](double, const std::vector<edc::sim::SimResult>& rows) {
      return 0.5 - static_cast<double>(rows[0].mcu.brownouts);
    };
    q.lo = 1e-6;
    q.hi = 1e-3;
    q.tol = 1e-6;
    queries.push_back(std::move(q));
  }

  // The Eq 5 crossover: the interrupt frequency at which QuickRecall starts
  // beating hibernus in energy per forward Mcycle, on the refined lattice.
  {
    QueryDef q;
    q.name = "eq5_crossover";
    const auto config = eq5_policy_config();
    q.base.storage.capacitance = rng.jitter(10e-6, kJitter);
    q.base.storage.bleed = 1000.0;
    q.base.workload.kind = "fft";
    q.base.workload.seed = 1 + rng.below(1000);
    q.base.sim.t_end = 20.0;
    q.axis = {"f_interrupt (Hz)",
              [](spec::SystemSpec& s, double f) {
                s.source = spec::SquareSource{3.3, f, 0.5, 0.0, 50.0};
              },
              {}};
    q.variant_axis = "policy";
    q.variants = {
        {"hibernus", [config](spec::SystemSpec& s) { s.policy = spec::Hibernus{config}; }},
        {"quickrecall",
         [config](spec::SystemSpec& s) { s.policy = spec::QuickRecall{config}; }}};
    q.objective = [](double, const std::vector<edc::sim::SimResult>& rows) {
      const auto per_mcycle = [](const edc::sim::SimResult& r) {
        return r.mcu.forward_cycles <= 1000.0
                   ? std::numeric_limits<double>::infinity()
                   : r.mcu.energy_total() / (r.mcu.forward_cycles / 1e6);
      };
      return (per_mcycle(rows[1]) - per_mcycle(rows[0])) * 1e6;
    };
    q.direction = -1;
    for (int i = 0; i <= 48; ++i) {
      q.lattice.push_back(std::ldexp(5.0, i / 8) * std::pow(2.0, (i % 8) / 8.0));
    }
    queries.push_back(std::move(q));
  }

  // The fleet question: the smallest node capacitance at which every node
  // of the 3-node shared-RF fleet (adaptive buffering) completes.
  {
    QueryDef q;
    q.name = "fleet_capacitance";
    spec::FleetSpec fleet = spec::example_rf_fleet(3);
    auto& rf = std::get<spec::SharedRfCoupling>(fleet.coupling);
    rf.field.field_power = rng.jitter(rf.field.field_power, kJitter);
    q.base = fleet.nodes[0];
    q.base.workload.seed = 1 + rng.below(1000);
    q.axis = {"capacitance (F)",
              [](spec::SystemSpec& s, double x) { s.storage.capacitance = x; },
              {}};
    q.variant_axis = "node";
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      q.variants.push_back({"node" + std::to_string(i),
                            [source = spec::fleet_node_spec(fleet, i).source](
                                spec::SystemSpec& s) { s.source = source; }});
    }
    q.objective = [](double, const std::vector<edc::sim::SimResult>& rows) {
      for (const auto& row : rows) {
        if (!row.mcu.completed) return -1.0;
      }
      return 1.0;
    };
    const double lo = 1e-6;
    const double hi = fleet.nodes[0].storage.capacitance;
    for (int i = 0; i < 17; ++i) q.lattice.push_back(lo * std::pow(hi / lo, i / 16.0));
    queries.push_back(std::move(q));
  }
  return queries;
}

namespace {

sweep::Search make_search(const QueryDef& query, sweep::SearchOptions options) {
  options.direction = query.direction;
  if (query.variant_axis.empty()) {
    return sweep::Search(query.base, query.axis, query.objective, options);
  }
  return sweep::Search(query.base, query.axis, query.variant_axis, query.variants,
                       query.objective, options);
}

}  // namespace

sweep::SearchOutcome run_query(const QueryDef& query, const sweep::SearchOptions& options) {
  sweep::Search search = make_search(query, options);
  if (query.lattice.empty()) return search.contract(query.lo, query.hi, query.tol);
  return search.bracket_on(query.lattice);
}

std::vector<ProbeRow> probe_rows(const QueryDef& query, const sweep::SearchOutcome& outcome) {
  const sweep::Search search = make_search(query, {});
  std::vector<ProbeRow> rows;
  for (const sweep::SearchProbe& probe : outcome.probes) {
    const sweep::Grid grid = search.dense_grid({probe.x});
    for (std::size_t j = 0; j < probe.rows.size(); ++j) {
      rows.push_back({grid.point(j).spec, probe.rows[j]});
    }
  }
  return rows;
}

spec::SystemSpec new_point_spec(std::uint64_t seed, std::uint64_t index) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + index);
  spec::SystemSpec s;
  s.source = spec::SquareSource{3.3, 40.0, 0.5, 0.0, 50.0};
  s.storage.capacitance = rng.jitter(10e-6, kJitter);
  s.storage.bleed = rng.jitter(1000.0, kJitter);
  s.workload.kind = "fft-small";
  s.workload.seed = index + 1;  // distinct per index: the input data differs
  s.sim.t_end = 0.05;
  s.sim.stop_on_completion = false;
  s.policy = spec::Hibernus{eq5_policy_config()};
  return s;
}

}  // namespace perfbench
