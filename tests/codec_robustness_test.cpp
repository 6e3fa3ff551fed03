// Decoder robustness: one canonical sample per decoder, mutated every way
// a small deterministic budget allows — every prefix truncation and every
// single-byte substitution from a fixed byte set. Each mutant must either
// decode or fail the decoder's documented way (FormatError for the text
// codecs, a miss for the cache, nullopt plus a reason for the serve
// frames): no other exception, no crash, no hang. A mutant that decodes
// must re-encode to bytes that decode to the same value.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>

#include "edc/common/canon.h"
#include "edc/serve/protocol.h"
#include "edc/sim/result_io.h"
#include "edc/spec/fleet_spec.h"
#include "edc/spec/serialize.h"
#include "edc/sweep/cache.h"

namespace {

using namespace edc;

/// Decodes `bytes` and returns the re-encoding of the decoded value, or
/// nullopt when the decoder rejected the input its documented way. Any
/// other exception escapes.
using Canonical = std::function<std::optional<std::string>(const std::string&)>;

constexpr char kSubstitutes[] = {'\n', ' ', '-', '7', '\0'};

/// Runs every mutant of `sample` through `canonical`; returns the number
/// of mutants that decoded.
std::size_t exercise(const std::string& name, const std::string& sample,
                     const Canonical& canonical) {
  const auto check = [&](const std::string& mutant, const std::string& what) {
    std::optional<std::string> first;
    try {
      first = canonical(mutant);
    } catch (const std::exception& error) {
      ADD_FAILURE() << name << ", " << what << ": undocumented failure: " << error.what();
      return false;
    }
    if (!first) return false;
    try {
      EXPECT_EQ(canonical(*first), first) << name << ", " << what
                                          << ": re-encoding does not decode to the same value";
    } catch (const std::exception& error) {
      ADD_FAILURE() << name << ", " << what << ": re-encoding does not decode: "
                    << error.what();
    }
    return true;
  };

  EXPECT_EQ(canonical(sample), sample) << name << ": sample is not canonical";
  std::size_t accepted = 0;
  for (std::size_t n = 0; n < sample.size(); ++n) {
    accepted += check(sample.substr(0, n), "prefix " + std::to_string(n)) ? 1 : 0;
  }
  for (std::size_t i = 0; i < sample.size(); ++i) {
    for (const char substitute : kSubstitutes) {
      if (sample[i] == substitute) continue;
      std::string mutant = sample;
      mutant[i] = substitute;
      accepted += check(mutant, "byte " + std::to_string(i) + " -> " +
                                    std::to_string(static_cast<int>(substitute)))
                      ? 1
                      : 0;
    }
  }
  return accepted;
}

/// FormatError is the documented failure of the text codecs.
template <typename F>
std::optional<std::string> or_format_error(F&& f) {
  try {
    return f();
  } catch (const canon::FormatError&) {
    return std::nullopt;
  }
}

spec::SystemSpec sample_spec() {
  spec::SystemSpec s;
  spec::VoltageTraceSource trace;
  trace.wave = trace::Waveform(0.25, 0.5, {0.0, 1.5, 3.25});
  trace.label = "bench \"A\"";
  s.source = trace;
  checkpoint::MementosPolicy::Config mementos;
  mementos.poll_stride = 3;
  s.policy = spec::Mementos{mementos};
  neutral::McuDfsGovernor::Config governor;
  governor.frequencies = {1e6, 8e6};
  s.governor = governor;
  s.workload.kind = "fft-small";
  s.sim.t_end = 0.5;
  return s;
}

sim::SimResult sample_result() {
  sim::SimResult r;
  r.end_time = 0.5;
  r.harvested = 1.25e-3;
  r.consumed = 1e-3;
  r.nvm_commits = 4;
  r.fine_steps = 50000;
  r.mcu.boots = 2;
  r.mcu.completed = true;
  r.transitions.push_back({0.125, mcu::McuState::off, mcu::McuState::boot, 2.0});
  r.transitions.push_back({0.25, mcu::McuState::active, mcu::McuState::saving, 1.9});
  r.probes.add("vcc", trace::Waveform(1e-5, 1e-5, {0.5, 1.75}));
  return r;
}

TEST(CodecRobustness, SpecText) {
  const std::size_t accepted =
      exercise("parse_spec", spec::serialize(sample_spec()), [](const std::string& b) {
        return or_format_error([&] { return spec::serialize(spec::parse_spec(b)); });
      });
  EXPECT_GT(accepted, 0u);  // digit substitutions in values still decode
}

TEST(CodecRobustness, FleetText) {
  exercise("parse_fleet", spec::serialize_fleet(spec::example_rf_fleet(2)),
           [](const std::string& b) {
             return or_format_error(
                 [&] { return spec::serialize_fleet(spec::parse_fleet(b)); });
           });
}

TEST(CodecRobustness, ResultText) {
  exercise("parse_result", sim::serialize_result(sample_result()),
           [](const std::string& b) {
             return or_format_error(
                 [&] { return sim::serialize_result(sim::parse_result(b)); });
           });
}

TEST(CodecRobustness, FleetResultFraming) {
  sim::FleetResult fleet;
  fleet.nodes = {sample_result(), sim::SimResult{}};
  exercise("parse_fleet_result", sim::serialize_fleet_result(fleet),
           [](const std::string& b) {
             return or_format_error([&] {
               return sim::serialize_fleet_result(sim::parse_fleet_result(b));
             });
           });
}

TEST(CodecRobustness, CacheEntryFile) {
  // The cache's documented failure is a miss (load) or a reason (fsck);
  // an entry that loads re-encodes through store().
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "edc_codec_robustness_cache";
  std::filesystem::remove_all(dir);
  sweep::Cache cache(dir);
  // The cache stores its key as opaque bytes; a short one keeps the
  // mutant count (and the file I/O per mutant) within budget.
  const std::string key = "edc.SystemSpec sample key\n";
  sim::SimResult result;
  result.end_time = 0.5;
  result.transitions.push_back({0.125, mcu::McuState::off, mcu::McuState::boot, 2.0});
  const std::filesystem::path path = cache.entry_path(key);
  const auto read_file = [&path] {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
  };
  cache.store(key, result, 12.5, 'b');
  const std::string sample = read_file();

  exercise("cache entry", sample, [&](const std::string& b) -> std::optional<std::string> {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << b;
    }
    (void)sweep::Cache::fsck_entry(path);
    const auto point = cache.load(key);
    if (!point) return std::nullopt;
    cache.store(key, point->result, point->micros, point->provenance);
    return read_file();
  });
  std::filesystem::remove_all(dir);
}

TEST(CodecRobustness, ServeFrames) {
  const auto documented = [](auto decoded, const std::string& error) {
    EXPECT_EQ(decoded.has_value(), error.empty());
    return decoded;
  };

  serve::Request request;
  request.deadline_ms = 250.0;
  request.points = {spec::serialize(sample_spec())};
  exercise("read_request", serve::encode_request(request), [&](const std::string& b) {
    serve::StringSource in(b);
    std::string error;
    const auto decoded = documented(serve::read_request(in, &error), error);
    return decoded ? std::optional(serve::encode_request(*decoded)) : std::nullopt;
  });

  serve::Response response;
  response.rows = {sim::serialize_result(sample_result())};
  response.stats_text = "simulated 1\n";
  exercise("read_response", serve::encode_response(response), [&](const std::string& b) {
    serve::StringSource in(b);
    std::string error;
    const auto decoded = documented(serve::read_response(in, &error), error);
    return decoded ? std::optional(serve::encode_response(*decoded)) : std::nullopt;
  });
}

}  // namespace
