// Small shared helpers of the benchmark program: clocks, order statistics,
// the metric table, the seeded generator, process memory and the CPU
// calibration kernel.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty one.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// One reported number with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Deterministic generator for workload variants (splitmix64). The seed is
/// the benchmark's --seed; the library only ever sees the generated specs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// `value` scaled by a uniform factor in [1 - rel, 1 + rel].
  double jitter(double value, double rel);
  /// Uniform integer in [0, n).
  std::size_t below(std::size_t n);

 private:
  std::uint64_t state_;
};

/// Peak resident set size of this process so far, MiB.
[[nodiscard]] double peak_rss_mb();

/// The machine a result set was measured on: a fixed CPU calibration kernel
/// (median ns per iteration of a dependent integer/floating-point chain)
/// plus the core count and clock, so result sets from different machines
/// can be normalised.
struct Machine {
  double calib_ns = 0.0;
  unsigned nproc = 0;
  double mhz = 0.0;
  std::string cpu;
};
[[nodiscard]] Machine measure_machine();

/// JSON string literal (quoted, escaped).
[[nodiscard]] std::string json_quote(const std::string& text);

/// Shortest round-trip decimal form of a double (all its digits).
[[nodiscard]] std::string json_number(double value);

}  // namespace perfbench
