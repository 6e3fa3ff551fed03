#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <thread>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

double Rng::jitter(double value, double rel) {
  return value * (1.0 + rel * (2.0 * uniform() - 1.0));
}

std::size_t Rng::below(std::size_t n) {
  return n == 0 ? 0 : static_cast<std::size_t>(next() % n);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

/// The calibration kernel: a dependent chain of integer mixing and a
/// floating-point multiply-add, so neither the compiler nor the CPU can
/// overlap iterations. Code that never changes, so its time tracks the
/// machine, not the repository.
double calibration_ns_per_iteration() {
  constexpr std::uint64_t kIterations = 1u << 21;
  std::vector<double> samples;
  for (int rep = 0; rep < 7; ++rep) {
    std::uint64_t x = 0x2545F4914F6CDD1DULL + static_cast<std::uint64_t>(rep);
    double acc = 1.0;
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < kIterations; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc = acc * 0.999999 + static_cast<double>(x & 0xff) * 1e-9;
    }
    const double elapsed = seconds_since(start);
    volatile double sink = acc + static_cast<double>(x & 1);
    (void)sink;
    samples.push_back(elapsed * 1e9 / static_cast<double>(kIterations));
  }
  return median(samples);
}

}  // namespace

Machine measure_machine() {
  Machine machine;
  machine.calib_ns = calibration_ns_per_iteration();
  machine.nproc = std::max(1u, std::thread::hardware_concurrency());
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = line.substr(0, line.find_last_not_of(" \t", colon - 1) + 1);
    const std::string value =
        colon + 2 <= line.size() ? line.substr(colon + 2) : std::string();
    if (key == "model name" && machine.cpu.empty()) machine.cpu = value;
    if (key == "cpu MHz" && machine.mhz == 0.0) machine.mhz = std::atof(value.c_str());
  }
  return machine;
}

std::string json_quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += ' ';
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

}  // namespace perfbench
