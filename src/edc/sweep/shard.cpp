#include "edc/sweep/shard.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "edc/common/canon.h"
#include "edc/common/check.h"

namespace edc::sweep {

Shard Shard::parse(const std::string& text) {
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= text.size()) {
    throw std::invalid_argument("shard must be 'k/N', got '" + text + "'");
  }
  Shard shard;
  try {
    shard.index = static_cast<std::size_t>(
        canon::parse_u64(std::string_view(text).substr(0, slash)));
    shard.count = static_cast<std::size_t>(
        canon::parse_u64(std::string_view(text).substr(slash + 1)));
  } catch (const canon::FormatError&) {
    throw std::invalid_argument("shard must be 'k/N', got '" + text + "'");
  }
  if (shard.count == 0) {
    throw std::invalid_argument("shard count must be >= 1, got '" + text + "'");
  }
  if (shard.index >= shard.count) {
    throw std::invalid_argument("shard index must be < count, got '" + text + "'");
  }
  return shard;
}

std::string Shard::to_string() const {
  return std::to_string(index) + "/" + std::to_string(count);
}

ShardAssignment ShardAssignment::striding(std::size_t grid_size, std::size_t count) {
  EDC_CHECK(count >= 1, "shard count must be >= 1");
  ShardAssignment assignment;
  assignment.owned.resize(count);
  for (std::size_t i = 0; i < grid_size; ++i) assignment.owned[i % count].push_back(i);
  return assignment;
}

ShardAssignment ShardAssignment::balanced(const std::vector<double>& micros,
                                          std::size_t count) {
  EDC_CHECK(count >= 1, "shard count must be >= 1");
  const bool timings_usable =
      !micros.empty() &&
      std::all_of(micros.begin(), micros.end(), [](double c) { return c > 0.0; });
  if (!timings_usable) return striding(micros.size(), count);

  // Descending cost, stable in point index so equal costs keep grid order.
  std::vector<std::size_t> order(micros.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&micros](std::size_t a, std::size_t b) {
    return micros[a] > micros[b];
  });

  ShardAssignment assignment;
  assignment.owned.resize(count);
  std::vector<double> load(count, 0.0);
  for (const std::size_t point : order) {
    // Least-loaded shard, lowest index on ties: a linear scan keeps the
    // tie-break deterministic (a heap would reorder equal loads).
    std::size_t target = 0;
    for (std::size_t k = 1; k < count; ++k) {
      if (load[k] < load[target]) target = k;
    }
    assignment.owned[target].push_back(point);
    load[target] += micros[point];
  }
  for (auto& points : assignment.owned) std::sort(points.begin(), points.end());
  return assignment;
}

double ShardAssignment::makespan(const std::vector<double>& micros) const {
  double worst = 0.0;
  for (const auto& points : owned) {
    double total = 0.0;
    for (const std::size_t point : points) total += micros.at(point);
    worst = std::max(worst, total);
  }
  return worst;
}

}  // namespace edc::sweep
