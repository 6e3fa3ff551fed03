#include "edc/sweep/report.h"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "edc/common/canon.h"
#include "edc/common/check.h"

namespace edc::sweep {

namespace {

const char* const kMetricColumns[] = {"done",     "t_done (s)", "brownouts",
                                      "saves",    "restores",   "energy (mJ)",
                                      "harvested (mJ)"};

constexpr char kShardMagic[] = "# edc-sweep-shard v2 shard ";

std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string quoted = "\"";
  for (char c : cell) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

void write_csv_header(std::ostream& out, const Grid& grid) {
  for (const auto& axis : grid.axes()) out << csv_escape(axis.name) << ',';
  out << "done,t_done_s,brownouts,saves,restores,energy_j,harvested_j";
}

void write_csv_row(std::ostream& out, const Point& point,
                   const sim::SimResult& result) {
  for (const auto& label : point.labels) out << csv_escape(label) << ',';
  const auto& m = result.mcu;
  out << (m.completed ? 1 : 0) << ',' << m.completion_time << ',' << m.brownouts
      << ',' << m.saves_completed << ',' << m.restores << ',' << m.energy_total()
      << ',' << result.harvested;
}

}  // namespace

std::vector<std::string> summary_header(const Grid& grid) {
  std::vector<std::string> header;
  header.reserve(grid.axes().size() + std::size(kMetricColumns));
  for (const auto& axis : grid.axes()) header.push_back(axis.name);
  for (const char* column : kMetricColumns) header.emplace_back(column);
  return header;
}

std::vector<std::string> summary_row(const Point& point,
                                     const sim::SimResult& result) {
  std::vector<std::string> row = point.labels;
  const auto& m = result.mcu;
  row.push_back(m.completed ? "yes" : "NO");
  row.push_back(m.completed ? sim::Table::num(m.completion_time, 2) : "-");
  row.push_back(std::to_string(m.brownouts));
  row.push_back(std::to_string(m.saves_completed));
  row.push_back(std::to_string(m.restores));
  row.push_back(sim::Table::num(m.energy_total() * 1e3, 3));
  row.push_back(sim::Table::num(result.harvested * 1e3, 3));
  return row;
}

sim::Table summary_table(const Grid& grid,
                         const std::vector<sim::SimResult>& results) {
  EDC_CHECK(results.size() == grid.size(),
            "result rows do not match the grid size");
  sim::Table table(summary_header(grid));
  for (std::size_t i = 0; i < results.size(); ++i) {
    table.add_row(summary_row(grid.point(i), results[i]));
  }
  return table;
}

void write_csv(std::ostream& out, const Grid& grid,
               const std::vector<sim::SimResult>& results) {
  EDC_CHECK(results.size() == grid.size(),
            "result rows do not match the grid size");
  write_csv_header(out, grid);
  out << '\n';
  for (std::size_t i = 0; i < results.size(); ++i) {
    write_csv_row(out, grid.point(i), results[i]);
    out << '\n';
  }
}

void write_shard_csv(std::ostream& out, const Grid& grid,
                     const ShardAssignment& assignment, std::size_t shard_index,
                     const std::vector<sim::SimResult>& results) {
  EDC_CHECK(shard_index < assignment.count(), "shard index out of range");
  const std::vector<std::size_t>& owned = assignment.owned[shard_index];
  EDC_CHECK(results.size() == owned.size(),
            "result rows do not match the shard's owned point count");
  // The shard format is parsed line-by-line on merge, so a newline inside
  // a label (legal in plain write_csv, where it stays inside a quoted
  // cell) would be misread as a row boundary — refuse it up front.
  for (const auto& axis : grid.axes()) {
    EDC_CHECK(axis.name.find('\n') == std::string::npos,
              "axis name with embedded newline cannot be shard-serialized: '" +
                  axis.name + "'");
    for (const auto& value : axis.values) {
      EDC_CHECK(value.label.find('\n') == std::string::npos,
                "axis label with embedded newline cannot be shard-serialized: '" +
                    value.label + "'");
    }
  }
  out << kShardMagic << Shard{shard_index, assignment.count()}.to_string()
      << " grid " << grid.size() << '\n';
  out << "# header ";
  write_csv_header(out, grid);
  out << '\n';
  for (std::size_t pos = 0; pos < owned.size(); ++pos) {
    EDC_CHECK(owned[pos] < grid.size(), "owned point index out of range");
    out << owned[pos] << ',';
    write_csv_row(out, grid.point(owned[pos]), results[pos]);
    out << '\n';
  }
}

void merge_shard_csvs(const std::vector<std::string>& shard_csvs, std::ostream& out) {
  if (shard_csvs.empty()) {
    throw std::invalid_argument("merge_shard_csvs: no shard files given");
  }

  bool first = true;
  std::size_t grid_size = 0;
  std::size_t shard_count = 0;
  std::string header;
  std::vector<std::string> rows;        // by global index
  std::vector<bool> seen;               // duplicate/coverage tracking
  std::vector<bool> shard_seen;         // one file per shard id

  for (const std::string& text : shard_csvs) {
    std::istringstream in(text);
    std::string line;

    if (!std::getline(in, line) || line.rfind(kShardMagic, 0) != 0) {
      throw std::invalid_argument("merge_shard_csvs: missing shard header line");
    }
    // "<k>/<N> grid <size>" after the magic prefix.
    const std::string meta = line.substr(std::string(kShardMagic).size());
    const std::size_t space = meta.find(' ');
    if (space == std::string::npos || meta.substr(space + 1, 5) != "grid ") {
      throw std::invalid_argument("merge_shard_csvs: malformed shard header: " + line);
    }
    const Shard shard = Shard::parse(meta.substr(0, space));
    std::size_t size = 0;
    try {
      const std::string_view tail = std::string_view(meta).substr(space + 6);
      size = static_cast<std::size_t>(
          canon::parse_u64(tail.substr(0, tail.find(' '))));
    } catch (const canon::FormatError&) {
      throw std::invalid_argument("merge_shard_csvs: malformed grid size: " + line);
    }

    if (first) {
      first = false;
      grid_size = size;
      shard_count = shard.count;
      rows.assign(grid_size, {});
      seen.assign(grid_size, false);
      shard_seen.assign(shard_count, false);
    } else if (size != grid_size || shard.count != shard_count) {
      throw std::invalid_argument(
          "merge_shard_csvs: shards disagree on grid size or shard count");
    }
    if (shard_seen[shard.index]) {
      throw std::invalid_argument("merge_shard_csvs: duplicate shard " +
                                  shard.to_string());
    }
    shard_seen[shard.index] = true;

    if (!std::getline(in, line) || line.rfind("# header ", 0) != 0) {
      throw std::invalid_argument("merge_shard_csvs: missing header line");
    }
    const std::string this_header = line.substr(9);
    if (header.empty()) {
      header = this_header;
    } else if (this_header != header) {
      throw std::invalid_argument("merge_shard_csvs: shards disagree on CSV header");
    }

    while (std::getline(in, line)) {
      if (line.empty()) continue;
      const std::size_t comma = line.find(',');
      if (comma == std::string::npos) {
        throw std::invalid_argument("merge_shard_csvs: malformed row: " + line);
      }
      std::size_t index = 0;
      try {
        index = static_cast<std::size_t>(
            canon::parse_u64(std::string_view(line).substr(0, comma)));
      } catch (const canon::FormatError&) {
        throw std::invalid_argument("merge_shard_csvs: malformed row index: " + line);
      }
      if (index >= grid_size) {
        throw std::invalid_argument("merge_shard_csvs: row index out of range: " +
                                    line);
      }
      // A shard owns exactly the rows it names; the duplicate check here
      // and the coverage check below reject any bad partition.
      if (seen[index]) {
        throw std::invalid_argument("merge_shard_csvs: duplicate point " +
                                    std::to_string(index));
      }
      seen[index] = true;
      rows[index] = line.substr(comma + 1);
    }
  }

  if (!std::all_of(shard_seen.begin(), shard_seen.end(), [](bool b) { return b; })) {
    throw std::invalid_argument("merge_shard_csvs: missing shard file(s)");
  }
  for (std::size_t i = 0; i < grid_size; ++i) {
    if (!seen[i]) {
      throw std::invalid_argument("merge_shard_csvs: point " + std::to_string(i) +
                                  " is not covered by any shard");
    }
  }

  out << header << '\n';
  for (const std::string& row : rows) out << row << '\n';
}

}  // namespace edc::sweep
