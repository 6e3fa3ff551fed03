// sweep_merge — reassembles per-shard sweep CSVs into grid order.
//
//   sweep_merge <output.csv|-> <shard0.csv> <shard1.csv> ...
//
// The inputs are the files written by sweep::write_shard_csv (a bench's
// --shard k/N --csv mode, striding or --shard-plan LPT partition alike:
// every row names its own global index); the output is byte-identical to
// the CSV an unsharded run of the same grid would have written. The merge
// is strict: every shard of the k/N partition must be present exactly
// once, the shards must agree on grid size and header, and every point
// must be covered exactly once, so a lost or duplicated shard fails the
// merge instead of silently truncating the table.
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "edc/sweep/report.h"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0 << " <output.csv|-> <shard.csv> [<shard.csv> ...]\n"
            << "Merges the shard CSVs of one k/N partition (write_shard_csv /\n"
            << "a bench's --shard k/N --csv mode, with or without --shard-plan)\n"
            << "into the byte stream of the unsharded run. '-' writes to stdout.\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage(argv[0]);

  std::vector<std::string> shard_texts;
  shard_texts.reserve(static_cast<std::size_t>(argc - 2));
  for (int i = 2; i < argc; ++i) {
    std::ifstream in(argv[i], std::ios::binary);
    if (!in) {
      std::cerr << "sweep_merge: cannot open shard file '" << argv[i] << "'\n";
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    shard_texts.push_back(buffer.str());
  }

  std::ostringstream merged;
  try {
    edc::sweep::merge_shard_csvs(shard_texts, merged);
  } catch (const std::invalid_argument& error) {
    std::cerr << "sweep_merge: " << error.what() << '\n';
    return 1;
  }

  const std::string out_name = argv[1];
  if (out_name == "-") {
    std::cout << merged.str();
    return 0;
  }
  std::ofstream out(out_name, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::cerr << "sweep_merge: cannot open output file '" << out_name << "'\n";
    return 1;
  }
  out << merged.str();
  if (!out.good()) {
    std::cerr << "sweep_merge: write to '" << out_name << "' failed\n";
    return 1;
  }
  return 0;
}
