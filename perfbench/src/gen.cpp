// Seeded input generator for the benchmark.
//
//   perfbench_gen <out_dir> <seed> <spec>...
//
// A spec is a family or giant profile name, optionally with a draw index
// ("b04s:7").  Each spec is built with its profile seed mixed from <seed>
// (and the index), written to <out_dir>/<profile>_<seed>[_<index>].bench,
// and reported as one line "<path> <gates> <bytes>".  The same seed gives
// the same bytes.
#include <cstdint>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "common/rng.h"
#include "itc/benchgen.h"
#include "itc/family.h"
#include "parser/bench_parser.h"

namespace {

std::uint64_t mixed_seed(std::uint64_t profile_seed, std::uint64_t seed,
                         std::uint64_t index) {
  const std::uint64_t base = netrev::Rng::stream(profile_seed, seed).next_u64();
  return index == 0 ? base : netrev::Rng::stream(base, index).next_u64();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) {
    std::cerr << "usage: perfbench_gen <out_dir> <seed> <profile>...\n";
    return 2;
  }
  try {
    const std::string dir = argv[1];
    const std::uint64_t seed = std::stoull(argv[2]);
    std::filesystem::create_directories(dir);
    for (int i = 3; i < argc; ++i) {
      const std::string spec = argv[i];
      const std::size_t colon = spec.find(':');
      const std::uint64_t index =
          colon == std::string::npos ? 0 : std::stoull(spec.substr(colon + 1));
      netrev::itc::BenchmarkProfile profile =
          netrev::itc::profile_by_name(spec.substr(0, colon));
      profile.seed = mixed_seed(profile.seed, seed, index);
      const auto bench = netrev::itc::generate_benchmark(profile);
      std::string path = dir + "/" + profile.name + "_" + std::to_string(seed);
      if (index != 0) path += "_" + std::to_string(index);
      path += ".bench";
      netrev::parser::write_bench_file(bench.netlist, path);
      std::cout << path << ' ' << bench.netlist.gate_count() << ' '
                << std::filesystem::file_size(path) << '\n';
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_gen: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
