// Golden pins for `netrev identify --json` on every Table 1 family design.
//
// The values were recorded from the pointer-netlist propagation closure,
// before constant propagation moved onto CompactView.  Any change to the
// closure, the reduction trials or the report shows up here as a changed
// trial count, unified-subgroup count or output digest, whichever core
// (--legacy-core or the default) computes it.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "itc/family.h"
#include "pipeline/fingerprint.h"
#include "wordrec/identify.h"

namespace netrev {
namespace {

struct Golden {
  const char* design;
  std::size_t reduction_trials;
  std::size_t unified_subgroups;
  std::uint64_t json_fnv1a64;  // of the exact stdout bytes
};

// Printed as the design name, which ctest uses in place of the index.
void PrintTo(const Golden& golden, std::ostream* out) { *out << golden.design; }

const Golden kGolden[] = {
    {"b03s", 7, 1, 0x933423f2f04a6050ull},
    {"b04s", 9, 1, 0xc10aea5df435ee26ull},
    {"b05s", 30, 0, 0xfe40ead86f362c1bull},
    {"b07s", 11, 1, 0x72ce73bf440dbcf2ull},
    {"b08s", 20, 3, 0x30fcfaec1d0aaed2ull},
    {"b11s", 29, 0, 0xbef7d21693697d93ull},
    {"b12s", 60, 7, 0x134624b165d607c3ull},
    {"b13s", 8, 2, 0x8ef8c359679782d1ull},
    {"b14s", 271, 4, 0x559355640b1b1cceull},
    {"b15s", 234, 4, 0x93e67f40f8ace52bull},
    {"b17s", 912, 18, 0xace946536ca2854cull},
    {"b18s", 3954, 33, 0x05e9d1de7043631aull},
};

std::uint64_t identify_digest(std::vector<std::string> args) {
  std::ostringstream out, err;
  EXPECT_EQ(cli::run_cli(args, out, err), 0) << err.str();
  return pipeline::fnv1a64(out.str());
}

class GoldenIdentify : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenIdentify, ReductionStatsMatchPins) {
  const Golden& golden = GetParam();
  const itc::GeneratedBenchmark bench = itc::build_benchmark(golden.design);
  const wordrec::IdentifyResult result =
      wordrec::identify_words(bench.netlist);
  EXPECT_EQ(result.stats.reduction_trials, golden.reduction_trials);
  EXPECT_EQ(result.stats.unified_subgroups, golden.unified_subgroups);
}

TEST_P(GoldenIdentify, JsonDigestMatchesPin) {
  const Golden& golden = GetParam();
  EXPECT_EQ(identify_digest({"identify", golden.design, "--json"}),
            golden.json_fnv1a64);
  EXPECT_EQ(identify_digest(
                {"identify", golden.design, "--json", "--legacy-core"}),
            golden.json_fnv1a64);
}

INSTANTIATE_TEST_SUITE_P(Family, GoldenIdentify, ::testing::ValuesIn(kGolden));

}  // namespace
}  // namespace netrev
