// Golden pins for every Table 1 family design.
//
// The identify columns were recorded from the pointer-netlist propagation
// closure, before constant propagation moved onto CompactView; the other
// columns were recorded while the baseline, `netrev propagate` and the
// library calls without a prebuilt view still hashed cones over the pointer
// netlist.  Any change to the closure, the cone hashing, the reduction
// trials or a report shows up here as a changed count or output digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "eval/report.h"
#include "eval/runner.h"
#include "itc/family.h"
#include "pipeline/fingerprint.h"
#include "wordrec/identify.h"
#include "wordrec/propagation.h"

namespace netrev {
namespace {

struct Golden {
  const char* design;
  std::size_t reduction_trials;
  std::size_t unified_subgroups;
  // FNV-1a 64 of the exact stdout bytes of each command.
  std::uint64_t json_fnv1a64;           // identify --json
  std::uint64_t base_json_fnv1a64;      // identify --base --json
  std::uint64_t propagate_fnv1a64;      // propagate
  std::uint64_t evaluate_json_fnv1a64;  // evaluate --json
  std::uint64_t evaluate_text_fnv1a64;  // evaluate (funcheck line included)
  // FNV-1a 64 of library results computed without a prebuilt view.
  std::uint64_t run_baseline_fnv1a64;     // words_to_json(run_baseline(nl))
  std::uint64_t propagate_words_fnv1a64;  // propagation_text(...) below
};

// Printed as the design name, which ctest uses in place of the index.
void PrintTo(const Golden& golden, std::ostream* out) { *out << golden.design; }

const Golden kGolden[] = {
    {"b03s", 7, 1, 0x933423f2f04a6050ull,
     0x2fb0a09748f09712ull, 0x6b7ac933253d7003ull, 0x61bd18397f45e1aaull,
     0x0bc5660b5685e62dull, 0x6d16bbb88cd20facull, 0x38fb38b6cad9a566ull},
    {"b04s", 9, 1, 0xc10aea5df435ee26ull,
     0xa87f8699f3f8c571ull, 0x7b8cf32d376d2aadull, 0xb18a39c43d72a3c9ull,
     0xd381afeb0363e8c6ull, 0x09c93064fd07a241ull, 0x4f6131f33d30449cull},
    {"b05s", 30, 0, 0xfe40ead86f362c1bull,
     0x48b5b4016ca2aeddull, 0x90b4953720f2bcf6ull, 0x29d81037a6e60addull,
     0xdfa780c3fc3733f9ull, 0xb12067e1fd4ea525ull, 0xcbd0bf03c4c9283aull},
    {"b07s", 11, 1, 0x72ce73bf440dbcf2ull,
     0xe3d38503422b179eull, 0xba9e8c26b7f18585ull, 0xc54c95007831ea73ull,
     0x0bcd3051f6f1a1abull, 0x8d033f5393474ee0ull, 0x5982f08dccf96c7dull},
    {"b08s", 20, 3, 0x30fcfaec1d0aaed2ull,
     0x87ab95bfed3a0aa4ull, 0xd5a6dd1477993381ull, 0x9689d276648f5e85ull,
     0xf107ecc222217d9cull, 0x1d57291218ac90c6ull, 0x5e5d5360363c19a4ull},
    {"b11s", 29, 0, 0xbef7d21693697d93ull,
     0x138a35c12ec9f7fcull, 0xb16930604cc06cc8ull, 0xa539afe15078ac30ull,
     0xab727867cbbb53aaull, 0xa51a514a9887d21eull, 0xdc5659e5b0330158ull},
    {"b12s", 60, 7, 0x134624b165d607c3ull,
     0x7b5d2a17a1967683ull, 0x47a7a36090eccca3ull, 0xa5f91f982eef8fafull,
     0xcc4c20c6020b379aull, 0xe35b5285a5272ffbull, 0x0efa8cd47f217eeeull},
    {"b13s", 8, 2, 0x8ef8c359679782d1ull,
     0x2097c1386a255addull, 0x682ca978e698c97bull, 0x1e0b2b7fbc8dc7daull,
     0xc82c8199d143222full, 0x0bba260021334925ull, 0x17e30fda728dff26ull},
    {"b14s", 271, 4, 0x559355640b1b1cceull,
     0xbf9cd3eb45025404ull, 0x02f5f8f7c596981full, 0xcf7c58827b1e99f8ull,
     0xd35f547d559b62feull, 0x7056763bfadcb1e6ull, 0x24b5b4e672598ee2ull},
    {"b15s", 234, 4, 0x93e67f40f8ace52bull,
     0xe513853ca93e5efcull, 0x9d6b8010a9a7f734ull, 0x045b249a532fedd0ull,
     0xdf7e698221a2d49aull, 0x5e729f2828684f1eull, 0x156d13de19eceea9ull},
    {"b17s", 912, 18, 0xace946536ca2854cull,
     0x014fc3ee15269f2bull, 0x8e65c6766d1cb282ull, 0xde7af9530b627d1dull,
     0x4a5d172947e124b5ull, 0x34a9f73bfc8480a3ull, 0x5405ef2a6950c748ull},
    {"b18s", 3954, 33, 0x05e9d1de7043631aull,
     0xb61a9d6db7cf0a5dull, 0xad44c6ffb9159b01ull, 0x331db9bba89866cfull,
     0x5b3ba928f65ba239ull, 0x57973e5759e01ba5ull, 0xfd27bab2696cd4cbull},
};

std::uint64_t cli_digest(std::vector<std::string> args) {
  std::ostringstream out, err;
  EXPECT_EQ(cli::run_cli(args, out, err), 0) << err.str();
  return pipeline::fnv1a64(out.str());
}

// Every field of a propagation result, one candidate per line.
std::string propagation_text(const netlist::Netlist& nl,
                             const wordrec::WordPropagationResult& result) {
  std::ostringstream text;
  text << result.parents_used << ' ' << result.ambiguous_positions << '\n';
  for (const wordrec::PropagatedWord& candidate : result.candidates) {
    text << (candidate.source == wordrec::PropagatedWord::Source::kSubtreeRoots
                 ? "roots"
                 : "leaves")
         << ' ' << candidate.position;
    for (netlist::NetId bit : candidate.word.bits)
      text << ' ' << nl.net(bit).name;
    text << '\n';
  }
  return text.str();
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
  EXPECT_EQ(cli_digest({"identify", golden.design, "--json"}),
            golden.json_fnv1a64);
}

TEST_P(GoldenIdentify, BaselineJsonDigestMatchesPin) {
  const Golden& golden = GetParam();
  EXPECT_EQ(cli_digest({"identify", golden.design, "--base", "--json"}),
            golden.base_json_fnv1a64);
}

TEST_P(GoldenIdentify, PropagateDigestMatchesPin) {
  const Golden& golden = GetParam();
  EXPECT_EQ(cli_digest({"propagate", golden.design}),
            golden.propagate_fnv1a64);
}

TEST_P(GoldenIdentify, EvaluateDigestsMatchPins) {
  const Golden& golden = GetParam();
  EXPECT_EQ(cli_digest({"evaluate", golden.design, "--json"}),
            golden.evaluate_json_fnv1a64);
  EXPECT_EQ(cli_digest({"evaluate", golden.design}),
            golden.evaluate_text_fnv1a64);
}

TEST_P(GoldenIdentify, LibraryCallsWithoutViewMatchPins) {
  const Golden& golden = GetParam();
  const itc::GeneratedBenchmark bench = itc::build_benchmark(golden.design);
  const netlist::Netlist& nl = bench.netlist;
  EXPECT_EQ(pipeline::fnv1a64(
                eval::words_to_json(nl, eval::run_baseline(nl).words)),
            golden.run_baseline_fnv1a64);
  const wordrec::IdentifyResult identified = wordrec::identify_words(nl);
  EXPECT_EQ(pipeline::fnv1a64(propagation_text(
                nl, wordrec::propagate_words(nl, identified.words))),
            golden.propagate_words_fnv1a64);
}

INSTANTIATE_TEST_SUITE_P(Family, GoldenIdentify, ::testing::ValuesIn(kGolden));

}  // namespace
}  // namespace netrev
