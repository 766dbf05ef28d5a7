#include "parser/bench_parser.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "exec/cancel.h"
#include "itc/family.h"
#include "netlist/validate.h"
#include "parser/lexer.h"
#include "pipeline/fingerprint.h"
#include "pipeline/session.h"
#include "support/corrupt.h"

namespace netrev::parser {
namespace {

using netlist::GateType;
using netrev::Session;

constexpr const char* kSample = R"(# tiny
INPUT(a)
INPUT(b)
OUTPUT(q)
n1 = NAND(a, b)
n2 = NOT(n1)
q = DFF(n2)
)";

TEST(BenchParser, ParsesPortsAndGates) {
  const auto nl = parse_bench(kSample);
  EXPECT_EQ(nl.primary_inputs().size(), 2u);
  EXPECT_EQ(nl.primary_outputs().size(), 1u);
  ASSERT_EQ(nl.gate_count(), 3u);
  const auto order = nl.gates_in_file_order();
  EXPECT_EQ(nl.gate(order[0]).type, GateType::kNand);
  EXPECT_EQ(nl.gate(order[1]).type, GateType::kNot);
  EXPECT_EQ(nl.gate(order[2]).type, GateType::kDff);
  EXPECT_TRUE(netlist::validate(nl).ok());
}

TEST(BenchParser, IgnoresCommentsAndBlanks) {
  const auto nl = parse_bench("# c\n\nINPUT(a)\n  # mid\nOUTPUT(y)\ny = NOT(a)  # trail\n");
  EXPECT_EQ(nl.gate_count(), 1u);
}

TEST(BenchParser, VddGndAliases) {
  const auto nl = parse_bench("OUTPUT(y)\none = VDD()\nzero = GND()\ny = AND(one, zero)\n");
  const auto order = nl.gates_in_file_order();
  EXPECT_EQ(nl.gate(order[0]).type, GateType::kConst1);
  EXPECT_EQ(nl.gate(order[1]).type, GateType::kConst0);
}

TEST(BenchParser, RejectsUnknownFunction) {
  EXPECT_THROW(parse_bench("y = MAJ(a, b, c)\n"), ParseError);
}

TEST(BenchParser, RejectsMalformedLine) {
  EXPECT_THROW(parse_bench("this is not a gate\n"), ParseError);
  EXPECT_THROW(parse_bench("y = NOT a\n"), ParseError);
  EXPECT_THROW(parse_bench(" = NOT(a)\n"), ParseError);
}

TEST(BenchParser, RejectsEmptyArgument) {
  EXPECT_THROW(parse_bench("y = AND(a, )\n"), ParseError);
}

TEST(BenchParser, ErrorCarriesLineNumber) {
  try {
    parse_bench("INPUT(a)\ny = BOGUS(a)\n");
    FAIL();
  } catch (const ParseError& err) {
    EXPECT_EQ(err.line(), 2u);
  }
}

TEST(BenchWriter, RoundTripsSample) {
  const auto nl = parse_bench(kSample);
  const auto again = parse_bench(write_bench(nl));
  EXPECT_EQ(again.gate_count(), nl.gate_count());
  EXPECT_EQ(again.net_count(), nl.net_count());
  const auto order_a = nl.gates_in_file_order();
  const auto order_b = again.gates_in_file_order();
  for (std::size_t i = 0; i < order_a.size(); ++i) {
    EXPECT_EQ(nl.gate(order_a[i]).type, again.gate(order_b[i]).type);
    EXPECT_EQ(nl.net(nl.gate(order_a[i]).output).name,
              again.net(again.gate(order_b[i]).output).name);
  }
}

TEST(BenchParser, MissingFileThrowsViaSession) {
  // File access lives in Session::load_netlist now; the parser layer only
  // ever sees source text.
  Session session;
  EXPECT_THROW(session.load_netlist("/nonexistent/x.bench"),
               std::runtime_error);
}

TEST(BenchParser, ErrorCarriesRealColumn) {
  // "y = BOGUS(a)": the unknown function name starts at column 5.
  try {
    parse_bench("INPUT(a)\ny = BOGUS(a)\n");
    FAIL();
  } catch (const ParseError& err) {
    EXPECT_EQ(err.line(), 2u);
    EXPECT_EQ(err.column(), 5u);
  }
  // "y = NOT a": no '(' after the function name, reported at the function.
  try {
    parse_bench("y = NOT a\n");
    FAIL();
  } catch (const ParseError& err) {
    EXPECT_EQ(err.line(), 1u);
    EXPECT_EQ(err.column(), 5u);
  }
}

TEST(BenchParser, EmptyArgumentColumnPointsAtTheGap) {
  try {
    parse_bench("INPUT(a)\ny = AND(a, )\n");
    FAIL();
  } catch (const ParseError& err) {
    EXPECT_EQ(err.line(), 2u);
    EXPECT_GT(err.column(), 1u);
  }
}

TEST(BenchParser, PermissiveSkipsBadLineKeepsRest) {
  diag::Diagnostics diags;
  ParseOptions options;
  options.permissive = true;
  const auto nl = parse_bench(
      "INPUT(a)\nINPUT(b)\nOUTPUT(q)\nn1 = NAND(a, b)\nn2 = BOGUS(n1)\n"
      "q = NOT(n1)\n",
      options, diags);
  EXPECT_EQ(nl.gate_count(), 2u);  // n1 and q survive; n2 is dropped
  EXPECT_EQ(diags.error_count(), 1u);
  ASSERT_FALSE(diags.entries().empty());
  EXPECT_EQ(diags.entries()[0].location.line, 5u);
  EXPECT_GT(diags.entries()[0].location.column, 0u);
  EXPECT_TRUE(diags.usable());
}

TEST(BenchParser, PermissiveKeepsFirstDuplicateDriver) {
  diag::Diagnostics diags;
  ParseOptions options;
  options.permissive = true;
  const auto nl = parse_bench(
      "INPUT(a)\nINPUT(b)\nOUTPUT(q)\nq = AND(a, b)\nq = OR(a, b)\n", options,
      diags);
  ASSERT_EQ(nl.gate_count(), 1u);
  EXPECT_EQ(nl.gate(nl.gates_in_file_order()[0]).type, GateType::kAnd);
  EXPECT_EQ(diags.warning_count(), 1u);
}

TEST(BenchParser, PermissiveStopsAtErrorLimit) {
  std::string source = "INPUT(a)\n";
  for (int i = 0; i < 20; ++i) source += "x" + std::to_string(i) + " = BAD(a)\n";
  diag::Diagnostics diags(/*max_errors=*/3);
  ParseOptions options;
  options.permissive = true;
  (void)parse_bench(source, options, diags);
  EXPECT_TRUE(diags.at_error_limit());
  // All 20 bad lines would have errored; the limit stops recovery early.
  EXPECT_LE(diags.error_count(), 4u);
  EXPECT_GE(diags.note_count(), 1u);  // "giving up" note
}

TEST(BenchParser, FileSizeLimitEnforced) {
  ParseOptions options;
  options.limits.max_file_bytes = 8;
  EXPECT_THROW(
      {
        diag::Diagnostics diags;
        (void)parse_bench(kSample, options, diags);
      },
      ResourceLimitError);

  options.permissive = true;
  diag::Diagnostics diags;
  const auto nl = parse_bench(kSample, options, diags);
  EXPECT_EQ(nl.gate_count(), 0u);
  EXPECT_FALSE(diags.usable());
}

TEST(BenchParser, StrictOverloadMatchesLegacyOutput) {
  const auto legacy = parse_bench(kSample);
  diag::Diagnostics diags;
  const auto strict = parse_bench(kSample, ParseOptions{}, diags);
  EXPECT_TRUE(diags.empty());
  EXPECT_EQ(write_bench(legacy), write_bench(strict));
}

// Loader pins: every Table 1 design, written with write_bench and parsed
// back, must come out as exactly this netlist — net ids (inputs, outputs,
// then gate outputs and arguments in file order), names, port flags and
// gates.  Recorded from the parser that split the source into std::string
// lines, before it moved to views into the source.
struct ParsePin {
  const char* design;
  std::uint64_t fingerprint;  // pipeline::netlist_fingerprint
};

void PrintTo(const ParsePin& pin, std::ostream* out) { *out << pin.design; }

const ParsePin kParsePins[] = {
    {"b03s", 0x48a22c49fd688f50ull}, {"b04s", 0xb59423692c0b61e1ull},
    {"b05s", 0xbf05a561629018aeull}, {"b07s", 0x8dad5051d5d09ab6ull},
    {"b08s", 0x17f7c88490f89668ull}, {"b11s", 0x25abf520ced04254ull},
    {"b12s", 0x431c2e701e3e9d16ull}, {"b13s", 0x9a9f87ae620df39aull},
    {"b14s", 0x56b06dac269a0a8dull}, {"b15s", 0x744268a11618e1fbull},
    {"b17s", 0xd4e2c046b423d4b6ull}, {"b18s", 0xdcd4bf45315605b7ull},
};

std::string family_bench(const char* design) {
  return write_bench(itc::build_benchmark(design).netlist);
}

class BenchParsePins : public ::testing::TestWithParam<ParsePin> {};

TEST_P(BenchParsePins, RoundTripMatchesPinnedFingerprint) {
  const ParsePin& pin = GetParam();
  EXPECT_EQ(pipeline::netlist_fingerprint(parse_bench(family_bench(pin.design))),
            pin.fingerprint);
}

INSTANTIATE_TEST_SUITE_P(Family, BenchParsePins,
                         ::testing::ValuesIn(kParsePins));

TEST(BenchParser, CrlfCommentsAndNoFinalNewlineParseToThePinnedNetlist) {
  // The same b03s text with CRLF line endings, a comment on every line, a
  // comment-only line between lines, and no newline after the last line.
  const std::string clean = family_bench("b03s");
  std::string messy = "# header\r\n";
  std::size_t start = 0;
  while (start < clean.size()) {
    const std::size_t end = clean.find('\n', start);
    messy += clean.substr(start, end - start) + "  # note\r\n#\r\n";
    start = end + 1;
  }
  messy.resize(messy.size() - 5);  // drop the final "\r\n#\r\n"
  ASSERT_NE(messy.back(), '\n');
  EXPECT_EQ(pipeline::netlist_fingerprint(parse_bench(messy)),
            kParsePins[0].fingerprint);
}

TEST(BenchParser, CrlfAndNoFinalNewlineKeepDiagnosticPositions) {
  // Columns are file columns with comments and CRs present; a last line
  // without a newline is still numbered and parsed.
  const std::string source =
      "INPUT(a)\r\n# c\r\ny = NOT(a)  # t\r\n  z = BAD(a)\r\nw = AND(a, )";
  diag::Diagnostics diags;
  ParseOptions options;
  options.permissive = true;
  const auto nl = parse_bench(source, options, diags);
  EXPECT_EQ(nl.gate_count(), 1u);
  ASSERT_EQ(diags.entries().size(), 2u);
  EXPECT_EQ(diags.entries()[0].location.line, 5u);  // empty argument
  EXPECT_EQ(diags.entries()[0].location.column, 11u);
  EXPECT_EQ(diags.entries()[1].location.line, 4u);  // unknown function
  EXPECT_EQ(diags.entries()[1].location.column, 7u);
}

TEST(BenchParser, FinalNewlineEndsOneMoreLine) {
  // A file ending in a newline has an empty last line, and limit failures
  // found after the scan name it.
  ParseOptions options;
  options.permissive = true;
  options.limits.max_nets = 1;
  diag::Diagnostics with_newline;
  (void)parse_bench("INPUT(a)\nINPUT(b)\n", options, with_newline);
  ASSERT_FALSE(with_newline.entries().empty());
  EXPECT_EQ(with_newline.entries().back().location.line, 3u);
  diag::Diagnostics without_newline;
  (void)parse_bench("INPUT(a)\nINPUT(b)", options, without_newline);
  ASSERT_FALSE(without_newline.entries().empty());
  EXPECT_EQ(without_newline.entries().back().location.line, 2u);
}

TEST(BenchParser, SpentErrorBudgetNotesTheNextLineIfThereIsOne) {
  ParseOptions options;
  options.permissive = true;
  diag::Diagnostics last_line(2);
  (void)parse_bench("a = (\nb = (", options, last_line);
  EXPECT_EQ(last_line.error_count(), 2u);
  EXPECT_EQ(last_line.note_count(), 0u);
  diag::Diagnostics before_last(2);
  (void)parse_bench("a = (\nb = (\nc = NOT(a)\n", options, before_last);
  EXPECT_EQ(before_last.error_count(), 2u);
  ASSERT_EQ(before_last.note_count(), 1u);
  EXPECT_EQ(before_last.entries().back().location.line, 3u);
}

// --- chunked tokenising -----------------------------------------------------

// Sets the global pool's size for one scope.
class PoolJobs {
 public:
  explicit PoolJobs(std::size_t jobs) { ThreadPool::set_global_jobs(jobs); }
  ~PoolJobs() { ThreadPool::set_global_jobs(0); }
  PoolJobs(const PoolJobs&) = delete;
  PoolJobs& operator=(const PoolJobs&) = delete;
};

// What a parse yields, as comparable text: the netlist fingerprint or the
// error thrown, then every diagnostic.  `chunk_bytes` == the source size
// parses it as one chunk on the calling thread.
std::string parse_outcome(const std::string& source, bool permissive,
                          std::size_t max_errors, std::size_t chunk_bytes) {
  diag::Diagnostics diags(max_errors);
  ParseOptions options;
  options.permissive = permissive;
  options.filename = "chunks.bench";
  std::string result;
  try {
    result = std::to_string(pipeline::netlist_fingerprint(
        detail::parse_bench_chunked(source, options, diags, chunk_bytes)));
  } catch (const std::exception& err) {
    result = std::string("threw: ") + err.what();
  }
  return result + "\n" + diags.to_json();
}

// The sources every chunk size must parse alike: 300 seeded single
// corruptions, 30 with five stacked corruptions (many errors, so the error
// budget cuts the input off mid-file), and line-ending edge cases.
std::vector<std::string> chunk_corpus() {
  std::vector<std::string> corpus;
  for (const char* design : {"b03s", "b08s", "b13s"}) {
    const std::string clean = family_bench(design);
    for (const auto kind : testing::kAllCorruptionKinds)
      for (std::uint64_t seed = 0; seed < 20; ++seed)
        corpus.push_back(testing::corrupt(clean, kind, seed));
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      std::string damaged = clean;
      for (std::uint64_t k = 0; k < 5; ++k)
        damaged = testing::corrupt(
            damaged, testing::kAllCorruptionKinds[(seed + k) % 5],
            seed * 5 + k);
      corpus.push_back(damaged);
    }
  }
  const std::string clean = family_bench("b03s");
  std::string crlf;
  for (const char c : clean) crlf += c == '\n' ? std::string("\r\n") : std::string(1, c);
  corpus.push_back(crlf);
  corpus.push_back(clean.substr(0, clean.size() - 1));  // no final newline
  corpus.push_back(clean + "# a comment on the last line");
  corpus.push_back(clean + "y = BAD(a)\n# comment\nz = (");
  corpus.push_back("");
  corpus.push_back("\n\n");
  corpus.push_back("x = AND(a)\n=\ny = NOT(\nz = FOO(a)\nq = DFF(q)");
  corpus.push_back("a = (\nb = (");  // the budget runs out on the last line
  corpus.push_back("a = (\nb = (\n");
  // Every INPUT is interned before every OUTPUT, wherever they appear.
  corpus.push_back("OUTPUT(y)\nINPUT(a)\ny = NOT(a)\nOUTPUT(a)\nINPUT(b)\n");
  return corpus;
}

TEST(BenchChunks, EveryChunkSizeParsesLikeOneChunk) {
  // Chunks of one byte (a chunk per line) and of a few lines, merged in
  // file order, give the same netlist, the same diagnostics and the same
  // error as one chunk: strict, permissive, and permissive with an error
  // budget small enough to cut the input off.
  const std::vector<std::string> corpus = chunk_corpus();
  ASSERT_GE(corpus.size(), 300u);
  struct Mode {
    bool permissive;
    std::size_t max_errors;
  };
  const Mode modes[] = {{false, 64}, {true, 64}, {true, 2}};
  std::vector<std::string> expected;
  for (const std::string& source : corpus)
    for (const Mode& mode : modes)
      expected.push_back(parse_outcome(source, mode.permissive,
                                       mode.max_errors, source.size()));
  for (const std::size_t jobs : {1u, 4u}) {
    PoolJobs pool(jobs);
    for (const std::size_t chunk_bytes : {1u, 97u}) {
      std::size_t k = 0;
      for (std::size_t i = 0; i < corpus.size(); ++i) {
        for (const Mode& mode : modes) {
          EXPECT_EQ(parse_outcome(corpus[i], mode.permissive, mode.max_errors,
                                  chunk_bytes),
                    expected[k])
              << "source " << i << ", jobs " << jobs << ", chunk_bytes "
              << chunk_bytes << ", permissive " << mode.permissive
              << ", max_errors " << mode.max_errors;
          ++k;
        }
      }
    }
  }
}

TEST(BenchChunks, LargeInputsParseLikeOneChunk) {
  // Above its size floor parse_bench splits the input.  A long chain of
  // gates whose arguments point both back and forward gets over it.
  std::string source = "INPUT(in)\nOUTPUT(n0)\n";
  for (int i = 0; i < 200'000; ++i)
    source += "n" + std::to_string(i) + " = NAND(n" + std::to_string(i + 1) +
              ", " + (i < 100 ? std::string("in") : "n" + std::to_string(i / 2)) +
              ")  # gate\n";
  source += "n200000 = NOT(in)\n";
  ASSERT_GT(source.size(), std::size_t{4} << 20);
  PoolJobs pool(4);
  diag::Diagnostics diags;
  EXPECT_EQ(pipeline::netlist_fingerprint(parse_bench(source)),
            pipeline::netlist_fingerprint(detail::parse_bench_chunked(
                source, ParseOptions{}, diags, source.size())));
}

TEST(BenchChunks, CancelledCheckpointAbortsTokenising) {
  const std::string source = family_bench("b03s");
  exec::CancelToken token;
  token.request_cancel();
  ParseOptions options;
  options.checkpoint = exec::Checkpoint(token, exec::Deadline());
  for (const std::size_t jobs : {1u, 4u}) {
    PoolJobs pool(jobs);
    for (const bool permissive : {false, true}) {
      options.permissive = permissive;
      diag::Diagnostics diags;
      EXPECT_THROW(detail::parse_bench_chunked(source, options, diags, 64),
                   exec::CancelledError);
      EXPECT_TRUE(diags.empty());
    }
  }
}

}  // namespace
}  // namespace netrev::parser
