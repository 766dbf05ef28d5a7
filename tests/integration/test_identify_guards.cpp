// The structural guards of identify_words(), differentially:
//   * the cone-work budget trips exactly when a run's total cone work
//     exceeds max_cone_work, at any job count, and a run that does not trip
//     produces the bytes of an unlimited run (walks charge in strides, so
//     only the total may decide a trip);
//   * the combinational-cycle pre-pass rejects exactly the designs
//     analysis::combinational_sccs finds cyclic, with its message, although
//     it consults the SCC sweep only when the CompactView levelization (or a
//     flop reading its own output) says so.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/scc.h"
#include "common/resource_guard.h"
#include "common/thread_pool.h"
#include "eval/report.h"
#include "exec/degrade.h"
#include "itc/family.h"
#include "netlist/compact.h"
#include "netlist/random_netlist.h"
#include "parser/bench_parser.h"
#include "wordrec/degrade.h"
#include "wordrec/identify.h"

namespace netrev {
namespace {

using netlist::Netlist;
using netlist::NetId;

// Restores the global pool size however a test exits.
struct JobsScope {
  explicit JobsScope(std::size_t jobs) { ThreadPool::set_global_jobs(jobs); }
  ~JobsScope() { ThreadPool::set_global_jobs(0); }
};


wordrec::Options limited(std::size_t limit) {
  wordrec::Options options;
  options.max_cone_work = limit;
  return options;
}

struct BudgetCase {
  const char* design;
};

void PrintTo(const BudgetCase& c, std::ostream* out) { *out << c.design; }

class ConeBudgetSweep : public ::testing::TestWithParam<BudgetCase> {};

TEST_P(ConeBudgetSweep, TripsIffLimitIsBelowTheUnlimitedTotal) {
  const Netlist nl = itc::build_benchmark(GetParam().design).netlist;
  // An unlimited run; its total cone work W is read off a caller-shared
  // budget, which only counts.
  WorkBudget probe;
  wordrec::Options unlimited_options;
  unlimited_options.cone_budget = &probe;
  const std::string unlimited = eval::identify_result_to_json(
      nl, wordrec::identify_words(nl, unlimited_options));
  const std::size_t total = probe.spent();
  ASSERT_GT(total, 1u);

  // W - 1, W, and a geometric ladder below W.
  std::vector<std::size_t> limits = {total, total - 1};
  for (std::size_t limit = total / 2; limit > 0; limit /= 8)
    limits.push_back(limit);

  for (std::size_t limit : limits) {
    SCOPED_TRACE("limit " + std::to_string(limit) + " of " +
                 std::to_string(total));
    const bool trips = limit < total;
    std::string serial_degraded;
    exec::DegradeLevel serial_level = exec::DegradeLevel::kFull;
    for (std::size_t jobs : {1u, 4u}) {
      SCOPED_TRACE("jobs " + std::to_string(jobs));
      const JobsScope scope(jobs);
      if (trips) {
        EXPECT_THROW((void)wordrec::identify_words(nl, limited(limit)),
                     ResourceLimitError);
      } else {
        EXPECT_EQ(eval::identify_result_to_json(
                      nl, wordrec::identify_words(nl, limited(limit))),
                  unlimited);
      }

      // The ladder's rungs below kFull re-run identification; checking the
      // rung at the boundary (W - 1, W) keeps the sweep cheap.
      if (limit + 1 < total) continue;
      const wordrec::IdentifyResult degradable =
          wordrec::identify_words_degradable(nl, limited(limit),
                                             exec::DegradePolicy{});
      const std::string bytes = eval::identify_result_to_json(nl, degradable);
      EXPECT_EQ(degradable.degraded(), trips);
      if (!trips) {
        EXPECT_EQ(bytes, unlimited);
      }
      if (jobs == 1) {
        serial_degraded = bytes;
        serial_level = degradable.degrade_level;
      } else {
        EXPECT_EQ(degradable.degrade_level, serial_level);
        EXPECT_EQ(bytes, serial_degraded);
      }
    }
  }
}

const BudgetCase kBudgetCases[] = {
    {"b03s"}, {"b04s"}, {"b05s"}, {"b07s"}, {"b08s"}, {"b11s"},
    {"b12s"}, {"b13s"}, {"b14s"}, {"b15s"}, {"b17s"}, {"b18s"},
};

INSTANTIATE_TEST_SUITE_P(Family, ConeBudgetSweep,
                         ::testing::ValuesIn(kBudgetCases));

// A copy of `nl` with `rewires` gate inputs redirected to a random gate's
// output, a quarter of them to the gate's own output (a self-loop).  Most
// rewires that point downstream close a combinational cycle; the rest (and
// every rewire of a flop's D input) leave the design acyclic.
Netlist with_rewired_inputs(const Netlist& nl, std::size_t rewires,
                            std::mt19937_64& rng) {
  std::vector<std::vector<NetId>> inputs(nl.gate_count());
  for (std::size_t g = 0; g < nl.gate_count(); ++g)
    inputs[g] = nl.gate(nl.gate_id_at(g)).inputs;
  for (std::size_t r = 0; r < rewires; ++r) {
    const std::size_t g = rng() % nl.gate_count();
    if (inputs[g].empty()) continue;
    const std::size_t target = rng() % 4 == 0 ? g : rng() % nl.gate_count();
    inputs[g][rng() % inputs[g].size()] =
        nl.gate(nl.gate_id_at(target)).output;
  }

  Netlist out(nl.name());
  for (std::size_t n = 0; n < nl.net_count(); ++n) {
    const netlist::Net& net = nl.net(nl.net_id_at(n));
    const NetId id = out.add_net(net.name);
    if (net.is_primary_input) out.mark_primary_input(id);
    if (net.is_primary_output) out.mark_primary_output(id);
  }
  for (std::size_t g = 0; g < nl.gate_count(); ++g) {
    const netlist::Gate& gate = nl.gate(nl.gate_id_at(g));
    out.add_gate(gate.type, gate.output, inputs[g]);
  }
  return out;
}

TEST(AcyclicityProperty, LevelizationAgreesWithSccsAndIdentifyNamesTheCycle) {
  std::mt19937_64 rng(0x5eed);
  std::size_t cyclic = 0;
  std::size_t self_loops = 0;
  std::size_t flop_self_loops = 0;
  std::size_t acyclic_flop_self_loops = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    netlist::RandomNetlistSpec spec;
    spec.seed = seed;
    spec.combinational_gates = 20 + seed % 7 * 15;
    spec.flops = seed % 5;
    spec.include_constants = seed % 3 == 0;
    const Netlist nl =
        with_rewired_inputs(netlist::random_netlist(spec), seed % 4, rng);
    SCOPED_TRACE("seed " + std::to_string(seed));

    const std::vector<analysis::CombinationalScc> sccs =
        analysis::combinational_sccs(nl);
    // A flop reading its own output is previous-cycle state: neither the
    // levelization nor the SCC sweep counts it as a cycle.
    bool flop_self_loop = false;
    for (std::size_t g = 0; g < nl.gate_count(); ++g) {
      const netlist::Gate& gate = nl.gate(nl.gate_id_at(g));
      if (gate.type == netlist::GateType::kDff && gate.inputs[0] == gate.output)
        flop_self_loop = true;
    }
    flop_self_loops += flop_self_loop ? 1 : 0;
    ASSERT_EQ(netlist::CompactView::build(nl).acyclic(), sccs.empty());
    if (sccs.empty()) {
      EXPECT_NO_THROW(analysis::require_acyclic(nl));
      if (flop_self_loop) {
        EXPECT_NO_THROW((void)wordrec::identify_words(nl));
        ++acyclic_flop_self_loops;
      }
      continue;
    }
    ++cyclic;
    for (const analysis::CombinationalScc& scc : sccs)
      if (scc.gates.size() == 1) ++self_loops;

    std::string expected;
    try {
      analysis::require_acyclic(nl);
    } catch (const analysis::StructuralDefectError& error) {
      expected = error.what();
    }
    ASSERT_FALSE(expected.empty());
    try {
      (void)wordrec::identify_words(nl);
      ADD_FAILURE() << "identify_words accepted a cyclic design";
    } catch (const analysis::StructuralDefectError& error) {
      EXPECT_EQ(std::string(error.what()), expected);
    }
  }
  // The injection must exercise both verdicts and both kinds of self-loop.
  EXPECT_GT(cyclic, 40u);
  EXPECT_LT(cyclic, 180u);
  EXPECT_GT(self_loops, 5u);
  EXPECT_GT(flop_self_loops, 0u);
  EXPECT_GT(acyclic_flop_self_loops, 0u);
}

// q = DFF(q) is the only loop: identify succeeds (a flop output is a cone
// leaf, never a combinational cycle).
TEST(AcyclicityProperty, FlopSelfLoopAloneIdentifies) {
  const Netlist nl =
      parser::parse_bench("INPUT(a)\nOUTPUT(y)\nq = DFF(q)\ny = AND(a, q)\n");
  EXPECT_TRUE(analysis::combinational_sccs(nl).empty());
  EXPECT_NO_THROW(analysis::require_acyclic(nl));
  EXPECT_NO_THROW((void)wordrec::identify_words(nl));
}

}  // namespace
}  // namespace netrev
