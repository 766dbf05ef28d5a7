// The flat constant-propagation kernel against two independent judges:
//   * the pointer-netlist closure it replaced (tests/support/
//     propagate_oracle.h): same feasibility verdict and the same
//     (net, value) sequence in FIFO order, on random and family designs;
//   * exhaustive bit-parallel simulation: every implied value holds on every
//     input vector that meets the seeds, and "infeasible" is reported only
//     when no such vector exists.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/cancel.h"
#include "itc/family.h"
#include "netlist/compact.h"
#include "netlist/random_netlist.h"
#include "sim/packed.h"
#include "support/propagate_oracle.h"
#include "wordrec/assignment.h"
#include "wordrec/identify.h"
#include "wordrec/trace.h"

namespace netrev::wordrec {
namespace {

using netlist::CompactView;
using netlist::GateType;
using netlist::NetId;
using netlist::Netlist;
using Seeds = std::vector<std::pair<NetId, bool>>;

constexpr std::uint64_t kRandomDesigns = 200;
constexpr int kSeedSetsPerDesign = 6;

// Small enough to enumerate: at most 7 primary inputs and 5 flops, so at
// most 12 free inputs (4096 vectors).
netlist::RandomNetlistSpec small_spec(std::uint64_t seed) {
  netlist::RandomNetlistSpec spec;
  spec.primary_inputs = 1 + seed % 7;
  spec.flops = seed % 6;
  spec.combinational_gates = 10 + seed % 71;
  spec.max_fanin = 2 + seed % 3;
  spec.include_constants = seed % 4 == 0;
  spec.seed = seed;
  return spec;
}

// 1-3 random nets with random values (a net may repeat, possibly with the
// opposite value — a directly contradictory seed set).
Seeds random_seeds(const Netlist& nl, Rng& rng) {
  Seeds seeds;
  const std::size_t count = 1 + rng.next_below(3);
  for (std::size_t i = 0; i < count; ++i)
    seeds.emplace_back(NetId(static_cast<std::uint32_t>(
                           rng.next_below(nl.net_count()))),
                       rng.next_bool());
  return seeds;
}

// Flat kernel == oracle: verdict and the exact assignment sequence.
void expect_matches_oracle(const Netlist& nl, const CompactView& view,
                           const Seeds& seeds, AssignmentMap& map) {
  const bool feasible = propagate(view, seeds, map);
  const testing::OracleClosure oracle = testing::propagate_oracle(nl, seeds);
  ASSERT_EQ(feasible, oracle.feasible);
  ASSERT_EQ(map.size(), oracle.assigned.size());
  for (std::size_t i = 0; i < oracle.assigned.size(); ++i) {
    ASSERT_EQ(map.entries()[i], oracle.assigned[i].first) << "position " << i;
    ASSERT_EQ(map.value(map.entries()[i]), oracle.assigned[i].second)
        << "position " << i;
  }
}

// Every value of every net on every assignment of the free inputs (primary
// inputs and flop outputs): words[w] holds vectors 64w .. 64w+63.
struct Exhaustive {
  std::size_t vectors = 0;
  std::vector<std::vector<std::uint64_t>> words;  // [word][net]

  explicit Exhaustive(const CompactView& view) {
    std::vector<std::uint32_t> free_inputs(view.primary_inputs().begin(),
                                           view.primary_inputs().end());
    for (std::uint32_t flop : view.flop_gates())
      free_inputs.push_back(view.gate_output(flop));
    vectors = std::size_t{1} << free_inputs.size();
    sim::PackedSimulator simulator(view);
    for (std::size_t base = 0; base < vectors; base += 64) {
      for (std::size_t i = 0; i < free_inputs.size(); ++i) {
        std::uint64_t lanes = 0;
        for (std::size_t lane = 0; lane < 64; ++lane)
          if ((((base + lane) >> i) & 1) != 0)
            lanes |= std::uint64_t{1} << lane;
        if (view.is_primary_input(free_inputs[i]))
          simulator.set_input_word(free_inputs[i], lanes);
        else
          simulator.set_state_word(free_inputs[i], lanes);
      }
      simulator.eval();
      std::vector<std::uint64_t>& values = words.emplace_back();
      for (std::uint32_t net = 0; net < view.net_count(); ++net)
        values.push_back(simulator.value_word(net));
    }
  }

  // Lanes of word `w` that are real vectors and meet every seed.
  std::uint64_t meeting(std::size_t w, const Seeds& seeds) const {
    const std::size_t live = std::min<std::size_t>(64, vectors - 64 * w);
    std::uint64_t lanes =
        live == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << live) - 1;
    for (const auto& [net, value] : seeds) {
      const std::uint64_t word = words[w][net.value()];
      lanes &= value ? word : ~word;
    }
    return lanes;
  }
};

TEST(PropagateFlat, MatchesOracleOnRandomNetlists) {
  AssignmentMap map;  // reused across designs, as the reduction trials do
  std::size_t infeasible = 0, assigned = 0;
  for (std::uint64_t seed = 1; seed <= kRandomDesigns; ++seed) {
    const Netlist nl = netlist::random_netlist(small_spec(seed));
    const CompactView view = CompactView::build(nl);
    Rng rng(seed * 7919);
    for (int k = 0; k < kSeedSetsPerDesign; ++k) {
      const Seeds seeds = random_seeds(nl, rng);
      ASSERT_NO_FATAL_FAILURE(expect_matches_oracle(nl, view, seeds, map))
          << "design seed " << seed << ", seed set " << k;
      infeasible += propagate(view, seeds, map) ? 0 : 1;
      assigned += map.size();
    }
  }
  // The sweep must exercise both verdicts and real implication chains.
  EXPECT_GT(infeasible, 0u);
  EXPECT_GT(assigned, kRandomDesigns * kSeedSetsPerDesign * 2);
}

TEST(PropagateFlat, MatchesOracleOnLargerRandomNetlists) {
  AssignmentMap map;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    netlist::RandomNetlistSpec spec;
    spec.primary_inputs = 16;
    spec.flops = 24;
    spec.combinational_gates = 600;
    spec.max_fanin = 5;
    spec.include_constants = seed % 2 == 0;
    spec.seed = 1000 + seed;
    const Netlist nl = netlist::random_netlist(spec);
    const CompactView view = CompactView::build(nl);
    Rng rng(seed);
    for (int k = 0; k < 20; ++k)
      ASSERT_NO_FATAL_FAILURE(
          expect_matches_oracle(nl, view, random_seeds(nl, rng), map))
          << "design seed " << spec.seed << ", seed set " << k;
  }
}

class PropagateFlatFamily : public ::testing::TestWithParam<const char*> {};

TEST_P(PropagateFlatFamily, MatchesOracleOnRandomAndReductionSeeds) {
  const itc::GeneratedBenchmark bench = itc::build_benchmark(GetParam());
  const Netlist& nl = bench.netlist;
  const CompactView view = CompactView::build(nl);
  AssignmentMap map;

  Rng rng(0xF1A7);
  for (int k = 0; k < 200; ++k)
    ASSERT_NO_FATAL_FAILURE(
        expect_matches_oracle(nl, view, random_seeds(nl, rng), map))
        << "seed set " << k;

  // Every assignment trial the identifier actually evaluates.
  IdentifyTrace trace;
  Options options;
  options.trace = &trace;
  identify_words(nl, options);
  std::size_t trials = 0;
  for (const TraceRecord& record : trace.records) {
    if (record.kind != TraceRecord::Kind::kTrial) continue;
    ++trials;
    ASSERT_NO_FATAL_FAILURE(
        expect_matches_oracle(nl, view, record.assignment, map));
    EXPECT_EQ(propagate(view, record.assignment, map), record.flag);
  }
  EXPECT_GT(trials, 0u);
}

INSTANTIATE_TEST_SUITE_P(FiveFamilies, PropagateFlatFamily,
                         ::testing::Values("b03s", "b04s", "b08s", "b11s",
                                           "b13s"));

TEST(PropagateFlat, ClosureIsSoundUnderExhaustiveSimulation) {
  AssignmentMap map;
  std::size_t feasible_checked = 0, infeasible_checked = 0;
  for (std::uint64_t seed = 1; seed <= kRandomDesigns; ++seed) {
    const Netlist nl = netlist::random_netlist(small_spec(seed));
    const CompactView view = CompactView::build(nl);
    ASSERT_LE(view.primary_inputs().size() + view.flop_gates().size(), 12u);
    const Exhaustive truth(view);
    Rng rng(seed * 104729);
    for (int k = 0; k < kSeedSetsPerDesign; ++k) {
      const Seeds seeds = random_seeds(nl, rng);
      const bool feasible = propagate(view, seeds, map);
      bool any_meeting = false;
      for (std::size_t w = 0; w < truth.words.size(); ++w) {
        const std::uint64_t lanes = truth.meeting(w, seeds);
        if (lanes == 0) continue;
        any_meeting = true;
        if (!feasible) break;
        for (NetId net : map.entries()) {
          const std::uint64_t word = truth.words[w][net.value()];
          const std::uint64_t wrong = lanes & (*map.value(net) ? ~word : word);
          ASSERT_EQ(wrong, 0u) << "design seed " << seed << ", seed set " << k
                               << ": net " << nl.net(net).name
                               << " implied " << *map.value(net);
        }
      }
      if (feasible) {
        ++feasible_checked;
      } else {
        ++infeasible_checked;
        EXPECT_FALSE(any_meeting)
            << "design seed " << seed << ", seed set " << k
            << ": reported infeasible but a vector meets the seeds";
      }
    }
  }
  EXPECT_GT(feasible_checked, 0u);
  EXPECT_GT(infeasible_checked, 0u);
}

// A NOT chain long enough that its closure crosses several poll strides.
Netlist inverter_chain(std::size_t length) {
  Netlist nl;
  NetId prev = nl.add_net("in");
  nl.mark_primary_input(prev);
  for (std::size_t i = 0; i < length; ++i) {
    const NetId next = nl.add_net("n" + std::to_string(i));
    nl.add_gate(GateType::kNot, next, {prev});
    prev = next;
  }
  nl.mark_primary_output(prev);
  return nl;
}

TEST(PropagateFlat, CancelledTokenAbortsLongClosureAndMapStaysReusable) {
  const Netlist nl = inverter_chain(5000);
  const CompactView view = CompactView::build(nl);
  const Seeds head = {{NetId(0), true}};

  exec::CancelToken token;
  token.request_cancel();
  const exec::Checkpoint cancelled(token, exec::Deadline());
  AssignmentMap map;
  EXPECT_THROW(propagate(view, head, map, &cancelled), exec::CancelledError);
  // Aborted on the first stride boundary, long before the chain's end.
  EXPECT_EQ(map.size(), WorkBudget::kPollStride);

  // The next call on the same map sees no value of the aborted closure:
  // seeding the far end with the opposite polarity must be feasible and
  // agree with the oracle net for net.
  const NetId tail(static_cast<std::uint32_t>(nl.net_count() - 1));
  const Seeds tail_seed = {{tail, false}};
  ASSERT_NO_FATAL_FAILURE(expect_matches_oracle(nl, view, tail_seed, map));
  EXPECT_EQ(map.size(), nl.net_count());
  EXPECT_EQ(map.value(NetId(0)), false);  // an even number of inversions

  // Unarmed and armed-but-untriggered checkpoints never interrupt.
  exec::CancelToken idle;
  const exec::Checkpoint armed(idle, exec::Deadline());
  EXPECT_TRUE(propagate(view, head, map, &armed));
  EXPECT_EQ(map.size(), nl.net_count());
  EXPECT_TRUE(propagate(view, head, map));
  EXPECT_EQ(map.value(tail), true);
}

}  // namespace
}  // namespace netrev::wordrec
