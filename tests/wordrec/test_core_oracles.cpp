// The CompactView cone hasher and control-signal finder against the
// pointer-netlist implementations they replaced (tests/support/
// cone_oracle.h), on 200 seeded random designs and three Table 1 designs:
//   * subtree_key for every net at depths 0-4, with no assignment and under
//     propagate() closures of random seed sets;
//   * signature for every net at cone depths 1-4, likewise;
//   * find_relevant_control_signals over random and real dissimilar root
//     sets, with and without a dataflow constant mask.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analysis/dataflow.h"
#include "common/rng.h"
#include "itc/family.h"
#include "netlist/compact.h"
#include "netlist/random_netlist.h"
#include "support/cone_oracle.h"
#include "wordrec/assignment.h"
#include "wordrec/control.h"
#include "wordrec/grouping.h"
#include "wordrec/hash_key.h"
#include "wordrec/matching.h"

namespace netrev::wordrec {
namespace {

using netlist::CompactView;
using netlist::NetId;
using netlist::Netlist;
using Seeds = std::vector<std::pair<NetId, bool>>;

constexpr std::uint64_t kRandomDesigns = 200;
constexpr int kSeedSetsPerDesign = 4;
constexpr int kRootSetsPerDesign = 12;

netlist::RandomNetlistSpec random_spec(std::uint64_t seed) {
  netlist::RandomNetlistSpec spec;
  spec.primary_inputs = 2 + seed % 7;
  spec.flops = seed % 5;
  spec.combinational_gates = 10 + seed % 61;
  spec.max_fanin = 2 + seed % 3;
  spec.include_constants = seed % 3 == 0;
  spec.seed = seed;
  return spec;
}

NetId random_net(const Netlist& nl, Rng& rng) {
  return NetId(static_cast<std::uint32_t>(rng.next_below(nl.net_count())));
}

// Closure maps of random 1-3 net seed sets; infeasible sets are skipped
// (the hashers require a closed assignment).
std::vector<AssignmentMap> random_closures(const Netlist& nl,
                                           const CompactView& view, Rng& rng,
                                           int count) {
  std::vector<AssignmentMap> closures;
  for (int k = 0; k < count; ++k) {
    Seeds seeds;
    const std::size_t size = 1 + rng.next_below(3);
    for (std::size_t i = 0; i < size; ++i)
      seeds.emplace_back(random_net(nl, rng), rng.next_bool());
    PropagationResult closure = propagate(view, seeds);
    if (closure.feasible) closures.push_back(std::move(closure.map));
  }
  return closures;
}

// Every net's keys and signatures agree with the oracle under `assignment`.
// Returns how many keys were compared.
std::size_t expect_hashing_matches(const Netlist& nl, const CompactView& view,
                                   Options options,
                                   const AssignmentMap* assignment) {
  std::size_t compared = 0;
  const ConeHasher hasher(view, options);
  for (std::uint32_t n = 0; n < nl.net_count(); ++n) {
    const NetId net(n);
    for (std::size_t depth = 0; depth <= 4; ++depth) {
      EXPECT_EQ(hasher.subtree_key(net, depth, assignment),
                testing::oracle_subtree_key(nl, options, net, depth,
                                            assignment))
          << "net " << nl.net(net).name << " depth " << depth;
      ++compared;
    }
  }
  for (std::size_t cone_depth = 1; cone_depth <= 4; ++cone_depth) {
    options.cone_depth = cone_depth;
    const ConeHasher deep(view, options);
    for (std::uint32_t n = 0; n < nl.net_count(); ++n) {
      const NetId net(n);
      const BitSignature got = deep.signature(net, assignment);
      const BitSignature want =
          testing::oracle_signature(nl, options, net, assignment);
      EXPECT_EQ(got.root_type, want.root_type) << nl.net(net).name;
      EXPECT_EQ(got.subtrees, want.subtrees)
          << "net " << nl.net(net).name << " cone depth " << cone_depth;
    }
  }
  return compared;
}

// Control signals agree with the oracle for `roots`, with and without the
// dataflow mask.  Returns the number of signals found without the mask.
std::size_t expect_control_matches(const Netlist& nl, const CompactView& view,
                                   const std::vector<NetId>& roots,
                                   Options options,
                                   const std::vector<std::uint8_t>& mask) {
  std::size_t found = 0;
  for (const bool use_dataflow : {false, true}) {
    options.use_dataflow = use_dataflow;
    options.constant_nets = &mask;
    const std::vector<NetId> got =
        find_relevant_control_signals(view, roots, options);
    EXPECT_EQ(got, testing::oracle_control_signals(nl, roots, options))
        << "dataflow " << use_dataflow << ", " << roots.size() << " root(s)";
    if (!use_dataflow) found += got.size();
  }
  return found;
}

// Distinct dissimilar roots of every partial subgroup of the design.
std::vector<std::vector<NetId>> real_root_sets(const Netlist& nl,
                                               const CompactView& view,
                                               const Options& options) {
  const ConeHasher hasher(view, options);
  std::vector<std::vector<NetId>> root_sets;
  for (const PotentialBitGroup& group : potential_bit_groups(nl)) {
    std::vector<BitSignature> signatures;
    for (NetId bit : group) signatures.push_back(hasher.signature(bit));
    for (const Subgroup& subgroup : form_subgroups(group, signatures)) {
      std::vector<NetId> roots;
      for (const auto& per_bit : subgroup.dissimilar)
        for (NetId root : per_bit)
          if (std::find(roots.begin(), roots.end(), root) == roots.end())
            roots.push_back(root);
      if (!roots.empty()) root_sets.push_back(std::move(roots));
    }
  }
  return root_sets;
}

TEST(CoreOracles, HashingMatchesOracleOnRandomNetlists) {
  std::size_t compared = 0, closed = 0;
  for (std::uint64_t seed = 1; seed <= kRandomDesigns; ++seed) {
    const Netlist nl = netlist::random_netlist(random_spec(seed));
    const CompactView view = CompactView::build(nl);
    Options options;
    options.distinguish_leaf_kinds = seed % 4 != 0;
    compared += expect_hashing_matches(nl, view, options, nullptr);
    Rng rng(seed * 104729);
    for (const AssignmentMap& closure :
         random_closures(nl, view, rng, kSeedSetsPerDesign)) {
      compared += expect_hashing_matches(nl, view, options, &closure);
      ++closed;
    }
    if (HasFailure()) FAIL() << "design seed " << seed;
  }
  // The sweep must reach real reduced cones, not just the plain ones.
  EXPECT_GT(closed, kRandomDesigns);
  EXPECT_GT(compared, kRandomDesigns * 50);
}

TEST(CoreOracles, ControlSignalsMatchOracleOnRandomNetlists) {
  std::size_t found = 0;
  for (std::uint64_t seed = 1; seed <= kRandomDesigns; ++seed) {
    const Netlist nl = netlist::random_netlist(random_spec(seed));
    const CompactView view = CompactView::build(nl);
    const std::vector<std::uint8_t> mask =
        analysis::run_dataflow(nl).constant_mask();
    Options options;
    options.cone_depth = 2 + seed % 4;
    options.max_control_signals_per_subgroup = seed % 5 == 0 ? 2 : 8;
    Rng rng(seed * 15485863);
    for (int k = 0; k < kRootSetsPerDesign; ++k) {
      std::vector<NetId> roots;
      const std::size_t size = 1 + rng.next_below(3);
      for (std::size_t i = 0; i < size; ++i) {
        const NetId root = random_net(nl, rng);
        if (std::find(roots.begin(), roots.end(), root) == roots.end())
          roots.push_back(root);
      }
      found += expect_control_matches(nl, view, roots, options, mask);
    }
    for (const auto& roots : real_root_sets(nl, view, options))
      found += expect_control_matches(nl, view, roots, options, mask);
    if (HasFailure()) FAIL() << "design seed " << seed;
  }
  EXPECT_GT(found, kRandomDesigns);
}

class CoreOraclesFamily : public ::testing::TestWithParam<const char*> {};

TEST_P(CoreOraclesFamily, HashingAndControlMatchOracle) {
  const itc::GeneratedBenchmark bench = itc::build_benchmark(GetParam());
  const Netlist& nl = bench.netlist;
  const CompactView view = CompactView::build(nl);
  const Options options;
  expect_hashing_matches(nl, view, options, nullptr);
  Rng rng(0xC0DE);
  for (const AssignmentMap& closure : random_closures(nl, view, rng, 8))
    expect_hashing_matches(nl, view, options, &closure);

  const std::vector<std::uint8_t> mask =
      analysis::run_dataflow(nl).constant_mask();
  const auto root_sets = real_root_sets(nl, view, options);
  ASSERT_FALSE(root_sets.empty());
  for (const auto& roots : root_sets)
    expect_control_matches(nl, view, roots, options, mask);
}

INSTANTIATE_TEST_SUITE_P(Family, CoreOraclesFamily,
                         ::testing::Values("b03s", "b08s", "b13s"));

}  // namespace
}  // namespace netrev::wordrec
