// The paper's Figure 1 walk-through as an executable specification (see
// also bench/fig1_casestudy.cpp which narrates the same steps).
#include <gtest/gtest.h>

#include <algorithm>

#include "itc/fig1.h"
#include "netlist/validate.h"
#include "wordrec/baseline.h"
#include "wordrec/control.h"
#include "wordrec/identify.h"
#include "wordrec/matching.h"

namespace netrev::wordrec {
namespace {

using itc::Fig1Circuit;
using netlist::NetId;

class Fig1Test : public ::testing::Test {
 protected:
  Fig1Test()
      : fig_(itc::build_fig1_circuit()),
        view_(netlist::CompactView::build(fig_.netlist)),
        hasher_(view_, options_) {}

  std::vector<NetId> dissimilar_roots() const {
    std::vector<NetId> roots;
    for (std::size_t i = 0; i + 1 < fig_.word_bits.size(); ++i) {
      const auto match =
          compare_bits(hasher_.signature(fig_.word_bits[i]),
                       hasher_.signature(fig_.word_bits[i + 1]));
      for (const auto& side : {match.dissimilar_a, match.dissimilar_b})
        for (NetId root : side)
          if (std::find(roots.begin(), roots.end(), root) == roots.end())
            roots.push_back(root);
    }
    return roots;
  }

  bool unified_under(std::initializer_list<std::pair<NetId, bool>> seeds) const {
    const std::vector<std::pair<NetId, bool>> seed_vec(seeds);
    const auto prop =
        propagate(view_, seed_vec);
    if (!prop.feasible) return false;
    const auto first = hasher_.signature(fig_.word_bits[0], &prop.map);
    if (!first.root_type.has_value()) return false;
    for (std::size_t i = 1; i < fig_.word_bits.size(); ++i)
      if (!first.structurally_equal(
              hasher_.signature(fig_.word_bits[i], &prop.map)))
        return false;
    return true;
  }

  Options options_;
  Fig1Circuit fig_;
  netlist::CompactView view_;
  ConeHasher hasher_;
};

TEST_F(Fig1Test, CircuitValidates) {
  EXPECT_TRUE(netlist::validate(fig_.netlist).ok());
}

TEST_F(Fig1Test, BitsOnlyPartiallyMatch) {
  for (std::size_t i = 0; i + 1 < fig_.word_bits.size(); ++i) {
    const auto match = compare_bits(hasher_.signature(fig_.word_bits[i]),
                                    hasher_.signature(fig_.word_bits[i + 1]));
    EXPECT_FALSE(match.full);
    EXPECT_TRUE(match.partial);
  }
}

TEST_F(Fig1Test, TwoSimilarSubtreesPerBitPair) {
  const auto match = compare_bits(hasher_.signature(fig_.word_bits[0]),
                                  hasher_.signature(fig_.word_bits[1]));
  // 3 subtrees each, exactly one dissimilar on each side.
  EXPECT_EQ(match.dissimilar_a.size(), 1u);
  EXPECT_EQ(match.dissimilar_b.size(), 1u);
}

TEST_F(Fig1Test, BaselineCannotGroupTheWord) {
  const WordSet base = identify_words_baseline(fig_.netlist, options_);
  const auto index = base.index_of_net();
  const auto w0 = index.at(fig_.word_bits[0]);
  const auto w1 = index.at(fig_.word_bits[1]);
  const auto w2 = index.at(fig_.word_bits[2]);
  EXPECT_NE(w0, w1);
  EXPECT_NE(w1, w2);
}

TEST_F(Fig1Test, ControlDiscoveryFindsU201AndU221) {
  const auto signals =
      find_relevant_control_signals(view_, dissimilar_roots(), options_);
  ASSERT_EQ(signals.size(), 2u);
  EXPECT_TRUE(std::find(signals.begin(), signals.end(), fig_.u201) !=
              signals.end());
  EXPECT_TRUE(std::find(signals.begin(), signals.end(), fig_.u221) !=
              signals.end());
}

TEST_F(Fig1Test, DominatedU223IsDropped) {
  const auto signals =
      find_relevant_control_signals(view_, dissimilar_roots(), options_);
  EXPECT_TRUE(std::find(signals.begin(), signals.end(), fig_.u223) ==
              signals.end());
}

TEST_F(Fig1Test, MatchingSubtreeSelectsAreNotCandidates) {
  const auto signals =
      find_relevant_control_signals(view_, dissimilar_roots(), options_);
  EXPECT_TRUE(std::find(signals.begin(), signals.end(), fig_.u202) ==
              signals.end());
  EXPECT_TRUE(std::find(signals.begin(), signals.end(), fig_.u255) ==
              signals.end());
}

TEST_F(Fig1Test, U221AloneRemovesOnlyTwoSubtrees) {
  EXPECT_FALSE(unified_under({{fig_.u221, false}}));
}

TEST_F(Fig1Test, U201AloneUnifiesAllThreeBits) {
  EXPECT_TRUE(unified_under({{fig_.u201, false}}));
}

TEST_F(Fig1Test, PairAssignmentAlsoUnifies) {
  EXPECT_TRUE(unified_under({{fig_.u201, false}, {fig_.u221, false}}));
}

TEST_F(Fig1Test, FullPipelineIdentifiesTheWord) {
  const IdentifyResult ours = identify_words(fig_.netlist, options_);
  bool found = false;
  for (const UnifiedWord& word : ours.unified) {
    bool all = true;
    for (NetId bit : fig_.word_bits)
      if (std::find(word.bits.begin(), word.bits.end(), bit) == word.bits.end())
        all = false;
    if (!all) continue;
    found = true;
    ASSERT_EQ(word.assignment.size(), 1u);
    EXPECT_EQ(word.assignment[0].first, fig_.u201);
    EXPECT_EQ(word.assignment[0].second, false);
  }
  EXPECT_TRUE(found);
}

TEST_F(Fig1Test, StraysDoNotJoinTheWord) {
  const IdentifyResult ours = identify_words(fig_.netlist, options_);
  const auto index = ours.words.index_of_net();
  const auto word_index = index.at(fig_.word_bits[0]);
  const auto stray = fig_.netlist.find_net("U218");
  ASSERT_TRUE(stray.has_value());
  EXPECT_NE(index.at(*stray), word_index);
}

}  // namespace
}  // namespace netrev::wordrec
