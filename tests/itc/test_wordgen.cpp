#include "itc/wordgen.h"

#include <gtest/gtest.h>

#include "netlist/validate.h"
#include "wordrec/baseline.h"
#include "wordrec/hash_key.h"
#include "wordrec/identify.h"
#include "wordrec/matching.h"

namespace netrev::itc {
namespace {

using netlist::GateType;
using netlist::NetId;
using netlist::Netlist;

struct Forge {
  Netlist nl{"forge"};
  rtl::NetNamer namer{nl, 100};
  Rng rng{7};
  WordForge forge{namer, rng};
  std::vector<NetId> flops;
  std::vector<NetId> pis;

  Forge() {
    for (int i = 0; i < 12; ++i) {
      const NetId pi = nl.add_net("IN" + std::to_string(i));
      nl.mark_primary_input(pi);
      pis.push_back(pi);
    }
    // The flop pool must be flop-DRIVEN before hashing so cone leaves carry
    // the 'f' kind (as in real netlists, where Q nets always have drivers).
    for (int i = 0; i < 12; ++i) {
      const NetId q = nl.add_net("SRC_reg_" + std::to_string(i) + "_");
      nl.add_gate(GateType::kDff, q, {pis[static_cast<std::size_t>(i)]});
      flops.push_back(q);
    }
    forge.set_pools(flops, pis);
  }

  // Give every floating net a sink so validation can run.
  void finalize(const std::vector<NetId>& d_nets) {
    (void)d_nets;
    for (std::size_t n = 0; n < nl.net_count(); ++n) {
      const NetId id = nl.net_id_at(n);
      if (nl.net(id).fanouts.empty()) nl.mark_primary_output(id);
    }
  }

  WordPlan plan(WordKind kind, std::size_t width, std::size_t plain = 0,
                std::size_t pieces = 2) {
    WordPlan p;
    p.kind = kind;
    p.name = "W";
    p.width = width;
    p.plain_bits = plain;
    p.pieces = pieces;
    return p;
  }
};

TEST(WordForge, PoolsMustBeLargeEnough) {
  Netlist nl;
  rtl::NetNamer namer(nl, 100);
  Rng rng(1);
  WordForge forge(namer, rng);
  EXPECT_THROW(forge.set_pools({}, {}), ContractViolation);
}

TEST(WordForge, CleanWordBitsFullyMatch) {
  Forge f;
  const auto word = f.forge.emit_word(f.plan(WordKind::kClean, 4), 0);
  f.finalize(word.d_nets);
  ASSERT_TRUE(netlist::validate(f.nl).ok());

  const netlist::CompactView view = netlist::CompactView::build(f.nl);
  const wordrec::ConeHasher hasher(view, {});
  const auto first = hasher.signature(word.d_nets[0]);
  for (std::size_t i = 1; i < word.d_nets.size(); ++i)
    EXPECT_TRUE(first.structurally_equal(hasher.signature(word.d_nets[i])));
  EXPECT_TRUE(word.controls_used.empty());
}

TEST(WordForge, CleanShapesAreMutuallyAlien) {
  // Any two different shape indices produce bits that share no subtree key.
  for (std::size_t s1 = 0; s1 < WordForge::kPlainShapeCount; ++s1) {
    for (std::size_t s2 = s1 + 1; s2 < WordForge::kPlainShapeCount; ++s2) {
      Forge f;
      const auto w1 = f.forge.emit_word(f.plan(WordKind::kClean, 2), s1);
      const auto w2 = f.forge.emit_word(f.plan(WordKind::kClean, 2), s2);
      const netlist::CompactView view = netlist::CompactView::build(f.nl);
      const wordrec::ConeHasher hasher(view, {});
      const auto match = wordrec::compare_bits(hasher.signature(w1.d_nets[0]),
                                               hasher.signature(w2.d_nets[0]));
      EXPECT_FALSE(match.full) << s1 << " vs " << s2;
      EXPECT_FALSE(match.partial) << s1 << " vs " << s2;
    }
  }
}

TEST(WordForge, ControlWordAdjacentBitsOnlyPartiallyMatch) {
  Forge f;
  const auto word =
      f.forge.emit_word(f.plan(WordKind::kControlFromNotFound, 4), 0);
  const netlist::CompactView view = netlist::CompactView::build(f.nl);
  const wordrec::ConeHasher hasher(view, {});
  for (std::size_t i = 0; i + 1 < word.d_nets.size(); ++i) {
    const auto match = wordrec::compare_bits(hasher.signature(word.d_nets[i]),
                                             hasher.signature(word.d_nets[i + 1]));
    EXPECT_FALSE(match.full);
    EXPECT_TRUE(match.partial);
  }
  ASSERT_EQ(word.controls_used.size(), 1u);
}

TEST(WordForge, ControlWordUnifiesUnderControlAssignment) {
  Forge f;
  const auto word =
      f.forge.emit_word(f.plan(WordKind::kControlFromNotFound, 4), 0);
  const netlist::CompactView view = netlist::CompactView::build(f.nl);
  const wordrec::ConeHasher hasher(view, {});
  const std::pair<NetId, bool> seeds[] = {{word.controls_used[0], false}};
  const auto prop =
      wordrec::propagate(netlist::CompactView::build(f.nl), seeds);
  ASSERT_TRUE(prop.feasible);
  const auto first = hasher.signature(word.d_nets[0], &prop.map);
  for (std::size_t i = 1; i < word.d_nets.size(); ++i)
    EXPECT_TRUE(first.structurally_equal(
        hasher.signature(word.d_nets[i], &prop.map)));
}

TEST(WordForge, PairWordNeedsBothControls) {
  Forge f;
  const auto word = f.forge.emit_word(f.plan(WordKind::kControlPair, 3), 0);
  ASSERT_EQ(word.controls_used.size(), 2u);
  const netlist::CompactView view = netlist::CompactView::build(f.nl);
  const wordrec::ConeHasher hasher(view, {});

  const auto unified = [&](std::vector<std::pair<NetId, bool>> seeds) {
    const auto prop =
      wordrec::propagate(netlist::CompactView::build(f.nl), seeds);
    if (!prop.feasible) return false;
    const auto first = hasher.signature(word.d_nets[0], &prop.map);
    if (!first.root_type.has_value()) return false;
    for (std::size_t i = 1; i < word.d_nets.size(); ++i)
      if (!first.structurally_equal(
              hasher.signature(word.d_nets[i], &prop.map)))
        return false;
    return true;
  };

  EXPECT_FALSE(unified({{word.controls_used[0], false}}));
  EXPECT_FALSE(unified({{word.controls_used[1], false}}));
  EXPECT_TRUE(unified(
      {{word.controls_used[0], false}, {word.controls_used[1], false}}));
}

TEST(WordForge, PartialBothSplitsIntoAlienClusters) {
  Forge f;
  const auto word =
      f.forge.emit_word(f.plan(WordKind::kPartialBoth, 6, 0, 3), 0);
  const netlist::CompactView view = netlist::CompactView::build(f.nl);
  const wordrec::ConeHasher hasher(view, {});
  // Cluster boundaries at 2 and 4: no match across, full match within.
  const auto across1 = wordrec::compare_bits(hasher.signature(word.d_nets[1]),
                                             hasher.signature(word.d_nets[2]));
  EXPECT_FALSE(across1.full);
  EXPECT_FALSE(across1.partial);
  const auto within = wordrec::compare_bits(hasher.signature(word.d_nets[0]),
                                            hasher.signature(word.d_nets[1]));
  EXPECT_TRUE(within.full);
}

TEST(WordForge, HeteroBitsShareNothing) {
  Forge f;
  const auto word = f.forge.emit_word(f.plan(WordKind::kNotFoundBoth, 6), 0);
  const netlist::CompactView view = netlist::CompactView::build(f.nl);
  const wordrec::ConeHasher hasher(view, {});
  for (std::size_t i = 0; i + 1 < word.d_nets.size(); ++i) {
    const auto match = wordrec::compare_bits(hasher.signature(word.d_nets[i]),
                                             hasher.signature(word.d_nets[i + 1]));
    EXPECT_FALSE(match.full) << i;
    EXPECT_FALSE(match.partial) << i;
  }
}

TEST(WordForge, RootGatesAreConsecutiveLines) {
  Forge f;
  const auto word =
      f.forge.emit_word(f.plan(WordKind::kControlFromPartial, 5, 2), 0);
  const auto order = f.nl.gates_in_file_order();
  std::vector<std::size_t> positions;
  for (NetId d : word.d_nets)
    for (std::size_t pos = 0; pos < order.size(); ++pos)
      if (f.nl.gate(order[pos]).output == d) positions.push_back(pos);
  ASSERT_EQ(positions.size(), 5u);
  for (std::size_t i = 1; i < positions.size(); ++i)
    EXPECT_EQ(positions[i], positions[i - 1] + 1);
}

TEST(WordForge, FillerNeverEmitsNand) {
  Forge f;
  f.forge.emit_filler(50);
  for (std::size_t g = 0; g < f.nl.gate_count(); ++g)
    EXPECT_NE(f.nl.gate(f.nl.gate_id_at(g)).type, GateType::kNand);
  EXPECT_EQ(f.forge.loose_nets().size(), 1u);
}

TEST(WordForge, FillerEmitsExactCount) {
  Forge f;
  const std::size_t before = f.nl.gate_count();
  f.forge.emit_filler(37);
  EXPECT_EQ(f.nl.gate_count(), before + 37u);
}

TEST(WordForge, ScalarNextIsSeparatorLine) {
  Forge f;
  const NetId q = f.nl.add_net("FLAG_reg");
  const NetId d = f.forge.emit_scalar_next(q);
  const auto drv = f.nl.driver_of(d);
  ASSERT_TRUE(drv.has_value());
  EXPECT_EQ(f.nl.gate(*drv).type, GateType::kNot);
}

}  // namespace
}  // namespace netrev::itc
