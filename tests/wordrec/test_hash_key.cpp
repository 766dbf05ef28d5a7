#include "wordrec/hash_key.h"

#include <gtest/gtest.h>

#include "wordrec/assignment.h"

namespace netrev::wordrec {
namespace {

using netlist::GateType;
using netlist::NetId;
using netlist::Netlist;

struct Builder {
  Netlist nl;
  Options options;

  NetId pi(const std::string& name) {
    const NetId id = nl.add_net(name);
    nl.mark_primary_input(id);
    return id;
  }
  NetId gate(GateType type, const std::string& name,
             std::initializer_list<NetId> ins) {
    const NetId id = nl.add_net(name);
    nl.add_gate(type, id, ins);
    return id;
  }
};

TEST(HashKey, LeafKinds) {
  Builder b;
  const NetId a = b.pi("a");
  const NetId q = b.nl.add_net("q");
  const NetId d = b.pi("d");
  b.nl.add_gate(GateType::kDff, q, {d});
  const NetId c0 = b.gate(GateType::kConst0, "c0", {});

  const netlist::CompactView view = netlist::CompactView::build(b.nl);
  const ConeHasher hasher(view, b.options);
  EXPECT_EQ(hasher.subtree_key(a, 3), "p");
  EXPECT_EQ(hasher.subtree_key(q, 3), "f");
  EXPECT_EQ(hasher.subtree_key(c0, 3), "0");
}

TEST(HashKey, IndistinctLeafMode) {
  Builder b;
  b.options.distinguish_leaf_kinds = false;
  const NetId a = b.pi("a");
  const NetId q = b.nl.add_net("q");
  const NetId d = b.pi("d");
  b.nl.add_gate(GateType::kDff, q, {d});
  const netlist::CompactView view = netlist::CompactView::build(b.nl);
  const ConeHasher hasher(view, b.options);
  EXPECT_EQ(hasher.subtree_key(a, 3), "*");
  EXPECT_EQ(hasher.subtree_key(q, 3), "*");
}

TEST(HashKey, PostOrderWithSortedChildren) {
  Builder b;
  const NetId a = b.pi("a");
  const NetId q = b.nl.add_net("q");
  b.nl.add_gate(GateType::kDff, q, {b.pi("d")});
  // NAND(q, a) and NAND(a, q) must hash identically (fanins sorted).
  const NetId y1 = b.gate(GateType::kNand, "y1", {q, a});
  const NetId y2 = b.gate(GateType::kNand, "y2", {a, q});
  const netlist::CompactView view = netlist::CompactView::build(b.nl);
  const ConeHasher hasher(view, b.options);
  EXPECT_EQ(hasher.subtree_key(y1, 3), hasher.subtree_key(y2, 3));
  EXPECT_EQ(hasher.subtree_key(y1, 3), "(fp)N");
}

TEST(HashKey, DepthCutsExpansion) {
  Builder b;
  const NetId a = b.pi("a");
  const NetId n1 = b.gate(GateType::kNot, "n1", {a});
  const NetId n2 = b.gate(GateType::kNot, "n2", {n1});
  const NetId n3 = b.gate(GateType::kNot, "n3", {n2});
  const netlist::CompactView view = netlist::CompactView::build(b.nl);
  const ConeHasher hasher(view, b.options);
  EXPECT_EQ(hasher.subtree_key(n3, 0), "_");
  EXPECT_EQ(hasher.subtree_key(n3, 1), "(_)I");
  EXPECT_EQ(hasher.subtree_key(n3, 2), "((_)I)I");
  EXPECT_EQ(hasher.subtree_key(n3, 3), "(((p)I)I)I");
}

TEST(HashKey, StructureDistinguishesGateTypes) {
  Builder b;
  const NetId a = b.pi("a");
  const NetId c = b.pi("c");
  const NetId y1 = b.gate(GateType::kAnd, "y1", {a, c});
  const NetId y2 = b.gate(GateType::kOr, "y2", {a, c});
  const netlist::CompactView view = netlist::CompactView::build(b.nl);
  const ConeHasher hasher(view, b.options);
  EXPECT_NE(hasher.subtree_key(y1, 2), hasher.subtree_key(y2, 2));
}

TEST(HashKey, NameIndependence) {
  // Two isomorphic cones with different net names hash identically.
  Builder b;
  const NetId a1 = b.pi("alpha"), b1 = b.pi("beta");
  const NetId a2 = b.pi("gamma"), b2 = b.pi("delta");
  const NetId m1 = b.gate(GateType::kXor, "m1", {a1, b1});
  const NetId m2 = b.gate(GateType::kXor, "m2", {a2, b2});
  const NetId y1 = b.gate(GateType::kNand, "y1", {m1, a1});
  const NetId y2 = b.gate(GateType::kNand, "y2", {m2, a2});
  const netlist::CompactView view = netlist::CompactView::build(b.nl);
  const ConeHasher hasher(view, b.options);
  EXPECT_EQ(hasher.subtree_key(y1, 3), hasher.subtree_key(y2, 3));
}

TEST(Signature, RootTypeAndSortedSubtrees) {
  Builder b;
  const NetId a = b.pi("a"), c = b.pi("c");
  const NetId s1 = b.gate(GateType::kOr, "s1", {a, c});
  const NetId s2 = b.gate(GateType::kAnd, "s2", {a, c});
  const NetId bit = b.gate(GateType::kNand, "bit", {s1, s2});
  const netlist::CompactView view = netlist::CompactView::build(b.nl);
  const ConeHasher hasher(view, b.options);
  const BitSignature sig = hasher.signature(bit);
  ASSERT_TRUE(sig.root_type.has_value());
  EXPECT_EQ(*sig.root_type, GateType::kNand);
  ASSERT_EQ(sig.subtrees.size(), 2u);
  EXPECT_LE(sig.subtrees[0].key, sig.subtrees[1].key);
}

TEST(Signature, UndrivenAndFlopRoots) {
  Builder b;
  const NetId a = b.pi("a");
  const NetId q = b.nl.add_net("q");
  b.nl.add_gate(GateType::kDff, q, {a});
  const netlist::CompactView view = netlist::CompactView::build(b.nl);
  const ConeHasher hasher(view, b.options);
  EXPECT_FALSE(hasher.signature(a).root_type.has_value());
  const BitSignature flop_sig = hasher.signature(q);
  ASSERT_TRUE(flop_sig.root_type.has_value());
  EXPECT_EQ(*flop_sig.root_type, GateType::kDff);
  EXPECT_TRUE(flop_sig.subtrees.empty());
}

TEST(Signature, StructuralEqualityRules) {
  Builder b;
  const NetId a = b.pi("a"), c = b.pi("c");
  const NetId y1 = b.gate(GateType::kNand, "y1", {a, c});
  const NetId y2 = b.gate(GateType::kNand, "y2", {c, a});
  const NetId y3 = b.gate(GateType::kNor, "y3", {a, c});
  const netlist::CompactView view = netlist::CompactView::build(b.nl);
  const ConeHasher hasher(view, b.options);
  EXPECT_TRUE(hasher.signature(y1).structurally_equal(hasher.signature(y2)));
  EXPECT_FALSE(hasher.signature(y1).structurally_equal(hasher.signature(y3)));
  // Signatures without a root never match, even against themselves.
  EXPECT_FALSE(hasher.signature(a).structurally_equal(hasher.signature(a)));
}

// --- virtual reduction ----------------------------------------------------

struct ReductionFixture : Builder {
  NetId ctrl, x, y, e, bit_garnished, bit_plain;

  ReductionFixture() {
    ctrl = pi("ctrl");
    x = pi("x");
    y = pi("y");
    const NetId s1g = gate(GateType::kAnd, "s1g", {x, y});
    const NetId s2g = gate(GateType::kOr, "s2g", {x, y});
    e = gate(GateType::kNand, "e", {ctrl, x});
    bit_garnished = gate(GateType::kNand, "bg", {s1g, s2g, e});
    const NetId s1p = gate(GateType::kAnd, "s1p", {x, y});
    const NetId s2p = gate(GateType::kOr, "s2p", {x, y});
    bit_plain = gate(GateType::kNand, "bp", {s1p, s2p});
  }
};

TEST(VirtualReduction, DropsKilledSubtreeAndCollapsesRoot) {
  ReductionFixture f;
  const netlist::CompactView view = netlist::CompactView::build(f.nl);
  const ConeHasher hasher(view, f.options);
  // Unreduced: garnished differs from plain.
  EXPECT_FALSE(hasher.signature(f.bit_garnished)
                   .structurally_equal(hasher.signature(f.bit_plain)));
  // ctrl=0 kills e (NAND controlling input) and the root drops it.
  const std::pair<NetId, bool> seeds[] = {{f.ctrl, false}};
  const auto prop = propagate(netlist::CompactView::build(f.nl), seeds);
  ASSERT_TRUE(prop.feasible);
  EXPECT_TRUE(
      hasher.signature(f.bit_garnished, &prop.map)
          .structurally_equal(hasher.signature(f.bit_plain, &prop.map)));
}

TEST(VirtualReduction, AssignedBitHasNoSignature) {
  ReductionFixture f;
  const netlist::CompactView view = netlist::CompactView::build(f.nl);
  const ConeHasher hasher(view, f.options);
  const std::pair<NetId, bool> seeds[] = {{f.bit_plain, true}};
  const auto prop = propagate(netlist::CompactView::build(f.nl), seeds);
  ASSERT_TRUE(prop.feasible);
  EXPECT_FALSE(hasher.signature(f.bit_plain, &prop.map).root_type.has_value());
}

TEST(VirtualReduction, SingleLiveInputCollapsesToInverterForNand) {
  Builder b;
  const NetId a = b.pi("a"), c = b.pi("c");
  const NetId y = b.gate(GateType::kNand, "y", {a, c});
  const NetId root = b.gate(GateType::kAnd, "root", {y, b.pi("z")});
  const netlist::CompactView view = netlist::CompactView::build(b.nl);
  const ConeHasher hasher(view, b.options);
  // Assign c=1 (non-controlling for NAND): y's subtree becomes NOT(a).
  AssignmentMap map;
  map.assign(c, true);
  EXPECT_EQ(hasher.subtree_key(y, 3, &map), "(p)I");
  const BitSignature sig = hasher.signature(root, &map);
  ASSERT_TRUE(sig.root_type.has_value());
  EXPECT_EQ(*sig.root_type, GateType::kAnd);
}

TEST(VirtualReduction, XorParityAbsorption) {
  Builder b;
  const NetId a = b.pi("a"), c = b.pi("c"), d = b.pi("d");
  const NetId y = b.gate(GateType::kXor, "y", {a, c, d});
  const netlist::CompactView view = netlist::CompactView::build(b.nl);
  const ConeHasher hasher(view, b.options);
  AssignmentMap drop0;
  drop0.assign(d, false);
  EXPECT_EQ(hasher.subtree_key(y, 2, &drop0), "(pp)X");
  AssignmentMap drop1;
  drop1.assign(d, true);
  EXPECT_EQ(hasher.subtree_key(y, 2, &drop1), "(pp)Y");  // flips to XNOR
  AssignmentMap drop_two;
  drop_two.assign(d, true);
  drop_two.assign(c, false);
  EXPECT_EQ(hasher.subtree_key(y, 2, &drop_two), "(p)I");  // XOR(a,1) = NOT a
}

TEST(VirtualReduction, RootTypeCanCollapse) {
  Builder b;
  const NetId a = b.pi("a"), c = b.pi("c");
  const NetId s = b.gate(GateType::kAnd, "s", {a, c});
  const NetId bit = b.gate(GateType::kNand, "bit", {s, b.pi("en")});
  const netlist::CompactView view = netlist::CompactView::build(b.nl);
  const ConeHasher hasher(view, b.options);
  AssignmentMap map;
  map.assign(*b.nl.find_net("en"), true);
  const BitSignature sig = hasher.signature(bit, &map);
  ASSERT_TRUE(sig.root_type.has_value());
  EXPECT_EQ(*sig.root_type, GateType::kNot);  // NAND with one live input
  ASSERT_EQ(sig.subtrees.size(), 1u);
  EXPECT_EQ(sig.subtrees[0].root, s);
}

}  // namespace
}  // namespace netrev::wordrec
