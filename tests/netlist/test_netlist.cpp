#include "netlist/netlist.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <unordered_map>

#include "common/rng.h"

namespace netrev::netlist {
namespace {

TEST(Netlist, AddNetAssignsSequentialIds) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  const NetId b = nl.add_net("b");
  EXPECT_EQ(a.value(), 0u);
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(nl.net_count(), 2u);
  EXPECT_EQ(nl.net(a).name, "a");
}

TEST(Netlist, RejectsEmptyAndDuplicateNames) {
  Netlist nl;
  nl.add_net("a");
  EXPECT_THROW(nl.add_net("a"), std::invalid_argument);
  EXPECT_THROW(nl.add_net(""), std::invalid_argument);
}

TEST(Netlist, FindOrAddReusesExisting) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  EXPECT_EQ(nl.find_or_add_net("a"), a);
  EXPECT_EQ(nl.net_count(), 1u);
  const NetId b = nl.find_or_add_net("b");
  EXPECT_NE(a, b);
  EXPECT_EQ(nl.net_count(), 2u);
}

TEST(Netlist, FindNetReturnsNulloptForUnknown) {
  Netlist nl;
  EXPECT_EQ(nl.find_net("nope"), std::nullopt);
}

TEST(Netlist, AddGateWiresDriverAndFanout) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  const NetId b = nl.add_net("b");
  const NetId y = nl.add_net("y");
  nl.mark_primary_input(a);
  nl.mark_primary_input(b);
  const GateId g = nl.add_gate(GateType::kAnd, y, {a, b});

  EXPECT_EQ(nl.driver_of(y), g);
  EXPECT_EQ(nl.driver_of(a), std::nullopt);
  ASSERT_EQ(nl.net(a).fanouts.size(), 1u);
  EXPECT_EQ(nl.net(a).fanouts[0], g);
  EXPECT_EQ(nl.gate(g).type, GateType::kAnd);
  ASSERT_EQ(nl.gate(g).inputs.size(), 2u);
}

TEST(Netlist, RejectsDoubleDriver) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  const NetId y = nl.add_net("y");
  nl.mark_primary_input(a);
  nl.add_gate(GateType::kBuf, y, {a});
  EXPECT_THROW(nl.add_gate(GateType::kNot, y, {a}), std::invalid_argument);
}

TEST(Netlist, RejectsDrivingPrimaryInput) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  const NetId b = nl.add_net("b");
  nl.mark_primary_input(a);
  nl.mark_primary_input(b);
  EXPECT_THROW(nl.add_gate(GateType::kBuf, a, {b}), std::invalid_argument);
}

TEST(Netlist, RejectsMarkingDrivenNetAsInput) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  const NetId y = nl.add_net("y");
  nl.mark_primary_input(a);
  nl.add_gate(GateType::kBuf, y, {a});
  EXPECT_THROW(nl.mark_primary_input(y), std::invalid_argument);
}

TEST(Netlist, RejectsArityViolations) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  const NetId y = nl.add_net("y");
  nl.mark_primary_input(a);
  EXPECT_THROW(nl.add_gate(GateType::kAnd, y, {a}), std::invalid_argument);
  EXPECT_THROW(nl.add_gate(GateType::kNot, y, {a, a}), std::invalid_argument);
  EXPECT_THROW(nl.add_gate(GateType::kConst0, y, {a}), std::invalid_argument);
}

TEST(Netlist, GatesInFileOrderFollowsCreation) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  nl.mark_primary_input(a);
  const NetId y1 = nl.add_net("y1");
  const NetId y2 = nl.add_net("y2");
  const GateId g1 = nl.add_gate(GateType::kBuf, y1, {a});
  const GateId g2 = nl.add_gate(GateType::kNot, y2, {y1});
  const auto order = nl.gates_in_file_order();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], g1);
  EXPECT_EQ(order[1], g2);
}

TEST(Netlist, FlopQueries) {
  Netlist nl;
  const NetId d = nl.add_net("d");
  const NetId q = nl.add_net("q");
  nl.mark_primary_input(d);
  nl.add_gate(GateType::kDff, q, {d});
  EXPECT_TRUE(nl.is_flop_output(q));
  EXPECT_FALSE(nl.is_flop_output(d));
  EXPECT_TRUE(nl.feeds_flop(d));
  EXPECT_FALSE(nl.feeds_flop(q));
  EXPECT_EQ(nl.flop_count(), 1u);
  EXPECT_EQ(nl.combinational_gate_count(), 0u);
}

TEST(Netlist, PrimaryPortLists) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  const NetId b = nl.add_net("b");
  const NetId y = nl.add_net("y");
  nl.mark_primary_input(a);
  nl.mark_primary_input(b);
  nl.add_gate(GateType::kOr, y, {a, b});
  nl.mark_primary_output(y);
  EXPECT_EQ(nl.primary_inputs().size(), 2u);
  ASSERT_EQ(nl.primary_outputs().size(), 1u);
  EXPECT_EQ(nl.primary_outputs()[0], y);
}

TEST(Netlist, CopyIsIndependent) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  nl.mark_primary_input(a);
  Netlist copy = nl;
  copy.add_net("b");
  EXPECT_EQ(nl.net_count(), 1u);
  EXPECT_EQ(copy.net_count(), 2u);
}

TEST(Netlist, NameRoundTrip) {
  Netlist nl("design");
  EXPECT_EQ(nl.name(), "design");
  nl.set_name("other");
  EXPECT_EQ(nl.name(), "other");
}

// Two distinct names the name table files under the same 32-bit hash, so
// only the name compare tells them apart.  Found by a birthday search.
std::pair<std::string, std::string> colliding_names() {
  std::unordered_map<std::uint32_t, std::string> seen;
  for (std::uint64_t i = 0; i < 4'000'000; ++i) {
    std::string name = "c" + std::to_string(i);
    const auto [it, fresh] = seen.emplace(Netlist::name_hash(name), name);
    if (!fresh) return {it->second, name};
  }
  return {};
}

TEST(NetlistNames, TagCollisionsStillResolveByName) {
  const auto [first, second] = colliding_names();
  ASSERT_FALSE(first.empty());
  ASSERT_NE(first, second);
  ASSERT_EQ(Netlist::name_hash(first), Netlist::name_hash(second));
  Netlist nl;
  const NetId a = nl.add_net(first);
  EXPECT_EQ(nl.find_net(second), std::nullopt);
  const NetId b = nl.find_or_add_net(second);
  EXPECT_NE(a, b);
  EXPECT_EQ(nl.find_net(first), a);
  EXPECT_EQ(nl.find_net(second), b);
  EXPECT_THROW(nl.add_net(second), std::invalid_argument);
}

TEST(NetlistNames, AgreeWithAMapOracle) {
  // Names of three shapes: one character, a long shared prefix with a short
  // varying tail, and longer than a 15-character short-string buffer.  Each
  // seed interleaves finds (present and absent), adds (fresh and duplicate)
  // and find-or-adds, with a reserve() that regrows the table mid-way.
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const auto random_name = [&]() -> std::string {
      switch (rng.next_below(3)) {
        case 0:
          return std::string(1, static_cast<char>('!' + rng.next_below(94)));
        case 1:
          return "shared_prefix_" + std::to_string(rng.next_below(400));
        default:
          return std::string(16 + rng.next_below(20), 'x') +
                 std::to_string(rng.next_below(400));
      }
    };
    Netlist nl;
    std::unordered_map<std::string, NetId> oracle;
    for (int step = 0; step < 2500; ++step) {
      if (step == 700) nl.reserve(3000, 0);
      const std::string name = random_name();
      const auto known = oracle.find(name);
      switch (rng.next_below(3)) {
        case 0: {
          const auto found = nl.find_net(name);
          if (known == oracle.end())
            EXPECT_EQ(found, std::nullopt) << name;
          else
            EXPECT_EQ(found, known->second) << name;
          break;
        }
        case 1:
          if (known != oracle.end()) {
            try {
              nl.add_net(name);
              ADD_FAILURE() << "duplicate accepted: " << name;
            } catch (const std::invalid_argument& err) {
              EXPECT_EQ(std::string(err.what()), "duplicate net name: " + name);
            }
          } else {
            const NetId id = nl.add_net(name);
            EXPECT_EQ(id.value(), oracle.size());
            oracle.emplace(name, id);
          }
          break;
        default: {
          const NetId id = rng.next_bool()
                               ? nl.find_or_add_net(name)
                               : nl.find_or_add_net(name,
                                                    Netlist::name_hash(name));
          if (known != oracle.end()) {
            EXPECT_EQ(id, known->second) << name;
          } else {
            EXPECT_EQ(id.value(), oracle.size());
            oracle.emplace(name, id);
          }
          break;
        }
      }
    }
    ASSERT_EQ(nl.net_count(), oracle.size());
    for (const auto& [name, id] : oracle) {
      EXPECT_EQ(nl.find_net(name), id) << name;
      EXPECT_EQ(nl.net(id).name, name);
    }
    for (const char* absent : {"", "yy", "shared_prefix_400", "never added"})
      EXPECT_EQ(nl.find_net(absent), std::nullopt) << absent;
    // A copy keeps its own table.
    Netlist copy = nl;
    copy.add_net("only in the copy");
    EXPECT_EQ(nl.find_net("only in the copy"), std::nullopt);
    for (const auto& [name, id] : oracle) EXPECT_EQ(copy.find_net(name), id);
  }
}

}  // namespace
}  // namespace netrev::netlist
