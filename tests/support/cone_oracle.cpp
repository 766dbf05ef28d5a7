#include "support/cone_oracle.h"

#include <algorithm>
#include <string>
#include <unordered_map>

#include "common/contracts.h"
#include "netlist/cone.h"
#include "netlist/gate_type.h"

namespace netrev::testing {

using netlist::GateType;
using netlist::NetId;
using netlist::Netlist;
using wordrec::AssignmentMap;
using wordrec::BitSignature;
using wordrec::HashKey;
using wordrec::Options;
using wordrec::SubtreeKey;

namespace {

char leaf_primary_input(const Options& o) {
  return o.distinguish_leaf_kinds ? 'p' : '*';
}
char leaf_flop_output(const Options& o) {
  return o.distinguish_leaf_kinds ? 'f' : '*';
}
char leaf_depth_cut(const Options& o) {
  return o.distinguish_leaf_kinds ? '_' : '*';
}

// The gate left after dropping constant inputs: it keeps its type while two
// or more inputs live (XOR/XNOR flip on odd dropped parity); one live input
// leaves a buffer or an inverter, inverting iff the gate inverts (XOR/XNOR:
// iff its inversion differs from the dropped parity).
GateType collapsed(GateType type, std::size_t live, bool dropped_parity) {
  const bool xor_family = type == GateType::kXor || type == GateType::kXnor;
  if (live >= 2) {
    if (!xor_family || !dropped_parity) return type;
    return type == GateType::kXor ? GateType::kXnor : GateType::kXor;
  }
  bool inverting = type == GateType::kNot || type == GateType::kNand ||
                   type == GateType::kNor || type == GateType::kXnor;
  if (xor_family) inverting = inverting != dropped_parity;
  return inverting ? GateType::kNot : GateType::kBuf;
}

// Inputs of `gate` still live under `assignment`, plus the parity of the
// dropped constants.
std::vector<NetId> live_inputs(const netlist::Gate& gate,
                               const AssignmentMap* assignment,
                               bool& dropped_parity) {
  dropped_parity = false;
  if (assignment == nullptr) return gate.inputs;
  std::vector<NetId> live;
  for (NetId in : gate.inputs) {
    const auto v = assignment->value(in);
    if (!v) {
      live.push_back(in);
      continue;
    }
    if (const auto cv = controlling_value(gate.type)) NETREV_ASSERT(*v != *cv);
    dropped_parity = dropped_parity != *v;
  }
  return live;
}

}  // namespace

HashKey oracle_subtree_key(const Netlist& nl, const Options& options,
                           NetId net, std::size_t depth,
                           const AssignmentMap* assignment) {
  if (assignment != nullptr) {
    if (const auto v = assignment->value(net))
      return std::string(1, *v ? '1' : '0');
  }
  const auto driver = nl.driver_of(net);
  if (!driver) return std::string(1, leaf_primary_input(options));
  const netlist::Gate& gate = nl.gate(*driver);
  if (gate.type == GateType::kDff)
    return std::string(1, leaf_flop_output(options));
  if (gate.type == GateType::kConst0) return "0";
  if (gate.type == GateType::kConst1) return "1";
  if (depth == 0) return std::string(1, leaf_depth_cut(options));

  bool dropped_parity = false;
  const std::vector<NetId> live = live_inputs(gate, assignment, dropped_parity);
  NETREV_ASSERT(!live.empty());
  const GateType effective =
      live.size() == gate.inputs.size()
          ? gate.type
          : collapsed(gate.type, live.size(), dropped_parity);

  std::vector<HashKey> child_keys;
  for (NetId in : live)
    child_keys.push_back(
        oracle_subtree_key(nl, options, in, depth - 1, assignment));
  std::sort(child_keys.begin(), child_keys.end());
  HashKey key = "(";
  for (const HashKey& child : child_keys) key += child;
  key += ')';
  key += gate_type_code(effective);
  return key;
}

BitSignature oracle_signature(const Netlist& nl, const Options& options,
                              NetId bit, const AssignmentMap* assignment) {
  BitSignature sig;
  if (assignment != nullptr && assignment->contains(bit)) return sig;
  const auto driver = nl.driver_of(bit);
  if (!driver) return sig;
  const netlist::Gate& gate = nl.gate(*driver);
  if (gate.type == GateType::kDff) {
    sig.root_type = GateType::kDff;
    return sig;
  }
  if (gate.type == GateType::kConst0 || gate.type == GateType::kConst1)
    return sig;

  bool dropped_parity = false;
  const std::vector<NetId> live = live_inputs(gate, assignment, dropped_parity);
  if (live.empty()) return sig;
  sig.root_type = live.size() == gate.inputs.size()
                      ? gate.type
                      : collapsed(gate.type, live.size(), dropped_parity);
  for (NetId in : live)
    sig.subtrees.push_back(SubtreeKey{
        oracle_subtree_key(nl, options, in, options.cone_depth - 1,
                           assignment),
        in});
  std::sort(sig.subtrees.begin(), sig.subtrees.end(),
            [](const SubtreeKey& a, const SubtreeKey& b) {
              if (a.key != b.key) return a.key < b.key;
              return a.root < b.root;
            });
  return sig;
}

std::vector<NetId> oracle_control_signals(
    const Netlist& nl, std::span<const NetId> dissimilar_roots,
    const Options& options) {
  std::vector<NetId> signals;
  if (dissimilar_roots.empty()) return signals;
  const std::size_t subtree_depth =
      options.cone_depth > 0 ? options.cone_depth - 1 : 0;

  // How many dissimilar subtrees contain each net (fanin_cone_nets
  // deduplicates, so a net counts at most once per subtree).
  std::unordered_map<NetId, std::size_t> containment;
  for (NetId root : dissimilar_roots)
    for (NetId net : netlist::fanin_cone_nets(nl, root, subtree_depth,
                                              options.cone_budget))
      ++containment[net];

  const std::vector<std::uint8_t>* constant_nets =
      options.use_dataflow ? options.constant_nets : nullptr;
  const auto is_pruned = [&](NetId net) {
    return constant_nets != nullptr && net.value() < constant_nets->size() &&
           (*constant_nets)[net.value()] != 0;
  };

  std::vector<NetId> common;
  for (const auto& [net, count] : containment) {
    if (count != dissimilar_roots.size()) continue;
    if (std::find(dissimilar_roots.begin(), dissimilar_roots.end(), net) !=
        dissimilar_roots.end())
      continue;
    const auto driver = nl.driver_of(net);
    if (driver) {
      const GateType type = nl.gate(*driver).type;
      if (type == GateType::kConst0 || type == GateType::kConst1) continue;
    }
    common.push_back(net);
  }
  std::sort(common.begin(), common.end());

  // Pruned nets never survive but still dominate others.
  for (NetId candidate : common) {
    if (is_pruned(candidate)) continue;
    bool dominated = false;
    for (NetId other : common)
      if (other != candidate &&
          netlist::in_fanin_cone(nl, other, candidate, options.cone_budget))
        dominated = true;
    if (!dominated) signals.push_back(candidate);
  }
  if (signals.size() > options.max_control_signals_per_subgroup)
    signals.resize(options.max_control_signals_per_subgroup);
  return signals;
}

}  // namespace netrev::testing
