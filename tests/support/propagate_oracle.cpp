#include "support/propagate_oracle.h"

#include <deque>
#include <optional>
#include <unordered_map>

namespace netrev::testing {

using netlist::Gate;
using netlist::GateId;
using netlist::GateType;
using netlist::NetId;
using netlist::Netlist;

namespace {

// Worklist-driven implication engine.
class Propagator {
 public:
  Propagator(const Netlist& nl, bool backward)
      : nl_(&nl), backward_(backward) {}

  OracleClosure run(std::span<const std::pair<NetId, bool>> seeds) {
    result_.feasible = false;
    for (const auto& [net, value] : seeds) {
      if (!enqueue(net, value)) return std::move(result_);
    }
    while (!queue_.empty()) {
      const NetId net = queue_.front();
      queue_.pop_front();
      if (!process(net)) return std::move(result_);
    }
    result_.feasible = true;
    return std::move(result_);
  }

 private:
  std::optional<bool> value(NetId net) const {
    const auto it = values_.find(net);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }

  // Record value; push to worklist when new.  False on conflict.
  bool enqueue(NetId net, bool value) {
    const auto [it, inserted] = values_.try_emplace(net, value);
    if (!inserted) return it->second == value;
    result_.assigned.emplace_back(net, value);
    queue_.push_back(net);
    return true;
  }

  bool process(NetId net) {
    // Forward: the net is an input of its fanout gates.  A newly-known input
    // can also complete a backward "sole unknown input" implication on a
    // gate whose output was already assigned.
    for (GateId g : nl_->net(net).fanouts) {
      if (!imply_forward(g)) return false;
      if (backward_ && !imply_backward(g)) return false;
    }
    // The net's own driver may now be further constrained (backward), and a
    // newly assigned output may determine remaining inputs.
    if (backward_) {
      if (const auto drv = nl_->driver_of(net))
        if (!imply_backward(*drv)) return false;
    }
    // Forward again on the driver: output assignments can conflict with an
    // already fully-determined gate.
    if (const auto drv = nl_->driver_of(net))
      if (!imply_forward(*drv)) return false;
    return true;
  }

  // Derive the gate's output from its inputs where possible, and check
  // consistency with an already-assigned output.
  bool imply_forward(GateId g) {
    const Gate& gate = nl_->gate(g);
    if (gate.type == GateType::kDff) return true;  // sequential boundary

    std::optional<bool> derived;
    switch (gate.type) {
      case GateType::kConst0: derived = false; break;
      case GateType::kConst1: derived = true; break;
      case GateType::kBuf:
      case GateType::kNot: {
        const auto in = value(gate.inputs[0]);
        if (in) derived = (gate.type == GateType::kBuf) ? *in : !*in;
        break;
      }
      case GateType::kAnd:
      case GateType::kNand:
      case GateType::kOr:
      case GateType::kNor: {
        const bool cv = *controlling_value(gate.type);
        bool all_known = true;
        bool saw_controlling = false;
        for (NetId in : gate.inputs) {
          const auto v = value(in);
          if (!v) {
            all_known = false;
          } else if (*v == cv) {
            saw_controlling = true;
          }
        }
        if (saw_controlling)
          derived = controlled_output(gate.type);
        else if (all_known)
          derived = !controlled_output(gate.type);
        break;
      }
      case GateType::kXor:
      case GateType::kXnor: {
        bool parity = gate.type == GateType::kXnor;  // XNOR inverts
        bool all_known = true;
        for (NetId in : gate.inputs) {
          const auto v = value(in);
          if (!v) {
            all_known = false;
            break;
          }
          parity = parity != *v;
        }
        if (all_known) derived = parity;
        break;
      }
      case GateType::kDff: break;
    }
    if (derived) return enqueue(gate.output, *derived);
    return true;
  }

  // Derive input values forced by the gate's assigned output.
  bool imply_backward(GateId g) {
    const Gate& gate = nl_->gate(g);
    if (gate.type == GateType::kDff) return true;
    const auto out = value(gate.output);
    if (!out) return true;

    switch (gate.type) {
      case GateType::kConst0: return *out == false;
      case GateType::kConst1: return *out == true;
      case GateType::kBuf: return enqueue(gate.inputs[0], *out);
      case GateType::kNot: return enqueue(gate.inputs[0], !*out);
      case GateType::kAnd:
      case GateType::kNand:
      case GateType::kOr:
      case GateType::kNor: {
        const bool cv = *controlling_value(gate.type);
        const bool cout = controlled_output(gate.type);
        if (*out == !cout) {
          // Output is the non-controlled value: every input must be
          // non-controlling.
          for (NetId in : gate.inputs)
            if (!enqueue(in, !cv)) return false;
          return true;
        }
        // Output is the controlled value: at least one controlling input; if
        // exactly one input is unknown and the rest are non-controlling, it
        // must carry the controlling value.
        std::optional<NetId> sole_unknown;
        std::size_t unknown_count = 0;
        bool saw_controlling = false;
        for (NetId in : gate.inputs) {
          const auto v = value(in);
          if (!v) {
            ++unknown_count;
            sole_unknown = in;
          } else if (*v == cv) {
            saw_controlling = true;
          }
        }
        if (saw_controlling) return true;
        if (unknown_count == 0) return false;  // conflict
        if (unknown_count == 1) return enqueue(*sole_unknown, cv);
        return true;
      }
      case GateType::kXor:
      case GateType::kXnor: {
        std::optional<NetId> sole_unknown;
        std::size_t unknown_count = 0;
        bool parity = gate.type == GateType::kXnor;
        for (NetId in : gate.inputs) {
          const auto v = value(in);
          if (!v) {
            ++unknown_count;
            sole_unknown = in;
          } else {
            parity = parity != *v;
          }
        }
        if (unknown_count == 1)
          return enqueue(*sole_unknown, parity != *out);
        if (unknown_count == 0) return parity == *out;
        return true;
      }
      case GateType::kDff: return true;
    }
    return true;
  }

  const Netlist* nl_;
  bool backward_;
  std::unordered_map<NetId, bool> values_;
  std::deque<NetId> queue_;
  OracleClosure result_;
};

}  // namespace

wordrec::AssignmentMap OracleClosure::map() const {
  wordrec::AssignmentMap map;
  for (const auto& [net, value] : assigned) map.assign(net, value);
  return map;
}

OracleClosure propagate_oracle(const Netlist& nl,
                               std::span<const std::pair<NetId, bool>> seeds,
                               bool backward) {
  return Propagator(nl, backward).run(seeds);
}

}  // namespace netrev::testing
