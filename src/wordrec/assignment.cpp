#include "wordrec/assignment.h"

#include "common/contracts.h"
#include "common/resource_guard.h"

namespace netrev::wordrec {

using netlist::CompactView;
using netlist::GateType;
using netlist::NetId;

// Worklist-driven implication engine over CSR arrays.  The map's assigned
// list is the FIFO: every net is queued exactly once, when it is first
// assigned, so a head index into that list replaces a separate queue.
class ClosureKernel {
 public:
  ClosureKernel(const CompactView& view, AssignmentMap& map,
                const exec::Checkpoint* checkpoint)
      : view_(view),
        assigned_(map.assigned_),
        checkpoint_(checkpoint != nullptr && checkpoint->armed() ? checkpoint
                                                                 : nullptr) {
    // Reset here, not at the end of a closure: a closure aborted by a
    // conflict or a cancellation still leaves nothing stale behind.
    map.clear();
    if (map.values_.size() < view.net_count())
      map.values_.resize(view.net_count(), kUnknown);
    values_ = map.values_.data();  // fixed size for the whole closure
  }

  bool run(std::span<const std::pair<NetId, bool>> seeds) {
    for (const auto& [net, value] : seeds) {
      NETREV_REQUIRE(net.value() < view_.net_count());
      if (!enqueue(net.value(), value)) return false;
    }
    for (std::size_t head = 0; head < assigned_.size(); ++head)
      if (!process(assigned_[head].value())) return false;
    return true;
  }

 private:
  static constexpr std::uint8_t kZero = AssignmentMap::kZero;
  static constexpr std::uint8_t kOne = AssignmentMap::kOne;
  static constexpr std::uint8_t kUnknown = AssignmentMap::kUnknown;

  // controlling_value() / controlled_output() of the four gate types that
  // have one, inlined for the hot loop.
  static std::uint8_t controlling(GateType type) {
    return (type == GateType::kOr || type == GateType::kNor) ? kOne : kZero;
  }
  static bool controlled_out(GateType type) {
    return type == GateType::kNand || type == GateType::kOr;
  }

  // Record value; queue the net when new.  False on conflict.
  bool enqueue(std::uint32_t net, bool value) {
    const std::uint8_t encoded = AssignmentMap::encode(value);
    std::uint8_t& slot = values_[net];
    if (slot != kUnknown) return slot == encoded;
    slot = encoded;
    assigned_.push_back(NetId(net));
    if (checkpoint_ != nullptr &&
        (assigned_.size() & (WorkBudget::kPollStride - 1)) == 0)
      checkpoint_->poll();
    return true;
  }

  bool process(std::uint32_t net) {
    // Forward: the net is an input of its fanout gates.  A newly-known input
    // can also complete a backward "sole unknown input" implication on a
    // gate whose output was already assigned.
    for (std::uint32_t g : view_.fanout(net))
      if (!imply_forward(g) || !imply_backward(g)) return false;
    // The net's own driver may now be further constrained (backward), then
    // forward again: an output assignment can conflict with an already
    // fully-determined gate.
    const std::uint32_t driver = view_.driver(net);
    if (driver == CompactView::kNoGate) return true;
    return imply_backward(driver) && imply_forward(driver);
  }

  // Derive the gate's output from its inputs where possible, and check
  // consistency with an already-assigned output.
  bool imply_forward(std::uint32_t g) {
    const GateType type = view_.gate_type(g);
    const std::uint32_t out = view_.gate_output(g);
    switch (type) {
      case GateType::kDff: return true;  // sequential boundary
      case GateType::kConst0: return enqueue(out, false);
      case GateType::kConst1: return enqueue(out, true);
      case GateType::kBuf:
      case GateType::kNot: {
        const std::uint8_t in = values_[view_.fanin(g)[0]];
        if (in == kUnknown) return true;
        return enqueue(out, (in == kOne) == (type == GateType::kBuf));
      }
      case GateType::kAnd:
      case GateType::kNand:
      case GateType::kOr:
      case GateType::kNor: {
        const std::uint8_t cv = controlling(type);
        bool all_known = true;
        for (std::uint32_t in : view_.fanin(g)) {
          const std::uint8_t v = values_[in];
          if (v == cv) return enqueue(out, controlled_out(type));
          if (v == kUnknown) all_known = false;
        }
        return all_known ? enqueue(out, !controlled_out(type)) : true;
      }
      case GateType::kXor:
      case GateType::kXnor: {
        bool parity = type == GateType::kXnor;  // XNOR inverts
        for (std::uint32_t in : view_.fanin(g)) {
          const std::uint8_t v = values_[in];
          if (v == kUnknown) return true;
          parity = parity != (v == kOne);
        }
        return enqueue(out, parity);
      }
    }
    return true;
  }

  // Derive input values forced by the gate's assigned output.
  bool imply_backward(std::uint32_t g) {
    const GateType type = view_.gate_type(g);
    const std::uint8_t out_value = values_[view_.gate_output(g)];
    if (out_value == kUnknown) return true;
    const bool out = out_value == kOne;
    const auto inputs = view_.fanin(g);

    switch (type) {
      case GateType::kConst0: return !out;
      case GateType::kConst1: return out;
      case GateType::kBuf: return enqueue(inputs[0], out);
      case GateType::kNot: return enqueue(inputs[0], !out);
      case GateType::kAnd:
      case GateType::kNand:
      case GateType::kOr:
      case GateType::kNor: {
        const std::uint8_t cv = controlling(type);
        if (out != controlled_out(type)) {
          // Output is the non-controlled value: every input must be
          // non-controlling.
          for (std::uint32_t in : inputs)
            if (!enqueue(in, cv == kZero)) return false;
          return true;
        }
        // Output is the controlled value: at least one controlling input; if
        // exactly one input is unknown and the rest are non-controlling, it
        // must carry the controlling value.  A controlling input or a second
        // unknown settles nothing, so both end the scan.
        std::uint32_t sole_unknown = 0;
        std::size_t unknown_count = 0;
        for (std::uint32_t in : inputs) {
          const std::uint8_t v = values_[in];
          if (v == cv) return true;
          if (v == kUnknown) {
            if (++unknown_count == 2) return true;
            sole_unknown = in;
          }
        }
        if (unknown_count == 0) return false;  // conflict
        return enqueue(sole_unknown, cv == kOne);
      }
      case GateType::kXor:
      case GateType::kXnor: {
        std::uint32_t sole_unknown = 0;
        std::size_t unknown_count = 0;
        bool parity = type == GateType::kXnor;
        for (std::uint32_t in : inputs) {
          const std::uint8_t v = values_[in];
          if (v == kUnknown) {
            if (++unknown_count == 2) return true;
            sole_unknown = in;
          } else {
            parity = parity != (v == kOne);
          }
        }
        if (unknown_count == 1) return enqueue(sole_unknown, parity != out);
        return parity == out;
      }
      case GateType::kDff: return true;  // sequential boundary
    }
    return true;
  }

  const CompactView& view_;
  std::uint8_t* values_ = nullptr;
  std::vector<NetId>& assigned_;
  const exec::Checkpoint* checkpoint_;
};

bool propagate(const CompactView& view,
               std::span<const std::pair<NetId, bool>> seeds,
               AssignmentMap& map, const exec::Checkpoint* checkpoint) {
  return ClosureKernel(view, map, checkpoint).run(seeds);
}

PropagationResult propagate(const CompactView& view,
                            std::span<const std::pair<NetId, bool>> seeds) {
  PropagationResult result;
  result.feasible = propagate(view, seeds, result.map);
  return result;
}

}  // namespace netrev::wordrec
