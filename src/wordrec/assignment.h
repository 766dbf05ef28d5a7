// Constant assignment and its propagation closure (§2.5).
//
// Given seed assignments to control signals, values are propagated "forward
// and backwards throughout the netlist": forward when a controlling input or
// a fully-assigned input set determines a gate output; backward when an
// assigned output forces its inputs (e.g. NAND output 0 forces all inputs
// to 1).  Propagation never crosses flip-flops: an assignment models a
// single-cycle combinational condition.
//
// The resulting AssignmentMap is closed under forward propagation — a
// property the virtual-reduction hashing in hash_key.cpp and the netlist
// materializer in reduce.cpp both rely on: if any input of a gate holds its
// controlling value, the gate's output is in the map too.
//
// The closure runs over the CSR arrays of a netlist::CompactView.  Its
// scratch is the AssignmentMap itself: one byte per net plus the list of
// assigned nets, which doubles as the FIFO worklist.  A caller that reuses
// one map across calls (the reduction trials keep one per thread) pays
// O(assigned) per call and allocates nothing once the map has grown.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "exec/cancel.h"
#include "netlist/compact.h"
#include "netlist/netlist.h"

namespace netrev::wordrec {

class ClosureKernel;

// A partial constant assignment: per net unknown, 0 or 1.  Dense — one byte
// per net, indexed by NetId — plus the assigned nets in assignment order.
class AssignmentMap {
 public:
  AssignmentMap() = default;

  // Returns false if the net already holds the opposite value (conflict).
  // The value array grows on demand, so hand-built maps need no sizing.
  bool assign(netlist::NetId net, bool value) {
    const std::uint32_t index = net.value();
    if (index >= values_.size()) values_.resize(index + 1, kUnknown);
    if (values_[index] != kUnknown) return values_[index] == encode(value);
    values_[index] = encode(value);
    assigned_.push_back(net);
    return true;
  }

  std::optional<bool> value(netlist::NetId net) const {
    const std::uint32_t index = net.value();
    if (index >= values_.size() || values_[index] == kUnknown)
      return std::nullopt;
    return values_[index] == kOne;
  }

  bool contains(netlist::NetId net) const { return value(net).has_value(); }
  std::size_t size() const { return assigned_.size(); }
  bool empty() const { return assigned_.empty(); }

  // Assigned nets in assignment order.  For a propagation closure this is
  // the kernel's FIFO order: seeds first, then implied nets as derived.
  std::span<const netlist::NetId> entries() const { return assigned_; }

  // Forgets every assignment in O(size()), keeping capacity for reuse.
  void clear() {
    for (netlist::NetId net : assigned_) values_[net.value()] = kUnknown;
    assigned_.clear();
  }

 private:
  friend class ClosureKernel;

  static constexpr std::uint8_t kZero = 0;
  static constexpr std::uint8_t kOne = 1;
  static constexpr std::uint8_t kUnknown = 2;
  static std::uint8_t encode(bool value) { return value ? kOne : kZero; }

  std::vector<std::uint8_t> values_;
  std::vector<netlist::NetId> assigned_;
};

// Computes the propagation closure of `seeds` over `view` into `map`, which
// is cleared first.  Returns false when the seeds are contradictory (an
// infeasible assignment, which §2.5 rules out: only "suitable and feasible"
// values are kept); `map` then holds the values derived up to the conflict.
// Polls `checkpoint` (non-owning, may be null) once per
// WorkBudget::kPollStride assigned nets; a cancelled closure leaves `map`
// partially filled, and the next call's clear() discards it.
bool propagate(const netlist::CompactView& view,
               std::span<const std::pair<netlist::NetId, bool>> seeds,
               AssignmentMap& map,
               const exec::Checkpoint* checkpoint = nullptr);

struct PropagationResult {
  AssignmentMap map;
  bool feasible = true;
};

// One-shot form of the above, into a fresh map.
PropagationResult propagate(
    const netlist::CompactView& view,
    std::span<const std::pair<netlist::NetId, bool>> seeds);

}  // namespace netrev::wordrec
