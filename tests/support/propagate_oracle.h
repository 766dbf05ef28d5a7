// Reference constant-propagation closure over the pointer Netlist — the
// scalar implementation the flat CompactView kernel (wordrec/assignment.h)
// replaced, kept as a differential test oracle.
//
// Same FIFO discipline and per-gate forward/backward rules as the shipping
// kernel, on independent data structures (a hash map of values and a
// deque), so agreement on the (net, value) sequence is a real check.
// `backward = false` disables the output-forces-inputs direction, which the
// shipping kernel always applies.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "netlist/netlist.h"
#include "wordrec/assignment.h"

namespace netrev::testing {

struct OracleClosure {
  // Assignments in the order they were made (seeds first), up to the
  // conflict when infeasible.
  std::vector<std::pair<netlist::NetId, bool>> assigned;
  bool feasible = true;

  // `assigned` as a map, for value() queries.
  wordrec::AssignmentMap map() const;
};

OracleClosure propagate_oracle(
    const netlist::Netlist& nl,
    std::span<const std::pair<netlist::NetId, bool>> seeds,
    bool backward = true);

}  // namespace netrev::testing
