#include "analysis/scc.h"

#include <algorithm>

namespace netrev::analysis {

using netlist::GateId;
using netlist::GateType;
using netlist::Netlist;

namespace {

// Dependency edges of gate `g`: the drivers of its inputs, minus flip-flop
// drivers (previous-cycle state) and invalid drivers (primary inputs or
// dangling nets).  Calls `visit(dependency_gate_index)` per edge.
template <typename Visit>
void for_each_dependency(const Netlist& nl, std::size_t g, Visit visit) {
  const netlist::Gate& gate = nl.gate(nl.gate_id_at(g));
  for (netlist::NetId in : gate.inputs) {
    const auto drv = nl.driver_of(in);
    if (!drv) continue;
    if (nl.gate(*drv).type == GateType::kDff) continue;
    visit(drv->value());
  }
}

}  // namespace

std::vector<CombinationalScc> combinational_sccs(const Netlist& nl) {
  // Iterative Tarjan.  kUnvisited sentinel in `index`; `on_stack` marks the
  // current component stack.
  const std::size_t n = nl.gate_count();
  constexpr std::size_t kUnvisited = static_cast<std::size_t>(-1);
  std::vector<std::size_t> index(n, kUnvisited);
  std::vector<std::size_t> lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<std::size_t> stack;
  std::size_t next_index = 0;

  std::vector<CombinationalScc> result;

  // DFS frame: (gate, position in its dependency list).  Dependencies are
  // materialized per frame so the walk is resumable.
  struct Frame {
    std::size_t gate;
    std::vector<std::size_t> deps;
    std::size_t pos = 0;
  };

  for (std::size_t root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;

    std::vector<Frame> frames;
    const auto open = [&](std::size_t g) {
      index[g] = lowlink[g] = next_index++;
      stack.push_back(g);
      on_stack[g] = true;
      Frame frame;
      frame.gate = g;
      for_each_dependency(nl, g,
                          [&](std::size_t d) { frame.deps.push_back(d); });
      frames.push_back(std::move(frame));
    };
    open(root);

    while (!frames.empty()) {
      Frame& frame = frames.back();
      if (frame.pos < frame.deps.size()) {
        const std::size_t d = frame.deps[frame.pos++];
        if (index[d] == kUnvisited) {
          open(d);
        } else if (on_stack[d]) {
          lowlink[frame.gate] = std::min(lowlink[frame.gate], index[d]);
        }
        continue;
      }

      // Frame exhausted: pop a component if this is its root.
      const std::size_t g = frame.gate;
      if (lowlink[g] == index[g]) {
        std::vector<std::size_t> members;
        while (true) {
          const std::size_t m = stack.back();
          stack.pop_back();
          on_stack[m] = false;
          members.push_back(m);
          if (m == g) break;
        }
        // Nontrivial: several gates, or one combinational gate reading its
        // own output.  A flop reading its own output is previous-cycle
        // state, not a combinational loop (the dependency edges above drop
        // flop drivers for the same reason).
        bool self_loop = false;
        if (members.size() == 1) {
          const netlist::Gate& gate = nl.gate(nl.gate_id_at(members[0]));
          if (gate.type != GateType::kDff)
            for (netlist::NetId in : gate.inputs)
              if (in == gate.output) self_loop = true;
        }
        if (members.size() > 1 || self_loop) {
          std::sort(members.begin(), members.end());
          CombinationalScc scc;
          for (std::size_t m : members) {
            scc.gates.push_back(nl.gate_id_at(m));
            scc.nets.push_back(nl.gate(nl.gate_id_at(m)).output);
          }
          result.push_back(std::move(scc));
        }
      }
      frames.pop_back();
      if (!frames.empty()) {
        Frame& parent = frames.back();
        lowlink[parent.gate] = std::min(lowlink[parent.gate], lowlink[g]);
      }
    }
  }

  std::sort(result.begin(), result.end(),
            [](const CombinationalScc& a, const CombinationalScc& b) {
              return a.gates.front() < b.gates.front();
            });
  return result;
}

std::string describe_cycle(const Netlist& nl, const CombinationalScc& scc,
                           std::size_t max_names) {
  std::string out;
  const std::size_t shown = std::min(scc.nets.size(), max_names);
  for (std::size_t i = 0; i < shown; ++i) {
    if (i > 0) out += " -> ";
    out += nl.net(scc.nets[i]).name;
  }
  if (scc.nets.size() > max_names) out += " -> ...";
  out += " -> " + nl.net(scc.nets.front()).name;
  return out;
}

}  // namespace netrev::analysis
