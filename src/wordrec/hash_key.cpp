#include "wordrec/hash_key.h"

#include <algorithm>

#include "common/contracts.h"
#include "perf/profile.h"
#include "wordrec/collapse.h"

namespace netrev::wordrec {

using netlist::CompactView;
using netlist::GateType;
using netlist::NetId;
using netlist::Netlist;

namespace {

// Leaf tokens.  With distinguish_leaf_kinds off, boundary leaves all share a
// token (closer to the paper's gate-types-only keys); constant leaves stay
// distinct because a constant is a genuine structural difference.
char leaf_primary_input(const Options& o) { return o.distinguish_leaf_kinds ? 'p' : '*'; }
char leaf_flop_output(const Options& o) { return o.distinguish_leaf_kinds ? 'f' : '*'; }
char leaf_depth_cut(const Options& o) { return o.distinguish_leaf_kinds ? '_' : '*'; }

// Collects the fanins of `driver` left unassigned by `assignment` into
// `live` and returns the gate's effective type once the assigned inputs are
// dropped (collapse.h's rules).  Meaningless when `live` comes back empty:
// the output would then be constant.
GateType live_fanin(const CompactView& view, std::uint32_t driver,
                    const AssignmentMap* assignment,
                    std::vector<std::uint32_t>& live) {
  const GateType type = view.gate_type(driver);
  const std::span<const std::uint32_t> inputs = view.fanin(driver);
  if (assignment == nullptr) {
    live.assign(inputs.begin(), inputs.end());
    return type;
  }
  live.reserve(inputs.size());
  bool dropped_parity = false;
  for (std::uint32_t in : inputs) {
    const auto v = assignment->value(NetId(in));
    if (!v) {
      live.push_back(in);
      continue;
    }
    // Closure property of propagate(): a controlling input would have
    // assigned this gate's output, and the output is unassigned here.
    if (const auto cv = controlling_value(type)) NETREV_ASSERT(*v != *cv);
    dropped_parity = dropped_parity != *v;
  }
  if (live.empty() || live.size() == inputs.size()) return type;
  return collapsed_type(type, live.size(), dropped_parity);
}

}  // namespace

bool BitSignature::structurally_equal(const BitSignature& other) const {
  if (!root_type.has_value() || !other.root_type.has_value()) return false;
  if (*root_type != *other.root_type) return false;
  if (subtrees.size() != other.subtrees.size()) return false;
  for (std::size_t i = 0; i < subtrees.size(); ++i)
    if (subtrees[i].key != other.subtrees[i].key) return false;
  return true;
}

ConeHasher::ConeHasher(const CompactView& view, const Options& options)
    : view_(&view), options_(options) {}

HashKey ConeHasher::subtree_key(NetId net, std::size_t depth,
                                const AssignmentMap* assignment) const {
  // A net assigned by the reduction is a constant leaf.  (Callers normally
  // drop assigned children before recursing; this branch covers direct
  // queries on assigned nets.)
  if (assignment != nullptr) {
    if (const auto v = assignment->value(net))
      return std::string(1, *v ? '1' : '0');
  }

  const std::uint32_t driver = view_->driver(net.value());
  if (driver == CompactView::kNoGate)
    return std::string(1, leaf_primary_input(options_));

  const GateType type = view_->gate_type(driver);
  if (type == GateType::kDff) return std::string(1, leaf_flop_output(options_));
  if (type == GateType::kConst0) return "0";
  if (type == GateType::kConst1) return "1";
  if (depth == 0) return std::string(1, leaf_depth_cut(options_));

  std::vector<std::uint32_t> live;
  const GateType effective = live_fanin(*view_, driver, assignment, live);
  NETREV_ASSERT(!live.empty() &&
                "all-constant gate must have an assigned output");

  std::vector<HashKey> child_keys;
  child_keys.reserve(live.size());
  for (std::uint32_t in : live)
    child_keys.push_back(subtree_key(NetId(in), depth - 1, assignment));
  std::sort(child_keys.begin(), child_keys.end());

  HashKey key;
  key.reserve(2 + child_keys.size() * 4);
  key += '(';
  for (const HashKey& child : child_keys) key += child;
  key += ')';
  key += gate_type_code(effective);
  return key;
}

BitSignature ConeHasher::signature(NetId bit,
                                   const AssignmentMap* assignment) const {
  {
    // Cached counter: signature() is called once per bit per (re)hash, from
    // pool workers; the counter is atomic and the disabled cost is one load.
    static perf::Profiler::Counter& cones =
        perf::Profiler::global().counter("cones_hashed");
    if (perf::Profiler::global().enabled())
      cones.fetch_add(1, std::memory_order_relaxed);
  }
  BitSignature sig;
  if (assignment != nullptr && assignment->contains(bit)) return sig;

  const std::uint32_t driver = view_->driver(bit.value());
  if (driver == CompactView::kNoGate) return sig;
  const GateType type = view_->gate_type(driver);
  if (type == GateType::kDff) {
    sig.root_type = GateType::kDff;
    return sig;
  }
  if (type == GateType::kConst0 || type == GateType::kConst1) return sig;

  // Live second-level subtree roots under the assignment.
  std::vector<std::uint32_t> live;
  const GateType effective = live_fanin(*view_, driver, assignment, live);
  if (live.empty()) return sig;  // would be constant; not a word bit
  sig.root_type = effective;

  NETREV_REQUIRE(options_.cone_depth >= 1);
  sig.subtrees.reserve(live.size());
  for (std::uint32_t in : live)
    sig.subtrees.push_back(SubtreeKey{
        subtree_key(NetId(in), options_.cone_depth - 1, assignment),
        NetId(in)});
  std::sort(sig.subtrees.begin(), sig.subtrees.end(),
            [](const SubtreeKey& a, const SubtreeKey& b) {
              if (a.key != b.key) return a.key < b.key;
              return a.root < b.root;
            });
  return sig;
}

const CompactView& resolve_view(const Netlist& nl, const Options& options,
                                std::optional<CompactView>& local) {
  if (options.compact == nullptr) {
    perf::Stage stage("compact");
    return local.emplace(CompactView::build(nl));
  }
  return *options.compact;
}

}  // namespace netrev::wordrec
