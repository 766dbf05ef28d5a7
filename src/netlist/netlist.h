// The flattened gate-level netlist model.
//
// A Netlist owns a set of named nets and a sequence of gates.  Gate order is
// significant: it is the order gate lines appear in the netlist file, which
// §2.2 of the paper exploits ("Each net is compared against the next line in
// the netlist file").  Fanout lists are maintained incrementally so fanin /
// fanout traversals are O(degree).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/strong_id.h"
#include "netlist/gate_type.h"

namespace netrev::netlist {

struct NetTag {};
struct GateTag {};
using NetId = StrongId<NetTag>;
using GateId = StrongId<GateTag>;

struct Net {
  std::string name;
  GateId driver = GateId::invalid();  // invalid => primary input or dangling
  std::vector<GateId> fanouts;        // gates reading this net
  bool is_primary_input = false;
  bool is_primary_output = false;
};

struct Gate {
  GateType type = GateType::kBuf;
  NetId output = NetId::invalid();
  std::vector<NetId> inputs;  // DFF: single D input (clock implicit)
};

class Netlist {
 public:
  Netlist() = default;
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // --- construction -------------------------------------------------------

  // Creates a net.  Throws std::invalid_argument if the name is empty or
  // already taken.
  NetId add_net(std::string_view name);

  // Returns the existing net with this name or creates it.
  NetId find_or_add_net(std::string_view name);
  // The same, with `hash` == name_hash(name) computed by the caller (a
  // loader hashes names in parallel and interns them serially).
  NetId find_or_add_net(std::string_view name, std::uint32_t hash);

  // The hash the name table files `name` under.
  static std::uint32_t name_hash(std::string_view name);

  // Memory hints for a loader that knows the names it interns next: it
  // prefetches a name's home slot some names ahead, then the net that slot
  // holds, so the lookup itself rarely waits on memory.  They change
  // nothing.
  void prefetch_slot(std::uint32_t hash) const {
    if (!name_slots_.empty())
      __builtin_prefetch(&name_slots_[hash & (name_slots_.size() - 1)]);
  }
  void prefetch_net(std::uint32_t hash) const {
    if (name_slots_.empty()) return;
    const NameSlot& slot = name_slots_[hash & (name_slots_.size() - 1)];
    if (slot.id.is_valid()) __builtin_prefetch(&nets_[slot.id.value()]);
  }

  // Pre-sizes storage for this many nets and gates (a loader that has
  // counted its lines calls this once, before adding anything).
  void reserve(std::size_t nets, std::size_t gates);

  // Creates a gate driving `output` from `inputs`, appended at the end of the
  // file order.  Throws std::invalid_argument on arity violations or if
  // `output` already has a driver.
  GateId add_gate(GateType type, NetId output, std::span<const NetId> inputs);
  GateId add_gate(GateType type, NetId output,
                  std::initializer_list<NetId> inputs);

  void mark_primary_input(NetId net);
  void mark_primary_output(NetId net);

  // --- access -------------------------------------------------------------

  std::size_t net_count() const { return nets_.size(); }
  std::size_t gate_count() const { return gates_.size(); }

  const Net& net(NetId id) const;
  const Gate& gate(GateId id) const;

  // All gate ids in file order.
  std::vector<GateId> gates_in_file_order() const;

  std::optional<NetId> find_net(std::string_view name) const;

  // The gate driving `net`, or nullopt for primary inputs / dangling nets.
  std::optional<GateId> driver_of(NetId net) const;

  // True if the net is the output of a flip-flop.
  bool is_flop_output(NetId net) const;
  // True if the net is read by some flip-flop's D pin.
  bool feeds_flop(NetId net) const;

  std::vector<NetId> primary_inputs() const;
  std::vector<NetId> primary_outputs() const;

  // Iteration helpers: valid ids are exactly [0, count).
  NetId net_id_at(std::size_t index) const { return NetId(static_cast<std::uint32_t>(index)); }
  GateId gate_id_at(std::size_t index) const { return GateId(static_cast<std::uint32_t>(index)); }

  // --- counts used in Table 1 ---------------------------------------------

  std::size_t flop_count() const;
  std::size_t combinational_gate_count() const;

 private:
  // One slot of the name table: a net id (invalid => empty) and the
  // name's hash as a tag, so a probe compares a name only on a tag match.
  struct NameSlot {
    NetId id;
    std::uint32_t tag = 0;
  };

  // Index of the slot holding `name`, or of the empty slot ending its probe
  // sequence.  The table must not be empty.
  std::size_t find_slot(std::string_view name, std::uint32_t hash) const;
  // Grows the table so that `nets` names keep it under two-thirds full.
  void reserve_names(std::size_t nets);

  std::string name_;
  std::vector<Net> nets_;
  std::vector<Gate> gates_;
  // Open-addressing name table (linear probing, power-of-two size).  Keys
  // are nets_[id].name, so each name is stored once.
  std::vector<NameSlot> name_slots_;
};

}  // namespace netrev::netlist
