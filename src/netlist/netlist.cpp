#include "netlist/netlist.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <stdexcept>

#include "common/contracts.h"

namespace netrev::netlist {

std::uint32_t Netlist::name_hash(std::string_view name) {
  const std::uint64_t h = std::hash<std::string_view>{}(name);
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

std::size_t Netlist::find_slot(std::string_view name,
                               std::uint32_t hash) const {
  const std::size_t mask = name_slots_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const NameSlot& slot = name_slots_[i];
    if (!slot.id.is_valid()) return i;
    if (slot.tag == hash && nets_[slot.id.value()].name == name) return i;
  }
}

void Netlist::reserve_names(std::size_t nets) {
  const std::size_t size =
      std::bit_ceil(std::max<std::size_t>(16, nets + nets / 2 + 1));
  if (size <= name_slots_.size()) return;
  std::vector<NameSlot> old(size);
  old.swap(name_slots_);
  // Names are unique, so rehashing only moves ids to their new first free
  // slot, by tag; no name is compared.
  const std::size_t mask = size - 1;
  for (const NameSlot& slot : old) {
    if (!slot.id.is_valid()) continue;
    std::size_t i = slot.tag & mask;
    while (name_slots_[i].id.is_valid()) i = (i + 1) & mask;
    name_slots_[i] = slot;
  }
}

NetId Netlist::add_net(std::string_view name) {
  const std::size_t before = nets_.size();
  const NetId id = find_or_add_net(name);
  if (nets_.size() == before)
    throw std::invalid_argument("duplicate net name: " + std::string(name));
  return id;
}

NetId Netlist::find_or_add_net(std::string_view name) {
  return find_or_add_net(name, name_hash(name));
}

NetId Netlist::find_or_add_net(std::string_view name, std::uint32_t hash) {
  reserve_names(nets_.size() + 1);
  NameSlot& slot = name_slots_[find_slot(name, hash)];
  if (slot.id.is_valid()) return slot.id;
  if (name.empty()) throw std::invalid_argument("net name must not be empty");
  const NetId id(static_cast<std::uint32_t>(nets_.size()));
  Net net;
  net.name = name;
  nets_.push_back(std::move(net));
  slot = {id, hash};
  return id;
}

void Netlist::reserve(std::size_t nets, std::size_t gates) {
  nets_.reserve(nets);
  reserve_names(nets);
  gates_.reserve(gates);
}

GateId Netlist::add_gate(GateType type, NetId output,
                         std::span<const NetId> inputs) {
  NETREV_REQUIRE(output.value() < nets_.size());
  const int arity = static_cast<int>(inputs.size());
  if (arity < min_arity(type) || arity > max_arity(type))
    throw std::invalid_argument(
        std::string("bad arity for gate ") + std::string(gate_type_name(type)) +
        ": " + std::to_string(arity));
  if (nets_[output.value()].driver.is_valid())
    throw std::invalid_argument("net already driven: " +
                                nets_[output.value()].name);
  if (nets_[output.value()].is_primary_input)
    throw std::invalid_argument("primary input cannot be driven: " +
                                nets_[output.value()].name);
  for (NetId in : inputs) NETREV_REQUIRE(in.value() < nets_.size());

  const GateId id(static_cast<std::uint32_t>(gates_.size()));
  Gate gate;
  gate.type = type;
  gate.output = output;
  gate.inputs.assign(inputs.begin(), inputs.end());
  gates_.push_back(std::move(gate));

  nets_[output.value()].driver = id;
  for (NetId in : inputs) nets_[in.value()].fanouts.push_back(id);
  return id;
}

GateId Netlist::add_gate(GateType type, NetId output,
                         std::initializer_list<NetId> inputs) {
  return add_gate(type, output, std::span<const NetId>(inputs.begin(),
                                                       inputs.size()));
}

void Netlist::mark_primary_input(NetId net) {
  NETREV_REQUIRE(net.value() < nets_.size());
  if (nets_[net.value()].driver.is_valid())
    throw std::invalid_argument("driven net cannot be a primary input: " +
                                nets_[net.value()].name);
  nets_[net.value()].is_primary_input = true;
}

void Netlist::mark_primary_output(NetId net) {
  NETREV_REQUIRE(net.value() < nets_.size());
  nets_[net.value()].is_primary_output = true;
}

const Net& Netlist::net(NetId id) const {
  NETREV_REQUIRE(id.value() < nets_.size());
  return nets_[id.value()];
}

const Gate& Netlist::gate(GateId id) const {
  NETREV_REQUIRE(id.value() < gates_.size());
  return gates_[id.value()];
}

std::vector<GateId> Netlist::gates_in_file_order() const {
  std::vector<GateId> order;
  order.reserve(gates_.size());
  for (std::size_t i = 0; i < gates_.size(); ++i)
    order.push_back(GateId(static_cast<std::uint32_t>(i)));
  return order;
}

std::optional<NetId> Netlist::find_net(std::string_view name) const {
  if (name_slots_.empty()) return std::nullopt;
  const NameSlot& slot = name_slots_[find_slot(name, name_hash(name))];
  if (!slot.id.is_valid()) return std::nullopt;
  return slot.id;
}

std::optional<GateId> Netlist::driver_of(NetId id) const {
  const Net& n = net(id);
  if (!n.driver.is_valid()) return std::nullopt;
  return n.driver;
}

bool Netlist::is_flop_output(NetId id) const {
  const auto drv = driver_of(id);
  return drv.has_value() && gate(*drv).type == GateType::kDff;
}

bool Netlist::feeds_flop(NetId id) const {
  for (GateId g : net(id).fanouts)
    if (gate(g).type == GateType::kDff) return true;
  return false;
}

std::vector<NetId> Netlist::primary_inputs() const {
  std::vector<NetId> result;
  for (std::size_t i = 0; i < nets_.size(); ++i)
    if (nets_[i].is_primary_input) result.push_back(NetId(static_cast<std::uint32_t>(i)));
  return result;
}

std::vector<NetId> Netlist::primary_outputs() const {
  std::vector<NetId> result;
  for (std::size_t i = 0; i < nets_.size(); ++i)
    if (nets_[i].is_primary_output) result.push_back(NetId(static_cast<std::uint32_t>(i)));
  return result;
}

std::size_t Netlist::flop_count() const {
  std::size_t count = 0;
  for (const Gate& g : gates_)
    if (g.type == GateType::kDff) ++count;
  return count;
}

std::size_t Netlist::combinational_gate_count() const {
  return gates_.size() - flop_count();
}

}  // namespace netrev::netlist
