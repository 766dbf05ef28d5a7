#include "sim/simulator.h"

#include <algorithm>

#include "common/contracts.h"
#include "common/thread_pool.h"
#include "perf/profile.h"
#include "sim/levelize.h"
#include "sim/packed.h"

namespace netrev::sim {

using netlist::GateId;
using netlist::GateType;
using netlist::NetId;
using netlist::Netlist;

Simulator::Simulator(const Netlist& nl) : nl_(&nl) {
  for (GateId g : levelize(nl)) {
    if (nl.gate(g).type == GateType::kDff)
      flops_.push_back(g);
    else
      order_.push_back(g);
  }
  values_.assign(nl.net_count(), 0);
}

void Simulator::set_input(NetId net, bool value) {
  NETREV_REQUIRE(nl_->net(net).is_primary_input);
  values_[net.value()] = value ? 1 : 0;
}

void Simulator::set_state(NetId q_net, bool value) {
  NETREV_REQUIRE(nl_->is_flop_output(q_net));
  values_[q_net.value()] = value ? 1 : 0;
}

void Simulator::randomize_inputs(Rng& rng) {
  for (NetId net : nl_->primary_inputs())
    values_[net.value()] = rng.next_bool() ? 1 : 0;
}

void Simulator::randomize_state(Rng& rng) {
  for (GateId g : flops_)
    values_[nl_->gate(g).output.value()] = rng.next_bool() ? 1 : 0;
}

void Simulator::eval() {
  for (GateId g : order_) {
    const netlist::Gate& gate = nl_->gate(g);
    if (scratch_capacity_ < gate.inputs.size()) {
      scratch_capacity_ = std::max<std::size_t>(16, gate.inputs.size() * 2);
      scratch_ = std::make_unique<bool[]>(scratch_capacity_);
    }
    for (std::size_t i = 0; i < gate.inputs.size(); ++i)
      scratch_[i] = values_[gate.inputs[i].value()] != 0;
    values_[gate.output.value()] =
        eval_gate(gate.type,
                  std::span<const bool>(scratch_.get(), gate.inputs.size()))
            ? 1
            : 0;
  }
}

void Simulator::step() {
  // Sample all D inputs first so flop-to-flop paths use pre-edge state.
  std::vector<std::uint8_t> next;
  next.reserve(flops_.size());
  for (GateId g : flops_) next.push_back(values_[nl_->gate(g).inputs[0].value()]);
  for (std::size_t i = 0; i < flops_.size(); ++i)
    values_[nl_->gate(flops_[i]).output.value()] = next[i];
  eval();
}

bool Simulator::value(NetId net) const {
  NETREV_REQUIRE(net.value() < values_.size());
  return values_[net.value()] != 0;
}

std::vector<std::uint8_t> sample_random_vectors(
    const netlist::CompactView& view, std::span<const NetId> probes,
    std::size_t vector_count, std::uint64_t seed) {
  std::vector<std::uint8_t> samples(vector_count * probes.size(), 0);
  if (vector_count == 0 || probes.empty()) return samples;
  NETREV_REQUIRE(view.acyclic());

  // Each 64-lane word covers a fixed run of RNG blocks; the block size and
  // per-block streams are those of one scalar Simulator per block, so the
  // stimulus — and therefore every sample byte — matches the scalar oracle
  // (tests/support/sample_oracle.h) at any --jobs value.
  static_assert(64 % kRandomSimBlock == 0);
  constexpr std::size_t kBlocksPerWord = 64 / kRandomSimBlock;
  const auto inputs = view.primary_inputs();
  const auto flops = view.flop_gates();
  const std::size_t words = (vector_count + 63) / 64;
  parallel_for(0, words, [&](std::size_t word_index) {
    PackedSimulator simulator(view);
    std::vector<std::uint64_t> in_words(inputs.size(), 0);
    std::vector<std::uint64_t> state_words(flops.size(), 0);
    const std::size_t word_begin = word_index * 64;
    const std::size_t word_end = std::min(word_begin + 64, vector_count);
    // Lane l is vector word_begin + l.  Every lane draws its stimulus in
    // the scalar order (all primary inputs, then all flops in levelize
    // order) from the block stream the scalar path would use.
    for (std::size_t half = 0; half < kBlocksPerWord; ++half) {
      const std::size_t block = word_index * kBlocksPerWord + half;
      const std::size_t begin = block * kRandomSimBlock;
      const std::size_t end = std::min(begin + kRandomSimBlock, vector_count);
      if (begin >= end) break;
      Rng rng = Rng::stream(seed, block);
      for (std::size_t v = begin; v < end; ++v) {
        const std::uint64_t bit = std::uint64_t{1} << (v - word_begin);
        for (std::size_t i = 0; i < inputs.size(); ++i)
          if (rng.next_bool()) in_words[i] |= bit;
        for (std::size_t i = 0; i < flops.size(); ++i)
          if (rng.next_bool()) state_words[i] |= bit;
      }
    }
    for (std::size_t i = 0; i < inputs.size(); ++i)
      simulator.set_input_word(inputs[i], in_words[i]);
    for (std::size_t i = 0; i < flops.size(); ++i)
      simulator.set_state_word(view.gate_output(flops[i]), state_words[i]);
    simulator.eval();
    for (std::size_t i = 0; i < probes.size(); ++i) {
      const std::uint64_t word = simulator.value_word(probes[i].value());
      for (std::size_t v = word_begin; v < word_end; ++v)
        samples[v * probes.size() + i] =
            static_cast<std::uint8_t>((word >> (v - word_begin)) & 1);
    }
    perf::Profiler::global().count("sim_vectors_run", word_end - word_begin);
  });
  return samples;
}

std::vector<std::uint8_t> sample_random_vectors(const Netlist& nl,
                                                std::span<const NetId> probes,
                                                std::size_t vector_count,
                                                std::uint64_t seed) {
  if (vector_count == 0 || probes.empty())
    return std::vector<std::uint8_t>(vector_count * probes.size(), 0);
  const netlist::CompactView view = netlist::CompactView::build(nl);
  // A cyclic design has no schedule: levelize() raises the diagnostic that
  // names the cycle.
  if (!view.acyclic()) levelize(nl);
  return sample_random_vectors(view, probes, vector_count, seed);
}

}  // namespace netrev::sim
