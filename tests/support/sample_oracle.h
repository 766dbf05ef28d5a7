// Reference random-vector sampler: one scalar sim::Simulator per RNG block,
// one vector at a time — the path the bit-parallel engine
// (sim::sample_random_vectors) replaced, kept as its semantics oracle.
// Same contract and block/stream decomposition, so the samples must be
// byte-identical.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.h"

namespace netrev::testing {

std::vector<std::uint8_t> sample_random_vectors_scalar(
    const netlist::Netlist& nl, std::span<const netlist::NetId> probes,
    std::size_t vector_count, std::uint64_t seed);

}  // namespace netrev::testing
