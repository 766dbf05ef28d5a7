// Reference implementations of cone hashing (§2.3) and relevant-control-
// signal search (§2.4) over the pointer Netlist — the recursions the
// CompactView-based wordrec::ConeHasher and
// wordrec::find_relevant_control_signals replaced, kept as differential test
// oracles.
//
// They walk Gate::inputs / Netlist::driver_of, count containment in a hash
// map, test dominance with the pointer walks of netlist/cone.h, and derive
// collapsed gate types from their own table rather than wordrec/collapse.h,
// so agreement with the shipping code is an independent check.  They return
// the same results; WorkBudget charges are not part of that contract.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "netlist/netlist.h"
#include "wordrec/assignment.h"
#include "wordrec/hash_key.h"
#include "wordrec/options.h"

namespace netrev::testing {

// Same contract as wordrec::ConeHasher::subtree_key.
wordrec::HashKey oracle_subtree_key(
    const netlist::Netlist& nl, const wordrec::Options& options,
    netlist::NetId net, std::size_t depth,
    const wordrec::AssignmentMap* assignment = nullptr);

// Same contract as wordrec::ConeHasher::signature.
wordrec::BitSignature oracle_signature(
    const netlist::Netlist& nl, const wordrec::Options& options,
    netlist::NetId bit, const wordrec::AssignmentMap* assignment = nullptr);

// Same contract as wordrec::find_relevant_control_signals.
std::vector<netlist::NetId> oracle_control_signals(
    const netlist::Netlist& nl,
    std::span<const netlist::NetId> dissimilar_roots,
    const wordrec::Options& options);

}  // namespace netrev::testing
