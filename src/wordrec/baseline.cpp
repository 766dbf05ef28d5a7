#include "wordrec/baseline.h"

#include <optional>

#include "common/resource_guard.h"
#include "wordrec/grouping.h"
#include "wordrec/matching.h"

namespace netrev::wordrec {

WordSet identify_words_baseline(const netlist::Netlist& nl,
                                const Options& options_in) {
  // Same budget/checkpoint wiring as identify_words(): cone walks charge a
  // shared budget, and an armed checkpoint polls through it (strided) plus
  // once per group here.  The baseline has no ladder of its own — it IS a
  // degradation rung — so trips propagate to the ladder runner.
  WorkBudget local_budget(options_in.max_cone_work);
  Options options = options_in;
  if (options.cone_budget == nullptr &&
      (options.max_cone_work != 0 || options.checkpoint.armed())) {
    local_budget.set_checkpoint(&options.checkpoint);
    options.cone_budget = &local_budget;
  }

  std::optional<netlist::CompactView> local_view;
  const ConeHasher hasher(resolve_view(nl, options, local_view), options);
  WordSet result;
  std::vector<PotentialBitGroup> groups = potential_bit_groups(nl);
  if (options.cross_group_checking)
    groups = merge_groups_across_gaps(nl, std::move(groups),
                                      options.cross_group_max_gap);
  for (const PotentialBitGroup& group : groups) {
    options.checkpoint.poll();
    std::vector<BitSignature> signatures;
    signatures.reserve(group.size());
    for (netlist::NetId bit : group) signatures.push_back(hasher.signature(bit));
    for (Subgroup& sg : form_subgroups(group, signatures,
                                       /*require_full_match=*/true)) {
      Word word;
      word.bits = std::move(sg.bits);
      result.words.push_back(std::move(word));
    }
  }
  return result;
}

}  // namespace netrev::wordrec
