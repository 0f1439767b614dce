#include "reasoning/containment.h"

#include <string>
#include <vector>

#include "chase/chase.h"
#include "storage/homomorphism.h"

namespace gchase {

StatusOr<ContainmentVerdict> IsContainedIn(const ConjunctiveQuery& q1,
                                           const ConjunctiveQuery& q2,
                                           const RuleSet& rules,
                                           Vocabulary* vocabulary,
                                           const ContainmentOptions&
                                               options) {
  if (q1.answer_variables.size() != q2.answer_variables.size()) {
    return Status::InvalidArgument(
        "containment needs queries of equal arity");
  }
  if (q1.atoms.empty()) {
    return Status::InvalidArgument("Q1 must have a non-empty body");
  }

  // Freeze Q1: each variable becomes a distinct reserved constant.
  std::vector<Term> frozen(q1.num_variables);
  for (uint32_t v = 0; v < q1.num_variables; ++v) {
    frozen[v] = Term::Constant(
        vocabulary->constants.Intern("@frz" + std::to_string(v)));
  }
  std::vector<Atom> canonical;
  canonical.reserve(q1.atoms.size());
  for (const Atom& atom : q1.atoms) {
    canonical.push_back(SubstituteAtom(atom, frozen));
  }

  // Chase the canonical database (restricted: smallest universal model).
  ChaseOptions chase_options;
  chase_options.variant = ChaseVariant::kRestricted;
  chase_options.max_atoms = options.max_atoms;
  chase_options.max_steps = options.max_steps;
  chase_options.deadline = options.deadline;
  chase_options.cancel = options.cancel;
  ChaseResult result = RunChase(rules, chase_options, canonical);

  // Match Q2, pinning its answer variables to Q1's frozen answers. The
  // match itself is governed too: against a large chased instance a
  // single CQ match can dwarf the chase.
  Binding initial(q2.num_variables, UnboundTerm());
  for (std::size_t i = 0; i < q2.answer_variables.size(); ++i) {
    initial[q2.answer_variables[i]] =
        frozen[q1.answer_variables[i]];
  }
  const RunGovernor governor(options.deadline, options.cancel);
  HomSearchOptions search;
  search.governor = &governor;
  bool found = false;
  HomomorphismFinder finder(result.instance);
  const HomSearchStatus status = finder.FindAllWithOptions(
      q2.atoms, q2.num_variables, search, initial, [&found](const Binding&) {
        found = true;
        return false;  // first match suffices
      });
  if (found) {
    return ContainmentVerdict::kContained;  // sound even on a prefix
  }
  if (result.outcome == ChaseOutcome::kTerminated &&
      !status.governor_tripped) {
    return ContainmentVerdict::kNotContained;
  }
  return ContainmentVerdict::kUnknown;
}

}  // namespace gchase
