#include "storage/core.h"

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "storage/homomorphism.h"

namespace gchase {

namespace {

/// View of an instance as a conjunctive query: nulls become variables.
struct InstanceQuery {
  std::vector<Atom> atoms;
  uint32_t num_variables = 0;
  /// var id -> original null term, and the reverse.
  std::vector<Term> null_of_var;
  std::unordered_map<uint32_t, uint32_t> var_of_null;  // null idx -> var
};

InstanceQuery BuildQuery(const Instance& instance) {
  InstanceQuery query;
  for (AtomView atom : instance.atoms()) {
    Atom pattern = atom.ToAtom();
    for (Term& t : pattern.args) {
      if (!t.IsNull()) continue;
      auto [it, inserted] = query.var_of_null.emplace(
          t.index(), static_cast<uint32_t>(query.null_of_var.size()));
      if (inserted) query.null_of_var.push_back(t);
      t = Term::Variable(it->second);
    }
    query.atoms.push_back(std::move(pattern));
  }
  query.num_variables = static_cast<uint32_t>(query.null_of_var.size());
  return query;
}

/// Applies a binding (var -> term) to the instance, producing its image.
Instance ApplyFold(const Instance& instance, const InstanceQuery& query,
                   const Binding& binding) {
  Instance image;
  for (AtomView atom : instance.atoms()) {
    Atom mapped = atom.ToAtom();
    for (Term& t : mapped.args) {
      if (!t.IsNull()) continue;
      auto it = query.var_of_null.find(t.index());
      GCHASE_CHECK(it != query.var_of_null.end());
      t = binding[it->second];
    }
    image.Insert(mapped);
  }
  return image;
}

}  // namespace

CoreResult ComputeCore(const Instance& instance, const CoreOptions& options) {
  CoreResult result;
  result.core = instance;
  uint64_t attempts = 0;
  const RunGovernor governor(options.deadline, options.cancel);

  bool changed = true;
  while (changed) {
    changed = false;
    InstanceQuery query = BuildQuery(result.core);
    if (query.num_variables == 0) break;  // null-free: already the core

    // Candidate fold targets: every term of the instance.
    std::unordered_set<uint32_t> term_raws;
    for (AtomView atom : result.core.atoms()) {
      for (Term t : atom.args) term_raws.insert(t.raw());
    }

    HomomorphismFinder finder(result.core);
    for (uint32_t v = 0; v < query.num_variables && !changed; ++v) {
      const Term null_term = query.null_of_var[v];
      for (uint32_t raw : term_raws) {
        if (raw == null_term.raw()) continue;
        if (++attempts > options.max_fold_attempts) {
          result.minimized_fully = false;
          result.stopped_by = StopReason::kResourceCap;
          return result;
        }
        const GovernorState governed = governor.Check();
        if (governed != GovernorState::kOk) {
          result.minimized_fully = false;
          result.stopped_by = governed == GovernorState::kCancelled
                                  ? StopReason::kCancelled
                                  : StopReason::kDeadline;
          return result;
        }
        Binding initial(query.num_variables, UnboundTerm());
        const uint32_t index = raw & ((1u << 30) - 1);
        initial[v] = (raw >> 30) == 0 ? Term::Constant(index)
                                      : Term::Null(index);
        // Enumerate endomorphisms pinning this null to the target until a
        // strictly shrinking one is found: a same-size image is just an
        // automorphism and makes no progress. The search itself is
        // governed — one endomorphism search can be exponential.
        HomSearchOptions search;
        search.governor = &governor;
        std::optional<Instance> shrunk;
        uint32_t enumerated = 0;
        const HomSearchStatus status = finder.FindAllWithOptions(
            query.atoms, query.num_variables, search, initial,
            [&](const Binding& fold) {
              Instance image = ApplyFold(result.core, query, fold);
              if (image.size() < result.core.size()) {
                shrunk = std::move(image);
                return false;
              }
              return ++enumerated < 256;  // per-pin enumeration budget
            });
        if (status.governor_tripped && !shrunk.has_value()) {
          result.minimized_fully = false;
          result.stopped_by = governor.Check() == GovernorState::kCancelled
                                  ? StopReason::kCancelled
                                  : StopReason::kDeadline;
          return result;
        }
        if (shrunk.has_value()) {
          result.core = *std::move(shrunk);
          ++result.retractions;
          changed = true;
          break;
        }
      }
    }
  }
  return result;
}

}  // namespace gchase
