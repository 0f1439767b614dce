#include "storage/homomorphism.h"

#include <algorithm>
#include <limits>

namespace gchase {

namespace {

/// Backtracking search state for one FindAllWithOptions call.
class Search {
 public:
  Search(const Instance& instance, const std::vector<Atom>& conjunction,
         const HomSearchOptions& options,
         const std::function<bool(const Binding&)>& callback)
      : instance_(instance),
        conjunction_(conjunction),
        options_(options),
        callback_(callback),
        matched_(conjunction.size(), false) {}

  void Run(Binding* binding) {
    binding_ = binding;
    stop_ = false;
    Recurse(0);
    if (options_.visits != nullptr) *options_.visits += visited_;
  }

 private:
  /// Estimated candidate count for a conjunct under the current binding,
  /// plus the most selective (pred, pos, term) probe if one exists.
  struct Plan {
    std::size_t estimate = std::numeric_limits<std::size_t>::max();
    bool use_position = false;
    uint32_t position = 0;
    Term term;
  };

  Plan PlanFor(const Atom& atom) const {
    Plan plan;
    plan.estimate = instance_.AtomsWithPredicate(atom.predicate).size();
    for (uint32_t pos = 0; pos < atom.arity(); ++pos) {
      Term t = atom.args[pos];
      Term image;
      if (t.IsVariable()) {
        image = (*binding_)[t.index()];
        if (!IsBound(image)) continue;
      } else {
        image = t;
      }
      std::size_t count =
          instance_.AtomsWithTermAt(atom.predicate, pos, image).size();
      if (count < plan.estimate) {
        plan.estimate = count;
        plan.use_position = true;
        plan.position = pos;
        plan.term = image;
      }
    }
    return plan;
  }

  void Recurse(std::size_t depth) {
    if (stop_) return;
    if (depth == conjunction_.size()) {
      if (!callback_(*binding_)) stop_ = true;
      return;
    }
    // Pick the unmatched conjunct with the smallest candidate estimate.
    std::size_t best = conjunction_.size();
    Plan best_plan;
    for (std::size_t i = 0; i < conjunction_.size(); ++i) {
      if (matched_[i]) continue;
      Plan plan = PlanFor(conjunction_[i]);
      if (best == conjunction_.size() || plan.estimate < best_plan.estimate) {
        best = i;
        best_plan = plan;
      }
    }
    GCHASE_CHECK(best < conjunction_.size());
    const Atom& pattern = conjunction_[best];
    const PostingList candidates =
        best_plan.use_position
            ? instance_.AtomsWithTermAt(pattern.predicate, best_plan.position,
                                        best_plan.term)
            : instance_.AtomsWithPredicate(pattern.predicate);

    matched_[best] = true;
    // The trail must be per-candidate and per-depth: deeper recursion
    // levels maintain their own trails.
    std::vector<uint32_t> trail;
    for (AtomId id : candidates) {
      if (stop_) break;
      if (++visited_ > options_.max_candidate_visits) {
        if (options_.budget_exhausted != nullptr) {
          *options_.budget_exhausted = true;
        }
        stop_ = true;
        break;
      }
      if (options_.governor != nullptr && (visited_ & 1023u) == 0 &&
          options_.governor->Check() != GovernorState::kOk) {
        if (options_.governor_tripped != nullptr) {
          *options_.governor_tripped = true;
        }
        stop_ = true;
        break;
      }
      const AtomView fact = instance_.atom(id);
      // Unify pattern against fact, recording newly bound variables.
      trail.clear();
      bool ok = true;
      for (uint32_t pos = 0; pos < pattern.arity(); ++pos) {
        Term t = pattern.args[pos];
        Term image = fact.args[pos];
        if (t.IsVariable()) {
          Term& slot = (*binding_)[t.index()];
          if (IsBound(slot)) {
            if (slot != image) {
              ok = false;
              break;
            }
          } else {
            slot = image;
            trail.push_back(t.index());
          }
        } else if (t != image) {
          ok = false;
          break;
        }
      }
      if (ok) Recurse(depth + 1);
      for (uint32_t v : trail) (*binding_)[v] = UnboundTerm();
    }
    matched_[best] = false;
  }

  const Instance& instance_;
  const std::vector<Atom>& conjunction_;
  const HomSearchOptions& options_;
  const std::function<bool(const Binding&)>& callback_;
  std::vector<bool> matched_;
  Binding* binding_ = nullptr;
  uint64_t visited_ = 0;
  bool stop_ = false;
};

}  // namespace

void HomomorphismFinder::FindAllWithOptions(
    const std::vector<Atom>& conjunction, uint32_t num_variables,
    const HomSearchOptions& options, const Binding& initial,
    const std::function<bool(const Binding&)>& callback) const {
  Binding binding(num_variables, UnboundTerm());
  for (std::size_t v = 0; v < initial.size() && v < binding.size(); ++v) {
    binding[v] = initial[v];
  }
  if (conjunction.empty()) {
    callback(binding);
    return;
  }
  Search search(instance_, conjunction, options, callback);
  search.Run(&binding);
}

std::optional<Binding> HomomorphismFinder::FindOne(
    const std::vector<Atom>& conjunction, uint32_t num_variables,
    const Binding& initial) const {
  return FindOneWithOptions(conjunction, num_variables, HomSearchOptions{},
                            initial);
}

std::optional<Binding> HomomorphismFinder::FindOneWithOptions(
    const std::vector<Atom>& conjunction, uint32_t num_variables,
    const HomSearchOptions& options, const Binding& initial) const {
  std::optional<Binding> result;
  FindAllWithOptions(conjunction, num_variables, options, initial,
                     [&result](const Binding& binding) {
                       result = binding;
                       return false;  // Stop after the first match.
                     });
  return result;
}

Atom SubstituteAtom(const Atom& atom, const Binding& binding) {
  Atom out;
  out.predicate = atom.predicate;
  out.args.reserve(atom.arity());
  for (Term t : atom.args) {
    if (t.IsVariable()) {
      GCHASE_CHECK(t.index() < binding.size());
      Term image = binding[t.index()];
      GCHASE_CHECK_MSG(IsBound(image), "substitution with unbound variable");
      out.args.push_back(image);
    } else {
      out.args.push_back(t);
    }
  }
  return out;
}

}  // namespace gchase
