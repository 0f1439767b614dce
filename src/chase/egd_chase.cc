#include "chase/egd_chase.h"

#include <unordered_map>

#include "storage/homomorphism.h"

namespace gchase {

namespace {

/// Union-find over packed terms with constant-preferring representatives.
class TermUnion {
 public:
  enum class UnifyResult { kMerged, kNoop, kClash };

  uint32_t Find(uint32_t raw) {
    auto it = parent_.find(raw);
    if (it == parent_.end() || it->second == raw) return raw;
    uint32_t root = Find(it->second);
    parent_[raw] = root;
    return root;
  }

  UnifyResult Unify(Term a, Term b) {
    uint32_t ra = Find(a.raw());
    uint32_t rb = Find(b.raw());
    if (ra == rb) return UnifyResult::kNoop;
    const bool a_const = (ra >> 30) == 0;
    const bool b_const = (rb >> 30) == 0;
    if (a_const && b_const) return UnifyResult::kClash;
    if (a_const) {
      parent_[rb] = ra;
    } else if (b_const) {
      parent_[ra] = rb;
    } else {
      // Null-null merge: keep the lower id (older null) as representative.
      if (ra < rb) {
        parent_[rb] = ra;
      } else {
        parent_[ra] = rb;
      }
    }
    return UnifyResult::kMerged;
  }

  Term Canonical(Term t) {
    uint32_t root = Find(t.raw());
    uint32_t index = root & ((1u << 30) - 1);
    switch (root >> 30) {
      case 0:
        return Term::Constant(index);
      case 1:
        return Term::Variable(index);
      default:
        return Term::Null(index);
    }
  }

 private:
  std::unordered_map<uint32_t, uint32_t> parent_;
};

/// Resolves an EGD equality term under a homomorphism.
Term Resolve(Term t, const Binding& binding) {
  if (!t.IsVariable()) return t;
  GCHASE_CHECK(t.index() < binding.size());
  Term image = binding[t.index()];
  GCHASE_CHECK(IsBound(image));
  return image;
}

}  // namespace

const char* EgdChaseOutcomeName(EgdChaseOutcome outcome) {
  switch (outcome) {
    case EgdChaseOutcome::kTerminated:
      return "terminated";
    case EgdChaseOutcome::kFailed:
      return "failed";
    case EgdChaseOutcome::kResourceLimit:
      return "resource-limit";
    case EgdChaseOutcome::kDeadlineExceeded:
      return "deadline-exceeded";
    case EgdChaseOutcome::kCancelled:
      return "cancelled";
  }
  return "?";
}

const char* EgdCapName(EgdCap cap) {
  switch (cap) {
    case EgdCap::kNone:
      return "none";
    case EgdCap::kSteps:
      return "steps";
    case EgdCap::kAtoms:
      return "atoms";
    case EgdCap::kNulls:
      return "nulls";
  }
  return "?";
}

EgdChaseResult RunStandardChaseWithEgds(const RuleSet& rules,
                                        const std::vector<Egd>& egds,
                                        const EgdChaseOptions& options,
                                        const std::vector<Atom>& database) {
  EgdChaseResult result;
  const RunGovernor governor(options.deadline, options.cancel);
  // True (and the outcome set) when the governor tripped; checked only at
  // phase boundaries so the instance is never caught mid-merge.
  auto governed_stop = [&governor, &result]() {
    switch (governor.Check()) {
      case GovernorState::kOk:
        return false;
      case GovernorState::kDeadlineExceeded:
        result.outcome = EgdChaseOutcome::kDeadlineExceeded;
        return true;
      case GovernorState::kCancelled:
        result.outcome = EgdChaseOutcome::kCancelled;
        return true;
      case GovernorState::kMemoryBudgetExceeded:
        // Unreachable today — this governor carries no memory budget —
        // but a budgeted EGD chase would be a resource stop here.
        result.outcome = EgdChaseOutcome::kResourceLimit;
        return true;
    }
    return false;
  };
  // 64-bit like the TGD engine's null factory: the max_nulls comparison
  // below must not wrap, and ids past Term's packed-index space must cap
  // out cleanly instead of aborting inside Term::Null.
  uint64_t next_null = 0;
  for (const Atom& atom : database) {
    result.instance.Insert(atom);
    for (Term t : atom.args) {
      if (t.IsNull()) {
        next_null = std::max<uint64_t>(next_null, t.index() + 1);
      }
    }
  }

  for (;;) {
    bool progress = false;

    // --- EGD fixpoint: unify until no merge (or failure). --------------
    for (;;) {
      if (governed_stop()) return result;
      TermUnion unionfind;
      bool merged = false;
      bool clash = false;
      bool scan_tripped = false;
      for (const Egd& egd : egds) {
        HomomorphismFinder finder(result.instance);
        HomSearchOptions search;
        search.governor = &governor;
        const HomSearchStatus status = finder.FindAllWithOptions(
            egd.body(), egd.num_variables(), search, Binding(),
            [&](const Binding& binding) {
                         for (const Egd::Equality& eq : egd.equalities()) {
                           Term lhs = Resolve(eq.first, binding);
                           Term rhs = Resolve(eq.second, binding);
                           switch (unionfind.Unify(lhs, rhs)) {
                             case TermUnion::UnifyResult::kClash:
                               clash = true;
                               return false;
                             case TermUnion::UnifyResult::kMerged:
                               ++result.egd_applications;
                               merged = true;
                               break;
                             case TermUnion::UnifyResult::kNoop:
                               break;
                           }
                         }
                         return true;
                       });
        scan_tripped = scan_tripped || status.governor_tripped;
        if (clash) {
          result.outcome = EgdChaseOutcome::kFailed;
          return result;
        }
      }
      if (scan_tripped) {
        // Governor tripped mid-scan: the union-find may hold a partial
        // merge set — drop it without renormalizing, leaving the instance
        // untouched rather than partially merged.
        governed_stop();
        return result;
      }
      if (!merged) break;
      // Renormalize the whole instance under the merged terms.
      Instance normalized;
      for (AtomView atom : result.instance.atoms()) {
        Atom canonical = atom.ToAtom();
        for (Term& t : canonical.args) t = unionfind.Canonical(t);
        normalized.Insert(canonical);
      }
      result.instance = std::move(normalized);
      progress = true;
    }

    // --- One restricted TGD pass. --------------------------------------
    for (uint32_t r = 0; r < rules.size(); ++r) {
      const Tgd& rule = rules.rule(r);
      // Collect body homomorphisms first: applications mutate the
      // instance, and new triggers are picked up by the next pass.
      std::vector<Binding> bindings;
      {
        HomomorphismFinder finder(result.instance);
        HomSearchOptions search;
        search.governor = &governor;
        const HomSearchStatus status = finder.FindAllWithOptions(
            rule.body(), rule.num_variables(), search, Binding(),
            [&bindings](const Binding& binding) {
              bindings.push_back(binding);
              return true;
            });
        if (status.governor_tripped) {
          governed_stop();
          return result;
        }
      }
      for (const Binding& binding : bindings) {
        if (governed_stop()) return result;
        // Restricted semantics: skip satisfied triggers (checked against
        // the *current* instance). The check runs governed like every
        // other search in this loop — a pathological head join must not
        // outlive the deadline — and a tripped check is inconclusive, so
        // the trigger must not fire.
        Binding frontier(rule.num_variables(), UnboundTerm());
        for (VarId v : rule.frontier()) frontier[v] = binding[v];
        HomomorphismFinder finder(result.instance);
        HomSearchOptions head_search;
        head_search.governor = &governor;
        bool satisfied = false;
        const HomSearchStatus status = finder.FindAllWithOptions(
            rule.head(), rule.num_variables(), head_search, frontier,
            [&satisfied](const Binding&) {
              satisfied = true;
              return false;
            });
        if (status.governor_tripped) {
          governed_stop();
          return result;
        }
        if (satisfied) continue;
        // Cap checks come before any mutation — a capped step inserts
        // nothing (never a partial head) — and each reports which cap
        // fired. The null check compares headroom, never the sum (the sum
        // wraps when max_nulls is near the type maximum), and folds in
        // the representable-id ceiling, mirroring the TGD engine.
        const std::size_t fresh = rule.existential_variables().size();
        const uint64_t null_cap = std::min(options.max_nulls, kMaxLabeledNulls);
        EgdCap cap = EgdCap::kNone;
        if (result.tgd_applications >= options.max_steps) {
          cap = EgdCap::kSteps;
        } else if (result.instance.size() >= options.max_atoms) {
          cap = EgdCap::kAtoms;
        } else if (next_null > null_cap || fresh > null_cap - next_null) {
          cap = EgdCap::kNulls;
        }
        if (cap != EgdCap::kNone) {
          result.outcome = EgdChaseOutcome::kResourceLimit;
          result.cap = cap;
          return result;
        }
        Binding extended = binding;
        for (VarId v : rule.existential_variables()) {
          extended[v] = Term::Null(next_null++);
          ++result.nulls_created;
        }
        for (const Atom& head : rule.head()) {
          result.instance.Insert(SubstituteAtom(head, extended));
        }
        ++result.tgd_applications;
        progress = true;
      }
    }

    if (!progress) {
      result.outcome = EgdChaseOutcome::kTerminated;
      return result;
    }
  }
}

}  // namespace gchase
