#include "fuzz/oracles.h"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "acyclicity/dependency_graph.h"
#include "chase/chase.h"
#include "storage/homomorphism.h"
#include "storage/io.h"
#include "termination/critical_instance.h"
#include "termination/decider.h"

namespace gchase {

namespace {

constexpr const char* kOracleNames[kNumOracles] = {
    "variant-containment",  "decider-vs-probe", "syntactic-vs-decider",
    "parallel-determinism", "io-round-trip",    "order-equivalence",
    "memory-cap-twin",
};

/// True when the run was cut short by the trial's wall-clock budget or
/// an external cancel — evidence of nothing, per the governor contract.
bool Aborted(ChaseOutcome outcome) {
  return outcome == ChaseOutcome::kDeadlineExceeded ||
         outcome == ChaseOutcome::kCancelled;
}

ChaseOptions BoundedOptions(ChaseVariant variant,
                            const OracleOptions& options) {
  ChaseOptions chase_options;
  chase_options.variant = variant;
  chase_options.max_atoms = options.max_atoms;
  chase_options.max_steps = options.max_steps;
  chase_options.max_hom_discoveries = options.max_hom_discoveries;
  chase_options.max_join_work = options.max_join_work;
  chase_options.deadline = options.deadline;
  chase_options.cancel = options.cancel;
  return chase_options;
}

/// The process's discovery pool of `threads` workers, built on first use
/// and never destroyed. Every oracle run that fans out passes one as its
/// executor: a run given none starts a private pool and joins it at the
/// end, thousands of times per campaign.
std::shared_ptr<ThreadPool> SharedPool(uint32_t threads) {
  static std::mutex* const mutex = new std::mutex();
  static auto* const pools =
      new std::map<uint32_t, std::shared_ptr<ThreadPool>>();
  std::lock_guard<std::mutex> lock(*mutex);
  std::shared_ptr<ThreadPool>& pool = (*pools)[threads];
  if (pool == nullptr) pool = std::make_shared<ThreadPool>(threads);
  return pool;
}

DeciderOptions BoundedDeciderOptions(const OracleOptions& options) {
  DeciderOptions decider_options;
  decider_options.max_atoms = options.max_atoms;
  decider_options.max_steps = options.max_steps;
  decider_options.max_hom_discoveries = options.max_hom_discoveries;
  decider_options.max_join_work = options.max_join_work;
  decider_options.deadline = options.deadline;
  decider_options.cancel = options.cancel;
  return decider_options;
}

/// Bounded chase of the critical instance under `variant`. The critical
/// constant is interned into a private vocabulary copy; the caller's
/// case stays untouched.
ChaseResult CriticalProbe(const FuzzCase& fuzz_case, ChaseVariant variant,
                          const OracleOptions& options) {
  Vocabulary vocabulary = fuzz_case.vocabulary;
  std::vector<Atom> critical =
      BuildCriticalInstance(fuzz_case.rules, &vocabulary);
  return RunChase(fuzz_case.rules, BoundedOptions(variant, options), critical);
}

StatusOr<DeciderResult> Decide(const FuzzCase& fuzz_case, ChaseVariant variant,
                               const OracleOptions& options) {
  Vocabulary vocabulary = fuzz_case.vocabulary;
  return DecideTermination(fuzz_case.rules, &vocabulary, variant,
                           BoundedDeciderOptions(options));
}

OracleResult Pass() { return OracleResult{OracleOutcome::kPass, ""}; }

OracleResult Violation(std::string detail) {
  return OracleResult{OracleOutcome::kViolation, std::move(detail)};
}

OracleResult Inconclusive(std::string detail) {
  return OracleResult{OracleOutcome::kInconclusive, std::move(detail)};
}

/// Bit-identical instance comparison (same ids, predicates, arguments).
bool InstancesIdentical(const Instance& a, const Instance& b,
                        std::string* why) {
  if (a.size() != b.size()) {
    *why = "instance sizes differ: " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
    return false;
  }
  for (AtomId id = 0; id < a.size(); ++id) {
    AtomView left = a.atom(id);
    AtomView right = b.atom(id);
    bool equal = left.predicate == right.predicate &&
                 left.arity() == right.arity();
    for (uint32_t i = 0; equal && i < left.arity(); ++i) {
      equal = left.args[i] == right.args[i];
    }
    if (!equal) {
      *why = "atom " + std::to_string(id) + " differs";
      return false;
    }
  }
  return true;
}

/// Is `prefix` a bit-exact, id-aligned prefix of `base`? The memory
/// governor denies growth at pre-size checkpoints — it never rolls back
/// committed atoms — so every atom a capped run retains must coincide
/// with the uncapped run's atom of the same id.
bool InstanceIsPrefix(const Instance& prefix, const Instance& base,
                      std::string* why) {
  if (prefix.size() > base.size()) {
    *why = "capped instance has more atoms (" + std::to_string(prefix.size()) +
           ") than the uncapped base (" + std::to_string(base.size()) + ")";
    return false;
  }
  for (AtomId id = 0; id < prefix.size(); ++id) {
    AtomView left = prefix.atom(id);
    AtomView right = base.atom(id);
    bool equal = left.predicate == right.predicate &&
                 left.arity() == right.arity();
    for (uint32_t i = 0; equal && i < left.arity(); ++i) {
      equal = left.args[i] == right.args[i];
    }
    if (!equal) {
      *why = "atom " + std::to_string(id) + " differs from the base run";
      return false;
    }
  }
  return true;
}

/// Does `from` map homomorphically into `to`, treating labeled nulls of
/// `from` as existential variables? nullopt when the search budget or
/// the governor cut out before an answer.
std::optional<bool> MapsInto(const Instance& from, const Instance& to,
                             const OracleOptions& options,
                             const RunGovernor& governor) {
  std::vector<Atom> conjunction;
  conjunction.reserve(from.size());
  std::unordered_map<uint32_t, uint32_t> null_to_var;
  for (AtomView view : from.atoms()) {
    Atom atom;
    atom.predicate = view.predicate;
    atom.args.reserve(view.arity());
    for (Term t : view.args) {
      if (t.IsNull()) {
        auto [it, inserted] = null_to_var.emplace(
            t.index(), static_cast<uint32_t>(null_to_var.size()));
        atom.args.push_back(Term::Variable(it->second));
      } else {
        atom.args.push_back(t);
      }
    }
    conjunction.push_back(std::move(atom));
  }
  if (conjunction.empty()) return true;

  HomSearchOptions search;
  search.max_candidate_visits = options.max_equivalence_visits;
  search.governor = &governor;

  bool found = false;
  HomomorphismFinder finder(to);
  const HomSearchStatus status = finder.FindAllWithOptions(
      conjunction, static_cast<uint32_t>(null_to_var.size()), search,
      Binding(), [&](const Binding&) {
        found = true;
        return false;  // first witness suffices
      });
  if (found) return true;
  if (status.budget_exhausted || status.governor_tripped) return std::nullopt;
  return false;
}

/// Bit-identity comparison for two runs of the same (Σ, D, options)
/// under different engine strategies: same outcome, same counters (modulo
/// strategy-only RoundStats fields and wall times), same per-rule and
/// per-round stats, same instance atom for atom, id for id. Returns a
/// non-empty diff description on mismatch, "" when identical (or when a
/// wall-clock abort made the pair incomparable — deterministic abort
/// regimes are pinned by the fault-injection tests instead).
std::string TwinDiff(const ChaseResult& first, const ChaseResult& second) {
  if (Aborted(first.outcome) || Aborted(second.outcome)) return "";
  if (first.outcome != second.outcome) {
    return std::string("outcome ") + ChaseOutcomeName(first.outcome) +
           " vs " + ChaseOutcomeName(second.outcome);
  }
  if (first.applied_triggers != second.applied_triggers ||
      first.rounds != second.rounds ||
      first.nulls_created != second.nulls_created ||
      first.hom_discoveries != second.hom_discoveries ||
      first.join_work != second.join_work) {
    return "run counters differ (applied " +
           std::to_string(first.applied_triggers) + " vs " +
           std::to_string(second.applied_triggers) + ", rounds " +
           std::to_string(first.rounds) + " vs " +
           std::to_string(second.rounds) + ", nulls " +
           std::to_string(first.nulls_created) + " vs " +
           std::to_string(second.nulls_created) + ", homs " +
           std::to_string(first.hom_discoveries) + " vs " +
           std::to_string(second.hom_discoveries) + ", join work " +
           std::to_string(first.join_work) + " vs " +
           std::to_string(second.join_work) + ")";
  }
  for (std::size_t r = 0; r < first.stats.per_rule.size(); ++r) {
    const RuleStats& a = first.stats.per_rule[r];
    const RuleStats& b = second.stats.per_rule[r];
    if (a.discovered != b.discovered || a.applied != b.applied ||
        a.skipped_satisfied != b.skipped_satisfied) {
      return "per-rule stats differ at rule " + std::to_string(r);
    }
  }
  if (first.stats.per_round.size() != second.stats.per_round.size()) {
    return "per-round stats lengths differ";
  }
  for (std::size_t r = 0; r < first.stats.per_round.size(); ++r) {
    const RoundStats& a = first.stats.per_round[r];
    const RoundStats& b = second.stats.per_round[r];
    if (a.delta_atoms != b.delta_atoms || a.candidates != b.candidates ||
        a.applied != b.applied) {
      return "per-round stats differ at round " + std::to_string(r);
    }
  }
  std::string why;
  if (!InstancesIdentical(first.instance, second.instance, &why)) return why;
  return "";
}

/// Differential twin for the apply loop's two modes: runs `chase_options`
/// once plain (head atoms staged and flushed in bulk) and once with
/// provenance (each head atom inserted at once, as the deciders run), and
/// demands bit-identity.
std::string BatchTwinDiff(const FuzzCase& fuzz_case,
                          ChaseOptions chase_options) {
  chase_options.track_provenance = false;
  ChaseResult staged =
      RunChase(fuzz_case.rules, chase_options, fuzz_case.database);
  chase_options.track_provenance = true;
  ChaseResult eager =
      RunChase(fuzz_case.rules, chase_options, fuzz_case.database);
  return TwinDiff(staged, eager);
}

/// Differential twin for the discovery fan-out: compares `serial`, the
/// one-thread run of `chase_options`, with runs whose units fan out over
/// each of `thread_counts` (cutover 0, so every round fans out), and
/// demands bit-identity — join work included, since the merge enforces
/// the caps in unit order at any thread count. Runs uncapped, then with
/// the join-work, hom-discovery and step caps each at half of the serial
/// run's footprint, where the merge stops a round inside a unit.
std::string ThreadTwinDiffAllRegimes(
    const FuzzCase& fuzz_case, const ChaseOptions& chase_options,
    const ChaseResult& serial, const std::vector<uint32_t>& thread_counts) {
  const auto diff_threads = [&](const ChaseOptions& options,
                                const ChaseResult& one_thread) {
    for (uint32_t threads : thread_counts) {
      ChaseOptions parallel = options;
      parallel.discovery_threads = threads;
      parallel.executor = SharedPool(threads);
      parallel.parallel_cutover_work = 0;
      const ChaseResult run =
          RunChase(fuzz_case.rules, parallel, fuzz_case.database);
      const std::string diff = TwinDiff(one_thread, run);
      if (!diff.empty()) return std::to_string(threads) + " threads, " + diff;
    }
    return std::string();
  };
  std::string diff = diff_threads(chase_options, serial);
  if (!diff.empty()) return "uncapped at " + diff;
  struct Regime {
    const char* name;
    uint64_t footprint;
    ChaseOptions options;
  };
  Regime regimes[3] = {
      {"join-work-capped", serial.join_work, chase_options},
      {"hom-capped", serial.hom_discoveries, chase_options},
      {"step-capped", serial.applied_triggers, chase_options},
  };
  regimes[0].options.max_join_work = serial.join_work / 2;
  regimes[1].options.max_hom_discoveries = serial.hom_discoveries / 2;
  regimes[2].options.max_steps = serial.applied_triggers / 2;
  for (const Regime& regime : regimes) {
    if (regime.footprint <= 1) continue;
    const ChaseResult one_thread =
        RunChase(fuzz_case.rules, regime.options, fuzz_case.database);
    diff = diff_threads(regime.options, one_thread);
    if (!diff.empty()) return std::string(regime.name) + " at " + diff;
  }
  return "";
}

/// BatchTwinDiff across cap regimes: uncapped (well, the oracle's ambient
/// caps) plus regimes tightened around the base run's own footprint so a
/// cap provably binds mid-run — the step cap, the atom cap and the null
/// cap each get a twin pair. Cap trips are where a staged run's flush
/// bookkeeping is subtlest, so they get explicit coverage.
std::string BatchTwinDiffAllRegimes(const FuzzCase& fuzz_case,
                                    const ChaseOptions& chase_options,
                                    const ChaseResult& base) {
  std::string diff = BatchTwinDiff(fuzz_case, chase_options);
  if (!diff.empty()) return "uncapped: " + diff;
  if (base.applied_triggers > 1) {
    ChaseOptions tight = chase_options;
    tight.max_steps = base.applied_triggers / 2;
    diff = BatchTwinDiff(fuzz_case, tight);
    if (!diff.empty()) return "step-capped: " + diff;
  }
  if (base.instance.size() > static_cast<uint32_t>(fuzz_case.database.size())) {
    ChaseOptions tight = chase_options;
    tight.max_atoms =
        (fuzz_case.database.size() + base.instance.size()) / 2;
    diff = BatchTwinDiff(fuzz_case, tight);
    if (!diff.empty()) return "atom-capped: " + diff;
  }
  if (base.nulls_created > 1) {
    ChaseOptions tight = chase_options;
    tight.max_nulls = base.nulls_created / 2;
    diff = BatchTwinDiff(fuzz_case, tight);
    if (!diff.empty()) return "null-capped: " + diff;
  }
  return "";
}

// ---------------------------------------------------------------------------
// Oracle 1: CT_o ⊆ CT_so, at the concrete database and at the decider.
// ---------------------------------------------------------------------------
OracleResult CheckVariantContainment(const FuzzCase& fuzz_case,
                                     const OracleOptions& options) {
  bool inconclusive = false;
  std::string inconclusive_why;

  ChaseResult oblivious = RunChase(
      fuzz_case.rules, BoundedOptions(ChaseVariant::kOblivious, options),
      fuzz_case.database);
  if (Aborted(oblivious.outcome)) {
    return Inconclusive("oblivious run aborted by governor");
  }
  if (oblivious.outcome == ChaseOutcome::kTerminated) {
    ChaseResult semi = RunChase(
        fuzz_case.rules, BoundedOptions(ChaseVariant::kSemiOblivious, options),
        fuzz_case.database);
    if (Aborted(semi.outcome)) {
      inconclusive = true;
      inconclusive_why = "semi-oblivious run aborted by governor";
    } else if (semi.outcome != ChaseOutcome::kTerminated) {
      return Violation(
          "oblivious chase terminated (" +
          std::to_string(oblivious.instance.size()) +
          " atoms) but the semi-oblivious chase hit a resource cap — "
          "contradicts CT_o ⊆ CT_so at the instance level");
    } else {
      if (semi.instance.size() > oblivious.instance.size()) {
        return Violation(
            "semi-oblivious result has more atoms (" +
            std::to_string(semi.instance.size()) + ") than the oblivious (" +
            std::to_string(oblivious.instance.size()) +
            ") — the so-chase applies a subset of the o-chase's triggers");
      }
      if (semi.applied_triggers > oblivious.applied_triggers) {
        return Violation(
            "semi-oblivious chase applied more triggers (" +
            std::to_string(semi.applied_triggers) + ") than the oblivious (" +
            std::to_string(oblivious.applied_triggers) + ")");
      }
    }
  }

  // Decider-level containment: Σ ∈ CT_o must imply Σ ∈ CT_so.
  StatusOr<DeciderResult> decider_o =
      Decide(fuzz_case, ChaseVariant::kOblivious, options);
  StatusOr<DeciderResult> decider_so =
      Decide(fuzz_case, ChaseVariant::kSemiOblivious, options);
  if (!decider_o.ok() || !decider_so.ok()) {
    return Inconclusive("decider unavailable for this rule set");
  }
  if (decider_o->verdict == TerminationVerdict::kUnknown ||
      decider_so->verdict == TerminationVerdict::kUnknown) {
    inconclusive = true;
    if (inconclusive_why.empty()) inconclusive_why = "decider verdict unknown";
  } else if (decider_o->verdict == TerminationVerdict::kTerminating &&
             decider_so->verdict == TerminationVerdict::kNonTerminating) {
    return Violation(
        "decider claims CT_o (oblivious terminates on all databases) yet "
        "CT_so fails — contradicts CT_o ⊆ CT_so");
  }
  // All-instance termination also covers the concrete database.
  if (decider_o.ok() &&
      decider_o->verdict == TerminationVerdict::kTerminating &&
      oblivious.outcome == ChaseOutcome::kResourceLimit) {
    return Violation(
        "decider claims CT_o but the oblivious chase of the generated "
        "database hit a resource cap");
  }
  if (inconclusive) return Inconclusive(inconclusive_why);
  return Pass();
}

// ---------------------------------------------------------------------------
// Oracle 2: decider verdict vs bounded critical-instance probe (Thm 2/4).
// ---------------------------------------------------------------------------
OracleResult CheckDeciderVsProbe(const FuzzCase& fuzz_case,
                                 const OracleOptions& options) {
  bool inconclusive = false;
  std::string why;
  for (ChaseVariant variant :
       {ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious}) {
    const char* variant_name = ChaseVariantName(variant);
    StatusOr<DeciderResult> decided = Decide(fuzz_case, variant, options);
    if (!decided.ok()) {
      return Inconclusive("decider unavailable for this rule set");
    }
    if (decided->verdict == TerminationVerdict::kUnknown) {
      inconclusive = true;
      why = std::string("decider unknown (") + variant_name + ")";
      continue;
    }
    ChaseResult probe = CriticalProbe(fuzz_case, variant, options);
    if (Aborted(probe.outcome)) {
      inconclusive = true;
      why = std::string("critical probe aborted by governor (") +
            variant_name + ")";
      continue;
    }
    if (decided->verdict == TerminationVerdict::kTerminating &&
        probe.outcome == ChaseOutcome::kResourceLimit) {
      return Violation(std::string("decider says the ") + variant_name +
                       " chase terminates, but the critical-instance probe "
                       "diverged into its resource caps");
    }
    if (decided->verdict == TerminationVerdict::kNonTerminating &&
        probe.outcome == ChaseOutcome::kTerminated) {
      return Violation(std::string("decider says the ") + variant_name +
                       " chase diverges, but the critical-instance probe "
                       "halted with a finite result (" +
                       std::to_string(probe.instance.size()) + " atoms)");
    }
  }
  if (inconclusive) return Inconclusive(why);
  return Pass();
}

// ---------------------------------------------------------------------------
// Oracle 3: RA/WA soundness everywhere, exactness on simple-linear (Thm 1).
// ---------------------------------------------------------------------------
OracleResult CheckSyntacticVsDecider(const FuzzCase& fuzz_case,
                                     const OracleOptions& options) {
  const Schema& schema = fuzz_case.vocabulary.schema;
  const bool ra = CheckRichAcyclicity(fuzz_case.rules, schema).acyclic;
  const bool wa = CheckWeakAcyclicity(fuzz_case.rules, schema).acyclic;
  if (ra && !wa) {
    return Violation(
        "richly acyclic but not weakly acyclic — RA draws a superset of "
        "WA's special edges, so RA ⊆ WA must hold");
  }

  bool inconclusive = false;
  std::string why;
  StatusOr<DeciderResult> decider_o =
      Decide(fuzz_case, ChaseVariant::kOblivious, options);
  StatusOr<DeciderResult> decider_so =
      Decide(fuzz_case, ChaseVariant::kSemiOblivious, options);
  if (!decider_o.ok() || !decider_so.ok()) {
    return Inconclusive("decider unavailable for this rule set");
  }

  // Soundness on every class: acyclicity proves termination.
  if (ra && decider_o->verdict == TerminationVerdict::kNonTerminating) {
    return Violation(
        "richly acyclic rule set judged oblivious-non-terminating — RA is "
        "a sound termination condition for CT_o");
  }
  if (wa && decider_so->verdict == TerminationVerdict::kNonTerminating) {
    return Violation(
        "weakly acyclic rule set judged semi-oblivious-non-terminating — "
        "WA is a sound termination condition for CT_so");
  }

  // Exactness on SL (Theorem 1): RA = CT_o ∩ SL, WA = CT_so ∩ SL, both
  // against the decider and against a direct bounded probe.
  if (fuzz_case.rules.Classify() == RuleClass::kSimpleLinear) {
    struct SlCheck {
      bool acyclic;
      const DeciderResult* decided;
      ChaseVariant variant;
      const char* condition;
    };
    const SlCheck checks[2] = {
        {ra, &*decider_o, ChaseVariant::kOblivious, "rich acyclicity"},
        {wa, &*decider_so, ChaseVariant::kSemiOblivious, "weak acyclicity"},
    };
    for (const SlCheck& check : checks) {
      if (check.decided->verdict != TerminationVerdict::kUnknown) {
        const bool decider_terminating =
            check.decided->verdict == TerminationVerdict::kTerminating;
        if (decider_terminating != check.acyclic) {
          return Violation(
              std::string(check.condition) + " says " +
              (check.acyclic ? "terminating" : "non-terminating") +
              " but the critical-instance decider disagrees on a "
              "simple-linear set — contradicts Theorem 1");
        }
      } else {
        inconclusive = true;
        why = "decider verdict unknown on a simple-linear set";
      }
      ChaseResult probe = CriticalProbe(fuzz_case, check.variant, options);
      if (Aborted(probe.outcome)) {
        inconclusive = true;
        why = "critical probe aborted by governor";
        continue;
      }
      if (check.acyclic && probe.outcome == ChaseOutcome::kResourceLimit) {
        return Violation(std::string(check.condition) +
                         " holds on a simple-linear set but the "
                         "critical-instance probe diverged into its caps — "
                         "contradicts Theorem 1");
      }
      if (!check.acyclic && probe.outcome == ChaseOutcome::kTerminated) {
        return Violation(std::string(check.condition) +
                         " fails on a simple-linear set but the "
                         "critical-instance probe halted — contradicts "
                         "Theorem 1");
      }
    }
  }
  if (inconclusive) return Inconclusive(why);
  return Pass();
}

// ---------------------------------------------------------------------------
// Oracle 4: parallel trigger discovery ≡ serial, bit for bit.
// ---------------------------------------------------------------------------
OracleResult CheckParallelDeterminism(const FuzzCase& fuzz_case,
                                      const OracleOptions& options) {
  ChaseOptions serial = BoundedOptions(ChaseVariant::kRestricted, options);
  ChaseResult base = RunChase(fuzz_case.rules, serial, fuzz_case.database);
  if (Aborted(base.outcome)) {
    return Inconclusive("serial run aborted by governor");
  }
  // The apply loop stages head atoms on plain runs and inserts them at
  // once on provenance runs. Pin their bit-identity here, across cap
  // regimes, before comparing thread counts — a parallel run compared
  // against a drifting serial baseline proves nothing.
  const std::string batch_diff =
      BatchTwinDiffAllRegimes(fuzz_case, serial, base);
  if (!batch_diff.empty()) {
    return Violation(
        "a plain run is not bit-identical to a provenance run (serial, "
        "restricted): " +
        batch_diff);
  }
  const std::string thread_diff =
      ThreadTwinDiffAllRegimes(fuzz_case, serial, base, options.thread_counts);
  if (!thread_diff.empty()) {
    return Violation("parallel discovery is not bit-identical to serial "
                     "(restricted), " +
                     thread_diff);
  }
  return Pass();
}

// ---------------------------------------------------------------------------
// Oracle 5: chase results round-trip through storage/io.
// ---------------------------------------------------------------------------
OracleResult CheckIoRoundTrip(const FuzzCase& fuzz_case,
                              const OracleOptions& options) {
  ChaseResult result = RunChase(
      fuzz_case.rules, BoundedOptions(ChaseVariant::kRestricted, options),
      fuzz_case.database);
  if (result.outcome == ChaseOutcome::kCancelled) {
    return Inconclusive("chase cancelled");
  }
  // Even a capped or deadline-stopped run leaves a valid instance — the
  // round-trip property holds for every instance the engine can produce.
  const Instance& instance = result.instance;
  const std::string text =
      WriteInstanceText(instance, fuzz_case.vocabulary);
  Vocabulary vocabulary = fuzz_case.vocabulary;
  StatusOr<Instance> reread = ReadInstanceText(text, &vocabulary);
  if (!reread.ok()) {
    return Violation("WriteInstanceText output failed to re-parse: " +
                     reread.status().ToString());
  }
  if (reread->size() != instance.size()) {
    return Violation("io round-trip changed the atom count: " +
                     std::to_string(instance.size()) + " -> " +
                     std::to_string(reread->size()));
  }
  // Atoms are re-read in write order, so ids correspond 1:1; nulls must
  // come back as their reserved '_:n<id>' constants.
  for (AtomId id = 0; id < instance.size(); ++id) {
    AtomView original = instance.atom(id);
    AtomView round_tripped = reread->atom(id);
    if (original.predicate != round_tripped.predicate ||
        original.arity() != round_tripped.arity()) {
      return Violation("io round-trip changed atom " + std::to_string(id));
    }
    for (uint32_t i = 0; i < original.arity(); ++i) {
      Term before = original.args[i];
      Term after = round_tripped.args[i];
      if (before.IsNull()) {
        const std::string expected = "_:n" + std::to_string(before.index());
        if (!after.IsConstant() ||
            vocabulary.constants.NameOf(after.index()) != expected) {
          return Violation("null " + expected +
                           " did not round-trip to its reserved constant in "
                           "atom " +
                           std::to_string(id));
        }
      } else if (after != before) {
        return Violation("constant argument changed in atom " +
                         std::to_string(id));
      }
    }
  }
  return Pass();
}

// ---------------------------------------------------------------------------
// Oracle 6: restricted-chase results hom-equivalent across trigger orders.
// ---------------------------------------------------------------------------
OracleResult CheckOrderEquivalence(const FuzzCase& fuzz_case,
                                   const OracleOptions& options) {
  struct OrderRun {
    const char* name;
    TriggerOrder order;
  };
  const OrderRun orders[3] = {
      {"fifo", TriggerOrder::kFifo},
      {"datalog-first", TriggerOrder::kDatalogFirst},
      {"random", TriggerOrder::kRandom},
  };

  std::vector<std::pair<const char*, ChaseResult>> terminated;
  bool inconclusive = false;
  std::string why;
  for (const OrderRun& run : orders) {
    ChaseOptions chase_options =
        BoundedOptions(ChaseVariant::kRestricted, options);
    chase_options.order = run.order;
    chase_options.order_seed =
        SplitMix64(fuzz_case.seed ^ SplitMix64(fuzz_case.trial));
    ChaseResult result =
        RunChase(fuzz_case.rules, chase_options, fuzz_case.database);
    if (Aborted(result.outcome)) {
      inconclusive = true;
      why = std::string("order ") + run.name + " aborted by governor";
      continue;
    }
    if (result.outcome == ChaseOutcome::kTerminated) {
      terminated.emplace_back(run.name, std::move(result));
    }
    // A capped run is no universal model; nothing to compare for it
    // (order-sensitive termination is expected — see the restricted
    // probe — so this is not a violation).
  }

  // Plain-vs-provenance bit-identity across the full (variant, order)
  // grid. Restricted is the order-sensitive — and flush-sensitive — case;
  // (semi-)oblivious plain rounds stage whole rounds and are covered for
  // the segmented-flush and contiguous-null-range behavior.
  for (ChaseVariant variant :
       {ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
        ChaseVariant::kRestricted}) {
    for (const OrderRun& run : orders) {
      ChaseOptions chase_options = BoundedOptions(variant, options);
      chase_options.order = run.order;
      chase_options.order_seed =
          SplitMix64(fuzz_case.seed ^ SplitMix64(fuzz_case.trial));
      const std::string diff = BatchTwinDiff(fuzz_case, chase_options);
      if (!diff.empty()) {
        return Violation(std::string("a plain run is not bit-identical to "
                                     "a provenance run (") +
                         ChaseVariantName(variant) + ", order " + run.name +
                         "): " + diff);
      }
    }
  }

  RunGovernor governor(options.deadline, options.cancel);
  for (std::size_t i = 1; i < terminated.size(); ++i) {
    const Instance& pivot = terminated[0].second.instance;
    const Instance& other = terminated[i].second.instance;
    std::optional<bool> forward = MapsInto(pivot, other, options, governor);
    std::optional<bool> backward = MapsInto(other, pivot, options, governor);
    if (!forward.has_value() || !backward.has_value()) {
      inconclusive = true;
      why = "hom-equivalence search exhausted its budget";
      continue;
    }
    if (!*forward || !*backward) {
      return Violation(
          std::string("restricted-chase results under orders '") +
          terminated[0].first + "' and '" + terminated[i].first +
          "' are not homomorphically equivalent — both terminated, so both "
          "must be universal models of (Σ, D)");
    }
  }
  if (inconclusive) return Inconclusive(why);
  return Pass();
}

// ---------------------------------------------------------------------------
// Oracle 7: memory governance never corrupts a run — injected-fault grid
// plus a real byte budget, each against an uncapped base.
// ---------------------------------------------------------------------------
OracleResult CheckMemoryCapTwin(const FuzzCase& fuzz_case,
                                const OracleOptions& options) {
  struct Engine {
    const char* name;
    bool track_provenance;
    uint32_t threads;
  };
  // kAllocation ordinals are defined to be identical across plain and
  // provenance runs and across thread counts, so the same target ordinal
  // must stop all three engines at the same committed prefix.
  const Engine engines[3] = {
      {"serial-staged", false, 1},
      {"serial-provenance", true, 1},
      {"parallel-staged", false, 2},
  };

  bool inconclusive = false;
  std::string inconclusive_why;
  for (ChaseVariant variant :
       {ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
        ChaseVariant::kRestricted}) {
    const char* variant_name = ChaseVariantName(variant);
    const ChaseOptions base_options = BoundedOptions(variant, options);
    ChaseResult base =
        RunChase(fuzz_case.rules, base_options, fuzz_case.database);
    if (Aborted(base.outcome)) {
      inconclusive = true;
      inconclusive_why =
          std::string("base run aborted by governor (") + variant_name + ")";
      continue;
    }

    // (a) Injected memory-budget faults across the kAllocation ordinal
    // space. One checkpoint per round plus one per applied trigger bounds
    // the ordinals the base run visited; sampling the ends and the middle
    // — plus one ordinal past the bound — covers the first-trip, mid-run
    // and never-fires regimes without running the full grid.
    const uint64_t bound = base.rounds + base.applied_triggers;
    const uint64_t probes[4] = {0, 1, bound / 2, bound + 1};
    std::vector<uint64_t> targets;
    for (uint64_t probe : probes) {
      bool seen = false;
      for (uint64_t t : targets) seen = seen || t == probe;
      if (!seen) targets.push_back(probe);
    }
    for (const Engine& engine : engines) {
      for (uint64_t target : targets) {
        auto fired = std::make_shared<std::atomic<bool>>(false);
        ChaseOptions capped = base_options;
        capped.track_provenance = engine.track_provenance;
        capped.discovery_threads = engine.threads;
        if (engine.threads > 1) {
          capped.executor = SharedPool(engine.threads);
          capped.parallel_cutover_work = 0;
        }
        capped.fault_injector = [fired, target](FaultSite site,
                                                uint64_t ordinal) {
          if (site == FaultSite::kAllocation && ordinal == target) {
            fired->store(true, std::memory_order_relaxed);
            return InjectedFault::kMemoryBudget;
          }
          return InjectedFault::kNone;
        };
        ChaseResult run =
            RunChase(fuzz_case.rules, capped, fuzz_case.database);
        const std::string where = std::string(variant_name) + ", " +
                                  engine.name + ", ordinal " +
                                  std::to_string(target);
        if (Aborted(run.outcome)) {
          inconclusive = true;
          inconclusive_why = "capped run aborted by governor (" + where + ")";
          continue;
        }
        std::string why;
        if (fired->load(std::memory_order_relaxed)) {
          if (run.outcome != ChaseOutcome::kMemoryBudgetExceeded) {
            return Violation("injected memory-budget fault (" + where +
                             ") yielded outcome " +
                             ChaseOutcomeName(run.outcome) +
                             " instead of memory-budget-exceeded");
          }
          if (!InstanceIsPrefix(run.instance, base.instance, &why)) {
            return Violation(
                "memory-stopped instance is not a bit-exact prefix of the "
                "base run (" + where + "): " + why);
          }
        } else {
          if (run.outcome != base.outcome ||
              run.applied_triggers != base.applied_triggers) {
            return Violation(
                "an injector that never fired perturbed the run (" + where +
                "): outcome " + ChaseOutcomeName(run.outcome) + " vs " +
                ChaseOutcomeName(base.outcome) + ", applied " +
                std::to_string(run.applied_triggers) + " vs " +
                std::to_string(base.applied_triggers));
          }
          if (!InstancesIdentical(run.instance, base.instance, &why)) {
            return Violation(
                "an injector that never fired changed the instance (" +
                where + "): " + why);
          }
        }
      }
    }

    // (b) A real byte budget at half the base run's peak: the run either
    // never hits it (bit-identical result) or stops on the budget with a
    // bit-exact prefix — never a throw, never a corrupt instance.
    if (base.stats.peak_memory_bytes == 0) {
      inconclusive = true;
      inconclusive_why =
          std::string("base run reported no peak memory (") + variant_name +
          ")";
      continue;
    }
    ChaseOptions budgeted = base_options;
    budgeted.memory_budget =
        std::make_shared<MemoryBudget>(base.stats.peak_memory_bytes / 2 + 1);
    ChaseResult run =
        RunChase(fuzz_case.rules, budgeted, fuzz_case.database);
    if (Aborted(run.outcome)) {
      inconclusive = true;
      inconclusive_why = std::string("budgeted run aborted by governor (") +
                         variant_name + ")";
      continue;
    }
    std::string why;
    if (run.outcome == ChaseOutcome::kMemoryBudgetExceeded) {
      if (!InstanceIsPrefix(run.instance, base.instance, &why)) {
        return Violation(std::string("byte-budgeted run (") + variant_name +
                         ") stopped on the budget but its instance is not a "
                         "prefix of the base: " + why);
      }
    } else if (run.outcome == base.outcome) {
      if (!InstancesIdentical(run.instance, base.instance, &why)) {
        return Violation(std::string("byte-budgeted run (") + variant_name +
                         ") finished under budget but differs from the "
                         "base: " + why);
      }
    } else {
      return Violation(std::string("byte-budgeted run (") + variant_name +
                       ") ended " + ChaseOutcomeName(run.outcome) +
                       " against a base " + ChaseOutcomeName(base.outcome) +
                       " — a byte budget may only stop a run with "
                       "memory-budget-exceeded");
    }
  }
  if (inconclusive) return Inconclusive(inconclusive_why);
  return Pass();
}

}  // namespace

const char* OracleName(OracleId oracle) {
  const uint32_t index = static_cast<uint32_t>(oracle);
  GCHASE_CHECK(index < kNumOracles);
  return kOracleNames[index];
}

std::optional<OracleId> OracleByName(std::string_view name) {
  for (uint32_t i = 0; i < kNumOracles; ++i) {
    if (name == kOracleNames[i]) return static_cast<OracleId>(i);
  }
  return std::nullopt;
}

std::vector<OracleId> AllOracles() {
  std::vector<OracleId> oracles;
  oracles.reserve(kNumOracles);
  for (uint32_t i = 0; i < kNumOracles; ++i) {
    oracles.push_back(static_cast<OracleId>(i));
  }
  return oracles;
}

const char* OracleOutcomeName(OracleOutcome outcome) {
  switch (outcome) {
    case OracleOutcome::kPass:
      return "pass";
    case OracleOutcome::kViolation:
      return "violation";
    case OracleOutcome::kInconclusive:
      return "inconclusive";
  }
  return "?";
}

OracleResult RunOracle(OracleId oracle, const FuzzCase& fuzz_case,
                       const OracleOptions& options) {
  switch (oracle) {
    case OracleId::kVariantContainment:
      return CheckVariantContainment(fuzz_case, options);
    case OracleId::kDeciderVsProbe:
      return CheckDeciderVsProbe(fuzz_case, options);
    case OracleId::kSyntacticVsDecider:
      return CheckSyntacticVsDecider(fuzz_case, options);
    case OracleId::kParallelDeterminism:
      return CheckParallelDeterminism(fuzz_case, options);
    case OracleId::kIoRoundTrip:
      return CheckIoRoundTrip(fuzz_case, options);
    case OracleId::kOrderEquivalence:
      return CheckOrderEquivalence(fuzz_case, options);
    case OracleId::kMemoryCapTwin:
      return CheckMemoryCapTwin(fuzz_case, options);
  }
  return Inconclusive("unknown oracle");
}

}  // namespace gchase
