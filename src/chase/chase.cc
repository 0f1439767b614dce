#include "chase/chase.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <new>
#include <utility>

#include "base/rng.h"
#include "base/timer.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "storage/edb.h"

namespace gchase {

const char* ChaseVariantName(ChaseVariant variant) {
  switch (variant) {
    case ChaseVariant::kOblivious:
      return "oblivious";
    case ChaseVariant::kSemiOblivious:
      return "semi-oblivious";
    case ChaseVariant::kRestricted:
      return "restricted";
  }
  return "?";
}

const char* ChaseOutcomeName(ChaseOutcome outcome) {
  switch (outcome) {
    case ChaseOutcome::kTerminated:
      return "terminated";
    case ChaseOutcome::kResourceLimit:
      return "resource-limit";
    case ChaseOutcome::kAborted:
      return "aborted";
    case ChaseOutcome::kDeadlineExceeded:
      return "deadline-exceeded";
    case ChaseOutcome::kCancelled:
      return "cancelled";
    case ChaseOutcome::kMemoryBudgetExceeded:
      return "memory-budget-exceeded";
  }
  return "?";
}

namespace {

ChaseOutcome OutcomeOf(GovernorState state) {
  switch (state) {
    case GovernorState::kCancelled:
      return ChaseOutcome::kCancelled;
    case GovernorState::kMemoryBudgetExceeded:
      return ChaseOutcome::kMemoryBudgetExceeded;
    case GovernorState::kDeadlineExceeded:
    case GovernorState::kOk:  // unreachable for a tripped governor
      break;
  }
  return ChaseOutcome::kDeadlineExceeded;
}

/// The budget a run charges: the caller-shared one when provided, else a
/// private budget built from max_memory_bytes (unlimited when 0).
std::shared_ptr<MemoryBudget> EffectiveBudget(const ChaseOptions& options) {
  if (options.memory_budget != nullptr) return options.memory_budget;
  return std::make_shared<MemoryBudget>(options.max_memory_bytes);
}

}  // namespace

void ChaseRun::SubstituteRow(const Atom& atom, const Term* binding,
                             std::vector<Term>* out) {
  out->clear();
  for (Term t : atom.args) {
    out->push_back(t.IsVariable() ? binding[t.index()] : t);
  }
}

ChaseRun::ChaseRun(const RuleSet& rules, ChaseOptions options)
    : rules_(rules),
      options_(std::move(options)),
      memory_budget_(EffectiveBudget(options_)),
      governor_(options_.deadline, options_.cancel, memory_budget_.get()) {
  // Attach the budget before any storage grows so the seed load is
  // charged too. The seed reserve itself is not checkpointed — a budget
  // too small for the database trips at the first round start, with the
  // seeded instance intact.
  instance_.SetMemoryBudget(memory_budget_.get());
  batch_block_.SetMemoryBudget(memory_budget_.get());
  stats_.memory_budget_bytes =
      memory_budget_->limited() ? memory_budget_->hard_limit_bytes() : 0;
  stats_.per_rule.assign(rules_.size(), RuleStats{});
  const bool oblivious = options_.variant == ChaseVariant::kOblivious;
  applied_keys_.reserve(rules_.size());
  for (const Tgd& rule : rules_.rules()) {
    const std::vector<VarId>& key_variables =
        oblivious ? rule.universal_variables() : rule.frontier();
    applied_keys_.emplace_back(key_variables);
  }
  // Compile the join plans once per run. Compilation is unconditional —
  // it is O(body size) per rule and lets stats report plannability even
  // when execution is toggled off — but the discovery dispatch only uses
  // the plans when options_.join_plans is set.
  plans_ = JoinPlanSet::Compile(rules_);
  stats_.plannable_rules = plans_.plannable_rules();
  stats_.discovery_threads = std::max<uint32_t>(1, options_.discovery_threads);
  if (options_.executor != nullptr) {
    stats_.discovery_threads =
        std::min(stats_.discovery_threads, options_.executor->worker_count());
  }
}

ChaseRun::ChaseRun(const RuleSet& rules, ChaseOptions options,
                   const std::vector<Atom>& database)
    : ChaseRun(rules, std::move(options)) {
  GCHASE_TRACE_SPAN_PERF(TraceCategory::kChase, "chase.load", database.size(),
                         PerfPhase::kLoad);
  WallTimer load_timer;
  // Pre-size for the whole database load (as the apply phase does per
  // round): a large EDB would otherwise rehash the dedup table and
  // position index repeatedly mid-seed.
  uint64_t seed_terms = 0;
  for (const Atom& atom : database) seed_terms += atom.arity();
  instance_.ReserveAdditional(database.size(), seed_terms);
  for (const Atom& atom : database) {
    auto [id, inserted] = instance_.Insert(atom);
    if (inserted && options_.track_provenance) {
      provenance_.push_back(AtomProvenance{});
      GCHASE_CHECK(provenance_.size() == instance_.size());
      (void)id;
    }
  }
  stats_.load_seconds = load_timer.ElapsedSeconds();
  stats_.edb_atoms = instance_.size();
}

ChaseRun::ChaseRun(const RuleSet& rules, ChaseOptions options,
                   const EdbDatabase& edb, Vocabulary* vocabulary)
    : ChaseRun(rules, std::move(options)) {
  GCHASE_TRACE_SPAN_PERF(TraceCategory::kChase, "chase.load", edb.TotalRows(),
                         PerfPhase::kLoad);
  WallTimer seed_timer;
  EdbSeedStats seed;
  seed_status_ =
      SeedInstanceFromEdb(edb, vocabulary, &instance_, memory_budget_.get(),
                          &seed);
  if (seed_status_.ok() && options_.track_provenance) {
    provenance_.assign(instance_.size(), AtomProvenance{});
  }
  seed_denied_ = seed.budget_denied || edb.load_stats().memory_exceeded;
  // The loader's own parse/open time is part of the load phase the
  // caller sees, so fold it in.
  stats_.load_seconds = edb.load_stats().seconds + seed_timer.ElapsedSeconds();
  stats_.load_bytes = edb.load_stats().input_bytes;
  stats_.edb_atoms = instance_.size();
}

void ChaseRun::AdmitTrigger(uint32_t rule_index, const Term* row,
                            std::vector<PendingTrigger>* pending) {
  ++hom_discoveries_;
  if (!applied_keys_[rule_index].InsertRow(row)) return;
  ++stats_.per_rule[rule_index].discovered;
  const uint32_t width = rules_.rule(rule_index).num_variables();
  const uint64_t offset = pending_rows_.size();
  GCHASE_CHECK(offset + width <= std::numeric_limits<uint32_t>::max());
  pending->push_back({rule_index, static_cast<uint32_t>(offset)});
  pending_rows_.insert(pending_rows_.end(), row, row + width);
}

ChaseRun::HeadCheck ChaseRun::CheckHeadSatisfied(const Tgd& rule,
                                                 const Term* binding,
                                                 ChaseOutcome* outcome) {
  static MetricHistogram* const head_check_hist =
      MetricsRegistry::Global().Histogram("chase.head_check_ns");
  LatencyTimer head_check_timer(head_check_hist);
  // Cooperative checkpoint at the check boundary: a run that is out of
  // budget stops *before* starting a potentially pathological search, and
  // tests can abort deterministically inside the check phase.
  if (GovernorStop(FaultSite::kHeadCheck, head_checks_++, outcome)) {
    return HeadCheck::kStopped;
  }
  if (rule.existential_variables().empty()) {
    // Ground fast path: a full rule's head instantiates completely under
    // the body binding (head variables are all frontier), so satisfaction
    // is one dedup probe per head atom — no join search. Each probe
    // counts as one join-work visit.
    for (const Atom& head : rule.head()) {
      SubstituteRow(head, binding, &head_scratch_);
      ++join_work_;
      if (!instance_.ContainsTerms(head.predicate, head_scratch_.data(),
                                   head.arity())) {
        return HeadCheck::kUnsatisfied;
      }
    }
    return HeadCheck::kSatisfied;
  }
  frontier_scratch_.assign(rule.num_variables(), UnboundTerm());
  for (VarId v : rule.frontier()) frontier_scratch_[v] = binding[v];
  HomomorphismFinder finder(instance_);
  HomSearchOptions search;
  search.max_candidate_visits = options_.max_join_work > join_work_
                                    ? options_.max_join_work - join_work_
                                    : 0;
  search.visits = &join_work_;
  bool budget_exhausted = false;
  bool governor_tripped = false;
  search.budget_exhausted = &budget_exhausted;
  search.governor = &governor_;
  search.governor_tripped = &governor_tripped;
  if (finder.ExistsWithOptions(rule.head(), rule.num_variables(), search,
                               frontier_scratch_)) {
    return HeadCheck::kSatisfied;
  }
  if (governor_tripped) {
    *outcome = OutcomeOf(governor_.Check());
    return HeadCheck::kStopped;
  }
  if (budget_exhausted) {
    *outcome = ChaseOutcome::kResourceLimit;
    return HeadCheck::kStopped;
  }
  return HeadCheck::kUnsatisfied;
}

bool ChaseRun::ApplyTrigger(uint32_t rule_index, const Term* binding,
                            const AtomObserver& observer,
                            ChaseOutcome* outcome) {
  const Tgd& rule = rules_.rule(rule_index);

  if (applied_triggers_ >= options_.max_steps) {
    *outcome = ChaseOutcome::kResourceLimit;
    return false;
  }
  // Overflow-safe null cap: compare headroom, never the sum (the sum can
  // wrap when max_nulls is near the type maximum). The representable-id
  // ceiling is folded in so exhausting Term's 30-bit null space is a clean
  // resource limit rather than a checked abort deep in Term::Null.
  const uint64_t null_cap = std::min(options_.max_nulls, kMaxLabeledNulls);
  if (next_null_ > null_cap ||
      rule.existential_variables().size() > null_cap - next_null_) {
    *outcome = ChaseOutcome::kResourceLimit;
    return false;
  }
  // Storage-growth checkpoint before this trigger materializes its head.
  // Projected bytes are 0 — the round's bulk reserve already pre-sized
  // for every pending head — but the level check still trips once
  // steady-state growth (posting lists, arena doublings past the
  // estimate) crosses the budget. Ordinal-identical to the batch path's
  // checkpoint.
  if (AllocationStop(0, outcome)) return false;
  ++applied_triggers_;
  ++stats_.per_rule[rule_index].applied;

  // Extend the homomorphism with fresh nulls for the existential variables.
  extended_scratch_.assign(binding, binding + rule.num_variables());
  TriggerRecord record;
  if (options_.track_provenance) {
    record.rule = rule_index;
    record.binding.assign(binding, binding + rule.num_variables());
    record.body_atoms.reserve(rule.body().size());
    for (const Atom& body_atom : rule.body()) {
      SubstituteRow(body_atom, binding, &head_scratch_);
      std::optional<AtomId> id = instance_.FindTerms(
          body_atom.predicate, head_scratch_.data(), body_atom.arity());
      GCHASE_CHECK(id.has_value());
      record.body_atoms.push_back(*id);
    }
  }
  for (VarId v : rule.existential_variables()) {
    Term null = Term::Null(next_null_++);
    extended_scratch_[v] = null;
    if (options_.track_provenance) record.created_nulls.push_back(null);
  }

  const uint32_t trigger_index = static_cast<uint32_t>(triggers_.size());
  AtomId parent_id = kNoAtomId;
  uint32_t parent_depth = 0;
  if (options_.track_provenance) {
    const uint32_t guard = rule.guard_index().value_or(0);
    parent_id = record.body_atoms[guard];
    parent_depth = provenance_[parent_id].depth;
  }

  // The instance is append-only, so this trigger's new atoms are exactly
  // the ids from here to the end.
  const AtomId first_new = instance_.size();
  bool over_atom_cap = false;
  for (uint32_t h = 0; h < rule.head().size(); ++h) {
    const Atom& head = rule.head()[h];
    SubstituteRow(head, extended_scratch_.data(), &head_scratch_);
    auto [id, inserted] = instance_.TryAddTerms(
        head.predicate, head_scratch_.data(), head.arity());
    if (options_.track_provenance) {
      record.produced.push_back(id);
      if (inserted) {
        AtomProvenance prov;
        prov.rule = rule_index;
        prov.head_index = h;
        prov.parent = parent_id;
        prov.depth = parent_depth + 1;
        prov.trigger = trigger_index;
        provenance_.push_back(prov);
        GCHASE_CHECK(provenance_.size() == instance_.size());
      }
    }
    if (instance_.size() > options_.max_atoms) {
      over_atom_cap = true;
      break;
    }
  }
  if (options_.track_provenance) triggers_.push_back(std::move(record));
  // Notify only after the trigger record is in place: observers (e.g. the
  // pump detector) follow provenance into triggers().
  if (observer != nullptr) {
    for (AtomId id = first_new; id < instance_.size(); ++id) {
      if (!observer(id)) {
        abort_requested_ = true;
        break;
      }
    }
  }
  if (abort_requested_) {
    *outcome = ChaseOutcome::kAborted;
    return false;
  }
  if (over_atom_cap) {
    *outcome = ChaseOutcome::kResourceLimit;
    return false;
  }
  return true;
}

bool ChaseRun::GovernorStop(FaultSite site, uint64_t ordinal,
                            ChaseOutcome* outcome) const {
  if (options_.fault_injector) {
    switch (options_.fault_injector(site, ordinal)) {
      case InjectedFault::kNone:
        break;
      case InjectedFault::kCancel:
        *outcome = ChaseOutcome::kCancelled;
        return true;
      case InjectedFault::kDeadline:
        *outcome = ChaseOutcome::kDeadlineExceeded;
        return true;
      case InjectedFault::kResourceLimit:
        *outcome = ChaseOutcome::kResourceLimit;
        return true;
      case InjectedFault::kMemoryBudget:
        *outcome = ChaseOutcome::kMemoryBudgetExceeded;
        return true;
    }
  }
  const GovernorState state = governor_.Check();
  if (state == GovernorState::kOk) return false;
  *outcome = OutcomeOf(state);
  return true;
}

bool ChaseRun::AllocationStop(uint64_t projected_bytes, ChaseOutcome* outcome) {
  if (GovernorStop(FaultSite::kAllocation, alloc_checks_++, outcome)) {
    return true;
  }
  if (projected_bytes != 0 && memory_budget_->WouldExceed(projected_bytes)) {
    // Deny before committing: the instance keeps its pre-growth shape, so
    // the partial result is exactly the uncapped run's prefix.
    memory_budget_->NoteDenied();
    *outcome = ChaseOutcome::kMemoryBudgetExceeded;
    return true;
  }
  return false;
}

uint64_t ChaseRun::EstimateDiscoveryWork(AtomId watermark) const {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  uint64_t total = 0;
  for (uint32_t r = 0; r < rules_.size(); ++r) {
    const std::vector<Atom>& body = rules_.rule(r).body();
    for (std::size_t pivot = 0; pivot < body.size(); ++pivot) {
      const uint64_t delta =
          instance_.CountWithPredicateSince(body[pivot].predicate, watermark);
      if (delta == 0) continue;  // the unit enumerates nothing
      uint64_t fanout = 1;
      for (std::size_t i = 0; i < body.size(); ++i) {
        if (i == pivot) continue;
        fanout = std::max<uint64_t>(
            fanout, instance_.AtomsWithPredicate(body[i].predicate).size());
      }
      const uint64_t unit = delta > kMax / fanout ? kMax : delta * fanout;
      total = total > kMax - unit ? kMax : total + unit;
    }
  }
  return total;
}

ThreadPool* ChaseRun::Pool(uint32_t num_threads) {
  if (options_.executor != nullptr) return options_.executor.get();
  if (owned_pool_ == nullptr) {
    owned_pool_ = std::make_shared<ThreadPool>(num_threads);
  }
  return owned_pool_.get();
}

std::vector<ChaseRun::PendingTrigger> ChaseRun::DiscoverTriggers(
    AtomId watermark, bool* capped, bool* stopped,
    ChaseOutcome* stop_outcome) {
  uint32_t num_threads = std::max<uint32_t>(1, options_.discovery_threads);
  if (options_.executor != nullptr) {
    num_threads = std::min(num_threads, options_.executor->worker_count());
  }
  last_estimated_work_ = EstimateDiscoveryWork(watermark);
  last_plan_units_ = 0;
  last_fallback_units_ = 0;
  last_binding_rows_ = 0;
  pending_rows_.clear();
  // The compiled plans take over whenever they can help: the unit engine
  // runs plannable rules set-at-a-time and everything else through the
  // same backtracking search, so with zero plannable rules it would only
  // add per-unit buffer shuffling to a serial round.
  const bool use_plans = options_.join_plans && plans_.plannable_rules() > 0;
  // Adaptive cutover: tiny rounds run serial even with a pool configured —
  // waking parked workers costs more than a handful of index probes. Both
  // engines produce identical results, so this is purely a scheduling
  // decision.
  const uint64_t cutover = options_.parallel_cutover_work;
  const bool big_round = cutover == 0 || last_estimated_work_ >= cutover;
  last_parallel_ = num_threads > 1 && big_round;
  if (!use_plans && !last_parallel_) {
    return DiscoverSerial(watermark, capped, stopped, stop_outcome);
  }
  return DiscoverPlanned(watermark, capped, stopped, stop_outcome,
                         last_parallel_ ? num_threads : 1, use_plans);
}

std::vector<ChaseRun::PendingTrigger> ChaseRun::DiscoverSerial(
    AtomId watermark, bool* capped, bool* stopped,
    ChaseOutcome* stop_outcome) {
  std::vector<PendingTrigger> pending;
  uint64_t unit = 0;
  for (uint32_t r = 0; r < rules_.size() && !*capped && !*stopped; ++r) {
    const Tgd& rule = rules_.rule(r);
    const std::size_t body_size = rule.body().size();
    HomomorphismFinder finder(instance_);
    for (std::size_t pivot = 0; pivot < body_size && !*capped && !*stopped;
         ++pivot) {
      if (GovernorStop(FaultSite::kDiscovery, unit++, stop_outcome)) {
        *stopped = true;
        break;
      }
      static MetricHistogram* const unit_hist =
          MetricsRegistry::Global().Histogram(
              "chase.discovery_unit_fallback_ns");
      LatencyTimer unit_timer(unit_hist);
      HomSearchOptions search;
      search.watermark = watermark;
      search.ranges.assign(body_size, MatchRange::kAll);
      for (std::size_t i = 0; i < pivot; ++i) {
        search.ranges[i] = MatchRange::kOldOnly;
      }
      search.ranges[pivot] = MatchRange::kDeltaOnly;
      search.max_candidate_visits =
          options_.max_join_work > join_work_
              ? options_.max_join_work - join_work_
              : 0;
      search.visits = &join_work_;
      search.budget_exhausted = capped;
      bool governor_tripped = false;
      search.governor = &governor_;
      search.governor_tripped = &governor_tripped;
      finder.FindAllWithOptions(
          rule.body(), rule.num_variables(), search, Binding(),
          [&](const Binding& binding) {
            AdmitTrigger(r, binding.data(), &pending);
            if (applied_triggers_ + pending.size() >= options_.max_steps ||
                hom_discoveries_ >= options_.max_hom_discoveries) {
              *capped = true;
              return false;
            }
            return true;
          });
      if (governor_tripped) {
        *stopped = true;
        *stop_outcome = OutcomeOf(governor_.Check());
      }
    }
  }
  return pending;
}

std::vector<ChaseRun::PendingTrigger> ChaseRun::DiscoverPlanned(
    AtomId watermark, bool* capped, bool* stopped, ChaseOutcome* stop_outcome,
    uint32_t num_threads, bool use_plans) {
  // One work unit per (rule, pivot) pair: the pivot conjunct is
  // constrained to the delta, so the units partition the round's
  // homomorphisms exactly as DiscoverSerial enumerates them. Plan units
  // execute their compiled plan set-at-a-time; the others run the
  // backtracking search. Either way a unit's rows arrive in the exact
  // order the serial engine discovers them, so the unit-order merge
  // reproduces the serial trigger sequence. Workers share the instance
  // read-only and write only their own unit, so the phase is
  // data-race-free by construction.
  struct PlanUnit {
    uint32_t rule = 0;
    uint32_t pivot = 0;
    bool planned = false;  ///< Runs the compiled plan (vs. backtracking).
    BindingSegment rows;
    uint64_t visits = 0;
    bool budget_exhausted = false;
    bool governor_tripped = false;
  };
  std::size_t unit_count = 0;
  for (uint32_t r = 0; r < rules_.size(); ++r) {
    unit_count += rules_.rule(r).body().size();
  }
  // Sized up front (BindingSegment pins units in place — no regrowth).
  std::vector<PlanUnit> units(unit_count);
  {
    std::size_t u = 0;
    for (uint32_t r = 0; r < rules_.size(); ++r) {
      const Tgd& rule = rules_.rule(r);
      for (std::size_t pivot = 0; pivot < rule.body().size(); ++pivot, ++u) {
        PlanUnit& unit = units[u];
        unit.rule = r;
        unit.pivot = static_cast<uint32_t>(pivot);
        unit.planned = use_plans && plans_.plan(r).plannable;
        // Plan rows are charged to the budget. Backtracking rows, like the
        // pending rows and key tables, are not, so the engines' charges
        // differ only by the plan segments.
        if (unit.planned) {
          unit.rows.SetMemoryBudget(memory_budget_.get());
        } else {
          unit.rows.SetWidth(rule.num_variables());
        }
      }
    }
  }

  // This round's depth-zero conjunct choice per plannable rule — the one
  // instance-dependent decision of a (<= 2)-conjunct backtracking search.
  // The instance is frozen for the whole phase, so resolving it once here
  // pins every unit's enumeration order to the serial engine's.
  if (use_plans) {
    round_first_.assign(rules_.size(), kNoRule);
    for (uint32_t r = 0; r < rules_.size(); ++r) {
      const RuleJoinPlan& plan = plans_.plan(r);
      if (!plan.plannable) continue;
      const uint32_t first = ChooseFirstConjunct(instance_, plan);
      round_first_[r] = first;
      std::vector<uint32_t>& order = stats_.per_rule[r].plan_order;
      order.clear();
      for (const PlanStep& step : plan.orders[first]) {
        order.push_back(step.conjunct);
      }
    }
  }

  // Budgets are snapshotted at round start and granted to every unit in
  // full: a worker cannot know how much budget its siblings are spending.
  // When no cap ends up binding — checked after the join below — every
  // unit ran to completion just like the serial loop and the merge is
  // exact. The plan executor charges the same per-node visit counts the
  // backtracking search accrues, so the checks compare like with like.
  const uint64_t join_budget = options_.max_join_work > join_work_
                                   ? options_.max_join_work - join_work_
                                   : 0;
  const uint64_t hom_budget =
      options_.max_hom_discoveries > hom_discoveries_
          ? options_.max_hom_discoveries - hom_discoveries_
          : 0;
  const uint64_t step_budget = options_.max_steps > applied_triggers_
                                   ? options_.max_steps - applied_triggers_
                                   : 0;
  const uint64_t local_found_cap = std::min(hom_budget, step_budget);

  // A governor/injector trip anywhere makes the whole phase stop early:
  // workers publish the abort outcome here (first writer wins is fine —
  // outcomes from concurrent trips are interchangeable) and every worker
  // checks it before starting the next unit.
  std::atomic<int> abort_outcome{-1};
  const PlanExecutor executor(instance_);
  const auto run_unit = [&](uint64_t u) {
    if (abort_outcome.load(std::memory_order_relaxed) >= 0) return;
    PlanUnit& unit = units[u];
    ChaseOutcome unit_outcome;
    if (GovernorStop(FaultSite::kDiscovery, u, &unit_outcome)) {
      abort_outcome.store(static_cast<int>(unit_outcome),
                          std::memory_order_relaxed);
      return;
    }
    static MetricHistogram* const plan_unit_hist =
        MetricsRegistry::Global().Histogram("chase.discovery_unit_plan_ns");
    static MetricHistogram* const fallback_unit_hist =
        MetricsRegistry::Global().Histogram("chase.discovery_unit_fallback_ns");
    LatencyTimer unit_timer(unit.planned ? plan_unit_hist
                                         : fallback_unit_hist);
    if (unit.planned) {
      BindingSegment scratch;
      scratch.SetMemoryBudget(memory_budget_.get());
      const PlanExecutor::UnitStatus status = executor.ExecuteUnit(
          plans_.plan(unit.rule), unit.pivot, round_first_[unit.rule],
          watermark, join_budget, local_found_cap, &governor_, &scratch,
          &unit.rows);
      unit.visits = status.charge;
      unit.budget_exhausted = status.budget_exhausted;
      unit.governor_tripped = status.governor_tripped;
    } else {
      const Tgd& rule = rules_.rule(unit.rule);
      const std::size_t body_size = rule.body().size();
      HomomorphismFinder finder(instance_);
      HomSearchOptions search;
      search.watermark = watermark;
      search.ranges.assign(body_size, MatchRange::kAll);
      for (std::size_t i = 0; i < unit.pivot; ++i) {
        search.ranges[i] = MatchRange::kOldOnly;
      }
      search.ranges[unit.pivot] = MatchRange::kDeltaOnly;
      search.max_candidate_visits = join_budget;
      search.visits = &unit.visits;
      search.budget_exhausted = &unit.budget_exhausted;
      search.governor = &governor_;
      search.governor_tripped = &unit.governor_tripped;
      finder.FindAllWithOptions(
          rule.body(), rule.num_variables(), search, Binding(),
          [&unit, local_found_cap](const Binding& binding) {
            unit.rows.AppendRow(binding.data());
            if (unit.rows.rows() >= local_found_cap) {
              unit.budget_exhausted = true;
              return false;
            }
            return true;
          });
    }
    if (unit.governor_tripped) {
      abort_outcome.store(static_cast<int>(OutcomeOf(governor_.Check())),
                          std::memory_order_relaxed);
    }
  };
  if (num_threads > 1) {
    Pool(num_threads)->ParallelFor(units.size(), run_unit);
  } else {
    for (uint64_t u = 0; u < units.size(); ++u) {
      if (abort_outcome.load(std::memory_order_relaxed) >= 0) break;
      run_unit(u);
    }
  }

  uint64_t total_visits = 0;
  uint64_t total_found = 0;
  bool any_exhausted = false;
  for (const PlanUnit& unit : units) {
    total_visits += unit.visits;
    total_found += unit.rows.rows();
    any_exhausted |= unit.budget_exhausted;
  }
  if (abort_outcome.load(std::memory_order_relaxed) >= 0) {
    // Work accounting is merged even when the phase aborted, so partial
    // stats stay truthful.
    join_work_ += total_visits;
    if (any_exhausted) *capped = true;
    *stopped = true;
    *stop_outcome = static_cast<ChaseOutcome>(
        abort_outcome.load(std::memory_order_relaxed));
    return {};
  }

  // Cap-adjacent rounds fall back to DiscoverSerial wholesale. A binding
  // cap stops the serial loop mid-search at a point that depends on
  // cumulative spending across units — unreconstructible from per-unit
  // results that each ran against the full snapshot. Re-running serially
  // (discarding this phase's work and accounting) keeps capped runs
  // bit-identical to plans-off discovery_threads == 1, and costs at most
  // one extra discovery pass per chase: a capped round is terminal.
  if (any_exhausted || total_visits >= join_budget ||
      total_found >= local_found_cap) {
    last_parallel_ = false;
    last_plan_units_ = 0;
    last_binding_rows_ = 0;
    last_fallback_units_ = units.size();
    return DiscoverSerial(watermark, capped, stopped, stop_outcome);
  }

  // Deterministic merge in (rule, pivot, discovery) order — the exact
  // order the serial engine discovers in — running the shared-state steps
  // (dedup, counters) that workers could not touch concurrently. No cap
  // checks here: the fallback above guarantees total_visits < join_budget
  // and total_found < min(hom_budget, step_budget), so no cap can trip.
  static MetricHistogram* const merge_hist =
      MetricsRegistry::Global().Histogram("chase.discovery_merge_ns");
  LatencyTimer merge_timer(merge_hist);
  join_work_ += total_visits;
  std::vector<PendingTrigger> pending;
  for (const PlanUnit& unit : units) {
    if (unit.planned) {
      ++last_plan_units_;
      ++stats_.per_rule[unit.rule].plan_rotations;
      last_binding_rows_ += unit.rows.rows();
    } else {
      ++last_fallback_units_;
    }
    for (uint64_t i = 0; i < unit.rows.rows(); ++i) {
      AdmitTrigger(unit.rule, unit.rows.row(i), &pending);
    }
  }
  return pending;
}

void ChaseRun::UpdateStatsPeaks() {
  stats_.peak_atoms = std::max<uint64_t>(stats_.peak_atoms, instance_.size());
  stats_.peak_position_index_keys = std::max(
      stats_.peak_position_index_keys, instance_.PositionIndexKeys());
  stats_.peak_position_index_entries = std::max(
      stats_.peak_position_index_entries, instance_.PositionIndexEntries());
  uint64_t dedup_keys = 0;
  for (const TriggerKeyTable& keys : applied_keys_) dedup_keys += keys.size();
  stats_.peak_dedup_keys = std::max(stats_.peak_dedup_keys, dedup_keys);
  stats_.peak_memory_bytes =
      std::max(stats_.peak_memory_bytes, memory_budget_->peak_bytes());
  stats_.memory_in_use_bytes = memory_budget_->in_use_bytes();
  stats_.memory_denials = memory_budget_->denials();
}

ChaseOutcome ChaseRun::Execute(const AtomObserver& observer) {
  GCHASE_CHECK_MSG(!executed_, "ChaseRun::Execute called twice");
  GCHASE_CHECK_MSG(seed_status_.ok(),
                   "ChaseRun::Execute on a failed seed (check seed_status())");
  executed_ = true;
  if (seed_denied_) {
    // The EDB load or seed already tripped the budget: surface the same
    // outcome a mid-run trip would, with the seeded prefix and the load
    // stats intact.
    UpdateStatsPeaks();
    return ChaseOutcome::kMemoryBudgetExceeded;
  }
  // Last-resort containment: the budget's pre-size denials make an
  // allocator failure unreachable in the governed paths, but an
  // unbudgeted run (or a budget set above physical memory) can still hit
  // the allocator wall. Degrade to the same clean outcome — the
  // structures' basic exception guarantee keeps the instance valid.
  try {
    return ExecuteLoop(observer);
  } catch (const std::bad_alloc&) {
    UpdateStatsPeaks();
    return ChaseOutcome::kMemoryBudgetExceeded;
  }
}

ChaseOutcome ChaseRun::ExecuteLoop(const AtomObserver& observer) {
  AtomId watermark = 0;
  ChaseOutcome outcome = ChaseOutcome::kTerminated;
  UpdateStatsPeaks();
  for (;;) {
    // Round-boundary checkpoint: a run that is out of budget stops here
    // with everything it has materialized so far intact.
    if (GovernorStop(FaultSite::kRoundStart, rounds_, &outcome)) {
      UpdateStatsPeaks();
      return outcome;
    }
    const AtomId frontier_end = instance_.size();
    GCHASE_TRACE_SPAN(TraceCategory::kChase, "chase.round", rounds_);

    // Discover triggers whose homomorphism touches the latest delta:
    // pivot decomposition guarantees each homomorphism is found once.
    // Discovery itself is bounded by the step cap — unguarded bodies can
    // otherwise enumerate combinatorially many homomorphisms in a single
    // round before any trigger is applied.
    WallTimer round_timer;
    WallTimer phase_timer;
    bool discovery_capped = false;
    bool discovery_stopped = false;
    ChaseOutcome stop_outcome = ChaseOutcome::kTerminated;
    std::vector<PendingTrigger> pending;
    {
      GCHASE_TRACE_SPAN_PERF(TraceCategory::kChase, "chase.discovery", rounds_,
                             PerfPhase::kDiscovery);
      pending = DiscoverTriggers(watermark, &discovery_capped,
                                 &discovery_stopped, &stop_outcome);
    }
    const double discovery_seconds = phase_timer.ElapsedSeconds();

    if (discovery_stopped) {
      // Governor trip mid-discovery: the candidate set is partial, so
      // applying it would skew restricted-chase order semantics — drop it
      // and surface the abort with the instance and stats as they stand.
      // (Like a final empty discovery pass, an aborted one has no
      // per-round entry; its wall time goes to final_discovery_seconds.)
      stats_.final_discovery_seconds += discovery_seconds;
      UpdateStatsPeaks();
      return stop_outcome;
    }
    if (pending.empty()) {
      // A capped discovery may have dropped homomorphisms that will not
      // be re-found (their atoms are no longer delta): the run is
      // incomplete, not terminated. The pass has no per-round entry, but
      // its wall time and index peaks are real — account them here, or
      // discovery totals undercount by one pass per run.
      stats_.final_discovery_seconds += discovery_seconds;
      UpdateStatsPeaks();
      return discovery_capped ? ChaseOutcome::kResourceLimit
                              : ChaseOutcome::kTerminated;
    }
    ++rounds_;
    stats_.per_round.push_back(RoundStats{});
    RoundStats& round = stats_.per_round.back();
    round.delta_atoms = frontier_end - watermark;
    round.candidates = pending.size();
    round.discovery_seconds = discovery_seconds;
    round.estimated_work = last_estimated_work_;
    round.parallel_discovery = last_parallel_;
    round.plan_units = last_plan_units_;
    round.fallback_units = last_fallback_units_;
    round.binding_rows = last_binding_rows_;
    if (last_parallel_) ++stats_.parallel_rounds;

    // Reorder within the round per the configured strategy. Every
    // strategy applies all discovered triggers before the next round, so
    // fairness is preserved.
    switch (options_.order) {
      case TriggerOrder::kFifo:
        break;
      case TriggerOrder::kDatalogFirst:
        std::stable_partition(
            pending.begin(), pending.end(), [this](const PendingTrigger& t) {
              return rules_.rule(t.rule).IsFull();
            });
        break;
      case TriggerOrder::kRandom: {
        // Seed and round are avalanche-mixed so nearby (seed, round)
        // pairs give independent shuffles; `seed + round` would make
        // (s, r+1) replay (s+1, r) and correlate adjacent seeds.
        Rng rng(SplitMix64(options_.order_seed ^ SplitMix64(rounds_)));
        for (std::size_t i = pending.size(); i > 1; --i) {
          std::swap(pending[i - 1], pending[rng.NextBelow(i)]);
        }
        break;
      }
    }

    // Pre-size the instance for the round's worst-case growth (every
    // pending trigger fires and every head atom is new) so the apply loop
    // never rehashes the dedup table or position index mid-flight.
    uint64_t reserve_atoms = 0;
    uint64_t reserve_terms = 0;
    for (const PendingTrigger& trigger : pending) {
      for (const Atom& head_atom : rules_.rule(trigger.rule).head()) {
        ++reserve_atoms;
        reserve_terms += head_atom.arity();
      }
    }
    // Storage-growth checkpoint with the reserve's projected byte cost:
    // a budget the reserve would cross stops the round here, before any
    // of the memory is committed, so the instance still holds exactly the
    // atoms the uncapped run had at this point.
    if (AllocationStop(
            instance_.EstimateReserveBytes(reserve_atoms, reserve_terms),
            &outcome)) {
      round.total_seconds = round_timer.ElapsedSeconds();
      UpdateStatsPeaks();
      return outcome;
    }
    instance_.ReserveAdditional(reserve_atoms, reserve_terms);

    // Apply in the chosen order (always serial: application mutates the
    // instance, and restricted-chase semantics depend on the order).
    // Set-at-a-time batch execution handles the common case; the
    // per-trigger loop remains for observer and provenance runs, which
    // need per-atom insertion hooks. Both paths are bit-identical —
    // same atoms, ids, counters and abort points (pinned by the fuzz
    // oracles) — so this is purely an execution-strategy choice.
    phase_timer.Restart();
    const uint64_t applied_before = applied_triggers_;
    GCHASE_TRACE_SPAN_PERF(TraceCategory::kChase, "chase.apply", rounds_ - 1,
                           PerfPhase::kApply);
    const bool use_batch = options_.batch_apply && observer == nullptr &&
                           !options_.track_provenance;
    bool apply_ok = true;
    if (use_batch) {
      apply_ok = ApplyPendingBatch(pending, &round, &outcome);
    } else {
      // Per-rule application timing is threshold-gated: spans are
      // recorded retroactively (phase 'X') only for triggers slower than
      // the tracer's threshold, so a healthy run pays two clock reads per
      // trigger when tracing is on and a single mask load when it is off.
      Tracer& tracer = Tracer::Global();
      const bool trace_triggers = tracer.enabled(TraceCategory::kChase);
      for (const PendingTrigger& trigger : pending) {
        // Per-trigger checkpoint: the apply phase stops between triggers,
        // never mid-application, so provenance and dedup state stay
        // consistent in the partial result.
        if (GovernorStop(FaultSite::kTriggerApply, applied_triggers_,
                         &outcome)) {
          apply_ok = false;
          break;
        }
        const uint64_t trigger_start_ns = trace_triggers ? tracer.NowNs() : 0;
        const Tgd& rule = rules_.rule(trigger.rule);
        if (options_.variant == ChaseVariant::kRestricted) {
          const HeadCheck check =
              CheckHeadSatisfied(rule, PendingRow(trigger), &outcome);
          if (check == HeadCheck::kStopped) {
            apply_ok = false;
            break;
          }
          if (check == HeadCheck::kSatisfied) {
            ++stats_.per_rule[trigger.rule].skipped_satisfied;
            continue;  // Satisfied triggers are skipped, permanently
                       // (monotone).
          }
        }
        const bool applied = ApplyTrigger(trigger.rule, PendingRow(trigger),
                                          observer, &outcome);
        if (trace_triggers) {
          const uint64_t now_ns = tracer.NowNs();
          tracer.RecordComplete(TraceCategory::kChase, "chase.apply_rule",
                                trigger_start_ns, now_ns - trigger_start_ns,
                                trigger.rule);
        }
        if (!applied) {
          apply_ok = false;
          break;
        }
      }
    }
    round.applied = applied_triggers_ - applied_before;
    round.apply_seconds = phase_timer.ElapsedSeconds();
    round.total_seconds = round_timer.ElapsedSeconds();
    // Latency distributions ride on the per-round timers the stats layer
    // already reads — no extra clock calls, just three records per round.
    if (ProfilingEnabled()) {
      static MetricHistogram* const round_hist =
          MetricsRegistry::Global().Histogram("chase.round_ns");
      static MetricHistogram* const apply_hist =
          MetricsRegistry::Global().Histogram("chase.apply_ns");
      static MetricHistogram* const discovery_hist =
          MetricsRegistry::Global().Histogram("chase.discovery_ns");
      round_hist->Record(static_cast<uint64_t>(round.total_seconds * 1e9));
      apply_hist->Record(static_cast<uint64_t>(round.apply_seconds * 1e9));
      discovery_hist->Record(
          static_cast<uint64_t>(round.discovery_seconds * 1e9));
    }
    if (ProgressEnabled()) {
      ProgressCounters& pc = GlobalProgress();
      pc.rounds.store(rounds_, std::memory_order_relaxed);
      pc.atoms.store(instance_.size(), std::memory_order_relaxed);
      pc.triggers.store(applied_triggers_, std::memory_order_relaxed);
    }
    UpdateStatsPeaks();
    if (!apply_ok) return outcome;
    if (discovery_capped) return ChaseOutcome::kResourceLimit;
    watermark = frontier_end;
  }
}

ChaseResult RunChase(const RuleSet& rules, const ChaseOptions& options,
                     const std::vector<Atom>& database) {
  ChaseResult result;
  // Containment boundary for the phases Execute()'s own guard cannot
  // cover: seeding the instance in the constructor and copying the final
  // instance into the result. Counters and stats are copied before the
  // instance, so a failed copy still reports the run truthfully.
  try {
    ChaseRun run(rules, options, database);
    result.outcome = run.Execute();
    result.applied_triggers = run.applied_triggers();
    result.rounds = run.rounds();
    result.nulls_created = run.nulls_created();
    result.hom_discoveries = run.hom_discoveries();
    result.join_work = run.join_work();
    result.stats = run.stats();
    result.instance = run.instance();
  } catch (const std::bad_alloc&) {
    result.outcome = ChaseOutcome::kMemoryBudgetExceeded;
    result.instance = Instance();
  }
  return result;
}

void PublishChaseMetrics(const ChaseStats& stats, MetricsRegistry* registry) {
  MetricsRegistry& sink =
      registry != nullptr ? *registry : MetricsRegistry::Global();
  sink.Counter("chase.runs")->Increment();
  sink.Counter("chase.rounds")->Add(stats.per_round.size());
  sink.Counter("chase.parallel_rounds")->Add(stats.parallel_rounds);
  uint64_t discovered = 0, applied = 0, skipped = 0;
  for (const RuleStats& rule : stats.per_rule) {
    discovered += rule.discovered;
    applied += rule.applied;
    skipped += rule.skipped_satisfied;
  }
  sink.Counter("chase.triggers_discovered")->Add(discovered);
  sink.Counter("chase.triggers_applied")->Add(applied);
  sink.Counter("chase.triggers_skipped_satisfied")->Add(skipped);
  uint64_t estimated_work = 0;
  uint64_t discovery_us = 0, apply_us = 0, round_us = 0;
  uint64_t batched_triggers = 0, batch_blocks = 0;
  uint64_t plan_units = 0, fallback_units = 0, binding_rows = 0;
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  for (const RoundStats& round : stats.per_round) {
    estimated_work = round.estimated_work > kMax - estimated_work
                         ? kMax
                         : estimated_work + round.estimated_work;
    discovery_us += static_cast<uint64_t>(round.discovery_seconds * 1e6);
    apply_us += static_cast<uint64_t>(round.apply_seconds * 1e6);
    round_us += static_cast<uint64_t>(round.total_seconds * 1e6);
    batched_triggers += round.batched_triggers;
    batch_blocks += round.batch_blocks;
    plan_units += round.plan_units;
    fallback_units += round.fallback_units;
    binding_rows += round.binding_rows;
  }
  // The terminal pass has no per-round entry but its discovery time is
  // real — fold it in, or chase.discovery_us undercounts every run by one
  // pass.
  discovery_us += static_cast<uint64_t>(stats.final_discovery_seconds * 1e6);
  sink.Counter("chase.estimated_work")->Add(estimated_work);
  sink.Counter("chase.discovery_us")->Add(discovery_us);
  sink.Counter("chase.apply_us")->Add(apply_us);
  sink.Counter("chase.round_us")->Add(round_us);
  sink.Counter("chase.batched_triggers")->Add(batched_triggers);
  sink.Counter("chase.batch_blocks")->Add(batch_blocks);
  sink.Counter("chase.plan_units")->Add(plan_units);
  sink.Counter("chase.plan_fallback_units")->Add(fallback_units);
  sink.Counter("chase.plan_binding_rows")->Add(binding_rows);
  sink.Gauge("chase.plannable_rules")
      ->SetMax(static_cast<int64_t>(stats.plannable_rules));
  sink.Gauge("chase.discovery_threads")
      ->SetMax(static_cast<int64_t>(stats.discovery_threads));
  sink.Gauge("chase.peak_atoms")
      ->SetMax(static_cast<int64_t>(stats.peak_atoms));
  sink.Gauge("chase.peak_position_index_keys")
      ->SetMax(static_cast<int64_t>(stats.peak_position_index_keys));
  sink.Gauge("chase.peak_position_index_entries")
      ->SetMax(static_cast<int64_t>(stats.peak_position_index_entries));
  sink.Gauge("chase.peak_dedup_keys")
      ->SetMax(static_cast<int64_t>(stats.peak_dedup_keys));
  sink.Gauge("chase.peak_memory_bytes")
      ->SetMax(static_cast<int64_t>(stats.peak_memory_bytes));
  sink.Gauge("chase.memory_in_use_bytes")
      ->Set(static_cast<int64_t>(stats.memory_in_use_bytes));
  sink.Gauge("chase.memory_budget_bytes")
      ->SetMax(static_cast<int64_t>(stats.memory_budget_bytes));
  sink.Counter("chase.memory_denials")->Add(stats.memory_denials);
  sink.Counter("chase.load_us")
      ->Add(static_cast<uint64_t>(stats.load_seconds * 1e6));
  sink.Counter("chase.load_bytes")->Add(stats.load_bytes);
  sink.Counter("chase.load_atoms")->Add(stats.edb_atoms);
}

bool IsModelOf(const Instance& instance, const RuleSet& rules) {
  // An ungoverned governor never trips and the budget is infinite, so the
  // verdict is always conclusive.
  const RunGovernor ungoverned;
  return IsModelOfGoverned(instance, rules, ungoverned).value_or(false);
}

std::optional<bool> IsModelOfGoverned(const Instance& instance,
                                      const RuleSet& rules,
                                      const RunGovernor& governor,
                                      uint64_t max_join_work,
                                      uint64_t* join_work) {
  HomomorphismFinder finder(instance);
  uint64_t visits = 0;
  bool violated = false;
  bool inconclusive = false;
  for (const Tgd& rule : rules.rules()) {
    // Per-rule checkpoint: the in-search polls fire only every ~1k
    // candidate visits, so a small instance could otherwise run a whole
    // check to a verdict under an already-tripped governor.
    if (governor.Check() != GovernorState::kOk) {
      inconclusive = true;
      break;
    }
    HomSearchOptions body_search;
    body_search.max_candidate_visits =
        max_join_work > visits ? max_join_work - visits : 0;
    body_search.visits = &visits;
    bool body_exhausted = false;
    bool body_tripped = false;
    body_search.budget_exhausted = &body_exhausted;
    body_search.governor = &governor;
    body_search.governor_tripped = &body_tripped;
    finder.FindAllWithOptions(
        rule.body(), rule.num_variables(), body_search, Binding(),
        [&](const Binding& binding) {
          Binding frontier_binding(rule.num_variables(), UnboundTerm());
          for (VarId v : rule.frontier()) {
            frontier_binding[v] = binding[v];
          }
          // The budget is shared across all searches of the check; the
          // body search's in-flight visits are only folded into `visits`
          // when it finishes, so the head slice is an upper bound — fine
          // for a budget, which bounds work, not a bit-exact count.
          HomSearchOptions head_search;
          head_search.max_candidate_visits =
              max_join_work > visits ? max_join_work - visits : 0;
          head_search.visits = &visits;
          bool head_exhausted = false;
          bool head_tripped = false;
          head_search.budget_exhausted = &head_exhausted;
          head_search.governor = &governor;
          head_search.governor_tripped = &head_tripped;
          if (finder.ExistsWithOptions(rule.head(), rule.num_variables(),
                                       head_search, frontier_binding)) {
            return true;
          }
          if (head_tripped || head_exhausted) {
            inconclusive = true;
            return false;
          }
          violated = true;
          return false;
        });
    if (body_tripped || body_exhausted) inconclusive = true;
    if (violated || inconclusive) break;
  }
  if (join_work != nullptr) *join_work += visits;
  // A violation found before any trip is conclusive regardless.
  if (violated) return false;
  if (inconclusive) return std::nullopt;
  return true;
}

}  // namespace gchase
