#include "chase/chase.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
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
/// private unlimited one.
std::shared_ptr<MemoryBudget> EffectiveBudget(const ChaseOptions& options) {
  if (options.memory_budget != nullptr) return options.memory_budget;
  return std::make_shared<MemoryBudget>();
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
      governor_(options_.deadline, options_.cancel, memory_budget_.get()),
      trigger_log_(rules) {
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
  TrackProvenanceGrowth();
  stats_.seed_seconds = load_timer.ElapsedSeconds();
  stats_.load_seconds = stats_.seed_seconds;
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
    TrackProvenanceGrowth();
  }
  vocabulary_charged_bytes_ = seed.vocabulary_bytes;
  seed_denied_ = seed.budget_denied || edb.load_stats().memory_exceeded;
  // The loader's own parse/open time is part of the load phase the
  // caller sees, so fold it in.
  stats_.seed_seconds = seed_timer.ElapsedSeconds();
  stats_.load_seconds = edb.load_stats().seconds + stats_.seed_seconds;
  stats_.load_bytes = edb.load_stats().input_bytes;
  stats_.edb_atoms = instance_.size();
}

ChaseRun::~ChaseRun() {
  memory_budget_->Release(vocabulary_charged_bytes_ +
                          provenance_charged_bytes_);
}

void ChaseRun::TrackProvenanceGrowth() {
  const uint64_t now = provenance_.capacity() * sizeof(AtomProvenance) +
                       trigger_log_.capacity_bytes();
  if (now > provenance_charged_bytes_) {
    memory_budget_->Charge(now - provenance_charged_bytes_);
    provenance_charged_bytes_ = now;
  }
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
  search.governor = &governor_;
  bool satisfied = false;
  const HomSearchStatus status = finder.FindAllWithOptions(
      rule.head(), rule.num_variables(), search, frontier_scratch_,
      [&satisfied](const Binding&) {
        satisfied = true;
        return false;  // one extension satisfies the trigger
      });
  join_work_ += status.charge;
  if (satisfied) return HeadCheck::kSatisfied;
  if (status.governor_tripped) {
    *outcome = OutcomeOf(governor_.Check());
    return HeadCheck::kStopped;
  }
  if (status.budget_exhausted) {
    *outcome = ChaseOutcome::kResourceLimit;
    return HeadCheck::kStopped;
  }
  return HeadCheck::kUnsatisfied;
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
  last_binding_rows_ = 0;
  pending_rows_.clear();
  // Adaptive cutover: tiny rounds run their units on this thread even
  // with a pool configured — waking parked workers costs more than a
  // handful of index probes. The merge below makes the result the same
  // either way, so this is purely a scheduling decision.
  const uint64_t cutover = options_.parallel_cutover_work;
  const bool big_round = cutover == 0 || last_estimated_work_ >= cutover;
  last_parallel_ = num_threads > 1 && big_round;

  // One unit per (rule, pivot) pair: the pivot conjunct is constrained
  // to the delta, so the units partition the round's homomorphisms.
  // Workers share the instance read-only and write only their own unit,
  // so the phase is data-race-free by construction.
  struct Unit {
    uint32_t rule = 0;
    uint32_t pivot = 0;
    BindingSegment rows;
    HomSearchStatus status;
  };
  std::size_t unit_count = 0;
  for (uint32_t r = 0; r < rules_.size(); ++r) {
    unit_count += rules_.rule(r).body().size();
  }
  // Sized up front (BindingSegment pins units in place — no regrowth).
  std::vector<Unit> units(unit_count);
  {
    std::size_t u = 0;
    for (uint32_t r = 0; r < rules_.size(); ++r) {
      for (std::size_t pivot = 0; pivot < rules_.rule(r).body().size();
           ++pivot, ++u) {
        units[u].rule = r;
        units[u].pivot = static_cast<uint32_t>(pivot);
        units[u].rows.SetMemoryBudget(memory_budget_.get());
      }
    }
  }

  // Every unit gets the round-start budgets in full, at any thread
  // count: a worker cannot know what its siblings spend. The merge then
  // enforces the caps in unit order, where a one-unit-at-a-time pass
  // would have met them.
  const auto left = [](uint64_t cap, uint64_t used) {
    return cap > used ? cap - used : 0;
  };
  const uint64_t join_budget = left(options_.max_join_work, join_work_);
  const uint64_t row_budget =
      std::min(left(options_.max_hom_discoveries, hom_discoveries_),
               left(options_.max_steps, applied_triggers_));
  const HomomorphismFinder finder(instance_);
  const auto execute = [&](Unit& unit, uint64_t max_charge, uint64_t row_cap) {
    const Tgd& rule = rules_.rule(unit.rule);
    HomSearchOptions search;
    search.max_candidate_visits = max_charge;
    search.governor = &governor_;
    unit.status = finder.FindUnit(rule.body(), rule.num_variables(),
                                  unit.pivot, watermark, search, row_cap,
                                  &unit.rows);
  };

  // A governor/injector trip anywhere makes the whole phase stop early:
  // workers publish the abort outcome here (first writer wins is fine —
  // outcomes from concurrent trips are interchangeable) and every worker
  // checks it before starting the next unit.
  std::atomic<int> abort_outcome{-1};
  const auto run_unit = [&](uint64_t u) {
    if (abort_outcome.load(std::memory_order_relaxed) >= 0) return;
    ChaseOutcome unit_outcome;
    if (GovernorStop(FaultSite::kDiscovery, u, &unit_outcome)) {
      abort_outcome.store(static_cast<int>(unit_outcome),
                          std::memory_order_relaxed);
      return;
    }
    static MetricHistogram* const unit_hist =
        MetricsRegistry::Global().Histogram("chase.discovery_unit_plan_ns");
    LatencyTimer unit_timer(unit_hist);
    execute(units[u], join_budget, row_budget);
    if (units[u].status.governor_tripped) {
      abort_outcome.store(static_cast<int>(OutcomeOf(governor_.Check())),
                          std::memory_order_relaxed);
    }
  };
  if (last_parallel_) {
    Pool(num_threads)->ParallelFor(units.size(), run_unit);
  } else {
    for (uint64_t u = 0; u < units.size(); ++u) {
      if (abort_outcome.load(std::memory_order_relaxed) >= 0) break;
      run_unit(u);
    }
  }
  for (const Unit& unit : units) last_binding_rows_ += unit.rows.rows();

  if (abort_outcome.load(std::memory_order_relaxed) >= 0) {
    // Work accounting is merged even when the phase aborted, so partial
    // stats stay truthful.
    for (const Unit& unit : units) {
      join_work_ += unit.status.charge;
      if (unit.status.budget_exhausted) *capped = true;
    }
    *stopped = true;
    *stop_outcome = static_cast<ChaseOutcome>(
        abort_outcome.load(std::memory_order_relaxed));
    return {};
  }

  // Deterministic merge in (rule, pivot, discovery) order, running the
  // shared-state steps (dedup, counters, caps) that workers could not
  // touch concurrently. `spent` is the join work of the units merged so
  // far. A unit runs again only where its rows or charge cannot be those
  // of a one-unit-at-a-time pass under the caps: when it spent more than
  // is left at its turn, when it stopped on its row cap before any cap
  // bound (duplicates do not count toward the step cap), and up to the
  // row on which the step or hom cap binds. The round then stops where
  // that pass would, with its join work.
  static MetricHistogram* const merge_hist =
      MetricsRegistry::Global().Histogram("chase.discovery_merge_ns");
  LatencyTimer merge_timer(merge_hist);
  std::vector<PendingTrigger> pending;
  uint64_t spent = 0;
  // A governor trip in a run here stops the round as in the first pass.
  const auto rerun = [&](Unit& unit, uint64_t max_charge, uint64_t row_cap) {
    execute(unit, max_charge, row_cap);
    if (!unit.status.governor_tripped) return true;
    join_work_ += spent + unit.status.charge;
    if (unit.status.budget_exhausted) *capped = true;
    *stopped = true;
    *stop_outcome = OutcomeOf(governor_.Check());
    return false;
  };
  for (Unit& unit : units) {
    const uint64_t join_left = join_budget - spent;
    // Only a run under the budget left knows which rows come before it
    // runs out; at the round-start budget the first pass was that run.
    if (unit.status.charge > join_left && join_left < join_budget &&
        !rerun(unit, join_left, row_budget)) {
      return {};
    }
    // Rows are a prefix of every longer run of the unit, so the ones
    // admitted before a re-run are not admitted again.
    uint64_t next = 0;
    for (;;) {
      for (; next < unit.rows.rows(); ++next) {
        AdmitTrigger(unit.rule, unit.rows.row(next), &pending);
        if (applied_triggers_ + pending.size() < options_.max_steps &&
            hom_discoveries_ < options_.max_hom_discoveries) {
          continue;
        }
        // A unit that stopped on this very row has charged exactly up to
        // it already.
        if ((!unit.status.row_capped || next + 1 != unit.rows.rows()) &&
            !rerun(unit, join_left, next + 1)) {
          return {};
        }
        join_work_ += spent + unit.status.charge;
        *capped = true;
        return pending;
      }
      if (!unit.status.row_capped) break;
      // No cap bound within the rows: double them, but never past the
      // row on which the hom cap binds.
      const uint64_t more =
          std::min(next, left(options_.max_hom_discoveries, hom_discoveries_));
      if (!rerun(unit, join_left, next + more)) return {};
    }
    spent += unit.status.charge;
    if (unit.status.budget_exhausted) {
      *capped = true;
      break;
    }
  }
  join_work_ += spent;
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
    phase_timer.Restart();
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
      round.reserve_seconds = phase_timer.ElapsedSeconds();
      round.total_seconds = round_timer.ElapsedSeconds();
      UpdateStatsPeaks();
      return outcome;
    }
    instance_.ReserveAdditional(reserve_atoms, reserve_terms);
    round.reserve_seconds = phase_timer.ElapsedSeconds();

    // Apply in the chosen order (always serial: application mutates the
    // instance, and restricted-chase semantics depend on the order).
    phase_timer.Restart();
    const uint64_t applied_before = applied_triggers_;
    GCHASE_TRACE_SPAN_PERF(TraceCategory::kChase, "chase.apply", rounds_ - 1,
                           PerfPhase::kApply);
    const bool apply_ok =
        ApplyPendingBatch(pending, observer, &round, &outcome);
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
  uint64_t discovery_us = 0, apply_us = 0, reserve_us = 0, round_us = 0;
  uint64_t batch_blocks = 0;
  uint64_t binding_rows = 0;
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  for (const RoundStats& round : stats.per_round) {
    estimated_work = round.estimated_work > kMax - estimated_work
                         ? kMax
                         : estimated_work + round.estimated_work;
    discovery_us += static_cast<uint64_t>(round.discovery_seconds * 1e6);
    apply_us += static_cast<uint64_t>(round.apply_seconds * 1e6);
    reserve_us += static_cast<uint64_t>(round.reserve_seconds * 1e6);
    round_us += static_cast<uint64_t>(round.total_seconds * 1e6);
    batch_blocks += round.batch_blocks;
    binding_rows += round.binding_rows;
  }
  // The terminal pass has no per-round entry but its discovery time is
  // real — fold it in, or chase.discovery_us undercounts every run by one
  // pass.
  discovery_us += static_cast<uint64_t>(stats.final_discovery_seconds * 1e6);
  sink.Counter("chase.estimated_work")->Add(estimated_work);
  sink.Counter("chase.discovery_us")->Add(discovery_us);
  sink.Counter("chase.apply_us")->Add(apply_us);
  sink.Counter("chase.reserve_us")->Add(reserve_us);
  sink.Counter("chase.round_us")->Add(round_us);
  sink.Counter("chase.batch_blocks")->Add(batch_blocks);
  sink.Counter("chase.plan_binding_rows")->Add(binding_rows);
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
  sink.Counter("chase.load_seed_us")
      ->Add(static_cast<uint64_t>(stats.seed_seconds * 1e6));
  sink.Counter("chase.load_bytes")->Add(stats.load_bytes);
  sink.Counter("chase.load_atoms")->Add(stats.edb_atoms);
}

std::string JsonNumber(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

std::string JsonNumber(uint64_t value) { return std::to_string(value); }

std::string ChaseStatsToJson(const ChaseStats& stats) {
  std::string out = "{";
  out += "\"discovery_threads\": " +
         JsonNumber(uint64_t{stats.discovery_threads});
  out += ", \"parallel_rounds\": " + JsonNumber(stats.parallel_rounds);
  out += ", \"load_ms\": " + JsonNumber(stats.load_seconds * 1e3);
  out += ", \"load_parse_ms\": " +
         JsonNumber((stats.load_seconds - stats.seed_seconds) * 1e3);
  out += ", \"load_seed_ms\": " + JsonNumber(stats.seed_seconds * 1e3);
  out += ", \"edb_atoms\": " + JsonNumber(stats.edb_atoms);
  out += ", \"load_bytes\": " + JsonNumber(stats.load_bytes);
  out += ", \"peak\": {";
  out += "\"atoms\": " + JsonNumber(stats.peak_atoms);
  out += ", \"position_index_keys\": " +
         JsonNumber(stats.peak_position_index_keys);
  out += ", \"position_index_entries\": " +
         JsonNumber(stats.peak_position_index_entries);
  out += ", \"dedup_keys\": " + JsonNumber(stats.peak_dedup_keys);
  out += "}, \"memory\": {";
  out += "\"peak_bytes\": " + JsonNumber(stats.peak_memory_bytes);
  out += ", \"in_use_bytes\": " + JsonNumber(stats.memory_in_use_bytes);
  out += ", \"budget_bytes\": " + JsonNumber(stats.memory_budget_bytes);
  out += ", \"denials\": " + JsonNumber(stats.memory_denials);
  out += "}, \"rules\": [";
  for (std::size_t r = 0; r < stats.per_rule.size(); ++r) {
    if (r > 0) out += ", ";
    const RuleStats& rule = stats.per_rule[r];
    out += "{\"discovered\": " + JsonNumber(rule.discovered);
    out += ", \"applied\": " + JsonNumber(rule.applied);
    out += ", \"skipped_satisfied\": " + JsonNumber(rule.skipped_satisfied);
    out += "}";
  }
  out += "], \"final_discovery_ms\": " +
         JsonNumber(stats.final_discovery_seconds * 1e3);
  out += ", \"rounds\": [";
  for (std::size_t i = 0; i < stats.per_round.size(); ++i) {
    if (i > 0) out += ", ";
    const RoundStats& round = stats.per_round[i];
    out += "{\"delta_atoms\": " + JsonNumber(round.delta_atoms);
    out += ", \"candidates\": " + JsonNumber(round.candidates);
    out += ", \"applied\": " + JsonNumber(round.applied);
    out += ", \"discovery_ms\": " + JsonNumber(round.discovery_seconds * 1e3);
    out += ", \"apply_ms\": " + JsonNumber(round.apply_seconds * 1e3);
    out += ", \"reserve_ms\": " + JsonNumber(round.reserve_seconds * 1e3);
    out += ", \"round_ms\": " + JsonNumber(round.total_seconds * 1e3);
    out += ", \"estimated_work\": " + JsonNumber(round.estimated_work);
    out += ", \"batch_blocks\": " + JsonNumber(round.batch_blocks);
    out += ", \"binding_rows\": " + JsonNumber(round.binding_rows);
    out += ", \"parallel\": ";
    out += round.parallel_discovery ? "true" : "false";
    out += "}";
  }
  out += "]}";
  return out;
}

bool IsModelOf(const Instance& instance, const RuleSet& rules) {
  const HomomorphismFinder finder(instance);
  for (const Tgd& rule : rules.rules()) {
    bool violated = false;
    finder.FindAll(rule.body(), rule.num_variables(),
                   [&](const Binding& binding) {
                     Binding frontier(rule.num_variables(), UnboundTerm());
                     for (VarId v : rule.frontier()) frontier[v] = binding[v];
                     violated = !finder.Exists(rule.head(),
                                               rule.num_variables(), frontier);
                     return !violated;
                   });
    if (violated) return false;
  }
  return true;
}

}  // namespace gchase
