// The chase's one apply loop, ChaseRun::ApplyPendingBatch, and the
// HeadBlock flush. Split from chase.cc so the executor can evolve (and be
// unit-tested through HeadBlock) without touching the discovery engine.
//
// A plain run stages head atoms into the block and flushes them in bulk;
// a run with an observer or provenance inserts each head atom at once.
// Both modes pass the same checkpoints and cap checks in the same order,
// so they produce the same atoms, atom ids, counters and abort points
// (pinned by the fuzz oracles). Every place where staging could differ
// from inserting at once is annotated with why it cannot change the
// result.

#include "chase/batch_apply.h"

#include <algorithm>
#include <optional>

#include "chase/chase.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/instance.h"

namespace gchase {

uint32_t HeadBlock::FlushInto(Instance* instance) const {
  // Single-row fast path: restricted rounds flush before every head
  // check, so most of their blocks hold exactly one atom — skip the bulk
  // pre-sizing ceremony and insert directly (identical id/dedup
  // semantics; TryAddBatch degenerates to this for n == 1).
  if (atoms_ == 1) {
    const Segment& segment = segments_.front();
    instance->TryAddTerms(segment.predicate, terms_.data() + segment.offset,
                          segment.arity);
    return 1;
  }
  for (const Segment& segment : segments_) {
    instance->TryAddBatch(segment.predicate, terms_.data() + segment.offset,
                          segment.arity, segment.rows);
  }
  return static_cast<uint32_t>(segments_.size());
}

namespace {

/// One trigger's `chase.apply_rule` span: recorded retroactively (phase
/// 'X') when it leaves scope, and kept by the tracer only if the trigger
/// was slower than its threshold. Inert unless `active`.
class ApplyRuleSpan {
 public:
  ApplyRuleSpan(bool active, uint32_t rule)
      : active_(active),
        rule_(rule),
        start_ns_(active ? Tracer::Global().NowNs() : 0) {}
  ApplyRuleSpan(const ApplyRuleSpan&) = delete;
  ApplyRuleSpan& operator=(const ApplyRuleSpan&) = delete;
  ~ApplyRuleSpan() {
    if (!active_) return;
    Tracer& tracer = Tracer::Global();
    tracer.RecordComplete(TraceCategory::kChase, "chase.apply_rule",
                          start_ns_, tracer.NowNs() - start_ns_, rule_);
  }
  /// The trigger was not applied (satisfied, or its check stopped).
  void Cancel() { active_ = false; }

 private:
  bool active_;
  uint32_t rule_;
  uint64_t start_ns_;
};

}  // namespace

bool ChaseRun::ApplyPendingBatch(const std::vector<PendingTrigger>& pending,
                                 const AtomObserver& observer,
                                 RoundStats* round, ChaseOutcome* outcome) {
  const uint64_t null_cap = std::min(options_.max_nulls, kMaxLabeledNulls);
  const bool track = options_.track_provenance;
  // Provenance needs each head atom's id, and the observer must see each
  // new atom before the next trigger fires: the pump detector reads the
  // trigger record, and a pump noticed only after a staged round lets the
  // chase grow past a cap first. Such runs stage nothing: every head atom
  // takes the direct insert below and the block stays empty.
  const bool eager = observer != nullptr || track;
  // Per-rule application spans, on eager runs only. Threshold-gated, so a
  // healthy run pays two clock reads per trigger when tracing is on and a
  // single mask load when it is off.
  const bool trace_triggers =
      eager && Tracer::Global().enabled(TraceCategory::kChase);
  HeadBlock& block = batch_block_;
  block.Clear();
  // Every early return below flushes first: triggers staged into the
  // block have already been counted as applied, so their atoms must be in
  // the instance of any partial result, as they are on an eager run.
  const auto flush = [&]() {
    if (block.empty()) return;
    GCHASE_TRACE_SPAN(TraceCategory::kChase, "chase.batch_flush",
                      block.atoms());
    static MetricHistogram* const flush_hist =
        MetricsRegistry::Global().Histogram("chase.batch_flush_ns");
    LatencyTimer flush_timer(flush_hist);
    round->batch_blocks += block.FlushInto(&instance_);
    block.Clear();
  };
  for (const PendingTrigger& trigger : pending) {
    // Checkpoint and cap sequence: governor, head check, step cap, null
    // cap, allocation checkpoint. The application stops between triggers
    // or at the atom cap, never elsewhere, so provenance and dedup state
    // stay consistent in a partial result.
    if (GovernorStop(FaultSite::kTriggerApply, applied_triggers_, outcome)) {
      flush();
      return false;
    }
    ApplyRuleSpan span(trace_triggers, trigger.rule);
    const Tgd& rule = rules_.rule(trigger.rule);
    const Term* binding = PendingRow(trigger);
    if (options_.variant == ChaseVariant::kRestricted) {
      // A satisfaction check must observe every atom staged so far — an
      // earlier trigger this round may have satisfied this one — so the
      // block flushes before each check. Restricted batching thereby
      // degenerates to per-trigger flush granularity exactly where the
      // order-sensitive semantics require it; the win that remains is the
      // allocation-free substitution and the shared ground-head fast
      // path.
      flush();
      const HeadCheck check = CheckHeadSatisfied(rule, binding, outcome);
      if (check != HeadCheck::kUnsatisfied) span.Cancel();
      if (check == HeadCheck::kStopped) return false;
      if (check == HeadCheck::kSatisfied) {
        ++stats_.per_rule[trigger.rule].skipped_satisfied;
        continue;  // Satisfied triggers are skipped, permanently (monotone).
      }
    }
    if (applied_triggers_ >= options_.max_steps) {
      flush();
      *outcome = ChaseOutcome::kResourceLimit;
      return false;
    }
    // Overflow-safe null cap: compare headroom, never the sum (the sum can
    // wrap when max_nulls is near the type maximum). The representable-id
    // ceiling is folded in so exhausting Term's 30-bit null space is a
    // clean resource limit rather than a checked abort deep in Term::Null.
    if (next_null_ > null_cap ||
        rule.existential_variables().size() > null_cap - next_null_) {
      flush();
      *outcome = ChaseOutcome::kResourceLimit;
      return false;
    }
    // Storage-growth checkpoint before this trigger materializes its head.
    // Projected bytes are 0 — the round's bulk reserve already pre-sized
    // for every pending head — but the level check still trips once
    // steady-state growth crosses the budget. Flushing first keeps the
    // partial instance the exact prefix an eager run leaves at this
    // ordinal.
    if (AllocationStop(0, outcome)) {
      flush();
      return false;
    }
    ++applied_triggers_;
    ++stats_.per_rule[trigger.rule].applied;

    AtomProvenance provenance;
    if (track) {
      // The log records the first null only: the loop below allocates the
      // trigger's nulls contiguously from next_null_.
      AtomId* body_atoms = trigger_log_.Append(
          trigger.rule, binding, static_cast<uint32_t>(next_null_));
      for (uint32_t b = 0; b < rule.body().size(); ++b) {
        const Atom& body_atom = rule.body()[b];
        SubstituteRow(body_atom, binding, &head_scratch_);
        std::optional<AtomId> id = instance_.FindTerms(
            body_atom.predicate, head_scratch_.data(), body_atom.arity());
        GCHASE_CHECK(id.has_value());
        body_atoms[b] = *id;
      }
      provenance.rule = trigger.rule;
      provenance.parent = body_atoms[rule.guard_index().value_or(0)];
      provenance.depth = provenance_[provenance.parent].depth + 1;
      provenance.trigger = trigger_log_.size() - 1;
    }
    // Extend the homomorphism with fresh nulls, per trigger and in
    // existential-variable order, so a staged round's nulls form one
    // contiguous id range and match an eager run's null for null.
    extended_scratch_.assign(binding, binding + rule.num_variables());
    for (VarId v : rule.existential_variables()) {
      extended_scratch_[v] = Term::Null(next_null_++);
    }

    // The instance is append-only, so on an eager run (empty block) this
    // trigger's new atoms are exactly the ids from here to the end.
    const AtomId first_new = instance_.size();
    bool over_atom_cap = false;
    for (uint32_t h = 0; h < rule.head().size(); ++h) {
      const Atom& head = rule.head()[h];
      const uint64_t staged = uint64_t{instance_.size()} + block.atoms();
      if (!eager && staged < options_.max_atoms) {
        Term* row = block.Append(head.predicate, head.arity());
        for (uint32_t pos = 0; pos < head.arity(); ++pos) {
          const Term t = head.args[pos];
          row[pos] = t.IsVariable() ? extended_scratch_[t.index()] : t;
        }
        continue;
      }
      // Direct insert: every head atom of an eager run, and a plain run's
      // cap-adjacent ones. The block's staged rows may contain
      // duplicates, so `staged + 1` only bounds the post-flush size from
      // above; flushing makes the size exact, and the atom cap is checked
      // after each insert. Cap-adjacent rounds are terminal, so the
      // degraded granularity costs nothing measurable.
      flush();
      SubstituteRow(head, extended_scratch_.data(), &head_scratch_);
      const auto [id, inserted] = instance_.TryAddTerms(
          head.predicate, head_scratch_.data(), head.arity());
      if (track) {
        trigger_log_.AddProduced(id);
        if (inserted) {
          provenance.head_index = h;
          provenance_.push_back(provenance);
          GCHASE_CHECK(provenance_.size() == instance_.size());
        }
      }
      if (instance_.size() > options_.max_atoms) {
        over_atom_cap = true;
        break;
      }
    }
    // The growth is charged here and trips the budget at the next
    // checkpoint, as the instance's own per-atom growth does.
    if (track) TrackProvenanceGrowth();
    // Notify only after the trigger record is complete: observers (e.g.
    // the pump detector) follow provenance into triggers(). An observer
    // abort is reported ahead of the atom cap.
    if (observer != nullptr) {
      for (AtomId id = first_new; id < instance_.size(); ++id) {
        if (!observer(id)) {
          *outcome = ChaseOutcome::kAborted;
          return false;
        }
      }
    }
    if (over_atom_cap) {
      *outcome = ChaseOutcome::kResourceLimit;
      return false;
    }
  }
  flush();
  return true;
}

}  // namespace gchase
