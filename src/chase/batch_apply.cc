// Set-at-a-time trigger application: ChaseRun::ApplyPendingBatch and the
// HeadBlock flush. Split from chase.cc so the executor can evolve (and be
// unit-tested through HeadBlock) without touching the discovery engine.
//
// The contract this file lives and dies by: a batch round must be
// bit-identical to the per-trigger loop in chase.cc — same atoms, same
// atom ids, same counter values, same abort points under every cap,
// order, variant and fault-injection regime. Every deviation from the
// per-trigger code below is annotated with why it cannot change the
// result.

#include "chase/batch_apply.h"

#include <algorithm>

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

bool ChaseRun::ApplyPendingBatch(const std::vector<PendingTrigger>& pending,
                                 RoundStats* round, ChaseOutcome* outcome) {
  const uint64_t null_cap = std::min(options_.max_nulls, kMaxLabeledNulls);
  HeadBlock& block = batch_block_;
  block.Clear();
  // Every early return below flushes first: triggers staged into the
  // block have already been counted as applied, so their atoms must be in
  // the instance of any partial result (the per-trigger path inserts them
  // eagerly).
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
    // Checkpoint and cap sequence in per-trigger order — governor, head
    // check, step cap, null cap — with the same ordinals as the
    // per-trigger path, so fault injection and abort points line up.
    if (GovernorStop(FaultSite::kTriggerApply, applied_triggers_, outcome)) {
      flush();
      return false;
    }
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
      if (check == HeadCheck::kStopped) return false;
      if (check == HeadCheck::kSatisfied) {
        ++stats_.per_rule[trigger.rule].skipped_satisfied;
        continue;
      }
    }
    if (applied_triggers_ >= options_.max_steps) {
      flush();
      *outcome = ChaseOutcome::kResourceLimit;
      return false;
    }
    // Overflow-safe null headroom check, as in ApplyTrigger.
    if (next_null_ > null_cap ||
        rule.existential_variables().size() > null_cap - next_null_) {
      flush();
      *outcome = ChaseOutcome::kResourceLimit;
      return false;
    }
    // Storage-growth checkpoint, ordinal-identical to ApplyTrigger's.
    // Flushing first keeps the partial instance the exact prefix the
    // per-trigger path would leave at this ordinal.
    if (AllocationStop(0, outcome)) {
      flush();
      return false;
    }
    ++applied_triggers_;
    ++stats_.per_rule[trigger.rule].applied;
    ++round->batched_triggers;
    // Extend the homomorphism with fresh nulls. Allocation sequence is
    // per-trigger and in existential-variable order, identical to
    // ApplyTrigger, so a round's nulls form one contiguous id range and
    // every null matches its per-trigger twin.
    extended_scratch_.assign(binding, binding + rule.num_variables());
    for (VarId v : rule.existential_variables()) {
      extended_scratch_[v] = Term::Null(next_null_++);
    }
    for (const Atom& head : rule.head()) {
      const uint32_t arity = head.arity();
      if (instance_.size() + uint64_t{block.atoms()} + 1 >
          options_.max_atoms) {
        // Cap-adjacent careful mode: the block's staged rows may contain
        // duplicates, so `size + staged + 1` only bounds the post-flush
        // size from above. Flush to make the size exact, insert this one
        // atom directly, and apply the per-trigger path's exact
        // post-insert cap check. Cap-adjacent rounds are terminal, so the
        // degraded granularity costs nothing measurable.
        flush();
        SubstituteRow(head, extended_scratch_.data(), &head_scratch_);
        instance_.TryAddTerms(head.predicate, head_scratch_.data(), arity);
        if (instance_.size() > options_.max_atoms) {
          *outcome = ChaseOutcome::kResourceLimit;
          return false;
        }
      } else {
        Term* row = block.Append(head.predicate, arity);
        for (uint32_t pos = 0; pos < arity; ++pos) {
          const Term t = head.args[pos];
          row[pos] = t.IsVariable() ? extended_scratch_[t.index()] : t;
        }
      }
    }
  }
  flush();
  return true;
}

}  // namespace gchase
