#include "termination/mfa.h"

#include <vector>

#include "chase/chase.h"
#include "obs/trace.h"
#include "termination/critical_instance.h"

namespace gchase {

namespace {

/// Dense per-null ancestry bitsets over (rule, existential-variable) tags.
class AncestryTracker {
 public:
  explicit AncestryTracker(uint32_t num_tags)
      : words_per_null_((num_tags + 63) / 64) {}

  /// Registers a fresh null with the given tag and the ancestry inherited
  /// from `argument_nulls` (null indexes). Returns true if the null is
  /// cyclic (its own tag already occurs in its ancestry).
  bool AddNull(uint32_t null_index, uint32_t tag,
               const std::vector<uint32_t>& argument_nulls) {
    if (null_index >= tags_.size()) {
      tags_.resize(null_index + 1, 0);
      ancestry_.resize((null_index + 1) * words_per_null_, 0);
    }
    tags_[null_index] = tag;
    uint64_t* bits = &ancestry_[null_index * words_per_null_];
    for (uint32_t arg : argument_nulls) {
      const uint64_t* arg_bits = &ancestry_[arg * words_per_null_];
      for (uint32_t w = 0; w < words_per_null_; ++w) bits[w] |= arg_bits[w];
      bits[tags_[arg] / 64] |= 1ull << (tags_[arg] % 64);
    }
    return (bits[tag / 64] >> (tag % 64)) & 1;
  }

 private:
  uint32_t words_per_null_;
  std::vector<uint32_t> tags_;
  std::vector<uint64_t> ancestry_;
};

}  // namespace

StatusOr<MfaResult> CheckModelFaithfulAcyclicity(const RuleSet& rules,
                                                 Vocabulary* vocabulary,
                                                 const MfaOptions& options) {
  GCHASE_TRACE_SPAN(TraceCategory::kDecider, "decider.mfa", rules.size());
  // Tag = dense id of (rule, existential variable).
  std::vector<uint32_t> tag_offset(rules.size() + 1, 0);
  for (uint32_t r = 0; r < rules.size(); ++r) {
    tag_offset[r + 1] =
        tag_offset[r] +
        static_cast<uint32_t>(rules.rule(r).existential_variables().size());
  }
  const uint32_t num_tags = tag_offset[rules.size()];
  if (num_tags == 0) {
    // Datalog: the chase always terminates; trivially MFA.
    MfaResult result;
    result.status = MfaStatus::kAcyclic;
    return result;
  }

  std::vector<Atom> database = BuildCriticalInstance(rules, vocabulary);

  ChaseOptions chase_options;
  chase_options.variant = ChaseVariant::kSemiOblivious;
  chase_options.max_atoms = options.max_atoms;
  chase_options.max_steps = options.max_steps;
  chase_options.max_hom_discoveries = options.max_hom_discoveries;
  chase_options.max_join_work = options.max_join_work;
  chase_options.track_provenance = true;
  chase_options.deadline = options.deadline;
  chase_options.cancel = options.cancel;

  ChaseRun run(rules, chase_options, database);
  AncestryTracker tracker(num_tags);
  uint32_t next_trigger = 0;
  bool cyclic = false;

  ChaseOutcome outcome = run.Execute([&](AtomId) {
    // Process any triggers not yet folded into the ancestry structure.
    const TriggerLog& triggers = run.triggers();
    for (; next_trigger < triggers.size(); ++next_trigger) {
      const TriggerView trigger = triggers[next_trigger];
      const Tgd& rule = rules.rule(trigger.rule);
      // Skolem arguments: nulls among the frontier images.
      std::vector<uint32_t> argument_nulls;
      for (VarId v : rule.frontier()) {
        Term image = trigger.binding(v);
        if (image.IsNull()) argument_nulls.push_back(image.index());
      }
      for (uint32_t i = 0; i < trigger.created_nulls; ++i) {
        const uint32_t tag = tag_offset[trigger.rule] + i;
        if (tracker.AddNull(trigger.created_null(i).index(), tag,
                            argument_nulls)) {
          cyclic = true;
          return false;  // cyclic term: MFA rejects, stop chasing
        }
      }
    }
    return true;
  });

  MfaResult result;
  result.chase_atoms = run.instance().size();
  result.nulls_created = run.nulls_created();
  if (cyclic) {
    result.status = MfaStatus::kCyclic;
  } else if (outcome == ChaseOutcome::kTerminated) {
    result.status = MfaStatus::kAcyclic;
  } else {
    result.status = MfaStatus::kUnknown;
    result.stop_reason = StopReasonOf(outcome);
  }
  return result;
}

}  // namespace gchase
