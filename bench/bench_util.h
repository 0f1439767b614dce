#ifndef GCHASE_BENCH_BENCH_UTIL_H_
#define GCHASE_BENCH_BENCH_UTIL_H_

#include <cstdio>

#include "base/rng.h"
#include "chase/chase.h"
#include "generator/random_rules.h"
#include "termination/decider.h"

namespace gchase {
namespace bench_util {

/// Fixed base seed: every experiment is reproducible run to run.
inline constexpr uint64_t kSeedBase = 20150531;  // PODS'15 week

/// Default decider caps for experiment sweeps: generous enough that
/// kUnknown verdicts are rare on these workload sizes (counts reported).
inline DeciderOptions SweepDeciderOptions() {
  DeciderOptions options;
  options.max_atoms = 200000;
  options.max_steps = 2000000;
  options.max_hom_discoveries = 8000000;
  options.max_join_work = 80000000;
  return options;
}

/// Standard random-set shape per class, scaled by a size knob.
inline RandomRuleSetOptions ShapeFor(RuleClass rule_class,
                                     uint32_t num_predicates,
                                     uint32_t num_rules, uint32_t max_arity,
                                     Rng* rng) {
  RandomRuleSetOptions options;
  options.rule_class = rule_class;
  options.num_predicates = num_predicates;
  options.min_arity = 1;
  options.max_arity = max_arity;
  options.num_rules = num_rules;
  options.existential_probability = 0.2 + 0.5 * rng->NextDouble();
  return options;
}

/// Prints the experiment banner.
inline void Banner(const char* experiment, const char* claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("validates: %s\n", claim);
  std::printf("==============================================================\n");
}

inline const char* ShortVerdict(TerminationVerdict verdict) {
  switch (verdict) {
    case TerminationVerdict::kTerminating:
      return "T";
    case TerminationVerdict::kNonTerminating:
      return "N";
    case TerminationVerdict::kUnknown:
      return "?";
  }
  return "?";
}

}  // namespace bench_util
}  // namespace gchase

#endif  // GCHASE_BENCH_BENCH_UTIL_H_
