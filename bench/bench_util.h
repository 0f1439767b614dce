#ifndef GCHASE_BENCH_BENCH_UTIL_H_
#define GCHASE_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>

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

/// Formats a double with enough precision for timings, trimming the
/// locale pitfalls of std::to_string.
inline std::string JsonNumber(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

inline std::string JsonNumber(uint64_t value) {
  return std::to_string(value);
}

/// Serializes ChaseStats to a JSON object (schema documented in
/// docs/architecture.md §chase). Every number is a plain counter or a
/// wall-time in milliseconds; no escaping is needed.
inline std::string ChaseStatsToJson(const ChaseStats& stats) {
  std::string out = "{";
  out += "\"discovery_threads\": " + JsonNumber(uint64_t{stats.discovery_threads});
  out += ", \"parallel_rounds\": " + JsonNumber(stats.parallel_rounds);
  out += ", \"load_ms\": " + JsonNumber(stats.load_seconds * 1e3);
  out += ", \"load_parse_ms\": " +
         JsonNumber((stats.load_seconds - stats.seed_seconds) * 1e3);
  out += ", \"load_seed_ms\": " + JsonNumber(stats.seed_seconds * 1e3);
  out += ", \"edb_atoms\": " + JsonNumber(stats.edb_atoms);
  out += ", \"load_bytes\": " + JsonNumber(stats.load_bytes);
  out += ", \"peak\": {";
  out += "\"atoms\": " + JsonNumber(stats.peak_atoms);
  out += ", \"position_index_keys\": " + JsonNumber(stats.peak_position_index_keys);
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
