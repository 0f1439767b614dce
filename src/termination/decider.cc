#include "termination/decider.h"

#include <new>

#include "base/timer.h"
#include "model/printer.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"

namespace gchase {

const char* TerminationVerdictName(TerminationVerdict verdict) {
  switch (verdict) {
    case TerminationVerdict::kTerminating:
      return "terminating";
    case TerminationVerdict::kNonTerminating:
      return "non-terminating";
    case TerminationVerdict::kUnknown:
      return "unknown";
  }
  return "?";
}

StatusOr<DeciderResult> DecideTermination(const RuleSet& rules,
                                          Vocabulary* vocabulary,
                                          ChaseVariant variant,
                                          const DeciderOptions& options) {
  if (variant == ChaseVariant::kRestricted) {
    return Status::FailedPrecondition(
        "the critical-instance reduction does not apply to the restricted "
        "chase; use kOblivious or kSemiOblivious");
  }

  CriticalInstanceOptions critical_options;
  critical_options.standard_database = options.standard_database;
  critical_options.excluded_constants = options.excluded_constants;
  std::vector<Atom> database;
  {
    GCHASE_TRACE_SPAN(TraceCategory::kDecider, "decider.critical_instance",
                      rules.size());
    database = BuildCriticalInstance(rules, vocabulary, critical_options);
  }

  ChaseOptions chase_options;
  chase_options.variant = variant;
  chase_options.max_atoms = options.max_atoms;
  chase_options.max_steps = options.max_steps;
  chase_options.max_hom_discoveries = options.max_hom_discoveries;
  chase_options.max_join_work = options.max_join_work;
  chase_options.discovery_threads = options.discovery_threads;
  chase_options.memory_budget = options.memory_budget;
  chase_options.track_provenance = true;
  chase_options.deadline = options.deadline;
  chase_options.cancel = options.cancel;
  chase_options.fault_injector = options.fault_injector;

  WallTimer timer;
  DeciderResult result;
  // API-boundary containment: seeding the critical-instance chase (the
  // ChaseRun constructor) and provenance growth both allocate outside
  // Execute()'s own bad_alloc guard. An allocator failure anywhere in the
  // exploration degrades to the same verdict a budget trip produces.
  try {
    ChaseRun run(rules, chase_options, database);
    PumpDetector detector(run);

    GCHASE_TRACE_SPAN_PERF(TraceCategory::kDecider, "decider.chase",
                           static_cast<uint64_t>(variant),
                           PerfPhase::kDecider);
    static MetricHistogram* const chase_hist =
        MetricsRegistry::Global().Histogram("decider.chase_ns");
    LatencyTimer chase_timer(chase_hist);
    ChaseOutcome outcome = run.Execute([&](AtomId atom) {
      std::optional<PumpCertificate> certificate = detector.OnAtom(atom);
      if (certificate.has_value()) {
        result.certificate = std::move(certificate);
        return false;  // abort the chase: non-termination proven
      }
      return true;
    });

    result.chase_atoms = run.instance().size();
    result.applied_triggers = run.applied_triggers();
    result.hom_discoveries = run.hom_discoveries();
    result.join_work = run.join_work();
    result.chase_stats = run.stats();
    result.replays_attempted = detector.replays_attempted();
    switch (outcome) {
      case ChaseOutcome::kTerminated:
        result.verdict = TerminationVerdict::kTerminating;
        break;
      case ChaseOutcome::kAborted: {
        GCHASE_CHECK(result.certificate.has_value());
        result.verdict = TerminationVerdict::kNonTerminating;
        const PumpCertificate& certificate = *result.certificate;
        std::string text = "pump: ";
        text += AtomToString(run.instance().atom(certificate.ancestor).ToAtom(),
                             *vocabulary);
        text += "  ~>  ";
        text +=
            AtomToString(run.instance().atom(certificate.descendant).ToAtom(),
                         *vocabulary);
        text += "  via rules [";
        for (std::size_t i = 0; i < certificate.segment_rules.size(); ++i) {
          if (i > 0) text += ", ";
          text += std::to_string(certificate.segment_rules[i]);
        }
        text += "], replayable forever";
        result.certificate_text = std::move(text);
        break;
      }
      case ChaseOutcome::kResourceLimit:
      case ChaseOutcome::kDeadlineExceeded:
      case ChaseOutcome::kCancelled:
      case ChaseOutcome::kMemoryBudgetExceeded:
        // Graceful degradation, not failure: the partial chase stats above
        // are already filled in, and the structured detail says why and
        // when the run gave up. A memory-capped run is unknown like a
        // deadline-capped one — never divergence evidence.
        result.verdict = TerminationVerdict::kUnknown;
        result.unknown.reason = StopReasonOf(outcome);
        result.unknown.elapsed_seconds = timer.ElapsedSeconds();
        break;
    }
  } catch (const std::bad_alloc&) {
    result.verdict = TerminationVerdict::kUnknown;
    result.unknown.reason = StopReason::kMemory;
    result.unknown.elapsed_seconds = timer.ElapsedSeconds();
  }
  return result;
}

}  // namespace gchase
