#ifndef GCHASE_TERMINATION_CLASSIFIER_H_
#define GCHASE_TERMINATION_CLASSIFIER_H_

#include <string>

#include "acyclicity/dependency_graph.h"
#include "acyclicity/joint_acyclicity.h"
#include "acyclicity/stickiness.h"
#include "base/status.h"
#include "model/tgd.h"
#include "model/vocabulary.h"
#include "termination/decider.h"
#include "termination/mfa.h"

namespace gchase {

/// Options for ClassifyTermination.
struct ClassifierOptions {
  /// Resource policy forwarded to the critical-instance decider. Its
  /// deadline is composed (Deadline::Earlier) with the per-phase slice of
  /// the classifier-level `deadline` below; its cancellation token is
  /// superseded by the classifier-level `cancel` below.
  DeciderOptions decider;
  /// Wall-clock budget for the whole classification. Split across the
  /// chase-running phases: MFA gets at most a quarter, the two variant
  /// analyses split what remains (the pure graph conditions — WA, RA, JA,
  /// stickiness — are microseconds and run ungoverned). Expiry downgrades
  /// the affected phase to kUnknown; the report is always complete.
  Deadline deadline;
  /// External cancellation, forwarded to every chase-running phase.
  CancellationToken cancel;
};

/// One chase variant's analysis.
struct VariantAnalysis {
  TerminationVerdict verdict = TerminationVerdict::kUnknown;
  /// "syntactic (Thm 1)" or "critical-instance decider (Thm 2/4)".
  std::string method;
  /// Wall-clock seconds for this analysis.
  double seconds = 0.0;
  /// Decider details when the decider ran.
  std::optional<DeciderResult> decider;
};

/// Full report of one rule set's termination analysis.
struct ClassifierReport {
  RuleClass rule_class = RuleClass::kGeneral;
  /// Syntactic sufficient conditions (each implies the corresponding
  /// chase terminates on all databases).
  bool weakly_acyclic = false;    ///< implies so-termination
  bool richly_acyclic = false;    ///< implies o-termination
  bool jointly_acyclic = false;   ///< implies so-termination
  bool mfa = false;               ///< model-faithful acyclicity; implies so-termination
  /// Stickiness (Calì-Gottlob-Pieris): decidable query answering even
  /// with a non-terminating chase; orthogonal to the verdicts below.
  bool sticky = false;
  VariantAnalysis oblivious;
  VariantAnalysis semi_oblivious;
};

/// One-call analysis facade: classifies the rule set (SL/L/G/general),
/// evaluates the syntactic acyclicity conditions, and decides oblivious
/// and semi-oblivious all-instance termination using the cheapest exact
/// method available:
///  - SL: rich/weak acyclicity (exact by Theorem 1; to cross-check an SL
///    set against the decider, call DecideTermination directly);
///  - L, G, general: one DecideTermination call per variant (Theorems 2
///    and 4; kUnknown possible only if the resource caps, the deadline
///    slice or the byte budget are exhausted).
StatusOr<ClassifierReport> ClassifyTermination(
    const RuleSet& rules, Vocabulary* vocabulary,
    const ClassifierOptions& options = {});

/// Renders a human-readable multi-line report.
std::string ReportToString(const ClassifierReport& report);

}  // namespace gchase

#endif  // GCHASE_TERMINATION_CLASSIFIER_H_
