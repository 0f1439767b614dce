// Abort-path tests for the run-governor layer: deadlines, cancellation,
// and deterministic fault injection across the chase engines and the
// termination deciders. Every test asserts the graceful-degradation
// contract — a stopped run returns a distinct outcome with the partial
// instance and stats intact, and never hangs or throws.

#include <chrono>
#include <thread>

#include "base/governor.h"
#include "base/timer.h"
#include "chase/chase.h"
#include "chase/egd_chase.h"
#include "gtest/gtest.h"
#include "reasoning/containment.h"
#include "storage/core.h"
#include "termination/classifier.h"
#include "termination/decider.h"
#include "termination/mfa.h"
#include "termination/restricted_probe.h"
#include "tests/test_util.h"

namespace gchase {
namespace {

// -------------------------------------------------------------------------
// Deadline / CancellationToken primitives.

TEST(DeadlineTest, DefaultNeverExpires) {
  Deadline d;
  EXPECT_TRUE(d.is_infinite());
  EXPECT_FALSE(d.Expired());
  EXPECT_EQ(d.RemainingSeconds(),
            std::numeric_limits<double>::infinity());
}

TEST(DeadlineTest, FiniteDeadlineExpires) {
  Deadline d = Deadline::AfterMillis(1);
  EXPECT_FALSE(d.is_infinite());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(d.Expired());
  EXPECT_LE(d.RemainingSeconds(), 0.0);
}

TEST(DeadlineTest, ZeroBudgetIsImmediatelyExpired) {
  EXPECT_TRUE(Deadline::AfterMillis(0).Expired());
}

TEST(DeadlineTest, SliceOfInfiniteIsInfinite) {
  EXPECT_TRUE(Deadline().Slice(0.5).is_infinite());
}

TEST(DeadlineTest, SliceCoversFractionOfRemainingBudget) {
  Deadline d = Deadline::AfterSeconds(10.0);
  Deadline half = d.Slice(0.5);
  EXPECT_FALSE(half.is_infinite());
  EXPECT_LE(half.RemainingSeconds(), 5.01);
  EXPECT_GT(half.RemainingSeconds(), 4.0);
}

TEST(DeadlineTest, SliceOfExpiredStaysExpired) {
  Deadline d = Deadline::AfterMillis(0);
  EXPECT_TRUE(d.Slice(0.5).Expired());
}

TEST(DeadlineTest, EarlierPicksTheSoonerDeadline) {
  Deadline near = Deadline::AfterSeconds(1.0);
  Deadline far = Deadline::AfterSeconds(100.0);
  EXPECT_EQ(Deadline::Earlier(near, far).when(), near.when());
  EXPECT_EQ(Deadline::Earlier(far, near).when(), near.when());
  EXPECT_EQ(Deadline::Earlier(near, Deadline()).when(), near.when());
}

TEST(CancellationTest, CopiesShareState) {
  CancellationToken token;
  CancellationToken copy = token;
  EXPECT_FALSE(copy.Cancelled());
  token.RequestCancel();
  EXPECT_TRUE(copy.Cancelled());
  EXPECT_TRUE(token.Cancelled());
}

TEST(GovernorTest, CancellationWinsOverDeadline) {
  CancellationToken token;
  token.RequestCancel();
  RunGovernor governor(Deadline::AfterMillis(0), token);
  EXPECT_EQ(governor.Check(), GovernorState::kCancelled);
}

TEST(GovernorTest, DefaultGovernorIsAlwaysOk) {
  RunGovernor governor;
  EXPECT_EQ(governor.Check(), GovernorState::kOk);
}

// -------------------------------------------------------------------------
// Chase engine: wall-clock deadlines.

// The partial result of an aborted run must be internally consistent:
// stats describe exactly the materialized prefix.
void ExpectConsistentPartialResult(const ChaseRun& run,
                                   std::size_t database_atoms) {
  EXPECT_GE(run.instance().size(), database_atoms);
  EXPECT_EQ(run.stats().peak_atoms, run.instance().size());
  EXPECT_EQ(run.stats().per_round.size(), run.rounds());
  uint64_t applied = 0;
  for (const RuleStats& rule : run.stats().per_rule) applied += rule.applied;
  EXPECT_EQ(applied, run.applied_triggers());
}

TEST(ChaseDeadlineTest, DivergentChaseStopsWithinTwiceTheBudget) {
  // p(X) -> p(Y) under the oblivious chase diverges forever; a 200 ms
  // budget must stop it well before 2x the budget at every thread count.
  for (uint32_t threads : {1u, 2u, 4u}) {
    ParsedProgram program = MustParse("p(X) -> p(Y).\np(a).\n");
    ChaseOptions options;
    options.variant = ChaseVariant::kOblivious;
    options.discovery_threads = threads;
    options.deadline = Deadline::AfterMillis(200);
    WallTimer timer;
    ChaseRun run(program.rules, options, program.facts);
    ChaseOutcome outcome = run.Execute();
    const double seconds = timer.ElapsedSeconds();
    EXPECT_EQ(outcome, ChaseOutcome::kDeadlineExceeded)
        << "threads=" << threads;
    EXPECT_LT(seconds, 0.4) << "threads=" << threads;
    EXPECT_GT(run.applied_triggers(), 0u) << "threads=" << threads;
    ExpectConsistentPartialResult(run, program.facts.size());
  }
}

TEST(ChaseDeadlineTest, ExpiredDeadlineStopsBeforeAnyWork) {
  ParsedProgram program = MustParse("p(X) -> p(Y).\np(a).\n");
  ChaseOptions options;
  options.variant = ChaseVariant::kOblivious;
  options.deadline = Deadline::AfterMillis(0);
  ChaseRun run(program.rules, options, program.facts);
  EXPECT_EQ(run.Execute(), ChaseOutcome::kDeadlineExceeded);
  EXPECT_EQ(run.instance().size(), 1u);  // just the database
  EXPECT_EQ(run.applied_triggers(), 0u);
  EXPECT_EQ(run.rounds(), 0u);
  ExpectConsistentPartialResult(run, program.facts.size());
}

// -------------------------------------------------------------------------
// Chase engine: cancellation from another thread.

TEST(ChaseCancellationTest, SecondThreadCancelsDivergentRun) {
  for (uint32_t threads : {1u, 2u, 4u}) {
    ParsedProgram program = MustParse("p(X) -> p(Y).\np(a).\n");
    ChaseOptions options;
    options.variant = ChaseVariant::kOblivious;
    options.discovery_threads = threads;
    options.cancel = CancellationToken();
    CancellationToken token = options.cancel;
    std::thread canceller([token]() {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      token.RequestCancel();
    });
    ChaseRun run(program.rules, options, program.facts);
    ChaseOutcome outcome = run.Execute();
    canceller.join();
    EXPECT_EQ(outcome, ChaseOutcome::kCancelled) << "threads=" << threads;
    ExpectConsistentPartialResult(run, program.facts.size());
  }
}

TEST(ChaseCancellationTest, PreCancelledTokenStopsImmediately) {
  ParsedProgram program = MustParse("p(X) -> p(Y).\np(a).\n");
  ChaseOptions options;
  options.variant = ChaseVariant::kOblivious;
  options.cancel.RequestCancel();
  ChaseRun run(program.rules, options, program.facts);
  EXPECT_EQ(run.Execute(), ChaseOutcome::kCancelled);
  EXPECT_EQ(run.applied_triggers(), 0u);
}

// -------------------------------------------------------------------------
// Chase engine: deterministic fault injection.

TEST(FaultInjectionTest, RoundStartFaultStopsAtExactRound) {
  // The oblivious chase of p(X) -> p(Y) applies exactly one trigger per
  // round, so aborting at round-start ordinal 2 leaves two full rounds.
  ParsedProgram program = MustParse("p(X) -> p(Y).\np(a).\n");
  ChaseOptions options;
  options.variant = ChaseVariant::kOblivious;
  options.fault_injector = [](FaultSite site, uint64_t ordinal) {
    return site == FaultSite::kRoundStart && ordinal == 2
               ? InjectedFault::kDeadline
               : InjectedFault::kNone;
  };
  ChaseRun run(program.rules, options, program.facts);
  EXPECT_EQ(run.Execute(), ChaseOutcome::kDeadlineExceeded);
  EXPECT_EQ(run.rounds(), 2u);
  EXPECT_EQ(run.stats().per_round.size(), 2u);
  EXPECT_EQ(run.applied_triggers(), 2u);
  ExpectConsistentPartialResult(run, program.facts.size());
}

TEST(FaultInjectionTest, TriggerApplyFaultStopsAtExactTrigger) {
  ParsedProgram program = MustParse("p(X) -> p(Y).\np(a).\n");
  ChaseOptions options;
  options.variant = ChaseVariant::kOblivious;
  options.fault_injector = [](FaultSite site, uint64_t ordinal) {
    return site == FaultSite::kTriggerApply && ordinal == 5
               ? InjectedFault::kCancel
               : InjectedFault::kNone;
  };
  ChaseRun run(program.rules, options, program.facts);
  EXPECT_EQ(run.Execute(), ChaseOutcome::kCancelled);
  EXPECT_EQ(run.applied_triggers(), 5u);
  ExpectConsistentPartialResult(run, program.facts.size());
}

TEST(FaultInjectionTest, DiscoveryFaultDropsThePartialCandidateSet) {
  // Aborting at the first discovery unit leaves the database untouched:
  // partial candidates are never applied.
  for (uint32_t threads : {1u, 2u, 4u}) {
    ParsedProgram program = MustParse("p(X) -> p(Y).\np(a).\n");
    ChaseOptions options;
    options.variant = ChaseVariant::kOblivious;
    options.discovery_threads = threads;
    options.fault_injector = [](FaultSite site, uint64_t) {
      return site == FaultSite::kDiscovery ? InjectedFault::kDeadline
                                           : InjectedFault::kNone;
    };
    ChaseRun run(program.rules, options, program.facts);
    EXPECT_EQ(run.Execute(), ChaseOutcome::kDeadlineExceeded)
        << "threads=" << threads;
    EXPECT_EQ(run.instance().size(), 1u) << "threads=" << threads;
    EXPECT_EQ(run.applied_triggers(), 0u) << "threads=" << threads;
    ExpectConsistentPartialResult(run, program.facts.size());
  }
}

TEST(FaultInjectionTest, InjectedResourceLimitSurfacesAsResourceLimit) {
  ParsedProgram program = MustParse("p(X) -> p(Y).\np(a).\n");
  ChaseOptions options;
  options.variant = ChaseVariant::kOblivious;
  options.fault_injector = [](FaultSite site, uint64_t ordinal) {
    return site == FaultSite::kRoundStart && ordinal == 1
               ? InjectedFault::kResourceLimit
               : InjectedFault::kNone;
  };
  ChaseRun run(program.rules, options, program.facts);
  EXPECT_EQ(run.Execute(), ChaseOutcome::kResourceLimit);
  EXPECT_EQ(run.rounds(), 1u);
}

TEST(FaultInjectionTest, NoFaultMeansNormalTermination) {
  ParsedProgram program = MustParse("a(X) -> b(X).\na(c).\n");
  ChaseOptions options;
  uint64_t checkpoints = 0;
  options.fault_injector = [&checkpoints](FaultSite, uint64_t) {
    ++checkpoints;
    return InjectedFault::kNone;
  };
  ChaseRun run(program.rules, options, program.facts);
  EXPECT_EQ(run.Execute(), ChaseOutcome::kTerminated);
  EXPECT_GT(checkpoints, 0u);
  EXPECT_TRUE(IsModelOf(run.instance(), program.rules));
}

// -------------------------------------------------------------------------
// EGD engine: cap attribution, deadline, cancellation.

TEST(EgdGovernorTest, StepCapReportsWhichCapFired) {
  // r(X,Y) -> r(Y,Z) diverges under the standard chase.
  ParsedProgram program = MustParse("r(X,Y) -> r(Y,Z).\nr(a,b).\n");
  EgdChaseOptions options;
  options.max_steps = 3;
  EgdChaseResult result = RunStandardChaseWithEgds(
      program.rules, program.egds, options, program.facts);
  EXPECT_EQ(result.outcome, EgdChaseOutcome::kResourceLimit);
  EXPECT_EQ(result.cap, EgdCap::kSteps);
  EXPECT_EQ(result.tgd_applications, 3u);
}

TEST(EgdGovernorTest, NullCapReportsWhichCapFired) {
  ParsedProgram program = MustParse("r(X,Y) -> r(Y,Z).\nr(a,b).\n");
  EgdChaseOptions options;
  options.max_nulls = 2;
  EgdChaseResult result = RunStandardChaseWithEgds(
      program.rules, program.egds, options, program.facts);
  EXPECT_EQ(result.outcome, EgdChaseOutcome::kResourceLimit);
  EXPECT_EQ(result.cap, EgdCap::kNulls);
  EXPECT_EQ(result.nulls_created, 2u);
}

TEST(EgdGovernorTest, TerminatedRunReportsNoCap) {
  ParsedProgram program = MustParse(
      "worker(X) -> emp(X,D), dept(D).\n"
      "emp(X,D1), emp(X,D2) -> D1 = D2.\n"
      "worker(bob). emp(bob, sales).\n");
  EgdChaseResult result = RunStandardChaseWithEgds(
      program.rules, program.egds, EgdChaseOptions{}, program.facts);
  EXPECT_EQ(result.outcome, EgdChaseOutcome::kTerminated);
  EXPECT_EQ(result.cap, EgdCap::kNone);
}

TEST(EgdGovernorTest, DeadlineStopsDivergentRun) {
  ParsedProgram program = MustParse("r(X,Y) -> r(Y,Z).\nr(a,b).\n");
  EgdChaseOptions options;
  options.deadline = Deadline::AfterMillis(100);
  WallTimer timer;
  EgdChaseResult result = RunStandardChaseWithEgds(
      program.rules, program.egds, options, program.facts);
  EXPECT_EQ(result.outcome, EgdChaseOutcome::kDeadlineExceeded);
  EXPECT_LT(timer.ElapsedSeconds(), 0.4);
  EXPECT_GE(result.instance.size(), 1u);
}

TEST(EgdGovernorTest, PreCancelledRunLeavesDatabaseUntouched) {
  ParsedProgram program = MustParse("r(X,Y) -> r(Y,Z).\nr(a,b).\n");
  EgdChaseOptions options;
  options.cancel.RequestCancel();
  EgdChaseResult result = RunStandardChaseWithEgds(
      program.rules, program.egds, options, program.facts);
  EXPECT_EQ(result.outcome, EgdChaseOutcome::kCancelled);
  EXPECT_EQ(result.instance.size(), 1u);
  EXPECT_EQ(result.tgd_applications, 0u);
  EXPECT_EQ(result.egd_applications, 0u);
}

// -------------------------------------------------------------------------
// Decider: three-valued downgrade.

TEST(DeciderGovernorTest, ExpiredDeadlineDowngradesToUnknown) {
  ParsedProgram program = MustParse("p(X) -> p(Y).\n");
  DeciderOptions options;
  options.deadline = Deadline::AfterMillis(0);
  StatusOr<DeciderResult> result = DecideTermination(
      program.rules, &program.vocabulary, ChaseVariant::kOblivious, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->verdict, TerminationVerdict::kUnknown);
  EXPECT_EQ(result->unknown.reason, StopReason::kDeadline);
  EXPECT_GE(result->unknown.elapsed_seconds, 0.0);
}

TEST(DeciderGovernorTest, PreCancelledCallIsUnknown) {
  // Even a set the decider settles in one round is unknown once the
  // caller has asked to stop: cancellation wins over the verdict.
  ParsedProgram program = MustParse("a(X) -> b(X).\n");
  DeciderOptions options;
  options.cancel.RequestCancel();
  StatusOr<DeciderResult> result = DecideTermination(
      program.rules, &program.vocabulary, ChaseVariant::kOblivious, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->verdict, TerminationVerdict::kUnknown);
  EXPECT_EQ(result->unknown.reason, StopReason::kCancelled);
}

TEST(DeciderGovernorTest, MixedBatchCompletesWithPerItemDowngrades) {
  // A batch over mixed rule sets, each under its own small budget, must
  // finish with a verdict (possibly kUnknown) for every item — one
  // pathological set never hangs the batch.
  const char* programs[] = {
      "a(X) -> b(X).\n",                  // terminating
      "p(X) -> p(Y).\n",                  // provably non-terminating
      "e(X,Y) -> e(Y,Z).\ne(X,Y) -> e(Y,X).\n",  // diverging, harder
  };
  for (const char* text : programs) {
    ParsedProgram program = MustParse(text);
    DeciderOptions options;
    options.deadline = Deadline::AfterMillis(500);
    WallTimer timer;
    StatusOr<DeciderResult> result = DecideTermination(
        program.rules, &program.vocabulary, ChaseVariant::kSemiOblivious,
        options);
    ASSERT_TRUE(result.ok()) << text;
    EXPECT_LT(timer.ElapsedSeconds(), 2.0) << text;
    if (result->verdict == TerminationVerdict::kUnknown) {
      EXPECT_NE(result->unknown.reason, StopReason::kNone) << text;
    }
  }
}

// -------------------------------------------------------------------------
// Classifier: per-phase budget splitting.

TEST(ClassifierGovernorTest, ExpiredBudgetStillYieldsACompleteReport) {
  // Linear, not simple linear (the body repeats X): both variant
  // analyses go through the decider, which downgrades to kUnknown on the
  // expired budget. The syntactic conditions are ungoverned and still
  // report.
  ParsedProgram program = MustParse("e(X,X) -> e(X,Z).\n");
  ASSERT_EQ(program.rules.Classify(), RuleClass::kLinear);
  ClassifierOptions options;
  options.deadline = Deadline::AfterMillis(0);
  StatusOr<ClassifierReport> report =
      ClassifyTermination(program.rules, &program.vocabulary, options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->oblivious.verdict, TerminationVerdict::kUnknown);
  EXPECT_EQ(report->semi_oblivious.verdict, TerminationVerdict::kUnknown);
  EXPECT_FALSE(report->weakly_acyclic);  // syntactic result still present
  const std::string text = ReportToString(*report);
  EXPECT_NE(text.find("gave up"), std::string::npos);
}

TEST(ClassifierGovernorTest, SyntacticPathIgnoresExpiredBudget) {
  // Simple linear set: Theorem 1 is exact and runs no chase, so the
  // verdicts survive even a zero budget.
  ParsedProgram program = MustParse("p(X) -> q(X).\n");
  ClassifierOptions options;
  options.deadline = Deadline::AfterMillis(0);
  StatusOr<ClassifierReport> report =
      ClassifyTermination(program.rules, &program.vocabulary, options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->oblivious.verdict, TerminationVerdict::kTerminating);
  EXPECT_EQ(report->semi_oblivious.verdict, TerminationVerdict::kTerminating);
}

// -------------------------------------------------------------------------
// MFA, restricted probe, core, containment: downgrade semantics.

TEST(MfaGovernorTest, ExpiredDeadlineDowngradesToUnknown) {
  ParsedProgram program = MustParse("p(X) -> q(X,Y).\nq(X,Y) -> p(Y).\n");
  MfaOptions options;
  options.deadline = Deadline::AfterMillis(0);
  StatusOr<MfaResult> result = CheckModelFaithfulAcyclicity(
      program.rules, &program.vocabulary, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->status, MfaStatus::kUnknown);
  EXPECT_EQ(result->stop_reason, StopReason::kDeadline);
}

TEST(RestrictedProbeGovernorTest, AbortedRunsAreNotDivergenceEvidence) {
  ParsedProgram program = MustParse("r(X,Y) -> r(Y,Z).\n");
  RestrictedProbeOptions options;
  options.num_random_orders = 3;
  options.deadline = Deadline::AfterMillis(0);
  StatusOr<RestrictedProbeResult> result = ProbeRestrictedTermination(
      program.rules, &program.vocabulary, {}, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->runs_aborted, 5u);  // fifo + datalog-first + 3 random
  EXPECT_EQ(result->stop_reason, StopReason::kDeadline);
  EXPECT_FALSE(result->order_sensitive);
  EXPECT_EQ(result->random_orders_terminated, 0u);
  EXPECT_EQ(result->random_orders_diverged, 0u);
}

TEST(CoreGovernorTest, ExpiredDeadlineReturnsInputUnminimized) {
  // e(a,b) plus e(a, _:n0): foldable, but the budget is already gone.
  ParsedProgram program = MustParse("e(a,b).\n");
  Instance instance;
  for (const Atom& atom : program.facts) instance.Insert(atom);
  Term a = Term::Constant(*program.vocabulary.constants.Find("a"));
  instance.Insert(Atom(0, {a, Term::Null(0)}));
  CoreOptions options;
  options.deadline = Deadline::AfterMillis(0);
  CoreResult result = ComputeCore(instance, options);
  EXPECT_FALSE(result.minimized_fully);
  EXPECT_EQ(result.stopped_by, StopReason::kDeadline);
  EXPECT_EQ(result.core.size(), 2u);  // untouched
}

TEST(CoreGovernorTest, CancellationReportsCancelled) {
  ParsedProgram program = MustParse("e(a,b).\n");
  Instance instance;
  for (const Atom& atom : program.facts) instance.Insert(atom);
  Term a = Term::Constant(*program.vocabulary.constants.Find("a"));
  instance.Insert(Atom(0, {a, Term::Null(0)}));
  CoreOptions options;
  options.cancel.RequestCancel();
  CoreResult result = ComputeCore(instance, options);
  EXPECT_FALSE(result.minimized_fully);
  EXPECT_EQ(result.stopped_by, StopReason::kCancelled);
}

TEST(ContainmentGovernorTest, PrefixMatchStaysSoundUnderExpiredDeadline) {
  // Containment provable without any chase: the match succeeds on the
  // frozen database itself, so even a zero budget yields kContained.
  ParsedProgram program = MustParse("e(a,b).\n");
  Vocabulary& vocab = program.vocabulary;
  RuleSet empty;
  StatusOr<ParsedQuery> q1 = ParseQuery("e(X,Y), e(Y,Z)", &vocab);
  StatusOr<ParsedQuery> q2 = ParseQuery("e(X,U)", &vocab);
  ASSERT_TRUE(q1.ok() && q2.ok());
  ConjunctiveQuery two_step{q1->atoms,
                            static_cast<uint32_t>(q1->variable_names.size()),
                            {0}};
  ConjunctiveQuery one_step{q2->atoms,
                            static_cast<uint32_t>(q2->variable_names.size()),
                            {0}};
  ContainmentOptions options;
  options.deadline = Deadline::AfterMillis(0);
  StatusOr<ContainmentVerdict> forward =
      IsContainedIn(two_step, one_step, empty, &vocab, options);
  ASSERT_TRUE(forward.ok());
  EXPECT_EQ(*forward, ContainmentVerdict::kContained);

  // The reverse is refutable only by a *terminated* chase; with the
  // budget gone it must degrade to kUnknown, not claim kNotContained.
  StatusOr<ContainmentVerdict> backward =
      IsContainedIn(one_step, two_step, empty, &vocab, options);
  ASSERT_TRUE(backward.ok());
  EXPECT_EQ(*backward, ContainmentVerdict::kUnknown);
}

// -------------------------------------------------------------------------
// Shared vocabulary helpers.

TEST(OutcomeNameTest, NamesAreStable) {
  EXPECT_STREQ(ChaseOutcomeName(ChaseOutcome::kDeadlineExceeded),
               "deadline-exceeded");
  EXPECT_STREQ(ChaseOutcomeName(ChaseOutcome::kCancelled), "cancelled");
  EXPECT_STREQ(EgdChaseOutcomeName(EgdChaseOutcome::kDeadlineExceeded),
               "deadline-exceeded");
  EXPECT_STREQ(EgdCapName(EgdCap::kNulls), "nulls");
  EXPECT_STREQ(StopReasonName(StopReason::kResourceCap), "resource-cap");
  EXPECT_EQ(StopReasonOf(ChaseOutcome::kDeadlineExceeded),
            StopReason::kDeadline);
  EXPECT_EQ(StopReasonOf(ChaseOutcome::kTerminated), StopReason::kNone);
}

}  // namespace
}  // namespace gchase
