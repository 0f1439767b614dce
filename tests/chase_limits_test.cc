#include "chase/chase.h"

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace gchase {
namespace {

TEST(ChaseLimitsTest, MaxNullsCapStopsTheRun) {
  ParsedProgram program = MustParse(
      "p(X) -> p(Y).\n"
      "p(a).\n");
  ChaseOptions options;
  options.variant = ChaseVariant::kOblivious;
  options.max_nulls = 5;
  ChaseResult result = RunChase(program.rules, options, program.facts);
  EXPECT_EQ(result.outcome, ChaseOutcome::kResourceLimit);
  EXPECT_LE(result.nulls_created, 5u);
}

TEST(ChaseLimitsTest, HomDiscoveryBudgetYieldsResourceLimit) {
  // Cross product body: 20 x 20 = 400 homomorphisms; a budget of 50 must
  // surface as a resource limit, never as a (wrong) "terminated".
  std::string text = "p(X), q(Y) -> r(X,Y).\n";
  for (int i = 0; i < 20; ++i) {
    text += "p(c" + std::to_string(i) + ").\n";
    text += "q(d" + std::to_string(i) + ").\n";
  }
  ParsedProgram program = MustParse(text);
  ChaseOptions options;
  options.variant = ChaseVariant::kSemiOblivious;
  options.max_hom_discoveries = 50;
  ChaseResult capped = RunChase(program.rules, options, program.facts);
  EXPECT_EQ(capped.outcome, ChaseOutcome::kResourceLimit);

  options.max_hom_discoveries = 1u << 20;
  ChaseResult full = RunChase(program.rules, options, program.facts);
  EXPECT_EQ(full.outcome, ChaseOutcome::kTerminated);
  EXPECT_EQ(full.instance.size(), 40u + 400u);
}

TEST(ChaseLimitsTest, ZeroAryPredicatesChase) {
  ParsedProgram program = MustParse(
      "go() -> step(X), done().\n"
      "go().\n");
  ChaseResult result = RunChase(program.rules, ChaseOptions{},
                                program.facts);
  EXPECT_EQ(result.outcome, ChaseOutcome::kTerminated);
  // go, step(n0), done  (restricted default creates the null once).
  EXPECT_EQ(result.instance.size(), 3u);
}

TEST(ChaseLimitsTest, ConstantsInRules) {
  ParsedProgram program = MustParse(
      "account(X) -> owner(X, bank).\n"
      "owner(X, bank) -> audited(X).\n"
      "account(a1). owner(a2, alice).\n");
  ChaseResult result = RunChase(program.rules, ChaseOptions{},
                                program.facts);
  EXPECT_EQ(result.outcome, ChaseOutcome::kTerminated);
  Vocabulary& vocab = program.vocabulary;
  Term a1 = Term::Constant(*vocab.constants.Find("a1"));
  Term a2 = Term::Constant(*vocab.constants.Find("a2"));
  PredicateId audited = *vocab.schema.Find("audited");
  EXPECT_TRUE(result.instance.Contains(Atom(audited, {a1})));
  // a2's owner is alice, not bank: the constant in the body filters it.
  EXPECT_FALSE(result.instance.Contains(Atom(audited, {a2})));
}

TEST(ChaseLimitsTest, IsModelOfDetectsViolations) {
  ParsedProgram program = MustParse(
      "p(X) -> q(X).\n"
      "p(a). p(b). q(a).\n");
  Instance incomplete;
  for (const Atom& fact : program.facts) incomplete.Insert(fact);
  // q(b) missing: not a model.
  EXPECT_FALSE(IsModelOf(incomplete, program.rules));
  ChaseResult result = RunChase(program.rules, ChaseOptions{},
                                program.facts);
  EXPECT_TRUE(IsModelOf(result.instance, program.rules));
}

TEST(ChaseLimitsTest, RestrictedHeadChecksChargeJoinWork) {
  // Restricted runs pay for satisfaction checks in join_work; the
  // (semi-)oblivious twin of the same program performs none, so its
  // join_work must be strictly smaller. This pins the accounting that
  // staged and provenance runs must both report (their equality is
  // pinned by batch_apply_test and the fuzz oracles).
  ParsedProgram program = MustParse(
      "p(X), p(Y) -> q(X,Y).\n"
      "p(a). p(b). p(c).\n");
  ChaseOptions restricted;
  restricted.variant = ChaseVariant::kRestricted;
  ChaseResult with_checks = RunChase(program.rules, restricted,
                                     program.facts);
  ChaseOptions oblivious;
  oblivious.variant = ChaseVariant::kSemiOblivious;
  ChaseResult without = RunChase(program.rules, oblivious, program.facts);
  EXPECT_EQ(with_checks.outcome, ChaseOutcome::kTerminated);
  EXPECT_EQ(without.outcome, ChaseOutcome::kTerminated);
  EXPECT_GT(with_checks.join_work, without.join_work);
}

TEST(ChaseLimitsTest, EmptyDatabaseTerminatesImmediately) {
  ParsedProgram program = MustParse("p(X) -> q(X).\n");
  ChaseResult result =
      RunChase(program.rules, ChaseOptions{}, program.facts);
  EXPECT_EQ(result.outcome, ChaseOutcome::kTerminated);
  EXPECT_EQ(result.instance.size(), 0u);
  EXPECT_EQ(result.rounds, 0u);
}

TEST(ChaseLimitsTest, EmptyRuleSetKeepsDatabase) {
  ParsedProgram program = MustParse("p(a). q(b,c).\n");
  RuleSet empty;
  ChaseResult result = RunChase(empty, ChaseOptions{}, program.facts);
  EXPECT_EQ(result.outcome, ChaseOutcome::kTerminated);
  EXPECT_EQ(result.instance.size(), 2u);
}

TEST(ChaseLimitsTest, StepCapIsExact) {
  ParsedProgram program = MustParse(
      "p(X) -> p(Y).\n"
      "p(a).\n");
  ChaseOptions options;
  options.variant = ChaseVariant::kOblivious;
  options.max_steps = 7;
  ChaseResult result = RunChase(program.rules, options, program.facts);
  EXPECT_EQ(result.outcome, ChaseOutcome::kResourceLimit);
  EXPECT_LE(result.applied_triggers, 7u);
}

}  // namespace
}  // namespace gchase
