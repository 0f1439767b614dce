#include "chase/chase.h"

#include "gtest/gtest.h"
#include "model/parser.h"
#include "storage/query.h"
#include "tests/test_util.h"

namespace gchase {
namespace {

ChaseOptions Options(ChaseVariant variant) {
  ChaseOptions options;
  options.variant = variant;
  options.max_atoms = 10000;
  options.max_steps = 100000;
  return options;
}

TEST(ChaseTest, DatalogTransitiveClosureTerminates) {
  ParsedProgram program = MustParse(
      "e(X,Y), e(Y,Z) -> e(X,Z).\n"
      "e(a,b). e(b,c). e(c,d).\n");
  for (ChaseVariant variant :
       {ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
        ChaseVariant::kRestricted}) {
    ChaseResult result = RunChase(program.rules, Options(variant),
                                  program.facts);
    EXPECT_EQ(result.outcome, ChaseOutcome::kTerminated)
        << ChaseVariantName(variant);
    // Closure of a 4-chain: ab bc cd ac bd ad = 6 atoms.
    EXPECT_EQ(result.instance.size(), 6u) << ChaseVariantName(variant);
    EXPECT_TRUE(IsModelOf(result.instance, program.rules));
  }
}

TEST(ChaseTest, PersonExampleHitsCapForAllVariants) {
  // Paper Example 1: diverges under every chase variant.
  ParsedProgram program = MustParse(
      "person(X) -> hasFather(X,Y), person(Y).\n"
      "person(bob).\n");
  for (ChaseVariant variant :
       {ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
        ChaseVariant::kRestricted}) {
    ChaseOptions options = Options(variant);
    options.max_atoms = 500;
    ChaseResult result = RunChase(program.rules, options, program.facts);
    EXPECT_EQ(result.outcome, ChaseOutcome::kResourceLimit)
        << ChaseVariantName(variant);
  }
}

TEST(ChaseTest, RestrictedChaseSkipsSatisfiedTriggers) {
  // The head is pre-satisfied: restricted adds nothing, (semi-)oblivious
  // create a redundant null.
  ParsedProgram program = MustParse(
      "person(X) -> hasFather(X,Y).\n"
      "person(bob). hasFather(bob,carl).\n");
  ChaseResult restricted =
      RunChase(program.rules, Options(ChaseVariant::kRestricted),
               program.facts);
  EXPECT_EQ(restricted.instance.size(), 2u);
  EXPECT_EQ(restricted.nulls_created, 0u);

  ChaseResult semi =
      RunChase(program.rules, Options(ChaseVariant::kSemiOblivious),
               program.facts);
  EXPECT_EQ(semi.instance.size(), 3u);
  EXPECT_EQ(semi.nulls_created, 1u);
}

TEST(ChaseTest, ObliviousFiresPerFullHomomorphism) {
  // p(X,Y) -> p(X,Z): the oblivious chase fires once per (X,Y) pair, the
  // semi-oblivious once per X.
  ParsedProgram program = MustParse(
      "p(X,Y) -> p(X,Z).\n"
      "p(a,b). p(a,c).\n");
  ChaseOptions oblivious = Options(ChaseVariant::kOblivious);
  oblivious.max_atoms = 50;
  ChaseResult o = RunChase(program.rules, oblivious, program.facts);
  // Every fresh null re-triggers the rule: diverges.
  EXPECT_EQ(o.outcome, ChaseOutcome::kResourceLimit);

  ChaseResult so = RunChase(
      program.rules, Options(ChaseVariant::kSemiOblivious), program.facts);
  EXPECT_EQ(so.outcome, ChaseOutcome::kTerminated);
  // One trigger for X=a (frontier dedup): p(a,b), p(a,c), p(a,z).
  EXPECT_EQ(so.instance.size(), 3u);
  EXPECT_EQ(so.applied_triggers, 1u);
}

TEST(ChaseTest, UniversalModelAnswersQueries) {
  ParsedProgram program = MustParse(
      "person(X) -> hasFather(X,Y), person(Y).\n"
      "person(bob).\n");
  ChaseOptions options = Options(ChaseVariant::kRestricted);
  options.max_atoms = 100;
  ChaseResult result = RunChase(program.rules, options, program.facts);

  Vocabulary& vocab = program.vocabulary;
  StatusOr<ParsedQuery> query = ParseQuery("hasFather(X,Y)", &vocab);
  ASSERT_TRUE(query.ok());
  ConjunctiveQuery cq;
  cq.atoms = query->atoms;
  cq.num_variables = static_cast<uint32_t>(query->variable_names.size());
  cq.answer_variables = {0};
  std::set<AnswerTuple> certain = CertainAnswers(result.instance, cq);
  // The only null-free answer for X is bob.
  ASSERT_EQ(certain.size(), 1u);
  Term bob = Term::Constant(*vocab.constants.Find("bob"));
  EXPECT_EQ((*certain.begin())[0], bob);
}

TEST(ChaseTest, ProvenanceTracksGuardsAndDepth) {
  ParsedProgram program = MustParse(
      "p(X) -> q(X,Y).\n"
      "q(X,Y) -> p(Y).\n"
      "p(a).\n");
  ChaseOptions options = Options(ChaseVariant::kSemiOblivious);
  options.max_atoms = 20;
  options.track_provenance = true;
  ChaseRun run(program.rules, options, program.facts);
  ChaseOutcome outcome = run.Execute();
  EXPECT_EQ(outcome, ChaseOutcome::kResourceLimit);
  ASSERT_EQ(run.provenance().size(), run.instance().size());
  // Database atom: no rule; derived atoms: increasing depth along chain.
  EXPECT_EQ(run.provenance()[0].rule, kNoRule);
  EXPECT_EQ(run.provenance()[0].depth, 0u);
  for (AtomId id = 1; id < run.instance().size(); ++id) {
    const AtomProvenance& prov = run.provenance()[id];
    EXPECT_NE(prov.rule, kNoRule);
    ASSERT_LT(prov.parent, id);
    EXPECT_EQ(prov.depth, run.provenance()[prov.parent].depth + 1);
  }
}

TEST(ChaseTest, ObserverAbortStopsBeforeTheNextTrigger) {
  // One round of three triggers. The observer sees each trigger's new
  // atom before the next trigger fires, so aborting on the first one
  // leaves the other two unapplied, with or without provenance.
  ParsedProgram program = MustParse(
      "p(X) -> q(X).\n"
      "p(a). p(b). p(c).\n");
  const ChaseRun::AtomObserver abort_at_once = [](AtomId) { return false; };
  for (bool provenance : {false, true}) {
    ChaseOptions options = Options(ChaseVariant::kOblivious);
    options.track_provenance = provenance;
    ChaseRun run(program.rules, options, program.facts);
    EXPECT_EQ(run.Execute(abort_at_once), ChaseOutcome::kAborted)
        << "provenance=" << provenance;
    EXPECT_EQ(run.applied_triggers(), 1u) << "provenance=" << provenance;
    EXPECT_EQ(run.instance().size(), 4u) << "provenance=" << provenance;
  }
}

TEST(ChaseTest, ObserverSeesTheAtomThatCrossesTheAtomCap) {
  // The first trigger's two-atom head crosses max_atoms after its first
  // atom. The run stops on the cap at cap + 1 atoms, but only after the
  // trigger's record holds that atom and the observer has seen it; an
  // observer that aborts on it is reported ahead of the cap.
  ParsedProgram program = MustParse(
      "p(X) -> q(X,Y), r(Y).\n"
      "p(a). p(b).\n");
  for (ChaseVariant variant :
       {ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
        ChaseVariant::kRestricted}) {
    ChaseOptions options = Options(variant);
    options.max_atoms = 2;
    options.track_provenance = true;
    std::vector<AtomId> seen;
    const ChaseRun::AtomObserver record = [&seen](AtomId id) {
      seen.push_back(id);
      return true;
    };
    ChaseRun capped(program.rules, options, program.facts);
    EXPECT_EQ(capped.Execute(record), ChaseOutcome::kResourceLimit)
        << ChaseVariantName(variant);
    EXPECT_EQ(capped.instance().size(), 3u) << ChaseVariantName(variant);
    EXPECT_EQ(capped.applied_triggers(), 1u) << ChaseVariantName(variant);
    ASSERT_EQ(capped.triggers().size(), 1u) << ChaseVariantName(variant);
    const TriggerView trigger = capped.triggers()[0];
    EXPECT_EQ(std::vector<AtomId>(trigger.produced.begin(),
                                  trigger.produced.end()),
              std::vector<AtomId>{2})
        << ChaseVariantName(variant);
    EXPECT_EQ(seen, std::vector<AtomId>{2}) << ChaseVariantName(variant);

    const ChaseRun::AtomObserver abort_on_it = [](AtomId id) {
      return id != 2;
    };
    ChaseRun aborted(program.rules, options, program.facts);
    EXPECT_EQ(aborted.Execute(abort_on_it), ChaseOutcome::kAborted)
        << ChaseVariantName(variant);
    EXPECT_EQ(aborted.instance().size(), 3u) << ChaseVariantName(variant);
  }
}

TEST(ChaseTest, ResultContainsDatabase) {
  ParsedProgram program = MustParse(
      "p(X) -> q(X).\n"
      "p(a). p(b). q(c).\n");
  ChaseResult result = RunChase(
      program.rules, Options(ChaseVariant::kRestricted), program.facts);
  EXPECT_EQ(result.outcome, ChaseOutcome::kTerminated);
  for (const Atom& fact : program.facts) {
    EXPECT_TRUE(result.instance.Contains(fact));
  }
  EXPECT_EQ(result.instance.size(), 5u);  // + q(a), q(b)
}

TEST(ChaseTest, FairnessDrivesInterleavedRules) {
  // Two independent generators; fairness means both make progress even
  // under a tight cap. (Oblivious: each fresh null is a fresh trigger.)
  ParsedProgram program = MustParse(
      "p(X) -> p(Y).\n"
      "q(X) -> q(Y).\n"
      "p(a). q(a).\n");
  ChaseOptions options = Options(ChaseVariant::kOblivious);
  options.max_atoms = 30;
  ChaseResult result = RunChase(program.rules, options, program.facts);
  EXPECT_EQ(result.outcome, ChaseOutcome::kResourceLimit);
  uint32_t p_atoms = 0;
  uint32_t q_atoms = 0;
  for (AtomView atom : result.instance.atoms()) {
    if (atom.predicate == 0) ++p_atoms;
    if (atom.predicate == 1) ++q_atoms;
  }
  EXPECT_GT(p_atoms, 5u);
  EXPECT_GT(q_atoms, 5u);
}

}  // namespace
}  // namespace gchase
