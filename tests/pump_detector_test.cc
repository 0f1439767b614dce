#include "termination/pump_detector.h"

#include "gtest/gtest.h"
#include "termination/critical_instance.h"
#include "tests/test_util.h"

namespace gchase {
namespace {

/// Runs the chase of the critical instance with a detector attached and
/// returns the first certificate, if any.
std::optional<PumpCertificate> Detect(ParsedProgram* program,
                                      ChaseVariant variant,
                                      uint64_t max_atoms = 5000) {
  ChaseOptions options;
  options.variant = variant;
  options.max_atoms = max_atoms;
  options.track_provenance = true;
  std::vector<Atom> database =
      BuildCriticalInstance(program->rules, &program->vocabulary);
  ChaseRun run(program->rules, options, database);
  PumpDetector detector(run);
  std::optional<PumpCertificate> certificate;
  run.Execute([&](AtomId atom) {
    certificate = detector.OnAtom(atom);
    return !certificate.has_value();
  });
  return certificate;
}

TEST(PumpDetectorTest, CertificateOnSuccessorRule) {
  ParsedProgram program = MustParse("p(X,Y) -> p(Y,Z).\n");
  std::optional<PumpCertificate> certificate =
      Detect(&program, ChaseVariant::kSemiOblivious);
  ASSERT_TRUE(certificate.has_value());
  // The pump replays the single rule.
  ASSERT_EQ(certificate->segment_rules.size(), 1u);
  EXPECT_EQ(certificate->segment_rules[0], 0u);
  EXPECT_NE(certificate->ancestor, certificate->descendant);
}

TEST(PumpDetectorTest, MultiRuleSegment) {
  ParsedProgram program = MustParse(
      "p(X) -> q(X,Y).\n"
      "q(X,Y) -> p(Y).\n");
  std::optional<PumpCertificate> certificate =
      Detect(&program, ChaseVariant::kSemiOblivious);
  ASSERT_TRUE(certificate.has_value());
  // The pump cycles through both rules.
  EXPECT_EQ(certificate->segment_rules.size(), 2u);
}

TEST(PumpDetectorTest, NoCertificateOnTerminatingSets) {
  for (const char* text :
       {"emp(X,Y) -> dept(Y).\ndept(X) -> mgr(X,Y).\n",
        "p(X,Y) -> q(Y,Z).\nq(X,X) -> p(X,X).\n",
        "e(X,Y), root(Y) -> e(Y,Z).\n"}) {
    ParsedProgram program = MustParse(text);
    EXPECT_FALSE(
        Detect(&program, ChaseVariant::kSemiOblivious).has_value())
        << text;
    EXPECT_FALSE(Detect(&program, ChaseVariant::kOblivious).has_value())
        << text;
  }
}

TEST(PumpDetectorTest, VariantAwareKeys) {
  // p(X,Y) -> p(X,Z): the replayed trigger's semi-oblivious key is
  // phi-fixed (frontier {X} maps to the critical constant), so the pump
  // is rejected for so but accepted for o.
  ParsedProgram program = MustParse("p(X,Y) -> p(X,Z).\n");
  EXPECT_FALSE(
      Detect(&program, ChaseVariant::kSemiOblivious).has_value());
  EXPECT_TRUE(Detect(&program, ChaseVariant::kOblivious).has_value());
}

TEST(PumpDetectorTest, SideAtomsBlockUnsoundPumps) {
  // e(X,Y), mark(Y) -> e(Y,Z): without mark(Z) in the head, the segment
  // is not replayable (mark is never derived for nulls); with it, it is.
  ParsedProgram blocked = MustParse("e(X,Y), mark(Y) -> e(Y,Z).\n");
  EXPECT_FALSE(
      Detect(&blocked, ChaseVariant::kSemiOblivious).has_value());

  ParsedProgram pumped =
      MustParse("e(X,Y), mark(Y) -> e(Y,Z), mark(Z).\n");
  EXPECT_TRUE(Detect(&pumped, ChaseVariant::kSemiOblivious).has_value());
}

TEST(PumpDetectorTest, FindsPumpsWhereTheGuardGraphIsCyclicInPart) {
  // Guard-predicate graph: start -> p, p -> q, p -> mark, q -> p,
  // q -> out. Only p and q lie on a cycle, so the detector skips every
  // start, mark and out atom, and must still find the pump through p and
  // q. Rule 1's guard is its second body atom: a graph drawn from the
  // first (mark -> q) would leave p and q on no cycle and miss the pump.
  ParsedProgram program = MustParse(
      "start(X) -> p(X,Y).\n"
      "mark(Y), p(X,Y) -> q(Y,Z), mark(Z).\n"
      "q(X,Y) -> p(X,Y), out(Y).\n");
  ASSERT_EQ(program.rules.rule(1).guard_index(), 1u);
  const PredicateId p = *program.vocabulary.schema.Find("p");
  const PredicateId q = *program.vocabulary.schema.Find("q");
  for (ChaseVariant variant :
       {ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious}) {
    ChaseOptions options;
    options.variant = variant;
    options.max_atoms = 5000;
    options.track_provenance = true;
    std::vector<Atom> database =
        BuildCriticalInstance(program.rules, &program.vocabulary);
    ChaseRun run(program.rules, options, database);
    PumpDetector detector(run);
    std::optional<PumpCertificate> certificate;
    EXPECT_EQ(run.Execute([&](AtomId atom) {
                certificate = detector.OnAtom(atom);
                return !certificate.has_value();
              }),
              ChaseOutcome::kAborted)
        << ChaseVariantName(variant);
    ASSERT_TRUE(certificate.has_value()) << ChaseVariantName(variant);
    const PredicateId pumped =
        run.instance().atom(certificate->descendant).predicate;
    EXPECT_TRUE(pumped == p || pumped == q) << ChaseVariantName(variant);
    EXPECT_EQ(run.instance().atom(certificate->ancestor).predicate, pumped)
        << ChaseVariantName(variant);
  }
}

TEST(PumpDetectorTest, CountsReplayAttempts) {
  ParsedProgram program = MustParse("p(X,Y) -> p(Y,Z).\n");
  ChaseOptions options;
  options.variant = ChaseVariant::kSemiOblivious;
  options.max_atoms = 100;
  options.track_provenance = true;
  std::vector<Atom> database =
      BuildCriticalInstance(program.rules, &program.vocabulary);
  ChaseRun run(program.rules, options, database);
  PumpDetector detector(run);
  run.Execute([&](AtomId atom) {
    return !detector.OnAtom(atom).has_value();
  });
  EXPECT_GE(detector.replays_attempted(), 1u);
}

TEST(PumpDetectorTest, RequiresProvenance) {
  ParsedProgram program = MustParse("p(X,Y) -> p(Y,Z).\n");
  ChaseOptions options;
  options.variant = ChaseVariant::kSemiOblivious;
  options.max_atoms = 10;
  options.track_provenance = false;  // misconfigured on purpose
  std::vector<Atom> database =
      BuildCriticalInstance(program.rules, &program.vocabulary);
  ChaseRun run(program.rules, options, database);
  PumpDetector detector(run);
  EXPECT_DEATH(
      run.Execute([&](AtomId atom) {
        detector.OnAtom(atom);
        return true;
      }),
      "provenance");
}

}  // namespace
}  // namespace gchase
