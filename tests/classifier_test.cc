#include "termination/classifier.h"

#include "generator/workloads.h"
#include "gtest/gtest.h"
#include "model/printer.h"
#include "tests/test_util.h"

namespace gchase {
namespace {

ClassifierReport Classify(ParsedProgram* program,
                          const ClassifierOptions& options = {}) {
  StatusOr<ClassifierReport> report =
      ClassifyTermination(program->rules, &program->vocabulary, options);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return *report;
}

TEST(ClassifierTest, SimpleLinearUsesSyntacticMethod) {
  ParsedProgram program = MustParse("emp(X,Y) -> dept(Y).\n");
  ClassifierReport report = Classify(&program);
  EXPECT_EQ(report.rule_class, RuleClass::kSimpleLinear);
  EXPECT_NE(report.oblivious.method.find("syntactic"), std::string::npos);
  EXPECT_FALSE(report.oblivious.decider.has_value());
  EXPECT_EQ(report.oblivious.verdict, TerminationVerdict::kTerminating);
}

TEST(ClassifierTest, GuardedUsesDecider) {
  ParsedProgram program = MustParse("e(X,Y), a(X) -> f(Y,Z).\n");
  ClassifierReport report = Classify(&program);
  EXPECT_EQ(report.rule_class, RuleClass::kGuarded);
  EXPECT_NE(report.semi_oblivious.method.find("decider"),
            std::string::npos);
  ASSERT_TRUE(report.semi_oblivious.decider.has_value());
  EXPECT_GT(report.semi_oblivious.decider->chase_atoms, 0u);
}

TEST(ClassifierTest, AcyclicityFlagsAreConsistent) {
  // all_acyclicity_fail_but_terminates: every sufficient condition says
  // no, the exact verdicts say terminating.
  StatusOr<NamedWorkload> workload =
      FindWorkload("all_acyclicity_fail_but_terminates");
  ASSERT_TRUE(workload.ok());
  StatusOr<ParsedProgram> program = LoadWorkload(*workload);
  ASSERT_TRUE(program.ok());
  ClassifierReport report = Classify(&*program);
  EXPECT_FALSE(report.weakly_acyclic);
  EXPECT_FALSE(report.richly_acyclic);
  EXPECT_FALSE(report.jointly_acyclic);
  EXPECT_FALSE(report.mfa);
  EXPECT_EQ(report.oblivious.verdict, TerminationVerdict::kTerminating);
  EXPECT_EQ(report.semi_oblivious.verdict,
            TerminationVerdict::kTerminating);
}

TEST(ClassifierTest, NonTerminationCertificateIsRendered) {
  ParsedProgram program =
      MustParse("e(X,Y), mark(Y) -> e(Y,Z), mark(Z).\n");
  ClassifierReport report = Classify(&program);
  ASSERT_EQ(report.semi_oblivious.verdict,
            TerminationVerdict::kNonTerminating);
  ASSERT_TRUE(report.semi_oblivious.decider.has_value());
  EXPECT_NE(report.semi_oblivious.decider->certificate_text.find("pump"),
            std::string::npos);
  std::string text = ReportToString(report);
  EXPECT_NE(text.find("replayable forever"), std::string::npos);
}

TEST(ClassifierTest, ReportRendering) {
  ParsedProgram program = MustParse("p(X,Y) -> p(Y,Z).\n");
  ClassifierReport report = Classify(&program);
  std::string text = ReportToString(report);
  EXPECT_NE(text.find("rule class:"), std::string::npos);
  EXPECT_NE(text.find("SL"), std::string::npos);
  EXPECT_NE(text.find("non-terminating"), std::string::npos);
  EXPECT_NE(text.find("MFA"), std::string::npos);
}

TEST(ClassifierTest, TimingsAreRecorded) {
  ParsedProgram program = MustParse("e(X,Y), a(X) -> f(Y,Z).\n");
  ClassifierReport report = Classify(&program);
  EXPECT_GE(report.oblivious.seconds, 0.0);
  EXPECT_GE(report.semi_oblivious.seconds, 0.0);
}

TEST(PrinterEgdTest, EgdRoundTrip) {
  ParsedProgram program = MustParse(
      "emp(X,D1), emp(X,D2) -> D1 = D2.\n");
  ASSERT_EQ(program.egds.size(), 1u);
  std::string printed = EgdToString(program.egds[0], program.vocabulary);
  StatusOr<ParsedProgram> reparsed = ParseProgram(printed + "\n");
  ASSERT_TRUE(reparsed.ok()) << printed;
  ASSERT_EQ(reparsed->egds.size(), 1u);
  EXPECT_EQ(EgdToString(reparsed->egds[0], reparsed->vocabulary), printed);
}

}  // namespace
}  // namespace gchase
