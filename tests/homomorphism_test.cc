#include "storage/homomorphism.h"

#include "gtest/gtest.h"
#include "storage/query.h"
#include "tests/test_util.h"

namespace gchase {
namespace {

/// Loads facts into an instance.
Instance MakeInstance(const std::vector<Atom>& facts) {
  Instance instance;
  for (const Atom& atom : facts) instance.Insert(atom);
  return instance;
}

TEST(HomomorphismTest, EnumeratesAllMatches) {
  ParsedProgram program = MustParse(
      "e(a,b). e(b,c). e(c,d). e(b,d).\n");
  Instance instance = MakeInstance(program.facts);
  StatusOr<ParsedQuery> query =
      ParseQuery("e(X,Y), e(Y,Z)", &program.vocabulary);
  ASSERT_TRUE(query.ok());
  HomomorphismFinder finder(instance);
  int count = 0;
  finder.FindAll(query->atoms, 3, [&count](const Binding&) {
    ++count;
    return true;
  });
  // Paths of length 2: a-b-c, a-b-d, b-c-d.
  EXPECT_EQ(count, 3);
}

TEST(HomomorphismTest, RepeatedVariablesConstrain) {
  ParsedProgram program = MustParse("p(a,a). p(a,b).\n");
  Instance instance = MakeInstance(program.facts);
  StatusOr<ParsedQuery> query = ParseQuery("p(X,X)", &program.vocabulary);
  ASSERT_TRUE(query.ok());
  HomomorphismFinder finder(instance);
  std::optional<Binding> match = finder.FindOne(query->atoms, 1);
  ASSERT_TRUE(match.has_value());
  Term a = Term::Constant(*program.vocabulary.constants.Find("a"));
  EXPECT_EQ((*match)[0], a);
}

TEST(HomomorphismTest, ConstantsInPatternMustMatch) {
  ParsedProgram program = MustParse("p(a,b). p(c,b).\n");
  Instance instance = MakeInstance(program.facts);
  StatusOr<ParsedQuery> query = ParseQuery("p(a, Y)", &program.vocabulary);
  ASSERT_TRUE(query.ok());
  HomomorphismFinder finder(instance);
  int count = 0;
  finder.FindAll(query->atoms, 1, [&count](const Binding&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1);
}

TEST(HomomorphismTest, InitialBindingRestricts) {
  ParsedProgram program = MustParse("p(a,b). p(c,d).\n");
  Instance instance = MakeInstance(program.facts);
  StatusOr<ParsedQuery> query = ParseQuery("p(X,Y)", &program.vocabulary);
  ASSERT_TRUE(query.ok());
  HomomorphismFinder finder(instance);
  Term c = Term::Constant(*program.vocabulary.constants.Find("c"));
  Binding initial(2, UnboundTerm());
  initial[0] = c;
  std::optional<Binding> match = finder.FindOne(query->atoms, 2, initial);
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ((*match)[0], c);
  Term d = Term::Constant(*program.vocabulary.constants.Find("d"));
  EXPECT_EQ((*match)[1], d);
}

TEST(HomomorphismTest, EarlyStopViaCallback) {
  ParsedProgram program = MustParse("p(a). p(b). p(c).\n");
  Instance instance = MakeInstance(program.facts);
  StatusOr<ParsedQuery> query = ParseQuery("p(X)", &program.vocabulary);
  ASSERT_TRUE(query.ok());
  HomomorphismFinder finder(instance);
  int count = 0;
  finder.FindAll(query->atoms, 1, [&count](const Binding&) {
    ++count;
    return count < 2;  // stop after the second match
  });
  EXPECT_EQ(count, 2);
}

TEST(QueryTest, AnswersAndCertainAnswers) {
  ParsedProgram program = MustParse("e(a,b).\n");
  Instance instance = MakeInstance(program.facts);
  // Add a null edge: e(b, _:n0).
  Term b = Term::Constant(*program.vocabulary.constants.Find("b"));
  instance.Insert(Atom(0, {b, Term::Null(0)}));

  StatusOr<ParsedQuery> parsed = ParseQuery("e(X,Y)", &program.vocabulary);
  ASSERT_TRUE(parsed.ok());
  ConjunctiveQuery query;
  query.atoms = parsed->atoms;
  query.num_variables = 2;
  query.answer_variables = {1};
  EXPECT_EQ(EvaluateQuery(instance, query).size(), 2u);
  std::set<AnswerTuple> certain = CertainAnswers(instance, query);
  ASSERT_EQ(certain.size(), 1u);
  EXPECT_EQ((*certain.begin())[0], b);
  EXPECT_TRUE(EntailsBooleanQuery(instance, query));
}

TEST(QueryTest, SubstituteAtomAppliesBinding) {
  Atom pattern(3, {Term::Variable(0), Term::Constant(7), Term::Variable(1)});
  Binding binding{Term::Constant(1), Term::Null(2)};
  Atom image = SubstituteAtom(pattern, binding);
  EXPECT_EQ(image.args[0], Term::Constant(1));
  EXPECT_EQ(image.args[1], Term::Constant(7));
  EXPECT_EQ(image.args[2], Term::Null(2));
}

}  // namespace
}  // namespace gchase
