#include "model/tgd.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "gtest/gtest.h"
#include "model/atom.h"
#include "model/schema.h"
#include "model/symbol_table.h"
#include "model/term.h"

namespace gchase {
namespace {

TEST(TermTest, PackedRoundTrip) {
  Term c = Term::Constant(5);
  EXPECT_TRUE(c.IsConstant());
  EXPECT_EQ(c.index(), 5u);
  Term v = Term::Variable(7);
  EXPECT_TRUE(v.IsVariable());
  EXPECT_FALSE(v.IsGround());
  Term n = Term::Null(9);
  EXPECT_TRUE(n.IsNull());
  EXPECT_TRUE(n.IsGround());
  EXPECT_NE(Term::Constant(1), Term::Null(1));
  EXPECT_NE(Term::Constant(1), Term::Variable(1));
}

TEST(TermTest, LargeIndicesSupported) {
  Term t = Term::Null((1u << 30) - 1);
  EXPECT_EQ(t.index(), (1u << 30) - 1);
  EXPECT_TRUE(t.IsNull());
}

TEST(SymbolTableTest, InternDedupsAndFinds) {
  SymbolTable table;
  uint32_t a = table.Intern("alice");
  uint32_t b = table.Intern("bob");
  EXPECT_NE(a, b);
  EXPECT_EQ(table.Intern("alice"), a);
  EXPECT_EQ(table.NameOf(b), "bob");
  EXPECT_EQ(table.Find("carol"), std::nullopt);
  EXPECT_EQ(table.size(), 2u);
}

TEST(SymbolTableTest, InternBatchMatchesSequentialIntern) {
  // Every third index reuses a smaller number: the batch adds and finds.
  std::vector<std::string> names;
  for (int i = 0; i < 1000; ++i) {
    names.push_back("n" + std::to_string(i % 3 == 0 ? i / 3 : i));
  }
  SymbolTable sequential;
  std::vector<uint32_t> expected;
  for (const std::string& name : names) {
    expected.push_back(sequential.Intern(name));
  }

  SymbolTable batched;
  batched.Intern("n5");  // a name interned before the batch keeps id 0
  std::vector<std::string_view> views(names.begin(), names.end());
  std::vector<uint32_t> ids(views.size());
  ASSERT_TRUE(batched.InternBatch(views.data(), ids.data(), views.size()));
  SymbolTable reference;
  reference.Intern("n5");
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(ids[i], reference.Intern(names[i])) << names[i];
  }
  EXPECT_EQ(batched.size(), reference.size());

  // Odd batch sizes straddle the 64-name prefetch chunks.
  SymbolTable chunked;
  std::vector<uint32_t> chunk_ids(views.size());
  for (std::size_t done = 0; done < views.size();) {
    const std::size_t n = std::min<std::size_t>(37, views.size() - done);
    ASSERT_TRUE(
        chunked.InternBatch(views.data() + done, chunk_ids.data() + done, n));
    done += n;
  }
  EXPECT_EQ(chunk_ids, expected);
}

TEST(SymbolTableTest, HundredThousandNamesAcrossRehashes) {
  SymbolTable table;
  constexpr uint32_t kNames = 100000;
  for (uint32_t i = 0; i < kNames; ++i) {
    ASSERT_EQ(table.Intern("c" + std::to_string(i)), i);
  }
  EXPECT_EQ(table.size(), kNames);
  for (uint32_t i = 0; i < kNames; i += 7) {
    EXPECT_EQ(table.NameOf(i), "c" + std::to_string(i));
    EXPECT_EQ(table.Find("c" + std::to_string(i)), i);
    EXPECT_EQ(table.Intern("c" + std::to_string(i)), i);
  }
  EXPECT_EQ(table.size(), kNames);
  // The index doubles at max load 1/2: 2^18 slots hold 100k names.
  EXPECT_GE(table.capacity_bytes(), (uint64_t{1} << 18) * 16);
}

TEST(SymbolTableTest, ShortNamesAndLastByteDifferences) {
  // The hash reads 8-byte words plus a tail: lengths 0-17 cover an empty
  // name, tails of every length and one and two full words.
  const std::string alphabet = "abcdefghijklmnopq";
  SymbolTable table;
  std::vector<uint32_t> ids;
  for (std::size_t length = 0; length <= 17; ++length) {
    ids.push_back(table.Intern(alphabet.substr(0, length)));
  }
  for (std::size_t length = 0; length <= 17; ++length) {
    const std::string name = alphabet.substr(0, length);
    EXPECT_EQ(table.Intern(name), ids[length]) << length;
    EXPECT_EQ(table.NameOf(ids[length]), name);
    EXPECT_EQ(table.NameOf(ids[length]).size(), length);
  }
  EXPECT_EQ(table.size(), 18u);
  EXPECT_EQ(table.name_bytes(), 17u * 18u / 2u);

  // Names equal but for their last byte, at each length.
  for (std::size_t length = 1; length <= 17; ++length) {
    std::string name = alphabet.substr(0, length);
    name.back() = 'Z';
    const uint32_t id = table.Intern(name);
    EXPECT_NE(id, ids[length]) << length;
    EXPECT_EQ(table.NameOf(id), name);
    EXPECT_EQ(table.Find(alphabet.substr(0, length)), ids[length]);
  }
  EXPECT_EQ(table.size(), 35u);
}

TEST(SymbolTableTest, FindOfAnAbsentName) {
  SymbolTable empty;
  EXPECT_EQ(empty.Find("x"), std::nullopt);
  EXPECT_EQ(empty.Find(""), std::nullopt);
  EXPECT_EQ(empty.size(), 0u);

  SymbolTable table;
  table.Intern("alpha");
  table.Intern("");
  EXPECT_EQ(table.Find("alph"), std::nullopt);
  EXPECT_EQ(table.Find("alphaa"), std::nullopt);
  EXPECT_EQ(table.Find(""), 1u);
  EXPECT_EQ(table.size(), 2u);  // Find never interns
}

TEST(SymbolTableTest, CopyInternsIndependentlyOfItsSource) {
  SymbolTable source;
  for (int i = 0; i < 40; ++i) source.Intern("s" + std::to_string(i));
  SymbolTable copy = source;
  // Enough new names that the copy's index and arena both grow.
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(copy.Intern("copy" + std::to_string(i)), 40u + i);
  }
  EXPECT_EQ(source.size(), 40u);
  EXPECT_EQ(source.Find("copy0"), std::nullopt);
  EXPECT_EQ(source.Intern("other"), 40u);
  EXPECT_EQ(copy.NameOf(40), "copy0");
  EXPECT_EQ(source.NameOf(40), "other");
  for (uint32_t i = 0; i < 40; ++i) {
    EXPECT_EQ(copy.NameOf(i), source.NameOf(i));
    EXPECT_EQ(copy.Find(source.NameOf(i)), i);
  }

  // Moving keeps the names; assigning a fresh table empties the target.
  SymbolTable moved = std::move(copy);
  EXPECT_EQ(moved.size(), 240u);
  EXPECT_EQ(moved.NameOf(239), "copy199");
  copy = SymbolTable();
  EXPECT_EQ(copy.Intern("fresh"), 0u);
}

TEST(SymbolTableTest, ReserveGrowsNothingAfterward) {
  SymbolTable table;
  table.Intern("pre");
  table.Reserve(1000, 1000 * 5);
  const uint64_t reserved = table.capacity_bytes();
  for (int i = 0; i < 1000; ++i) {
    table.Intern("r" + std::to_string(1000 + i));
  }
  EXPECT_EQ(table.capacity_bytes(), reserved);
  EXPECT_EQ(table.size(), 1001u);
}

TEST(SchemaTest, ArityAboveLimitIsError) {
  Schema schema;
  EXPECT_FALSE(schema.GetOrAdd("wide", kMaxArity + 1).ok());
  EXPECT_TRUE(schema.GetOrAdd("ok", kMaxArity).ok());
}

TEST(SchemaTest, ArityConflictIsError) {
  Schema schema;
  ASSERT_TRUE(schema.GetOrAdd("p", 2).ok());
  StatusOr<PredicateId> conflict = schema.GetOrAdd("p", 3);
  EXPECT_FALSE(conflict.ok());
  EXPECT_EQ(conflict.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(schema.num_positions(), 2u);
  EXPECT_EQ(schema.max_arity(), 2u);
}

TEST(AtomTest, EqualityAndHashing) {
  Atom a(0, {Term::Constant(1), Term::Null(2)});
  Atom b(0, {Term::Constant(1), Term::Null(2)});
  Atom c(0, {Term::Constant(1), Term::Null(3)});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(HashAtom(a), HashAtom(b));
  EXPECT_TRUE(a.IsGround());
  EXPECT_TRUE(a.HasNull());
}

class TgdTest : public ::testing::Test {
 protected:
  void SetUp() override {
    p2_ = *schema_.GetOrAdd("p", 2);
    q1_ = *schema_.GetOrAdd("q", 1);
    r3_ = *schema_.GetOrAdd("r", 3);
  }
  Schema schema_;
  PredicateId p2_, q1_, r3_;
};

TEST_F(TgdTest, FrontierAndExistentialsComputed) {
  // p(X,Y) -> r(Y,Z,Z)
  StatusOr<Tgd> rule = Tgd::Create(
      {Atom(p2_, {Term::Variable(0), Term::Variable(1)})},
      {Atom(r3_, {Term::Variable(1), Term::Variable(2), Term::Variable(2)})},
      {"X", "Y", "Z"}, schema_);
  ASSERT_TRUE(rule.ok());
  EXPECT_EQ(rule->universal_variables(), (std::vector<VarId>{0, 1}));
  EXPECT_EQ(rule->frontier(), (std::vector<VarId>{1}));
  EXPECT_EQ(rule->existential_variables(), (std::vector<VarId>{2}));
  EXPECT_TRUE(rule->IsLinear());
  EXPECT_TRUE(rule->IsSimpleLinear());
  EXPECT_TRUE(rule->IsGuarded());
  EXPECT_FALSE(rule->IsFull());
}

TEST_F(TgdTest, RepeatedBodyVariableIsNotSimpleLinear) {
  // p(X,X) -> q(X)
  StatusOr<Tgd> rule = Tgd::Create(
      {Atom(p2_, {Term::Variable(0), Term::Variable(0)})},
      {Atom(q1_, {Term::Variable(0)})}, {"X"}, schema_);
  ASSERT_TRUE(rule.ok());
  EXPECT_TRUE(rule->IsLinear());
  EXPECT_FALSE(rule->IsSimpleLinear());
  EXPECT_TRUE(rule->IsFull());
}

TEST_F(TgdTest, GuardDetection) {
  // p(X,Y), q(X) -> q(Y): guard p(X,Y).
  StatusOr<Tgd> guarded = Tgd::Create(
      {Atom(p2_, {Term::Variable(0), Term::Variable(1)}),
       Atom(q1_, {Term::Variable(0)})},
      {Atom(q1_, {Term::Variable(1)})}, {"X", "Y"}, schema_);
  ASSERT_TRUE(guarded.ok());
  ASSERT_TRUE(guarded->guard_index().has_value());
  EXPECT_EQ(*guarded->guard_index(), 0u);

  // p(X,Y), p(Y,Z) -> q(X): no guard.
  StatusOr<Tgd> unguarded = Tgd::Create(
      {Atom(p2_, {Term::Variable(0), Term::Variable(1)}),
       Atom(p2_, {Term::Variable(1), Term::Variable(2)})},
      {Atom(q1_, {Term::Variable(0)})}, {"X", "Y", "Z"}, schema_);
  ASSERT_TRUE(unguarded.ok());
  EXPECT_FALSE(unguarded->IsGuarded());
  EXPECT_FALSE(unguarded->IsLinear());
}

TEST_F(TgdTest, EmptyBodyOrHeadRejected) {
  EXPECT_FALSE(
      Tgd::Create({}, {Atom(q1_, {Term::Variable(0)})}, {"X"}, schema_).ok());
  EXPECT_FALSE(
      Tgd::Create({Atom(q1_, {Term::Variable(0)})}, {}, {"X"}, schema_).ok());
}

TEST_F(TgdTest, ArityMismatchRejected) {
  StatusOr<Tgd> rule = Tgd::Create(
      {Atom(p2_, {Term::Variable(0)})},  // p used with arity 1
      {Atom(q1_, {Term::Variable(0)})}, {"X"}, schema_);
  EXPECT_FALSE(rule.ok());
}

TEST_F(TgdTest, NullsInRuleRejected) {
  StatusOr<Tgd> rule = Tgd::Create(
      {Atom(q1_, {Term::Null(0)})}, {Atom(q1_, {Term::Variable(0)})}, {"X"},
      schema_);
  EXPECT_FALSE(rule.ok());
}

TEST_F(TgdTest, RuleSetClassification) {
  RuleSet set;
  // Simple linear rule.
  set.Add(*Tgd::Create({Atom(p2_, {Term::Variable(0), Term::Variable(1)})},
                       {Atom(q1_, {Term::Variable(0)})}, {"X", "Y"},
                       schema_));
  EXPECT_EQ(set.Classify(), RuleClass::kSimpleLinear);
  // Add a linear (repeated var) rule: class drops to L.
  set.Add(*Tgd::Create({Atom(p2_, {Term::Variable(0), Term::Variable(0)})},
                       {Atom(q1_, {Term::Variable(0)})}, {"X"}, schema_));
  EXPECT_EQ(set.Classify(), RuleClass::kLinear);
  // Add a guarded two-atom rule: class drops to G.
  set.Add(*Tgd::Create({Atom(p2_, {Term::Variable(0), Term::Variable(1)}),
                        Atom(q1_, {Term::Variable(0)})},
                       {Atom(q1_, {Term::Variable(1)})}, {"X", "Y"},
                       schema_));
  EXPECT_EQ(set.Classify(), RuleClass::kGuarded);
  EXPECT_TRUE(set.IsGuarded());
  // Add an unguarded rule: general.
  set.Add(*Tgd::Create({Atom(p2_, {Term::Variable(0), Term::Variable(1)}),
                        Atom(p2_, {Term::Variable(1), Term::Variable(2)})},
                       {Atom(q1_, {Term::Variable(0)})}, {"X", "Y", "Z"},
                       schema_));
  EXPECT_EQ(set.Classify(), RuleClass::kGeneral);
  EXPECT_FALSE(set.IsGuarded());
}

}  // namespace
}  // namespace gchase
