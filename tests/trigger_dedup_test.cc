// Tests of trigger deduplication: the per-rule TriggerKeyTable on its
// own, and the discovery merge that feeds it, pinned on a star-shaped
// workload to the serial plans-off run across every variant, trigger
// order, thread count and join-plan setting.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "chase/chase.h"
#include "chase/trigger_key_table.h"
#include "generator/fact_emitter.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace gchase {
namespace {

// --- TriggerKeyTable ------------------------------------------------------

/// A binding row of `width` constants c_{base}, c_{base+1}, ...
std::vector<Term> Row(uint32_t width, uint32_t base) {
  std::vector<Term> row;
  for (uint32_t i = 0; i < width; ++i) row.push_back(Term::Constant(base + i));
  return row;
}

TEST(TriggerKeyTableTest, WidthZeroHoldsExactlyOneKey) {
  TriggerKeyTable table({});
  EXPECT_EQ(table.width(), 0u);
  const std::vector<Term> a = Row(2, 0);
  const std::vector<Term> b = Row(2, 100);
  EXPECT_FALSE(table.ContainsRow(a.data()));
  EXPECT_TRUE(table.InsertRow(a.data()));
  EXPECT_FALSE(table.InsertRow(b.data()));  // every row has the empty key
  EXPECT_TRUE(table.ContainsRow(b.data()));
  EXPECT_EQ(table.size(), 1u);
}

TEST(TriggerKeyTableTest, WidthZeroRuleFiresOnceSemiObliviously) {
  // p(X) -> q(Y) has an empty frontier: under the semi-oblivious and
  // restricted chase every body homomorphism shares one trigger key.
  ParsedProgram program = MustParse("p(X) -> q(Y).\np(a).\np(b).\np(c).\n");
  for (ChaseVariant variant :
       {ChaseVariant::kSemiOblivious, ChaseVariant::kRestricted}) {
    ChaseOptions options;
    options.variant = variant;
    ChaseResult result = RunChase(program.rules, options, program.facts);
    EXPECT_EQ(result.outcome, ChaseOutcome::kTerminated);
    EXPECT_EQ(result.stats.per_rule[0].discovered, 1u);
    EXPECT_EQ(result.applied_triggers, 1u);
    EXPECT_EQ(result.nulls_created, 1u);
    EXPECT_EQ(result.stats.peak_dedup_keys, 1u);
  }
  // The oblivious key is X itself: one trigger per fact.
  ChaseOptions options;
  options.variant = ChaseVariant::kOblivious;
  ChaseResult result = RunChase(program.rules, options, program.facts);
  EXPECT_EQ(result.applied_triggers, 3u);
  EXPECT_EQ(result.stats.peak_dedup_keys, 3u);
}

TEST(TriggerKeyTableTest, WidthsOneTwoAndWideProjectTheirVariables) {
  // Width 1 keys on slot 2 of a 3-slot row; width 2 on slots (1, 0), in
  // that order; the wide key covers 12 slots.
  TriggerKeyTable one({2});
  TriggerKeyTable two({1, 0});
  std::vector<VarId> wide_vars;
  for (VarId v = 0; v < 12; ++v) wide_vars.push_back(v);
  TriggerKeyTable wide(wide_vars);
  EXPECT_EQ(one.width(), 1u);
  EXPECT_EQ(two.width(), 2u);
  EXPECT_EQ(wide.width(), 12u);

  std::vector<Term> row = Row(12, 0);
  EXPECT_TRUE(one.InsertRow(row.data()));
  EXPECT_TRUE(two.InsertRow(row.data()));
  EXPECT_TRUE(wide.InsertRow(row.data()));

  // Changing a slot outside the key leaves the key unchanged.
  std::vector<Term> other = row;
  other[5] = Term::Null(7);
  EXPECT_FALSE(one.InsertRow(other.data()));
  EXPECT_FALSE(two.InsertRow(other.data()));
  EXPECT_TRUE(one.SameKey(row.data(), other.data()));
  EXPECT_TRUE(wide.InsertRow(other.data()));
  EXPECT_FALSE(wide.SameKey(row.data(), other.data()));

  // Swapping the two key slots is a different width-2 key.
  std::vector<Term> swapped = row;
  std::swap(swapped[0], swapped[1]);
  EXPECT_TRUE(two.InsertRow(swapped.data()));
  EXPECT_FALSE(one.InsertRow(swapped.data()));
  EXPECT_EQ(one.size(), 1u);
  EXPECT_EQ(two.size(), 2u);
  EXPECT_EQ(wide.size(), 2u);

  // Constants, nulls and variables with the same index are different
  // words.
  TriggerKeyTable kinds({0});
  for (Term t : {Term::Constant(3), Term::Null(3), Term::Variable(3)}) {
    EXPECT_TRUE(kinds.InsertRow(&t));
    EXPECT_TRUE(kinds.ContainsRow(&t));
  }
  EXPECT_EQ(kinds.size(), 3u);
}

TEST(TriggerKeyTableTest, GrowsAcrossRehashesWithoutLosingKeys) {
  TriggerKeyTable table({0, 1});
  constexpr uint32_t kKeys = 100000;
  std::size_t last_capacity = 0;
  uint32_t rehashes = 0;
  for (uint32_t i = 0; i < kKeys; ++i) {
    const std::vector<Term> row = {Term::Constant(i / 7), Term::Null(i % 7)};
    ASSERT_TRUE(table.InsertRow(row.data())) << i;
    if (table.capacity_slots() != last_capacity) {
      ++rehashes;
      last_capacity = table.capacity_slots();
    }
    // Max load 1/2, power-of-two capacity.
    ASSERT_LE(table.size() * 2, table.capacity_slots());
    ASSERT_EQ(table.capacity_slots() & (table.capacity_slots() - 1), 0u);
  }
  EXPECT_GT(rehashes, 10u);
  EXPECT_EQ(table.size(), kKeys);
  for (uint32_t i = 0; i < kKeys; ++i) {
    const std::vector<Term> row = {Term::Constant(i / 7), Term::Null(i % 7)};
    ASSERT_TRUE(table.ContainsRow(row.data())) << i;
    ASSERT_FALSE(table.InsertRow(row.data())) << i;
    const std::vector<Term> absent = {Term::Constant(i / 7), Term::Null(7)};
    ASSERT_FALSE(table.ContainsRow(absent.data())) << i;
  }
  EXPECT_EQ(table.size(), kKeys);
}

TEST(TriggerKeyTableTest, KeysDifferingOnlyInTheLastWordStayDistinct) {
  std::vector<VarId> vars;
  for (VarId v = 0; v < 6; ++v) vars.push_back(v);
  TriggerKeyTable table(vars);
  std::vector<Term> row = Row(6, 40);
  constexpr uint32_t kKeys = 5000;
  for (uint32_t last = 0; last < kKeys; ++last) {
    row[5] = Term::Constant(last);
    ASSERT_TRUE(table.InsertRow(row.data())) << last;
  }
  for (uint32_t last = 0; last < kKeys; ++last) {
    row[5] = Term::Constant(last);
    ASSERT_FALSE(table.InsertRow(row.data())) << last;
  }
  row[5] = Term::Constant(kKeys);
  EXPECT_FALSE(table.ContainsRow(row.data()));
  EXPECT_EQ(table.size(), kKeys);
}

// --- the merged discovery engine on a star --------------------------------

/// The benchmark star workload's rules beyond BoundedFactRules().
constexpr char kStarExistentialRules[] =
    "reach(Y) -> tag(Y,Z).\n"
    "tag(Y,Z) -> labelled(Z).\n"
    "edge(X,Y) -> link(X,W).\n";

/// The benchmark's star workload at 8,192 rows: the emitter's star facts,
/// BoundedFactRules() and the three existential rules.
const ParsedProgram& StarProgram() {
  static const ParsedProgram* const program = [] {
    // ctest runs each test case in its own process, concurrently: the
    // fact file needs a per-process name.
    const std::string path = ::testing::TempDir() + "/trigger_dedup_star_" +
                             std::to_string(getpid()) + ".dlgp";
    FactEmitterOptions emit;
    emit.profile = FactProfile::kStar;
    emit.num_atoms = 8192;
    emit.seed = 3;
    emit.format = FactFileFormat::kDlgp;
    GCHASE_CHECK(EmitFactFile(emit, path).ok());
    std::string text = BoundedFactRules() + kStarExistentialRules;
    std::FILE* file = std::fopen(path.c_str(), "rb");
    GCHASE_CHECK(file != nullptr);
    char buffer[1 << 16];
    std::size_t got;
    while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
      text.append(buffer, got);
    }
    std::fclose(file);
    std::remove(path.c_str());
    return new ParsedProgram(MustParse(text));
  }();
  return *program;
}

struct StarRun {
  ChaseOutcome outcome = ChaseOutcome::kTerminated;
  std::vector<Atom> atoms;
  ChaseStats stats;
  uint64_t applied = 0;
  uint64_t nulls = 0;
  uint64_t hom_discoveries = 0;
  uint64_t join_work = 0;
};

StarRun RunStar(ChaseVariant variant, TriggerOrder order, uint32_t threads,
                bool join_plans) {
  const ParsedProgram& program = StarProgram();
  ChaseOptions options;
  options.variant = variant;
  options.order = order;
  options.order_seed = 11;
  options.discovery_threads = threads;
  options.join_plans = join_plans;
  // Every round large enough to matter runs on the pool.
  options.parallel_cutover_work = 0;
  ChaseRun run(program.rules, options, program.facts);
  StarRun result;
  result.outcome = run.Execute();
  result.atoms = run.instance().MaterializeAtoms();
  result.stats = run.stats();
  result.applied = run.applied_triggers();
  result.nulls = run.nulls_created();
  result.hom_discoveries = run.hom_discoveries();
  result.join_work = run.join_work();
  return result;
}

class MergedDiscoveryTest : public ::testing::TestWithParam<ChaseVariant> {};

TEST_P(MergedDiscoveryTest, StarMatchesSerialPlansOffRun) {
  const ChaseVariant variant = GetParam();
  for (TriggerOrder order : {TriggerOrder::kFifo, TriggerOrder::kDatalogFirst,
                             TriggerOrder::kRandom}) {
    const StarRun reference = RunStar(variant, order, 1, false);
    ASSERT_EQ(reference.outcome, ChaseOutcome::kTerminated);
    ASSERT_GT(reference.nulls, 0u);
    for (uint32_t threads : {1u, 2u, 4u}) {
      for (bool join_plans : {false, true}) {
        std::string context = ChaseVariantName(variant);
        context += " order " + std::to_string(static_cast<int>(order));
        context += " threads " + std::to_string(threads);
        context += join_plans ? " plans" : " no-plans";
        const StarRun run = RunStar(variant, order, threads, join_plans);
        EXPECT_EQ(run.outcome, reference.outcome) << context;
        EXPECT_EQ(run.applied, reference.applied) << context;
        EXPECT_EQ(run.nulls, reference.nulls) << context;
        EXPECT_EQ(run.hom_discoveries, reference.hom_discoveries) << context;
        EXPECT_EQ(run.join_work, reference.join_work) << context;
        EXPECT_EQ(run.stats.peak_dedup_keys, reference.stats.peak_dedup_keys)
            << context;
        ASSERT_EQ(run.stats.per_rule.size(), reference.stats.per_rule.size());
        for (std::size_t r = 0; r < run.stats.per_rule.size(); ++r) {
          EXPECT_EQ(run.stats.per_rule[r].discovered,
                    reference.stats.per_rule[r].discovered)
              << context << " rule " << r;
          EXPECT_EQ(run.stats.per_rule[r].applied,
                    reference.stats.per_rule[r].applied)
              << context << " rule " << r;
          EXPECT_EQ(run.stats.per_rule[r].skipped_satisfied,
                    reference.stats.per_rule[r].skipped_satisfied)
              << context << " rule " << r;
        }
        ASSERT_EQ(run.atoms.size(), reference.atoms.size()) << context;
        for (std::size_t i = 0; i < run.atoms.size(); ++i) {
          ASSERT_TRUE(run.atoms[i] == reference.atoms[i])
              << context << " atom " << i;
        }
        // The parallel rounds really ran the unit engine: with plans off,
        // every one of their units on the backtracking path.
        if (threads > 1) {
          EXPECT_GT(run.stats.parallel_rounds, 0u) << context;
          for (const RoundStats& round : run.stats.per_round) {
            if (!round.parallel_discovery || join_plans) continue;
            EXPECT_EQ(round.plan_units, 0u) << context;
            EXPECT_GT(round.fallback_units, 0u) << context;
          }
        }
      }
    }
  }
}

std::string VariantTestName(
    const ::testing::TestParamInfo<ChaseVariant>& info) {
  switch (info.param) {
    case ChaseVariant::kOblivious:
      return "Oblivious";
    case ChaseVariant::kSemiOblivious:
      return "SemiOblivious";
    case ChaseVariant::kRestricted:
      break;
  }
  return "Restricted";
}

INSTANTIATE_TEST_SUITE_P(Variants, MergedDiscoveryTest,
                         ::testing::Values(ChaseVariant::kOblivious,
                                           ChaseVariant::kSemiOblivious,
                                           ChaseVariant::kRestricted),
                         VariantTestName);

}  // namespace
}  // namespace gchase
