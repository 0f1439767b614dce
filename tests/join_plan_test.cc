// Tests for trigger discovery's engine (the discovery unit of
// storage/homomorphism.{h,cc} and the unit merge in chase/chase.cc): the
// walk's conjunct choice, range clipping and join-work charge, its rows
// against a brute-force enumeration, BindingSegment budget mechanics,
// bit-identity of one discovery thread against four across the variant x
// order grid, discovery-cap sweeps and fault-injection abort points, and
// counters recorded from the engines the walk replaced.

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "base/memory_budget.h"
#include "chase/chase.h"
#include "generator/random_rules.h"
#include "gtest/gtest.h"
#include "storage/homomorphism.h"
#include "storage/instance.h"
#include "termination/critical_instance.h"
#include "tests/test_util.h"

namespace gchase {
namespace {

constexpr uint64_t kUnlimited = std::numeric_limits<uint64_t>::max();

Instance MakeInstance(const std::vector<Atom>& facts) {
  Instance instance;
  for (const Atom& atom : facts) instance.Insert(atom);
  return instance;
}

/// Runs unit (`rule`, `pivot`) over `instance` under a join budget and a
/// row cap.
HomSearchStatus RunUnit(const Tgd& rule, const Instance& instance,
                        uint32_t pivot, AtomId watermark, BindingSegment* out,
                        uint64_t budget = kUnlimited,
                        uint64_t row_cap = kUnlimited) {
  HomSearchOptions options;
  options.max_candidate_visits = budget;
  return HomomorphismFinder(instance).FindUnit(
      rule.body(), rule.num_variables(), pivot, watermark, options, row_cap,
      out);
}

/// Runs unit (rule 0, `pivot`) of `program` over `instance`, uncapped.
HomSearchStatus RunUnit(const ParsedProgram& program, const Instance& instance,
                        uint32_t pivot, AtomId watermark, BindingSegment* out) {
  return RunUnit(program.rules.rule(0), instance, pivot, watermark, out);
}

Term Constant(const ParsedProgram& program, const char* name) {
  return Term::Constant(*program.vocabulary.constants.Find(name));
}

// -------------------------------------------------------------------------
// The walk's choices and charges.

TEST(JoinPlanTest, ConstantsBecomeChecksAndProbeSites) {
  ParsedProgram program = MustParse(
      "p(c,X) -> q(X).\n"
      "p(c,a). p(d,b). p(c,e). p(d,f). p(d,g).\n");
  const Instance instance = MakeInstance(program.facts);
  BindingSegment out;
  const HomSearchStatus status =
      RunUnit(program, instance, 0, /*watermark=*/0, &out);
  // Only the two p(c,_) atoms match, and the scan reads the (p, 0, c)
  // list instead of all five p atoms.
  ASSERT_EQ(out.rows(), 2u);
  EXPECT_EQ(out.row(0)[0], Constant(program, "a"));
  EXPECT_EQ(out.row(1)[0], Constant(program, "e"));
  EXPECT_EQ(status.charge, 2u);
}

TEST(JoinPlanTest, RepeatedVariableChecksWithoutProbing) {
  // The second X checks the first, but X is unbound when the conjunct is
  // chosen, so neither position is a probe site: the scan reads all of e.
  ParsedProgram program = MustParse(
      "e(X,X) -> q(X).\n"
      "e(a,b). e(b,b). e(c,a). e(d,d).\n");
  const Instance instance = MakeInstance(program.facts);
  BindingSegment out;
  const HomSearchStatus status =
      RunUnit(program, instance, 0, /*watermark=*/0, &out);
  ASSERT_EQ(out.rows(), 2u);
  EXPECT_EQ(out.row(0)[0], Constant(program, "b"));
  EXPECT_EQ(out.row(1)[0], Constant(program, "d"));
  EXPECT_EQ(status.charge, 4u);
}

TEST(JoinPlanTest, ChooseFirstConjunctPrefersSmallerRelation) {
  ParsedProgram program = MustParse(
      "big(X,Y), small(Y,Z) -> out(X,Z).\n"
      "big(a,b). big(b,c). big(c,d). small(d,e).\n");
  const Instance instance = MakeInstance(program.facts);
  BindingSegment out;
  const HomSearchStatus status =
      RunUnit(program, instance, 0, /*watermark=*/0, &out);
  ASSERT_EQ(out.rows(), 1u);
  // small first: its one atom, then the one big atom with Y = d. Starting
  // from big would have counted its three atoms first.
  EXPECT_EQ(status.charge, 2u);
}

TEST(JoinPlanTest, ChooseFirstConjunctTiesToLowerIndex) {
  ParsedProgram program = MustParse(
      "p(X,Y), q(Y,Z) -> out(X,Z).\n"
      "p(a,b). p(x,y). q(y,w). q(b,c).\n");
  const Instance instance = MakeInstance(program.facts);
  BindingSegment out;
  RunUnit(program, instance, 0, /*watermark=*/0, &out);
  // Both lists hold two atoms: the tie goes to p, whose id order puts the
  // X = a row first (q's would put X = x first).
  ASSERT_EQ(out.rows(), 2u);
  EXPECT_EQ(out.row(0)[0], Constant(program, "a"));
  EXPECT_EQ(out.row(1)[0], Constant(program, "x"));
}

TEST(PlanExecutorTest, DeltaModeRequiresNewAtoms) {
  ParsedProgram program = MustParse(
      "e(X,Y) -> q(X).\n"
      "e(a,b). e(b,c).\n");
  const Instance instance = MakeInstance(program.facts);
  BindingSegment out;
  // Atom 0 is old and atom 1 delta: the delta-only pivot matches atom 1,
  // and the old atom ahead of it still counts.
  const HomSearchStatus status =
      RunUnit(program, instance, 0, /*watermark=*/1, &out);
  ASSERT_EQ(out.rows(), 1u);
  EXPECT_EQ(out.row(0)[0], Constant(program, "b"));
  EXPECT_EQ(status.charge, 2u);
}

TEST(PlanExecutorTest, EnumeratesInIdLexOrderWithDeltaPivot) {
  ParsedProgram program = MustParse(
      "e(X,Y), e(Y,Z) -> e(X,Z).\n"
      "e(a,b). e(b,c). e(c,d).\n");
  const Instance instance = MakeInstance(program.facts);
  BindingSegment out;
  // Watermark 0: everything is delta. Pivot 0 enumerates both chain joins
  // (a,b,c) and (b,c,d) in id order.
  HomSearchStatus status =
      RunUnit(program, instance, 0, /*watermark=*/0, &out);
  EXPECT_FALSE(status.budget_exhausted);
  ASSERT_EQ(out.rows(), 2u);
  EXPECT_EQ(out.row(0)[0], instance.atom(0).args[0]);
  EXPECT_EQ(out.row(1)[0], instance.atom(1).args[0]);

  // Pivot 1 with the watermark past the whole instance: an empty delta
  // and no rows, but the old atoms of the lists the walk picks still
  // count, as they do in an unranged walk.
  status = RunUnit(program, instance, 1, /*watermark=*/instance.size(), &out);
  EXPECT_EQ(out.rows(), 0u);
  EXPECT_GT(status.charge, 0u);
}

/// Every homomorphism of `body` into `instance` that extends `binding`,
/// by brute force: every tuple of atoms, one per conjunct with the
/// conjunct's predicate, that unifies with the body left to right. It
/// shares no code with the walk: no index, no conjunct order, no trail.
void BruteForce(const Instance& instance, const std::vector<Atom>& body,
                std::size_t conjunct, const Binding& binding,
                std::vector<Binding>* out) {
  if (conjunct == body.size()) {
    out->push_back(binding);
    return;
  }
  const Atom& pattern = body[conjunct];
  for (AtomId id = 0; id < instance.size(); ++id) {
    const AtomView fact = instance.atom(id);
    if (fact.predicate != pattern.predicate) continue;
    Binding next = binding;
    bool unifies = true;
    for (uint32_t pos = 0; pos < pattern.arity() && unifies; ++pos) {
      const Term t = pattern.args[pos];
      if (!t.IsVariable()) {
        unifies = t == fact.args[pos];
      } else if (IsBound(next[t.index()])) {
        unifies = next[t.index()] == fact.args[pos];
      } else {
        next[t.index()] = fact.args[pos];
      }
    }
    if (unifies) BruteForce(instance, body, conjunct + 1, next, out);
  }
}

/// Rows as a sorted multiset of raw term tuples.
std::vector<std::vector<uint32_t>> Multiset(const std::vector<Binding>& rows) {
  std::vector<std::vector<uint32_t>> raws;
  for (const Binding& row : rows) {
    std::vector<uint32_t> raw;
    for (Term t : row) raw.push_back(t.raw());
    raws.push_back(std::move(raw));
  }
  std::sort(raws.begin(), raws.end());
  return raws;
}

std::vector<Binding> Rows(const BindingSegment& segment) {
  std::vector<Binding> rows;
  for (uint64_t i = 0; i < segment.rows(); ++i) {
    rows.emplace_back(segment.row(i), segment.row(i) + segment.width());
  }
  return rows;
}

TEST(PlanExecutorTest, MatchesTheSearchOnWideBodies) {
  // With watermark 0 every conjunct after the pivot-0 delta is in range,
  // so unit (rule, 0) enumerates every homomorphism of the body: exactly
  // the brute-force ones, each once. A row cap keeps a prefix of those
  // rows, and a join budget below the uncapped charge stops the walk
  // with the charge one past it.
  ParsedProgram program = MustParse(
      "e(X,Y), e(Y,Z), f(Z,W), s(W) -> p(X,W).\n"
      "e(X,Y), f(Y,Z), e(Z,X) -> p(X,Z).\n"
      "e(n0,n1). e(n1,n2). e(n2,n3). e(n3,n1). e(n2,n0). e(n1,n0).\n"
      "f(n1,n2). f(n3,n0). f(n2,n2). f(n0,n1). s(n2). s(n0).\n");
  const Instance instance = MakeInstance(program.facts);
  for (uint32_t r = 0; r < program.rules.size(); ++r) {
    const Tgd& rule = program.rules.rule(r);
    const Binding unbound(rule.num_variables(), UnboundTerm());
    std::vector<Binding> expected;
    BruteForce(instance, rule.body(), 0, unbound, &expected);
    BindingSegment segment;
    const HomSearchStatus full = RunUnit(rule, instance, 0, 0, &segment);
    const std::vector<Binding> full_rows = Rows(segment);
    ASSERT_GT(full_rows.size(), 2u) << r;
    EXPECT_EQ(Multiset(full_rows), Multiset(expected)) << r;
    EXPECT_FALSE(full.budget_exhausted || full.row_capped) << r;

    for (uint64_t row_cap : {kUnlimited, uint64_t{1}, uint64_t{2}}) {
      for (uint64_t budget : {kUnlimited, full.charge / 2, uint64_t{3}}) {
        BindingSegment out;
        const HomSearchStatus status =
            RunUnit(rule, instance, 0, 0, &out, budget, row_cap);
        const std::string context = "rule " + std::to_string(r) + " cap " +
                                    std::to_string(row_cap) + " budget " +
                                    std::to_string(budget);
        const std::vector<Binding> rows = Rows(out);
        ASSERT_LE(rows.size(), full_rows.size()) << context;
        for (std::size_t i = 0; i < rows.size(); ++i) {
          EXPECT_EQ(rows[i], full_rows[i]) << context << " row " << i;
        }
        EXPECT_EQ(status.row_capped, rows.size() == row_cap) << context;
        if (status.budget_exhausted) {
          EXPECT_EQ(status.charge, budget + 1) << context;
        } else {
          EXPECT_LE(status.charge, full.charge) << context;
        }
        if (!status.row_capped) {
          // Only a budget or the end of the walk stopped it.
          EXPECT_EQ(status.budget_exhausted, budget < full.charge) << context;
          if (!status.budget_exhausted) {
            EXPECT_EQ(rows.size(), full_rows.size()) << context;
            EXPECT_EQ(status.charge, full.charge) << context;
          }
        }
      }
    }

    // A pinned variable, as a head check pins the frontier: the search
    // from an initial binding finds exactly the brute-force extensions of
    // that binding.
    std::vector<Binding> pinned_union;
    for (const char* name : {"n0", "n1", "n2", "n3"}) {
      Binding initial = unbound;
      initial[0] = Constant(program, name);
      std::vector<Binding> extensions;
      BruteForce(instance, rule.body(), 0, initial, &extensions);
      std::vector<Binding> found;
      const HomSearchStatus status =
          HomomorphismFinder(instance).FindAllWithOptions(
              rule.body(), rule.num_variables(), HomSearchOptions{}, initial,
              [&found](const Binding& binding) {
                found.push_back(binding);
                return true;
              });
      EXPECT_EQ(Multiset(found), Multiset(extensions)) << r << " " << name;
      EXPECT_FALSE(status.budget_exhausted || status.row_capped)
          << r << " " << name;
      pinned_union.insert(pinned_union.end(), found.begin(), found.end());
    }
    EXPECT_EQ(Multiset(pinned_union), Multiset(full_rows)) << r;
  }
}

// -------------------------------------------------------------------------
// BindingSegment budget mechanics (the HeadBlock ratchet contract).

TEST(BindingSegmentTest, ChargesCapacityGrowthAndReleasesOnDetach) {
  MemoryBudget budget(0);  // unlimited, but tracks charges
  {
    BindingSegment segment;
    segment.SetMemoryBudget(&budget);
    segment.SetWidth(2);
    const Term row[] = {Term::Constant(1), Term::Constant(2)};
    for (int i = 0; i < 100; ++i) segment.AppendRow(row);
    EXPECT_EQ(segment.rows(), 100u);
    EXPECT_EQ(budget.in_use_bytes(), segment.capacity_bytes());
    // Clear keeps capacity, so the charge stays (high-water ratchet).
    segment.Clear();
    EXPECT_EQ(budget.in_use_bytes(), segment.capacity_bytes());
  }
  // Destruction releases the full charge.
  EXPECT_EQ(budget.in_use_bytes(), 0u);
}

TEST(BindingSegmentTest, RowsRoundTrip) {
  BindingSegment segment;
  segment.SetWidth(3);
  const Term a[] = {Term::Constant(1), UnboundTerm(), Term::Constant(3)};
  const Term b[] = {Term::Constant(4), Term::Constant(5), UnboundTerm()};
  segment.AppendRow(a);
  segment.AppendRow(b);
  ASSERT_EQ(segment.rows(), 2u);
  EXPECT_EQ(segment.row(0)[0], Term::Constant(1));
  EXPECT_EQ(segment.row(0)[1], UnboundTerm());
  EXPECT_EQ(segment.row(1)[1], Term::Constant(5));
}

// -------------------------------------------------------------------------
// Bit-identity: one discovery thread against four, across variants,
// orders and caps. Every round fans out (cutover 0), so capped rounds
// exercise the merge's cap enforcement on units that ran concurrently.

struct TwinRun {
  ChaseOutcome outcome;
  std::vector<Atom> atoms;
  uint64_t applied = 0;
  uint64_t rounds = 0;
  uint64_t nulls = 0;
  uint64_t hom_discoveries = 0;
  uint64_t join_work = 0;
  ChaseStats stats;
};

TwinRun RunTwin(const ParsedProgram& program, ChaseOptions options,
                uint32_t threads) {
  options.discovery_threads = threads;
  options.parallel_cutover_work = 0;
  ChaseRun run(program.rules, options, program.facts);
  TwinRun result;
  result.outcome = run.Execute();
  result.atoms = run.instance().MaterializeAtoms();
  result.applied = run.applied_triggers();
  result.rounds = run.rounds();
  result.nulls = run.nulls_created();
  result.hom_discoveries = run.hom_discoveries();
  result.join_work = run.join_work();
  result.stats = run.stats();
  return result;
}

/// Asserts full bit-identity of a `threads`-thread run against the
/// one-thread run, join work and per-round binding rows included: every
/// unit gets the round-start budgets at any thread count and the merge
/// enforces the caps in unit order.
void ExpectTwinsIdentical(const ParsedProgram& program,
                          const ChaseOptions& options,
                          const std::string& context, uint32_t threads = 4) {
  TwinRun serial = RunTwin(program, options, 1);
  TwinRun parallel = RunTwin(program, options, threads);
  EXPECT_EQ(serial.outcome, parallel.outcome) << context;
  EXPECT_EQ(serial.applied, parallel.applied) << context;
  EXPECT_EQ(serial.rounds, parallel.rounds) << context;
  EXPECT_EQ(serial.nulls, parallel.nulls) << context;
  EXPECT_EQ(serial.hom_discoveries, parallel.hom_discoveries) << context;
  EXPECT_EQ(serial.join_work, parallel.join_work) << context;
  ASSERT_EQ(serial.atoms.size(), parallel.atoms.size()) << context;
  for (std::size_t i = 0; i < serial.atoms.size(); ++i) {
    ASSERT_TRUE(serial.atoms[i] == parallel.atoms[i])
        << context << " atom " << i;
  }
  ASSERT_EQ(serial.stats.per_rule.size(), parallel.stats.per_rule.size())
      << context;
  for (std::size_t r = 0; r < serial.stats.per_rule.size(); ++r) {
    EXPECT_EQ(serial.stats.per_rule[r].discovered,
              parallel.stats.per_rule[r].discovered)
        << context << " rule " << r;
    EXPECT_EQ(serial.stats.per_rule[r].applied,
              parallel.stats.per_rule[r].applied)
        << context << " rule " << r;
    EXPECT_EQ(serial.stats.per_rule[r].skipped_satisfied,
              parallel.stats.per_rule[r].skipped_satisfied)
        << context << " rule " << r;
  }
  ASSERT_EQ(serial.stats.per_round.size(), parallel.stats.per_round.size())
      << context;
  for (std::size_t i = 0; i < serial.stats.per_round.size(); ++i) {
    const RoundStats& a = serial.stats.per_round[i];
    const RoundStats& b = parallel.stats.per_round[i];
    EXPECT_EQ(a.delta_atoms, b.delta_atoms) << context << " round " << i;
    EXPECT_EQ(a.candidates, b.candidates) << context << " round " << i;
    EXPECT_EQ(a.applied, b.applied) << context << " round " << i;
    EXPECT_EQ(a.binding_rows, b.binding_rows) << context << " round " << i;
    EXPECT_FALSE(a.parallel_discovery) << context << " round " << i;
    EXPECT_TRUE(b.parallel_discovery) << context << " round " << i;
  }
}

/// A workload exercising every body shape at once: a two-conjunct join
/// (closure), a unary rule with an existential multi-atom head, a
/// constant in a body position, a repeated variable, and a
/// three-conjunct body sharing predicates with the rest.
ParsedProgram MixedWorkload() {
  std::string text =
      "e(X,Y), e(Y,Z) -> e(X,Z).\n"
      "e(X,Y) -> p(X,W), q(W), e(Y,W).\n"
      "p(X,Y), q(Y) -> r(X).\n"
      "e(n0,X) -> s(X).\n"
      "e(X,X) -> loop(X).\n"
      "p(X,A), q(A), r(X) -> t(X).\n";
  for (int i = 0; i < 8; ++i) {
    text += "e(n" + std::to_string(i) + ", n" + std::to_string(i + 1) +
            ").\n";
  }
  return MustParse(text);
}

TEST(JoinPlanTest, BitIdenticalAcrossVariantsAndOrders) {
  ParsedProgram program = MixedWorkload();
  for (ChaseVariant variant :
       {ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
        ChaseVariant::kRestricted}) {
    for (TriggerOrder order :
         {TriggerOrder::kFifo, TriggerOrder::kDatalogFirst,
          TriggerOrder::kRandom}) {
      ChaseOptions options;
      options.variant = variant;
      options.order = order;
      options.order_seed = 0x9e3779b97f4a7c15ull;
      options.max_atoms = 4000;
      options.max_steps = 4000;
      ExpectTwinsIdentical(program, options,
                           std::string(ChaseVariantName(variant)) +
                               "/order=" +
                               std::to_string(static_cast<int>(order)));
    }
  }
}

TEST(JoinPlanTest, BitIdenticalUnderStepCap) {
  ParsedProgram program = MixedWorkload();
  for (ChaseVariant variant :
       {ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
        ChaseVariant::kRestricted}) {
    for (uint64_t cap : {1u, 7u, 23u}) {
      ChaseOptions options;
      options.variant = variant;
      options.max_steps = cap;
      ExpectTwinsIdentical(program, options,
                           std::string(ChaseVariantName(variant)) +
                               "/max_steps=" + std::to_string(cap));
    }
  }
}

TEST(JoinPlanTest, BitIdenticalUnderHomDiscoveryCap) {
  ParsedProgram program = MixedWorkload();
  for (ChaseVariant variant :
       {ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
        ChaseVariant::kRestricted}) {
    for (uint64_t cap : {1u, 9u, 40u, 150u}) {
      ChaseOptions options;
      options.variant = variant;
      options.max_hom_discoveries = cap;
      options.max_atoms = 4000;
      options.max_steps = 4000;
      ExpectTwinsIdentical(program, options,
                           std::string(ChaseVariantName(variant)) +
                               "/max_homs=" + std::to_string(cap));
    }
  }
}

TEST(JoinPlanTest, BitIdenticalUnderJoinWorkCap) {
  // The cap that makes the charge observable: a parallel run whose merge
  // charged even one candidate more or less than the one-thread run
  // would stop in a different place.
  ParsedProgram program = MixedWorkload();
  for (ChaseVariant variant :
       {ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
        ChaseVariant::kRestricted}) {
    for (uint64_t cap : {1u, 30u, 111u, 500u, 2000u}) {
      ChaseOptions options;
      options.variant = variant;
      options.max_join_work = cap;
      options.max_atoms = 4000;
      options.max_steps = 4000;
      ExpectTwinsIdentical(program, options,
                           std::string(ChaseVariantName(variant)) +
                               "/max_join_work=" + std::to_string(cap));
    }
  }
}

TEST(JoinPlanTest, BitIdenticalAcrossThreadCounts) {
  ParsedProgram program = MixedWorkload();
  ChaseOptions options;
  options.max_atoms = 4000;
  options.max_steps = 4000;
  for (uint32_t threads : {2u, 3u, 4u}) {
    ExpectTwinsIdentical(program, options,
                         "threads=" + std::to_string(threads), threads);
  }
}

// -------------------------------------------------------------------------
// Fault-injection abort points: a four-thread run must stop with the same
// outcome and the same instance as the one-thread run at every
// deterministic abort. Counters accrued mid-discovery (hom_discoveries)
// may differ on aborted rounds — an aborted phase discards its units
// wholesale, and concurrent units may have started past the faulting
// one — so they are not compared here.

void ExpectAbortTwinsAgree(const ParsedProgram& program, ChaseOptions options,
                           const std::string& context) {
  TwinRun serial = RunTwin(program, options, 1);
  TwinRun parallel = RunTwin(program, options, 4);
  EXPECT_EQ(serial.outcome, parallel.outcome) << context;
  EXPECT_EQ(serial.applied, parallel.applied) << context;
  ASSERT_EQ(serial.atoms.size(), parallel.atoms.size()) << context;
  for (std::size_t i = 0; i < serial.atoms.size(); ++i) {
    ASSERT_TRUE(serial.atoms[i] == parallel.atoms[i])
        << context << " atom " << i;
  }
}

TEST(JoinPlanTest, FaultAtDiscoveryUnitAbortsIdentically) {
  ParsedProgram program = MixedWorkload();
  for (uint64_t ordinal : {0u, 3u, 7u}) {
    ChaseOptions options;
    options.max_atoms = 4000;
    options.max_steps = 4000;
    options.fault_injector = [ordinal](FaultSite site, uint64_t o) {
      return site == FaultSite::kDiscovery && o == ordinal
                 ? InjectedFault::kCancel
                 : InjectedFault::kNone;
    };
    ExpectAbortTwinsAgree(program, options,
                          "discovery-ordinal=" + std::to_string(ordinal));
  }
}

TEST(JoinPlanTest, FaultAtRoundStartAbortsIdentically) {
  ParsedProgram program = MixedWorkload();
  for (uint64_t round : {0u, 1u, 2u}) {
    ChaseOptions options;
    options.max_atoms = 4000;
    options.max_steps = 4000;
    options.fault_injector = [round](FaultSite site, uint64_t o) {
      return site == FaultSite::kRoundStart && o == round
                 ? InjectedFault::kDeadline
                 : InjectedFault::kNone;
    };
    // Round boundaries are outside the discovery phase: full bit-identity
    // holds there, counters included.
    ExpectTwinsIdentical(program, options,
                         "round-start=" + std::to_string(round));
  }
}

TEST(JoinPlanTest, FaultAtTriggerApplyAbortsIdentically) {
  ParsedProgram program = MixedWorkload();
  for (uint64_t ordinal : {0u, 2u, 9u}) {
    ChaseOptions options;
    options.max_atoms = 4000;
    options.max_steps = 4000;
    options.fault_injector = [ordinal](FaultSite site, uint64_t o) {
      return site == FaultSite::kTriggerApply && o == ordinal
                 ? InjectedFault::kResourceLimit
                 : InjectedFault::kNone;
    };
    // Apply-phase aborts happen after discovery merged completely: full
    // bit-identity, counters included.
    ExpectTwinsIdentical(program, options,
                         "trigger-apply=" + std::to_string(ordinal));
  }
}

// -------------------------------------------------------------------------
// Stats surface.

TEST(JoinPlanTest, StatsReportPlanActivity) {
  // Only the atom cap binds, and it stops the apply phase: every round's
  // rows are all merged, so the rows the units wrote (before dedup) are
  // exactly the homomorphisms the run counted.
  ParsedProgram program = MixedWorkload();
  ChaseOptions options;
  options.max_atoms = 4000;
  const TwinRun run = RunTwin(program, options, 1);
  ASSERT_FALSE(run.stats.per_round.empty());
  uint64_t binding_rows = 0;
  for (const RoundStats& round : run.stats.per_round) {
    EXPECT_GE(round.binding_rows, round.candidates);
    binding_rows += round.binding_rows;
  }
  EXPECT_EQ(binding_rows, run.hom_discoveries);
}

// -------------------------------------------------------------------------
// Recorded discovery counters. The expected lines were recorded from the
// engine pair that ran before one walk took over every body width: the compiled plans for one- and two-conjunct bodies, the
// backtracking search for wider ones and for every round where a
// discovery cap bound. A change to the discovery order, the join-work
// charge or where a cap stops a round moves one of these lines.

/// Seed 1's guarded set #31 of perfbench's decide_suite, drawn as
/// DeciderSuiteTest draws it: a set whose bodies are a guard plus side
/// atoms, whose oblivious chase of the critical instance does not stop.
RandomProgram SuiteGuardedSet31() {
  Rng rng = TrialRng(/*seed=*/1 * 3 + 2, /*trial=*/31);
  RandomRuleSetOptions generator;
  generator.rule_class = RuleClass::kGuarded;
  generator.num_predicates = 8;
  generator.num_rules = 8;
  generator.min_arity = 1;
  generator.max_arity = 3;
  generator.existential_probability = 0.2 + 0.5 * rng.NextDouble();
  return GenerateRandomRuleSet(&rng, generator);
}

/// One run, printed as a line: its outcome and counters, and the size
/// and an FNV-1a fingerprint of the instance's atom list in id order.
std::string PinLine(const RuleSet& rules, const std::vector<Atom>& facts,
                    const ChaseOptions& options, const std::string& label) {
  const ChaseResult result = RunChase(rules, options, facts);
  uint64_t fingerprint = 14695981039346656037ull;
  const auto mix = [&fingerprint](uint64_t value) {
    fingerprint = (fingerprint ^ value) * 1099511628211ull;
  };
  for (AtomView atom : result.instance.atoms()) {
    mix(atom.predicate);
    mix(atom.arity());
    for (Term t : atom.args) mix(t.raw());
  }
  return label + ": " + ChaseOutcomeName(result.outcome) + " applied " +
         std::to_string(result.applied_triggers) + " rounds " +
         std::to_string(result.rounds) + " nulls " +
         std::to_string(result.nulls_created) + " homs " +
         std::to_string(result.hom_discoveries) + " join " +
         std::to_string(result.join_work) + " atoms " +
         std::to_string(result.instance.size()) + " #" +
         std::to_string(fingerprint) + "\n";
}

/// Runs `rules` on `facts` under o, so and restricted: once with only
/// `max_atoms`, then with max_join_work, max_hom_discoveries and
/// max_steps each at half of that run's value.
std::string PinRuns(const std::string& name, const RuleSet& rules,
                    const std::vector<Atom>& facts, uint64_t max_atoms) {
  std::string lines;
  for (ChaseVariant variant :
       {ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
        ChaseVariant::kRestricted}) {
    ChaseOptions options;
    options.variant = variant;
    options.max_atoms = max_atoms;
    const std::string label = name + " " + ChaseVariantName(variant);
    lines += PinLine(rules, facts, options, label);
    const ChaseResult base = RunChase(rules, options, facts);
    ChaseOptions join = options;
    join.max_join_work = base.join_work / 2;
    lines += PinLine(rules, facts, join, label + " join/2");
    ChaseOptions homs = options;
    homs.max_hom_discoveries = base.hom_discoveries / 2;
    lines += PinLine(rules, facts, homs, label + " homs/2");
    ChaseOptions steps = options;
    steps.max_steps = base.applied_triggers / 2;
    lines += PinLine(rules, facts, steps, label + " steps/2");
  }
  return lines;
}

TEST(DiscoveryPinTest, CountersAndAtomsMatchTheRecordedRuns) {
  const std::string expected =
      "mixed oblivious: resource-limit"
      " applied 6655 rounds 6 nulls 538"
      " homs 10232 join 25600 atoms 4001 #1459407004421801067\n"
      "mixed oblivious join/2: resource-limit"
      " applied 5351 rounds 6 nulls 538"
      " homs 5351 join 12801 atoms 3843 #9679335943004727142\n"
      "mixed oblivious homs/2: resource-limit"
      " applied 5116 rounds 6 nulls 538"
      " homs 5116 join 12391 atoms 3840 #2713621908924204841\n"
      "mixed oblivious steps/2: resource-limit"
      " applied 3327 rounds 6 nulls 538"
      " homs 3327 join 8992 atoms 3131 #10704064728693815146\n"
      "mixed semi-oblivious: resource-limit"
      " applied 2917 rounds 6 nulls 538"
      " homs 10232 join 25600 atoms 4001 #1459407004421801067\n"
      "mixed semi-oblivious join/2: resource-limit"
      " applied 2759 rounds 6 nulls 538"
      " homs 5351 join 12801 atoms 3843 #9679335943004727142\n"
      "mixed semi-oblivious homs/2: resource-limit"
      " applied 2756 rounds 6 nulls 538"
      " homs 5116 join 12391 atoms 3840 #2713621908924204841\n"
      "mixed semi-oblivious steps/2: resource-limit"
      " applied 1458 rounds 5 nulls 271"
      " homs 2534 join 6074 atoms 2008 #13976030060431802991\n"
      "mixed restricted: resource-limit"
      " applied 2917 rounds 6 nulls 538"
      " homs 10232 join 31072 atoms 4001 #1459407004421801067\n"
      "mixed restricted join/2: resource-limit"
      " applied 2756 rounds 6 nulls 538"
      " homs 4335 join 16506 atoms 3840 #2713621908924204841\n"
      "mixed restricted homs/2: resource-limit"
      " applied 2756 rounds 6 nulls 538"
      " homs 5116 join 17702 atoms 3840 #2713621908924204841\n"
      "mixed restricted steps/2: resource-limit"
      " applied 1458 rounds 5 nulls 271"
      " homs 2534 join 9106 atoms 2008 #13976030060431802991\n"
      "wide oblivious: resource-limit"
      " applied 1162 rounds 10 nulls 334"
      " homs 1360 join 6411 atoms 1501 #12487912230293806000\n"
      "wide oblivious join/2: resource-limit"
      " applied 457 rounds 9 nulls 84"
      " homs 457 join 3206 atoms 547 #17489059293744119150\n"
      "wide oblivious homs/2: resource-limit"
      " applied 680 rounds 9 nulls 201"
      " homs 680 join 3738 atoms 887 #10740446139092880472\n"
      "wide oblivious steps/2: resource-limit"
      " applied 581 rounds 9 nulls 102"
      " homs 581 join 3639 atoms 689 #269648272619582996\n"
      "wide semi-oblivious: resource-limit"
      " applied 1160 rounds 10 nulls 334"
      " homs 1360 join 6411 atoms 1501 #12487912230293806000\n"
      "wide semi-oblivious join/2: resource-limit"
      " applied 455 rounds 9 nulls 84"
      " homs 457 join 3206 atoms 547 #17489059293744119150\n"
      "wide semi-oblivious homs/2: resource-limit"
      " applied 678 rounds 9 nulls 201"
      " homs 680 join 3738 atoms 887 #10740446139092880472\n"
      "wide semi-oblivious steps/2: resource-limit"
      " applied 580 rounds 9 nulls 103"
      " homs 582 join 3640 atoms 691 #3386115165533454046\n"
      "wide restricted: resource-limit"
      " applied 1220 rounds 12 nulls 271"
      " homs 2337 join 13223 atoms 1501 #13882084974172247109\n"
      "wide restricted join/2: resource-limit"
      " applied 1043 rounds 11 nulls 177"
      " homs 1068 join 7120 atoms 1230 #335767571123291965\n"
      "wide restricted homs/2: resource-limit"
      " applied 1162 rounds 11 nulls 271"
      " homs 1168 join 7622 atoms 1443 #11499446132587522163\n"
      "wide restricted steps/2: resource-limit"
      " applied 610 rounds 11 nulls 162"
      " homs 616 join 4235 atoms 782 #1165028107195960384\n"
      "G#31 oblivious: resource-limit"
      " applied 450 rounds 443 nulls 150"
      " homs 450 join 339627 atoms 601 #7258950051065039677\n"
      "G#31 oblivious join/2: resource-limit"
      " applied 318 rounds 311 nulls 106"
      " homs 318 join 169814 atoms 425 #2716277791360266961\n"
      "G#31 oblivious homs/2: resource-limit"
      " applied 225 rounds 218 nulls 75"
      " homs 225 join 84703 atoms 301 #9348483617430274324\n"
      "G#31 oblivious steps/2: resource-limit"
      " applied 225 rounds 218 nulls 75"
      " homs 225 join 84703 atoms 301 #9348483617430274324\n"
      "G#31 semi-oblivious: terminated"
      " applied 10 rounds 3 nulls 3"
      " homs 11 join 132 atoms 14 #17925779175520727172\n"
      "G#31 semi-oblivious join/2: resource-limit"
      " applied 9 rounds 2 nulls 3"
      " homs 9 join 67 atoms 13 #13424911441002741820\n"
      "G#31 semi-oblivious homs/2: resource-limit"
      " applied 5 rounds 1 nulls 0"
      " homs 5 join 13 atoms 8 #95994293505582095\n"
      "G#31 semi-oblivious steps/2: resource-limit"
      " applied 5 rounds 1 nulls 0"
      " homs 5 join 13 atoms 8 #95994293505582095\n"
      "G#31 restricted: terminated"
      " applied 0 rounds 1 nulls 0"
      " homs 8 join 62 atoms 8 #95994293505582095\n"
      "G#31 restricted join/2: resource-limit"
      " applied 0 rounds 1 nulls 0"
      " homs 8 join 32 atoms 8 #95994293505582095\n"
      "G#31 restricted homs/2: resource-limit"
      " applied 0 rounds 1 nulls 0"
      " homs 4 join 17 atoms 8 #95994293505582095\n"
      "G#31 restricted steps/2: resource-limit"
      " applied 0 rounds 1 nulls 0"
      " homs 1 join 3 atoms 8 #95994293505582095\n";

  std::string actual;
  const ParsedProgram mixed = MixedWorkload();
  actual += PinRuns("mixed", mixed.rules, mixed.facts, 4000);

  // A four-conjunct body whose cheapest next conjunct changes with the
  // binding, fed by an existential rule that keeps its delta nonempty.
  const ParsedProgram wide = MustParse(
      "e(X,Y), e(Y,Z), f(Z,W), s(W) -> p(X,W).\n"
      "p(X,W) -> f(W,V), e(V,X).\n"
      "f(X,Y) -> s(Y).\n"
      "e(n0,n1). e(n1,n2). e(n2,n3). e(n3,n1). e(n2,n0).\n"
      "f(n1,n2). f(n3,n0). f(n2,n2). s(n2). s(n0).\n");
  actual += PinRuns("wide", wide.rules, wide.facts, 1500);

  RandomProgram g31 = SuiteGuardedSet31();
  Vocabulary vocabulary = g31.vocabulary;
  const std::vector<Atom> critical =
      BuildCriticalInstance(g31.rules, &vocabulary);
  actual += PinRuns("G#31", g31.rules, critical, 600);

  EXPECT_EQ(actual, expected);
}

}  // namespace
}  // namespace gchase
