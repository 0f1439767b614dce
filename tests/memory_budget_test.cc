// Memory-governance tests: budget arithmetic, the instance / staging
// accounting that feeds it, and the engine's degradation contract — a
// run that trips its byte budget stops with a distinct outcome, a clean
// partial instance that is a bit-exact prefix of the uncapped run, and
// stats intact; std::bad_alloc never escapes a public entry point.

#include "base/memory_budget.h"

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chase/batch_apply.h"
#include "chase/chase.h"
#include "gtest/gtest.h"
#include "model/atom.h"
#include "storage/instance.h"
#include "termination/critical_instance.h"
#include "termination/decider.h"
#include "tests/test_util.h"

namespace gchase {
namespace {

Atom MakeAtom(PredicateId pred, std::vector<uint32_t> constant_ids) {
  Atom atom;
  atom.predicate = pred;
  for (uint32_t id : constant_ids) atom.args.push_back(Term::Constant(id));
  return atom;
}

// -------------------------------------------------------------------------
// MemoryBudget primitives.

TEST(MemoryBudgetTest, ChargeReleaseAndPeakTrackLevels) {
  MemoryBudget budget(1000);
  EXPECT_EQ(budget.in_use_bytes(), 0u);
  budget.Charge(400);
  budget.Charge(300);
  EXPECT_EQ(budget.in_use_bytes(), 700u);
  EXPECT_EQ(budget.peak_bytes(), 700u);
  budget.Release(500);
  EXPECT_EQ(budget.in_use_bytes(), 200u);
  // The peak is a high-water mark: releases never lower it.
  EXPECT_EQ(budget.peak_bytes(), 700u);
  budget.Charge(100);
  EXPECT_EQ(budget.peak_bytes(), 700u);
  EXPECT_FALSE(budget.Exceeded());
  budget.Charge(800);
  EXPECT_TRUE(budget.Exceeded());
  EXPECT_EQ(budget.peak_bytes(), 1100u);
}

TEST(MemoryBudgetTest, WouldExceedIsExactAtTheBoundary) {
  MemoryBudget budget(1000);
  budget.Charge(600);
  // Landing exactly on the limit is allowed; one byte past is not.
  EXPECT_FALSE(budget.WouldExceed(400));
  EXPECT_TRUE(budget.WouldExceed(401));
  // A single request larger than the whole limit is denied even from
  // empty (no uint64 underflow games).
  MemoryBudget fresh(1000);
  EXPECT_TRUE(fresh.WouldExceed(1001));
  EXPECT_FALSE(fresh.WouldExceed(1000));
}

TEST(MemoryBudgetTest, ZeroAndDefaultLimitsMeanUnlimited) {
  MemoryBudget by_default;
  MemoryBudget by_zero(0);
  for (MemoryBudget* budget : {&by_default, &by_zero}) {
    EXPECT_FALSE(budget->limited());
    budget->Charge(uint64_t{1} << 40);
    EXPECT_FALSE(budget->Exceeded());
    EXPECT_FALSE(budget->WouldExceed(uint64_t{1} << 40));
  }
}

TEST(MemoryBudgetTest, SoftWatermarkIsAdvisoryOnly) {
  MemoryBudget budget(1000, 100);
  budget.Charge(500);
  EXPECT_TRUE(budget.SoftExceeded());
  EXPECT_FALSE(budget.Exceeded());
  EXPECT_FALSE(budget.WouldExceed(100));
}

TEST(MemoryBudgetTest, DenialsAreCounted) {
  MemoryBudget budget(10);
  EXPECT_EQ(budget.denials(), 0u);
  budget.NoteDenied();
  budget.NoteDenied();
  EXPECT_EQ(budget.denials(), 2u);
}

// -------------------------------------------------------------------------
// Instance accounting: footprint, attach/detach, copy/move semantics.

TEST(InstanceBudgetTest, AttachChargesFootprintAndGrowthChargesDeltas) {
  Instance instance;
  for (uint32_t i = 0; i < 100; ++i) instance.TryAdd(MakeAtom(0, {i, i + 1}));
  EXPECT_GT(instance.MemoryFootprint(), 0u);

  MemoryBudget budget;
  instance.SetMemoryBudget(&budget);
  EXPECT_EQ(budget.in_use_bytes(), instance.MemoryFootprint());
  // Every later growth keeps the charge in lockstep with the footprint.
  for (uint32_t i = 0; i < 3000; ++i) {
    instance.TryAdd(MakeAtom(1, {i, i}));
  }
  EXPECT_EQ(budget.in_use_bytes(), instance.MemoryFootprint());
  instance.SetMemoryBudget(nullptr);
  EXPECT_EQ(budget.in_use_bytes(), 0u);
  EXPECT_GT(budget.peak_bytes(), 0u);
}

TEST(InstanceBudgetTest, DestructionReleasesTheWholeCharge) {
  MemoryBudget budget;
  {
    Instance instance;
    for (uint32_t i = 0; i < 500; ++i) instance.TryAdd(MakeAtom(0, {i}));
    instance.SetMemoryBudget(&budget);
    EXPECT_GT(budget.in_use_bytes(), 0u);
  }
  EXPECT_EQ(budget.in_use_bytes(), 0u);
}

TEST(InstanceBudgetTest, CopiesAreUnbudgetedAndMovesTransferTheCharge) {
  MemoryBudget budget;
  Instance instance;
  for (uint32_t i = 0; i < 200; ++i) instance.TryAdd(MakeAtom(0, {i, i}));
  instance.SetMemoryBudget(&budget);
  const uint64_t charged = budget.in_use_bytes();
  ASSERT_GT(charged, 0u);
  {
    Instance copy = instance;  // result-snapshot path: must not
    EXPECT_EQ(copy.size(), instance.size());
    EXPECT_EQ(budget.in_use_bytes(), charged);  // ...double-charge...
  }
  EXPECT_EQ(budget.in_use_bytes(), charged);  // ...nor double-release.
  {
    Instance moved = std::move(instance);
    EXPECT_EQ(budget.in_use_bytes(), charged);
  }
  // The moved-to instance owned the charge and released it on death.
  EXPECT_EQ(budget.in_use_bytes(), 0u);
}

TEST(InstanceBudgetTest, EstimateReserveBytesMatchesTheActualGrowth) {
  Instance instance;
  for (uint32_t i = 0; i < 50; ++i) instance.TryAdd(MakeAtom(0, {i, i + 1}));
  MemoryBudget budget;
  instance.SetMemoryBudget(&budget);

  const uint64_t estimate = instance.EstimateReserveBytes(1000, 2000);
  EXPECT_GT(estimate, 0u);
  const uint64_t before = instance.MemoryFootprint();
  instance.ReserveAdditional(1000, 2000);
  // The projection mirrors every growth site's exact policy, so the
  // pre-size budget check denies precisely the reserves that would trip.
  EXPECT_EQ(instance.MemoryFootprint() - before, estimate);
  EXPECT_EQ(budget.in_use_bytes(), instance.MemoryFootprint());
  // Re-estimating the now-covered headroom costs nothing.
  EXPECT_EQ(instance.EstimateReserveBytes(1000, 2000), 0u);
}

// -------------------------------------------------------------------------
// HeadBlock staging accounting.

TEST(HeadBlockBudgetTest, StagingChargesHighWaterAndReleasesOnDetach) {
  MemoryBudget budget;
  HeadBlock block;
  block.SetMemoryBudget(&budget);
  for (uint32_t i = 0; i < 1000; ++i) {
    Term* row = block.Append(0, 2);
    row[0] = Term::Constant(i);
    row[1] = Term::Constant(i + 1);
  }
  EXPECT_EQ(budget.in_use_bytes(), block.capacity_bytes());
  const uint64_t high_water = budget.in_use_bytes();
  ASSERT_GT(high_water, 0u);
  // Clear() keeps capacity, so the charge stays at the high-water mark.
  block.Clear();
  EXPECT_EQ(budget.in_use_bytes(), high_water);
  block.SetMemoryBudget(nullptr);
  EXPECT_EQ(budget.in_use_bytes(), 0u);
}

// -------------------------------------------------------------------------
// Chase engine degradation under byte budgets.

// Doubling fan-out: every edge spawns two more, so the run outgrows any
// byte budget in a few dozen rounds.
constexpr const char* kDivergingProgram = "e(X,Y) -> e(Y,Z), e(Z,X).\ne(a,b).\n";

TEST(ChaseMemoryTest, DivergentChaseStopsOnBudgetWithCleanPartialResult) {
  ParsedProgram program = MustParse(kDivergingProgram);
  ChaseOptions options;
  options.variant = ChaseVariant::kOblivious;
  options.max_atoms = 1u << 20;  // backstop far above the byte budget
  constexpr uint64_t kBudget = 1u << 20;  // 1 MiB
  options.memory_budget = std::make_shared<MemoryBudget>(kBudget);
  ChaseRun run(program.rules, options, program.facts);
  EXPECT_EQ(run.Execute(), ChaseOutcome::kMemoryBudgetExceeded);

  // Partial result intact: the database plus some applied rounds.
  EXPECT_GT(run.instance().size(), program.facts.size());
  EXPECT_GT(run.applied_triggers(), 0u);
  EXPECT_EQ(run.stats().per_round.size(), run.rounds());
  EXPECT_EQ(run.stats().peak_atoms, run.instance().size());

  // The checks are hoisted to pre-size points, so the peak overshoots
  // the budget by at most one (here: zero) growth step.
  EXPECT_GT(run.stats().peak_memory_bytes, 0u);
  EXPECT_LE(run.stats().peak_memory_bytes, kBudget + kBudget / 10);
  EXPECT_EQ(run.stats().memory_budget_bytes, kBudget);
  EXPECT_EQ(run.stats().memory_in_use_bytes, run.memory_budget().in_use_bytes());
}

TEST(ChaseMemoryTest, CappedRunIsBitExactPrefixOfUncappedRun) {
  ParsedProgram program = MustParse(kDivergingProgram);
  ChaseOptions options;
  options.variant = ChaseVariant::kOblivious;
  options.max_atoms = 1u << 12;
  ChaseResult base = RunChase(program.rules, options, program.facts);
  ASSERT_EQ(base.outcome, ChaseOutcome::kResourceLimit);
  ASSERT_GT(base.stats.peak_memory_bytes, 0u);

  ChaseOptions capped = options;
  capped.memory_budget =
      std::make_shared<MemoryBudget>(base.stats.peak_memory_bytes / 2);
  ChaseResult run = RunChase(program.rules, capped, program.facts);
  EXPECT_EQ(run.outcome, ChaseOutcome::kMemoryBudgetExceeded);
  ASSERT_LE(run.instance.size(), base.instance.size());
  for (AtomId id = 0; id < run.instance.size(); ++id) {
    const AtomView capped_atom = run.instance.atom(id);
    const AtomView base_atom = base.instance.atom(id);
    ASSERT_EQ(capped_atom.predicate, base_atom.predicate) << "atom " << id;
    ASSERT_EQ(capped_atom.arity(), base_atom.arity()) << "atom " << id;
    for (uint32_t i = 0; i < capped_atom.arity(); ++i) {
      ASSERT_EQ(capped_atom.args[i], base_atom.args[i]) << "atom " << id;
    }
  }
}

TEST(ChaseMemoryTest, InjectedAllocationFaultIsEngineInvariant) {
  // The kAllocation ordinal space is shared by staged (plain), eager
  // (provenance) and parallel-discovery runs: a memory-budget fault
  // injected at the same ordinal must stop all three at the same prefix.
  ParsedProgram program = MustParse(kDivergingProgram);
  for (uint64_t target : {uint64_t{0}, uint64_t{2}, uint64_t{6}}) {
    struct Stop {
      const char* engine;
      uint64_t size;
      uint64_t applied;
    };
    std::vector<Stop> stops;
    struct Engine {
      const char* name;
      bool track_provenance;
      uint32_t threads;
    };
    for (const Engine& engine :
         {Engine{"serial-staged", false, 1},
          Engine{"serial-provenance", true, 1},
          Engine{"parallel-staged", false, 2}}) {
      auto fired = std::make_shared<std::atomic<bool>>(false);
      ChaseOptions options;
      options.variant = ChaseVariant::kOblivious;
      options.max_atoms = 1u << 12;
      options.track_provenance = engine.track_provenance;
      options.discovery_threads = engine.threads;
      if (engine.threads > 1) options.parallel_cutover_work = 0;
      options.fault_injector = [fired, target](FaultSite site,
                                               uint64_t ordinal) {
        if (site == FaultSite::kAllocation && ordinal == target) {
          fired->store(true, std::memory_order_relaxed);
          return InjectedFault::kMemoryBudget;
        }
        return InjectedFault::kNone;
      };
      ChaseResult run = RunChase(program.rules, options, program.facts);
      ASSERT_TRUE(fired->load(std::memory_order_relaxed))
          << engine.name << " ordinal " << target;
      EXPECT_EQ(run.outcome, ChaseOutcome::kMemoryBudgetExceeded)
          << engine.name << " ordinal " << target;
      stops.push_back(
          Stop{engine.name, run.instance.size(), run.applied_triggers});
    }
    for (const Stop& stop : stops) {
      EXPECT_EQ(stop.size, stops.front().size)
          << stop.engine << " vs " << stops.front().engine << " at ordinal "
          << target;
      EXPECT_EQ(stop.applied, stops.front().applied)
          << stop.engine << " vs " << stops.front().engine << " at ordinal "
          << target;
    }
  }
}

// r(a,b0), ..., r(a,b<facts-1>) and one rule whose every homomorphism
// has the frontier X = a.
std::string OneFrontierProgram(uint32_t facts) {
  std::string text = "r(X,Y) -> s(X,Z).\n";
  for (uint32_t i = 0; i < facts; ++i) {
    text += "r(a,b" + std::to_string(i) + ").\n";
  }
  return text;
}

TEST(ChaseMemoryTest, TripInAMergeRerunDropsTheRound) {
  // Under the semi-oblivious chase all homomorphisms but the first are
  // duplicate triggers, so a step cap of 2 never binds. The first pass
  // stops each unit at 2 rows; the merge then runs the unit again with
  // ever more rows until it has them all. A byte budget those rows cross
  // trips inside a merge run.
  constexpr uint32_t kFacts = 50000;
  ParsedProgram program = MustParse(OneFrontierProgram(kFacts));
  for (uint32_t threads : {1u, 2u}) {
    ChaseOptions options;
    options.variant = ChaseVariant::kSemiOblivious;
    options.max_steps = 2;
    options.discovery_threads = threads;
    options.parallel_cutover_work = 0;
    ChaseRun base(program.rules, options, program.facts);
    const uint64_t seeded = base.memory_budget().in_use_bytes();
    ASSERT_EQ(base.Execute(), ChaseOutcome::kTerminated);
    ASSERT_EQ(base.applied_triggers(), 1u);
    ASSERT_EQ(base.hom_discoveries(), kFacts);
    // The rows of the unit's last run: 3 terms each (Z stays unbound).
    const uint64_t rows_bytes = uint64_t{kFacts} * 3 * sizeof(Term);
    ASSERT_GE(base.stats().peak_memory_bytes, seeded + rows_bytes);

    ChaseOptions budgeted = options;
    budgeted.memory_budget =
        std::make_shared<MemoryBudget>(seeded + rows_bytes / 2);
    ChaseRun run(program.rules, budgeted, program.facts);
    ASSERT_EQ(run.memory_budget().in_use_bytes(), seeded);
    // The trip stops the run in discovery: the rows found before it are
    // dropped, not applied as a round.
    EXPECT_EQ(run.Execute(), ChaseOutcome::kMemoryBudgetExceeded)
        << threads << " threads";
    EXPECT_EQ(run.applied_triggers(), 0u) << threads << " threads";
    EXPECT_EQ(run.instance().size(), program.facts.size())
        << threads << " threads";
    EXPECT_TRUE(run.stats().per_round.empty()) << threads << " threads";
  }
}

TEST(ChaseMemoryTest, StepCapStopsTheUnitAtItsRow) {
  // Without duplicates the step cap binds on the first pass's last row,
  // so the merge keeps that pass's rows: it never holds the unit's other
  // rows, and a byte budget they would cross does not trip.
  constexpr uint32_t kFacts = 50000;
  ParsedProgram program = MustParse(OneFrontierProgram(kFacts));
  for (uint32_t threads : {1u, 2u}) {
    ChaseOptions options;
    options.variant = ChaseVariant::kOblivious;
    options.max_steps = 3;
    options.discovery_threads = threads;
    options.parallel_cutover_work = 0;
    ChaseRun base(program.rules, options, program.facts);
    const uint64_t seeded = base.memory_budget().in_use_bytes();
    ASSERT_EQ(base.Execute(), ChaseOutcome::kResourceLimit);

    ChaseOptions budgeted = options;
    budgeted.memory_budget = std::make_shared<MemoryBudget>(
        seeded + uint64_t{kFacts} * 3 * sizeof(Term) / 2);
    ChaseRun run(program.rules, budgeted, program.facts);
    EXPECT_EQ(run.Execute(), ChaseOutcome::kResourceLimit)
        << threads << " threads";
    EXPECT_EQ(run.applied_triggers(), 3u) << threads << " threads";
    EXPECT_EQ(run.hom_discoveries(), 3u) << threads << " threads";
    EXPECT_EQ(run.join_work(), base.join_work()) << threads << " threads";
    EXPECT_EQ(run.instance().size(), base.instance().size())
        << threads << " threads";
  }
}

TEST(ChaseMemoryTest, SharedBudgetDrainsWhenRunsDie) {
  // A budget shared across sequential runs: each run's storage releases
  // its charge on destruction (results are unbudgeted snapshots), so the
  // next phase inherits the full headroom.
  ParsedProgram program = MustParse("a(X) -> b(X).\na(c).\n");
  auto budget = std::make_shared<MemoryBudget>(uint64_t{1} << 24);
  ChaseOptions options;
  options.memory_budget = budget;
  ChaseResult first = RunChase(program.rules, options, program.facts);
  EXPECT_EQ(first.outcome, ChaseOutcome::kTerminated);
  EXPECT_EQ(budget->in_use_bytes(), 0u);
  ChaseResult second = RunChase(program.rules, options, program.facts);
  EXPECT_EQ(second.outcome, ChaseOutcome::kTerminated);
  EXPECT_EQ(budget->in_use_bytes(), 0u);
  EXPECT_GT(budget->peak_bytes(), 0u);
}

TEST(ChaseMemoryTest, AmpleBudgetLeavesTheRunUntouched) {
  ParsedProgram program = MustParse("p(X) -> q(X,Y).\np(a).\np(b).\n");
  ChaseOptions plain;
  ChaseResult base = RunChase(program.rules, plain, program.facts);
  ASSERT_EQ(base.outcome, ChaseOutcome::kTerminated);

  ChaseOptions budgeted = plain;
  constexpr uint64_t kBudget = uint64_t{64} << 20;
  budgeted.memory_budget = std::make_shared<MemoryBudget>(kBudget);
  ChaseResult run = RunChase(program.rules, budgeted, program.facts);
  EXPECT_EQ(run.outcome, ChaseOutcome::kTerminated);
  ASSERT_EQ(run.instance.size(), base.instance.size());
  EXPECT_EQ(run.applied_triggers, base.applied_triggers);
  EXPECT_GT(run.stats.peak_memory_bytes, 0u);
  EXPECT_EQ(run.stats.memory_budget_bytes, kBudget);
}

// -------------------------------------------------------------------------
// Decider degradation: a memory trip is kUnknown with reason kMemory —
// never divergence evidence.

TEST(DeciderMemoryTest, MemoryCapDegradesToUnknownWithMemoryReason) {
  ParsedProgram program = MustParse(kDivergingProgram);
  DeciderOptions options;
  // Far below any useful exploration.
  options.memory_budget = std::make_shared<MemoryBudget>(1u << 10);
  StatusOr<DeciderResult> result =
      DecideTermination(program.rules, &program.vocabulary,
                        ChaseVariant::kOblivious, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->verdict, TerminationVerdict::kUnknown);
  EXPECT_EQ(result->unknown.reason, StopReason::kMemory);
}

TEST(DeciderMemoryTest, ProvenanceAndTriggerLogAreCharged) {
  // binary_tree(6) terminates. Its critical-instance chase with an
  // observer and no provenance inserts each head atom at once, as the
  // decider's does, and fits a budget of its own peak. The decider's
  // chase adds the provenance and the trigger log on top of the same
  // storage, so under that budget it stops on memory.
  std::string text;
  for (int i = 0; i < 6; ++i) {
    text += "n" + std::to_string(i) + "(X) -> c(X,Y), c(X,Z), n" +
            std::to_string(i + 1) + "(Y), n" + std::to_string(i + 1) +
            "(Z).\n";
  }
  ParsedProgram program = MustParse(text);
  Vocabulary vocabulary = program.vocabulary;
  const std::vector<Atom> critical =
      BuildCriticalInstance(program.rules, &vocabulary);
  const ChaseRun::AtomObserver eager = [](AtomId) { return true; };
  ChaseOptions options;
  options.variant = ChaseVariant::kOblivious;
  ChaseRun unbudgeted(program.rules, options, critical);
  ASSERT_EQ(unbudgeted.Execute(eager), ChaseOutcome::kTerminated);
  const uint64_t storage_peak = unbudgeted.stats().peak_memory_bytes;
  ASSERT_GT(storage_peak, 0u);

  options.memory_budget = std::make_shared<MemoryBudget>(storage_peak);
  ChaseRun storage_alone(program.rules, options, critical);
  EXPECT_EQ(storage_alone.Execute(eager), ChaseOutcome::kTerminated);

  DeciderOptions decider;
  decider.memory_budget = std::make_shared<MemoryBudget>(storage_peak);
  StatusOr<DeciderResult> result = DecideTermination(
      program.rules, &program.vocabulary, ChaseVariant::kOblivious, decider);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->verdict, TerminationVerdict::kUnknown);
  EXPECT_EQ(result->unknown.reason, StopReason::kMemory);

  decider.memory_budget = nullptr;
  result = DecideTermination(program.rules, &program.vocabulary,
                             ChaseVariant::kOblivious, decider);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->verdict, TerminationVerdict::kTerminating);
  EXPECT_GT(result->chase_stats.peak_memory_bytes, storage_peak);
}

}  // namespace
}  // namespace gchase
