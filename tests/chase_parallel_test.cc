// Regression tests for parallel trigger discovery (serial/parallel
// equivalence), the ChaseStats observability layer, and the chase-engine
// correctness fixes that rode along with it (null-cap overflow safety,
// decorrelated kRandom seeding, full RunChase result plumbing).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/rng.h"
#include "chase/chase.h"
#include "generator/workloads.h"
#include "gtest/gtest.h"
#include "model/parser.h"
#include "termination/decider.h"
#include "tests/test_util.h"

namespace gchase {
namespace {

// --- fixtures: the E7 workloads at test-friendly sizes -------------------

ParsedProgram MakeUniversityInstance(uint32_t num_students) {
  StatusOr<NamedWorkload> workload = FindWorkload("dl_lite_university");
  GCHASE_CHECK(workload.ok());
  std::string text = workload->program;
  for (uint32_t i = 0; i < num_students; ++i) {
    text += "student(s" + std::to_string(i) + ").\n";
    if (i % 2 == 0) {
      text += "enrolledIn(s" + std::to_string(i) + ", c" +
              std::to_string(i / 2) + ").\n";
    }
  }
  return MustParse(text);
}

ParsedProgram MakeClosureInstance(uint32_t chain_length) {
  std::string text = "e(X,Y), e(Y,Z) -> e(X,Z).\n";
  for (uint32_t i = 0; i < chain_length; ++i) {
    text += "e(n" + std::to_string(i) + ", n" + std::to_string(i + 1) +
            ").\n";
  }
  return MustParse(text);
}

/// An owning copy of a TriggerView, which borrows from its run.
struct CapturedTrigger {
  uint32_t rule = 0;
  std::vector<AtomId> body_atoms;
  Binding binding;
  std::vector<Term> created_nulls;
  std::vector<AtomId> produced;
};

struct CapturedRun {
  ChaseOutcome outcome;
  std::vector<Atom> atoms;
  std::vector<CapturedTrigger> triggers;
};

CapturedRun Capture(const ParsedProgram& program, ChaseVariant variant,
                    uint32_t threads, TriggerOrder order = TriggerOrder::kFifo,
                    uint64_t seed = 0,
                    std::shared_ptr<ThreadPool> executor = nullptr,
                    FaultInjector fault_injector = nullptr) {
  ChaseOptions options;
  options.variant = variant;
  options.order = order;
  options.order_seed = seed;
  options.max_atoms = 200000;
  options.discovery_threads = threads;
  // Test-friendly workloads are small; disable the adaptive cutover so a
  // threads > 1 capture genuinely runs the parallel engine.
  options.parallel_cutover_work = 0;
  options.executor = std::move(executor);
  options.fault_injector = std::move(fault_injector);
  options.track_provenance = true;
  ChaseRun run(program.rules, options, program.facts);
  CapturedRun captured;
  captured.outcome = run.Execute();
  captured.atoms = run.instance().MaterializeAtoms();
  for (uint32_t t = 0; t < run.triggers().size(); ++t) {
    const TriggerView view = run.triggers()[t];
    CapturedTrigger& trigger = captured.triggers.emplace_back();
    trigger.rule = view.rule;
    trigger.body_atoms.assign(view.body_atoms.begin(), view.body_atoms.end());
    for (VarId v = 0; v < view.binding_words.size(); ++v) {
      trigger.binding.push_back(view.binding(v));
    }
    for (uint32_t i = 0; i < view.created_nulls; ++i) {
      trigger.created_nulls.push_back(view.created_null(i));
    }
    trigger.produced.assign(view.produced.begin(), view.produced.end());
  }
  return captured;
}

void ExpectBitIdentical(const CapturedRun& serial, const CapturedRun& parallel,
                        const char* label) {
  EXPECT_EQ(serial.outcome, parallel.outcome) << label;
  ASSERT_EQ(serial.atoms.size(), parallel.atoms.size()) << label;
  for (std::size_t i = 0; i < serial.atoms.size(); ++i) {
    ASSERT_TRUE(serial.atoms[i] == parallel.atoms[i])
        << label << " atom " << i;
  }
  ASSERT_EQ(serial.triggers.size(), parallel.triggers.size()) << label;
  for (std::size_t i = 0; i < serial.triggers.size(); ++i) {
    const CapturedTrigger& a = serial.triggers[i];
    const CapturedTrigger& b = parallel.triggers[i];
    ASSERT_EQ(a.rule, b.rule) << label << " trigger " << i;
    ASSERT_EQ(a.binding, b.binding) << label << " trigger " << i;
    ASSERT_EQ(a.body_atoms, b.body_atoms) << label << " trigger " << i;
    ASSERT_EQ(a.created_nulls, b.created_nulls) << label << " trigger " << i;
    ASSERT_EQ(a.produced, b.produced) << label << " trigger " << i;
  }
}

// --- serial/parallel equivalence ----------------------------------------

TEST(ParallelDiscoveryTest, BitIdenticalOnE7WorkloadsAllVariants) {
  ParsedProgram university = MakeUniversityInstance(50);
  ParsedProgram closure = MakeClosureInstance(20);
  const std::vector<std::pair<const char*, const ParsedProgram*>> entries = {
      {"university", &university}, {"closure", &closure}};
  for (const auto& entry : entries) {
    for (ChaseVariant variant :
         {ChaseVariant::kRestricted, ChaseVariant::kSemiOblivious,
          ChaseVariant::kOblivious}) {
      CapturedRun serial = Capture(*entry.second, variant, 1);
      CapturedRun parallel = Capture(*entry.second, variant, 4);
      std::string label = std::string(entry.first) + "/" +
                          ChaseVariantName(variant);
      ExpectBitIdentical(serial, parallel, label.c_str());
    }
  }
}

TEST(ParallelDiscoveryTest, BitIdenticalForEveryTriggerOrder) {
  ParsedProgram program = MakeUniversityInstance(30);
  for (TriggerOrder order :
       {TriggerOrder::kFifo, TriggerOrder::kDatalogFirst,
        TriggerOrder::kRandom}) {
    CapturedRun serial =
        Capture(program, ChaseVariant::kRestricted, 1, order, 17);
    CapturedRun parallel =
        Capture(program, ChaseVariant::kRestricted, 4, order, 17);
    ExpectBitIdentical(serial, parallel, "order-mode");
  }
}

TEST(ParallelDiscoveryTest, CappedRunStillReportsResourceLimit) {
  // Invariant 4 of docs/architecture.md under parallel discovery: a
  // binding cap must never be misreported as termination.
  ParsedProgram program = MustParse(
      "person(X) -> hasFather(X,Y), person(Y).\n"
      "person(bob).\n");
  for (uint32_t threads : {1u, 4u}) {
    ChaseOptions options;
    options.max_atoms = 100;
    options.discovery_threads = threads;
    options.parallel_cutover_work = 0;
    ChaseResult result = RunChase(program.rules, options, program.facts);
    EXPECT_EQ(result.outcome, ChaseOutcome::kResourceLimit) << threads;
  }
  for (uint32_t threads : {1u, 4u}) {
    ChaseOptions options;
    options.max_hom_discoveries = 10;
    options.discovery_threads = threads;
    options.parallel_cutover_work = 0;
    ChaseResult result = RunChase(program.rules, options, program.facts);
    EXPECT_EQ(result.outcome, ChaseOutcome::kResourceLimit) << threads;
  }
}

TEST(ParallelDiscoveryTest, DeciderVerdictIsThreadCountInvariant) {
  StatusOr<NamedWorkload> diverging = FindWorkload("restricted_order_sensitive");
  ASSERT_TRUE(diverging.ok());
  StatusOr<ParsedProgram> program = LoadWorkload(*diverging);
  ASSERT_TRUE(program.ok());
  DeciderOptions serial_options;
  StatusOr<DeciderResult> serial = DecideTermination(
      program->rules, &program->vocabulary, ChaseVariant::kSemiOblivious,
      serial_options);
  DeciderOptions parallel_options;
  parallel_options.discovery_threads = 4;
  StatusOr<DeciderResult> parallel = DecideTermination(
      program->rules, &program->vocabulary, ChaseVariant::kSemiOblivious,
      parallel_options);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(serial->verdict, parallel->verdict);
  EXPECT_EQ(serial->applied_triggers, parallel->applied_triggers);
  EXPECT_EQ(parallel->chase_stats.discovery_threads, 4u);
}

// --- ChaseStats plumbing -------------------------------------------------

TEST(ChaseStatsTest, RunChaseExposesAllCounters) {
  ParsedProgram program = MakeClosureInstance(10);
  ChaseOptions options;
  options.variant = ChaseVariant::kSemiOblivious;
  ChaseResult result = RunChase(program.rules, options, program.facts);
  ASSERT_EQ(result.outcome, ChaseOutcome::kTerminated);

  // The convenience wrapper must not drop work counters: callers capping
  // discovery work need them to observe headroom.
  EXPECT_GT(result.hom_discoveries, 0u);
  EXPECT_GT(result.join_work, 0u);
  EXPECT_GE(result.hom_discoveries, result.applied_triggers);

  ASSERT_EQ(result.stats.per_rule.size(), program.rules.size());
  uint64_t applied = 0;
  for (const RuleStats& rule : result.stats.per_rule) {
    applied += rule.applied;
  }
  EXPECT_EQ(applied, result.applied_triggers);

  ASSERT_EQ(result.stats.per_round.size(), result.rounds);
  uint64_t round_applied = 0;
  for (const RoundStats& round : result.stats.per_round) {
    EXPECT_GT(round.delta_atoms, 0u);
    EXPECT_GT(round.candidates, 0u);
    EXPECT_GE(round.discovery_seconds, 0.0);
    EXPECT_GE(round.apply_seconds, 0.0);
    round_applied += round.applied;
  }
  EXPECT_EQ(round_applied, result.applied_triggers);

  EXPECT_EQ(result.stats.peak_atoms, result.instance.size());
  EXPECT_EQ(result.stats.peak_position_index_entries,
            uint64_t{result.instance.size()} * 2);  // binary predicate
  EXPECT_GT(result.stats.peak_position_index_keys, 0u);
  EXPECT_GT(result.stats.peak_dedup_keys, 0u);
  EXPECT_EQ(result.stats.discovery_threads, 1u);
}

TEST(ChaseStatsTest, RestrictedSkipsAreCounted) {
  ParsedProgram program = MustParse(
      "person(X) -> hasFather(X,Y).\n"
      "person(bob). hasFather(bob,carl).\n");
  ChaseOptions options;
  options.variant = ChaseVariant::kRestricted;
  ChaseResult result = RunChase(program.rules, options, program.facts);
  ASSERT_EQ(result.outcome, ChaseOutcome::kTerminated);
  EXPECT_EQ(result.applied_triggers, 0u);
  EXPECT_EQ(result.stats.per_rule[0].discovered, 1u);
  EXPECT_EQ(result.stats.per_rule[0].skipped_satisfied, 1u);
  EXPECT_EQ(result.stats.per_rule[0].applied, 0u);
}

// --- null-cap overflow safety -------------------------------------------

TEST(NullCapTest, BoundaryAtTheCapIsExact) {
  // Each trigger creates two nulls. With max_nulls = 3 the first trigger
  // fits (2 nulls) and the second must be refused without wrapping or
  // overshooting: exactly 2 nulls allocated.
  ParsedProgram program = MustParse(
      "p(X) -> q(X,Y), r(X,Z).\n"
      "p(a). p(b).\n");
  ChaseOptions options;
  options.variant = ChaseVariant::kSemiOblivious;
  options.max_nulls = 3;
  ChaseResult result = RunChase(program.rules, options, program.facts);
  EXPECT_EQ(result.outcome, ChaseOutcome::kResourceLimit);
  EXPECT_EQ(result.nulls_created, 2u);

  // max_nulls = 4 admits both triggers and the run terminates.
  options.max_nulls = 4;
  ChaseResult exact = RunChase(program.rules, options, program.facts);
  EXPECT_EQ(exact.outcome, ChaseOutcome::kTerminated);
  EXPECT_EQ(exact.nulls_created, 4u);
}

TEST(NullCapTest, HugeCapDoesNotWrapTheGuard) {
  // Regression: with a 32-bit null counter the guard `next + k > cap`
  // wrapped for caps near the type maximum. The check must stay exact for
  // the full 64-bit range of max_nulls.
  ParsedProgram program = MustParse(
      "p(X) -> p(Y).\n"
      "p(a).\n");
  for (uint64_t cap :
       {std::numeric_limits<uint64_t>::max(),
        std::numeric_limits<uint64_t>::max() - 1,
        uint64_t{1} << 32}) {
    ChaseOptions options;
    options.variant = ChaseVariant::kOblivious;
    options.max_nulls = cap;
    options.max_atoms = 50;  // the binding cap
    ChaseResult result = RunChase(program.rules, options, program.facts);
    EXPECT_EQ(result.outcome, ChaseOutcome::kResourceLimit);
    // The null guard must not fire spuriously: the atom cap binds first,
    // so nulls track atoms, not some wrapped remnant of the null cap.
    EXPECT_GT(result.nulls_created, 10u);
  }
}

// --- kRandom seed decorrelation -----------------------------------------

TEST(RandomOrderSeedingTest, MixedStreamsAreDistinctAcrossSeedRoundGrid) {
  // Regression: Rng(seed + round) made (s, r+1) replay (s+1, r). The
  // SplitMix64 mix must give a distinct stream for every (seed, round)
  // pair — in particular along the diagonals that used to collide.
  std::set<uint64_t> first_draws;
  for (uint64_t seed = 0; seed < 64; ++seed) {
    for (uint64_t round = 1; round <= 64; ++round) {
      Rng rng(SplitMix64(seed ^ SplitMix64(round)));
      first_draws.insert(rng.NextUint64());
    }
  }
  EXPECT_EQ(first_draws.size(), 64u * 64u);
}

TEST(RandomOrderSeedingTest, AdjacentSeedsDivergeInTheEngine) {
  // A workload with enough triggers per round that distinct shuffles are
  // overwhelmingly likely to differ somewhere in the trigger sequence.
  ParsedProgram program = MakeClosureInstance(12);
  auto sequence_for = [&](uint64_t seed) {
    CapturedRun run = Capture(program, ChaseVariant::kSemiOblivious, 1,
                              TriggerOrder::kRandom, seed);
    std::vector<Binding> bindings;
    bindings.reserve(run.triggers.size());
    for (const CapturedTrigger& record : run.triggers) {
      bindings.push_back(record.binding);
    }
    return bindings;
  };
  std::vector<Binding> base = sequence_for(1);
  bool any_diverged = false;
  for (uint64_t seed = 2; seed <= 5 && !any_diverged; ++seed) {
    any_diverged = sequence_for(seed) != base;
  }
  EXPECT_TRUE(any_diverged);
  // Same seed replays the same sequence (determinism is untouched).
  EXPECT_EQ(sequence_for(1), base);
}

// --- persistent executor -------------------------------------------------

TEST(ThreadPoolTest, SharedPoolSurvivesConsecutiveRuns) {
  // One pool, two complete RunChase executions: the second run must reuse
  // the parked workers (no respawn, no poisoned state) and still produce
  // the serial-identical result.
  auto pool = std::make_shared<ThreadPool>(4);
  ParsedProgram program = MakeClosureInstance(20);
  CapturedRun serial = Capture(program, ChaseVariant::kSemiOblivious, 1);
  CapturedRun first = Capture(program, ChaseVariant::kSemiOblivious, 4,
                              TriggerOrder::kFifo, 0, pool);
  CapturedRun second = Capture(program, ChaseVariant::kSemiOblivious, 4,
                               TriggerOrder::kFifo, 0, pool);
  ExpectBitIdentical(serial, first, "pool first run");
  ExpectBitIdentical(serial, second, "pool second run");
  EXPECT_EQ(pool->worker_count(), 4u);
}

TEST(ThreadPoolTest, ParallelForCoversEveryUnitExactlyOnce) {
  ThreadPool pool(4);
  for (uint64_t n : {0ull, 1ull, 7ull, 1000ull}) {
    std::vector<std::atomic<uint32_t>> hits(n);
    pool.ParallelFor(n, [&](uint64_t u) {
      hits[u].fetch_add(1, std::memory_order_relaxed);
    });
    for (uint64_t u = 0; u < n; ++u) {
      ASSERT_EQ(hits[u].load(), 1u) << "n=" << n << " unit " << u;
    }
  }
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<uint64_t> total{0};
  pool.ParallelFor(8, [&](uint64_t) {
    EXPECT_TRUE(ThreadPool::InPoolTask());
    // The nested call must inline serially on this worker, not wait for
    // pool slots that are all busy running the outer loop.
    pool.ParallelFor(16, [&](uint64_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 8u * 16u);
  EXPECT_FALSE(ThreadPool::InPoolTask());
}

TEST(ThreadPoolTest, WorkerExceptionRethrownOnSubmittingThread) {
  // A throw from fn on any worker must surface on the thread that called
  // ParallelFor — never std::terminate a helper — and must not poison
  // the pool for the next job.
  ThreadPool pool(4);
  std::atomic<uint64_t> executed{0};
  bool caught = false;
  try {
    pool.ParallelFor(1000, [&](uint64_t u) {
      if (u == 137) throw std::runtime_error("unit 137 failed");
      executed.fetch_add(1, std::memory_order_relaxed);
    });
  } catch (const std::runtime_error& error) {
    caught = true;
    EXPECT_STREQ(error.what(), "unit 137 failed");
  }
  EXPECT_TRUE(caught);
  EXPECT_LT(executed.load(), 1000u);  // the failed job drained, not ran out
  std::atomic<uint64_t> clean{0};
  pool.ParallelFor(64, [&](uint64_t) {
    clean.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(clean.load(), 64u);
}

TEST(ThreadPoolTest, ConcurrentThrowsKeepFirstExceptionAndAlwaysDrain) {
  // Many workers throw within one job: exactly one exception comes back,
  // the job's remaining units are claimed and skipped (no hang), and
  // consecutive failing jobs stay independent.
  ThreadPool pool(4);
  for (int round = 0; round < 5; ++round) {
    EXPECT_THROW(pool.ParallelFor(256,
                                  [](uint64_t u) {
                                    throw std::invalid_argument(
                                        std::to_string(u));
                                  }),
                 std::invalid_argument);
  }
}

TEST(ThreadPoolTest, SerialFastPathPropagatesExceptionsNaturally) {
  // A 1-worker pool (and nested calls) run inline; the throw takes the
  // ordinary unwinding path with no capture machinery involved.
  ThreadPool pool(1);
  EXPECT_THROW(
      pool.ParallelFor(4, [](uint64_t) -> void { throw std::bad_alloc(); }),
      std::bad_alloc);
}

// --- determinism under fault injection -----------------------------------

TEST(ParallelDiscoveryTest, FaultAbortIsBitIdenticalAtEightThreads) {
  // Cancel at the Nth discovery-unit checkpoint overall. Every completed
  // round visits all of its units exactly once in both engines, so the
  // trip lands in the same round serially and in parallel; a tripped
  // round's candidates are dropped wholesale, so outcome and instance
  // must match bit for bit even though the tripping unit may differ.
  ParsedProgram program = MakeClosureInstance(16);
  // Count the run's discovery checkpoints first so every sampled nth is
  // guaranteed to fire (a never-firing injector would test nothing).
  auto counter = std::make_shared<std::atomic<uint64_t>>(0);
  Capture(program, ChaseVariant::kSemiOblivious, 1, TriggerOrder::kFifo, 0,
          nullptr, [counter](FaultSite site, uint64_t) {
            if (site == FaultSite::kDiscovery) counter->fetch_add(1);
            return InjectedFault::kNone;
          });
  const uint64_t total_units = counter->load();
  ASSERT_GE(total_units, 4u);
  for (uint64_t nth : {uint64_t{1}, total_units / 2, total_units}) {
    auto make_injector = [&]() {
      auto calls = std::make_shared<std::atomic<uint64_t>>(0);
      return FaultInjector([calls, nth](FaultSite site, uint64_t) {
        if (site != FaultSite::kDiscovery) return InjectedFault::kNone;
        return calls->fetch_add(1) + 1 == nth ? InjectedFault::kCancel
                                              : InjectedFault::kNone;
      });
    };
    CapturedRun serial =
        Capture(program, ChaseVariant::kSemiOblivious, 1, TriggerOrder::kFifo,
                0, nullptr, make_injector());
    CapturedRun parallel =
        Capture(program, ChaseVariant::kSemiOblivious, 8, TriggerOrder::kFifo,
                0, nullptr, make_injector());
    EXPECT_EQ(serial.outcome, ChaseOutcome::kCancelled) << nth;
    std::string label = "fault nth=" + std::to_string(nth);
    ExpectBitIdentical(serial, parallel, label.c_str());
  }
}

// --- adaptive cutover ----------------------------------------------------

TEST(AdaptiveCutoverTest, SmallRoundsRunSerialLargeThresholdZeroForces) {
  ParsedProgram program = MakeClosureInstance(20);
  // A huge threshold keeps every round serial even at 4 threads...
  ChaseOptions options;
  options.variant = ChaseVariant::kSemiOblivious;
  options.discovery_threads = 4;
  options.parallel_cutover_work = std::numeric_limits<uint64_t>::max();
  ChaseResult all_serial = RunChase(program.rules, options, program.facts);
  EXPECT_EQ(all_serial.stats.parallel_rounds, 0u);
  for (const RoundStats& round : all_serial.stats.per_round) {
    EXPECT_FALSE(round.parallel_discovery);
    EXPECT_GT(round.estimated_work, 0u);
  }
  // ...threshold 0 forces the pool for every round...
  options.parallel_cutover_work = 0;
  ChaseResult all_parallel = RunChase(program.rules, options, program.facts);
  EXPECT_EQ(all_parallel.stats.parallel_rounds,
            all_parallel.stats.per_round.size());
  // ...and the scheduling choice never changes the result.
  EXPECT_EQ(all_serial.outcome, all_parallel.outcome);
  EXPECT_EQ(all_serial.applied_triggers, all_parallel.applied_triggers);
  ASSERT_EQ(all_serial.instance.size(), all_parallel.instance.size());
  for (AtomId id = 0; id < all_serial.instance.size(); ++id) {
    ASSERT_TRUE(all_serial.instance.atom(id) == all_parallel.instance.atom(id))
        << "atom " << id;
  }
}

}  // namespace
}  // namespace gchase
