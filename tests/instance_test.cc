#include "storage/instance.h"

#include <string>
#include <vector>

#include "base/memory_budget.h"
#include "gtest/gtest.h"
#include "model/atom.h"
#include "model/vocabulary.h"
#include "storage/io.h"

namespace gchase {
namespace {

Atom MakeAtom(PredicateId pred, std::vector<uint32_t> constant_ids) {
  Atom atom;
  atom.predicate = pred;
  for (uint32_t id : constant_ids) atom.args.push_back(Term::Constant(id));
  return atom;
}

TEST(InstanceTest, InsertDedupsAndAssignsDenseIds) {
  Instance instance;
  auto [id0, new0] = instance.Insert(MakeAtom(0, {1, 2}));
  auto [id1, new1] = instance.Insert(MakeAtom(0, {1, 3}));
  auto [id2, new2] = instance.Insert(MakeAtom(0, {1, 2}));
  EXPECT_TRUE(new0);
  EXPECT_TRUE(new1);
  EXPECT_FALSE(new2);
  EXPECT_EQ(id0, 0u);
  EXPECT_EQ(id1, 1u);
  EXPECT_EQ(id2, id0);
  EXPECT_EQ(instance.size(), 2u);
  EXPECT_TRUE(instance.Contains(MakeAtom(0, {1, 2})));
  EXPECT_FALSE(instance.Contains(MakeAtom(0, {9, 9})));
  EXPECT_EQ(instance.Find(MakeAtom(0, {1, 3})), std::optional<AtomId>(1u));
}

TEST(InstanceTest, PredicateIndex) {
  Instance instance;
  instance.Insert(MakeAtom(0, {1}));
  instance.Insert(MakeAtom(2, {1}));
  instance.Insert(MakeAtom(0, {2}));
  EXPECT_EQ(instance.AtomsWithPredicate(0).size(), 2u);
  EXPECT_EQ(instance.AtomsWithPredicate(1).size(), 0u);
  EXPECT_EQ(instance.AtomsWithPredicate(2).size(), 1u);
  EXPECT_EQ(instance.AtomsWithPredicate(99).size(), 0u);
}

TEST(InstanceTest, PositionIndex) {
  Instance instance;
  instance.Insert(MakeAtom(0, {1, 2}));
  instance.Insert(MakeAtom(0, {1, 3}));
  instance.Insert(MakeAtom(0, {2, 2}));
  EXPECT_EQ(instance.AtomsWithTermAt(0, 0, Term::Constant(1)).size(), 2u);
  EXPECT_EQ(instance.AtomsWithTermAt(0, 1, Term::Constant(2)).size(), 2u);
  EXPECT_EQ(instance.AtomsWithTermAt(0, 1, Term::Constant(9)).size(), 0u);
}

TEST(InstanceTest, CountNulls) {
  Instance instance;
  Atom atom(0, {Term::Null(0), Term::Null(1)});
  Atom atom2(0, {Term::Null(1), Term::Constant(0)});
  instance.Insert(atom);
  instance.Insert(atom2);
  EXPECT_EQ(instance.CountNulls(), 2u);
}

TEST(InstanceDeathTest, RejectsNonGroundAtoms) {
  Instance instance;
  Atom bad(0, {Term::Variable(0)});
  EXPECT_DEATH(instance.Insert(bad), "ground");
}

// --- columnar storage: TryAdd, views, arena ------------------------------

TEST(InstanceTest, TryAddReturnsPriorIdWithoutSeparateContains) {
  // The single-probe contract: a duplicate TryAdd hands back the original
  // id, so Contains-then-Add call sites collapse into one hash + probe.
  Instance instance;
  auto [id0, new0] = instance.TryAdd(MakeAtom(3, {7, 8, 9}));
  EXPECT_TRUE(new0);
  for (int repeat = 0; repeat < 3; ++repeat) {
    auto [id, inserted] = instance.TryAdd(MakeAtom(3, {7, 8, 9}));
    EXPECT_FALSE(inserted);
    EXPECT_EQ(id, id0);
  }
  EXPECT_EQ(instance.size(), 1u);
}

TEST(InstanceTest, AtomViewsMirrorInsertedAtoms) {
  Instance instance;
  Atom original = MakeAtom(5, {1, 2, 3});
  auto [id, inserted] = instance.TryAdd(original);
  ASSERT_TRUE(inserted);
  const AtomView view = instance.atom(id);
  EXPECT_EQ(view.predicate, original.predicate);
  ASSERT_EQ(view.arity(), original.arity());
  for (uint32_t i = 0; i < view.arity(); ++i) {
    EXPECT_EQ(view.args[i], original.args[i]);
  }
  EXPECT_FALSE(view.HasNull());
  EXPECT_TRUE(view.ToAtom() == original);

  // atoms() iterates views in id order; MaterializeAtoms copies them.
  instance.TryAdd(MakeAtom(5, {4, 5, 6}));
  std::vector<Atom> materialized = instance.MaterializeAtoms();
  ASSERT_EQ(materialized.size(), instance.size());
  AtomId next = 0;
  for (AtomView atom : instance.atoms()) {
    EXPECT_TRUE(atom.ToAtom() == materialized[next]);
    EXPECT_TRUE(atom == instance.atom(next));
    ++next;
  }
  EXPECT_EQ(next, instance.size());
}

TEST(InstanceTest, ZeroArityAtomsRoundTripThroughTheArena) {
  Instance instance;
  Atom nullary;
  nullary.predicate = 2;
  auto [id, inserted] = instance.TryAdd(nullary);
  EXPECT_TRUE(inserted);
  EXPECT_FALSE(instance.TryAdd(nullary).second);
  EXPECT_EQ(instance.atom(id).arity(), 0u);
  EXPECT_TRUE(instance.atom(id).ToAtom() == nullary);
}

TEST(InstanceTest, CountWithPredicateSinceMatchesWatermarkSemantics) {
  Instance instance;
  instance.TryAdd(MakeAtom(0, {1}));                          // id 0
  instance.TryAdd(MakeAtom(1, {1}));                          // id 1
  const AtomId watermark = instance.size();
  instance.TryAdd(MakeAtom(0, {2}));                          // id 2
  instance.TryAdd(MakeAtom(0, {3}));                          // id 3
  EXPECT_EQ(instance.CountWithPredicateSince(0, 0), 3u);
  EXPECT_EQ(instance.CountWithPredicateSince(0, watermark), 2u);
  EXPECT_EQ(instance.CountWithPredicateSince(1, watermark), 0u);
  EXPECT_EQ(instance.CountWithPredicateSince(9, 0), 0u);
}

TEST(InstanceTest, ReserveAdditionalPreservesContentAndIds) {
  Instance instance;
  for (uint32_t i = 0; i < 10; ++i) instance.TryAdd(MakeAtom(0, {i, i + 1}));
  std::vector<Atom> before = instance.MaterializeAtoms();
  instance.ReserveAdditional(1000, 2000);
  ASSERT_EQ(instance.size(), before.size());
  for (AtomId id = 0; id < instance.size(); ++id) {
    EXPECT_TRUE(instance.atom(id).ToAtom() == before[id]);
  }
  // Lookups still work after the rehash/reserve.
  EXPECT_TRUE(instance.Contains(MakeAtom(0, {3, 4})));
  EXPECT_EQ(instance.AtomsWithTermAt(0, 0, Term::Constant(3)).size(), 1u);
  // And bulk adds proceed on the reserved capacity.
  for (uint32_t i = 0; i < 1000; ++i) {
    instance.TryAdd(MakeAtom(1, {i, i}));
  }
  EXPECT_EQ(instance.size(), before.size() + 1000);
}

TEST(InstanceTest, ReserveAdditionalUnderestimateFallsBackToGeometricGrowth) {
  // A hint far below the eventual load is legal: the tables must fall
  // back to their geometric growth policies mid-add with no effect on
  // ids, dedup or the indexes. Twin an under-reserved instance against a
  // plain one and demand bit-identical behaviour.
  Instance reserved;
  reserved.ReserveAdditional(4, 8);
  Instance plain;
  for (uint32_t i = 0; i < 3000; ++i) {
    Atom atom = MakeAtom(i % 5, {i, i + 1});
    auto [reserved_id, reserved_new] = reserved.TryAdd(atom);
    auto [plain_id, plain_new] = plain.TryAdd(atom);
    ASSERT_EQ(reserved_id, plain_id);
    ASSERT_EQ(reserved_new, plain_new);
  }
  // A bulk batch bigger than the stale hint rides the same fallback.
  std::vector<Term> rows;
  for (uint32_t i = 0; i < 500; ++i) {
    rows.push_back(Term::Constant(100000 + i));
    rows.push_back(Term::Constant(i));
  }
  const uint32_t added_reserved =
      reserved.TryAddBatch(6, rows.data(), 2, 500);
  const uint32_t added_plain = plain.TryAddBatch(6, rows.data(), 2, 500);
  EXPECT_EQ(added_reserved, 500u);
  EXPECT_EQ(added_reserved, added_plain);
  ASSERT_EQ(reserved.size(), plain.size());
  for (uint32_t i = 0; i < 3000; ++i) {
    ASSERT_EQ(reserved.Find(MakeAtom(i % 5, {i, i + 1})),
              std::optional<AtomId>(i));
  }
  EXPECT_EQ(reserved.PositionIndexEntries(), plain.PositionIndexEntries());
  EXPECT_EQ(reserved.AtomsWithTermAt(6, 0, Term::Constant(100007)).size(), 1u);
}

TEST(InstanceTest, StressDedupAndPositionIndexAcrossGrowth) {
  // Push the open-addressing tables through several growth cycles and
  // verify every atom stays findable with a correct posting list.
  Instance instance;
  for (uint32_t i = 0; i < 5000; ++i) {
    auto [id, inserted] = instance.TryAdd(MakeAtom(i % 7, {i, i % 13}));
    ASSERT_TRUE(inserted);
    ASSERT_EQ(id, i);
  }
  for (uint32_t i = 0; i < 5000; ++i) {
    ASSERT_EQ(instance.Find(MakeAtom(i % 7, {i, i % 13})),
              std::optional<AtomId>(i));
    ASSERT_EQ(instance.AtomsWithTermAt(i % 7, 0, Term::Constant(i)).size(),
              1u);
  }
  EXPECT_EQ(instance.PositionIndexEntries(), 2u * 5000u);
}

// --- arena atoms round-trip bit-identically through io.cc ----------------

TEST(InstanceIoTest, ArenaAtomsRoundTripThroughTextIo) {
  // Ground atoms written by io.cc and read back must reproduce the arena
  // contents bit for bit (same predicates, same term raws, same order).
  Vocabulary vocabulary;
  StatusOr<PredicateId> p = vocabulary.schema.GetOrAdd("p", 2);
  StatusOr<PredicateId> q = vocabulary.schema.GetOrAdd("q", 1);
  ASSERT_TRUE(p.ok() && q.ok());
  Instance instance;
  for (uint32_t i = 0; i < 20; ++i) {
    Atom atom;
    atom.predicate = *p;
    atom.args.push_back(
        Term::Constant(vocabulary.constants.Intern("a" + std::to_string(i))));
    atom.args.push_back(Term::Constant(
        vocabulary.constants.Intern("b" + std::to_string(i % 5))));
    instance.TryAdd(atom);
    Atom unary;
    unary.predicate = *q;
    unary.args.push_back(
        Term::Constant(vocabulary.constants.Intern("a" + std::to_string(i))));
    instance.TryAdd(unary);
  }

  const std::string text = WriteInstanceText(instance, vocabulary);
  StatusOr<Instance> read = ReadInstanceText(text, &vocabulary);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->size(), instance.size());
  for (AtomId id = 0; id < instance.size(); ++id) {
    const AtomView a = instance.atom(id);
    const AtomView b = read->atom(id);
    ASSERT_EQ(a.predicate, b.predicate) << "atom " << id;
    ASSERT_EQ(a.arity(), b.arity()) << "atom " << id;
    for (uint32_t pos = 0; pos < a.arity(); ++pos) {
      ASSERT_EQ(a.args[pos].raw(), b.args[pos].raw())
          << "atom " << id << " pos " << pos;
    }
  }
  // Writing the read-back instance reproduces the text verbatim: the
  // serialization is a pure function of the arena contents.
  EXPECT_EQ(WriteInstanceText(*read, vocabulary), text);
}

TEST(InstanceIoTest, NulledAtomsWriteStableText) {
  // Labeled nulls cannot be re-read as constants, but their *written*
  // form must be a stable function of the arena (same text on every
  // call), since benchmarks diff serialized instances across engines.
  Vocabulary vocabulary;
  StatusOr<PredicateId> p = vocabulary.schema.GetOrAdd("p", 2);
  ASSERT_TRUE(p.ok());
  Instance instance;
  Atom atom;
  atom.predicate = *p;
  atom.args.push_back(
      Term::Constant(vocabulary.constants.Intern("c")));
  atom.args.push_back(Term::Null(42));
  instance.TryAdd(atom);
  const std::string first = WriteInstanceText(instance, vocabulary);
  EXPECT_EQ(first, WriteInstanceText(instance, vocabulary));
  EXPECT_NE(first.find("_:n42"), std::string::npos);
}

// --- bulk insertion: TryAddBatch -----------------------------------------

TEST(InstanceTest, TryAddBatchDedupsWithinTheBatch) {
  Instance instance;
  const Term rows[] = {
      Term::Constant(1), Term::Constant(2),  // new
      Term::Constant(1), Term::Constant(2),  // in-batch duplicate
      Term::Constant(3), Term::Constant(4),  // new
  };
  EXPECT_EQ(instance.TryAddBatch(5, rows, 2, 3), 2u);
  EXPECT_EQ(instance.size(), 2u);
  EXPECT_EQ(instance.Find(MakeAtom(5, {1, 2})), std::optional<AtomId>(0u));
  EXPECT_EQ(instance.Find(MakeAtom(5, {3, 4})), std::optional<AtomId>(1u));
}

TEST(InstanceTest, TryAddBatchDedupsAgainstExistingAtoms) {
  Instance instance;
  instance.Insert(MakeAtom(5, {1, 2}));
  const Term rows[] = {
      Term::Constant(1), Term::Constant(2),  // pre-existing
      Term::Constant(9), Term::Constant(9),  // new
  };
  EXPECT_EQ(instance.TryAddBatch(5, rows, 2, 2), 1u);
  EXPECT_EQ(instance.size(), 2u);
  // The fresh row got the next dense id, exactly as serial TryAdd would
  // have assigned it.
  EXPECT_EQ(instance.Find(MakeAtom(5, {9, 9})), std::optional<AtomId>(1u));
}

TEST(InstanceTest, TryAddBatchMaintainsAllIndexes) {
  // Batch-inserted atoms must be indistinguishable from serial inserts
  // in every index the join engine reads.
  Instance batch_built;
  Instance serial_built;
  std::vector<Term> rows;
  for (uint32_t i = 0; i < 64; ++i) {
    rows.push_back(Term::Constant(i % 7));
    rows.push_back(Term::Null(i));
    serial_built.TryAddTerms(3, &rows[rows.size() - 2], 2);
  }
  EXPECT_EQ(batch_built.TryAddBatch(3, rows.data(), 2, 64), 64u);
  ASSERT_EQ(batch_built.size(), serial_built.size());
  EXPECT_EQ(batch_built.AtomsWithPredicate(3).size(), 64u);
  for (uint32_t c = 0; c < 7; ++c) {
    EXPECT_EQ(batch_built.AtomsWithTermAt(3, 0, Term::Constant(c)),
              serial_built.AtomsWithTermAt(3, 0, Term::Constant(c)))
        << "constant " << c;
  }
  for (uint32_t i = 0; i < 64; ++i) {
    EXPECT_EQ(batch_built.AtomsWithTermAt(3, 1, Term::Null(i)),
              serial_built.AtomsWithTermAt(3, 1, Term::Null(i)))
        << "null " << i;
  }
}

TEST(InstanceTest, TryAddBatchEmptyAndZeroArity) {
  Instance instance;
  const Term dummy[] = {Term::Constant(0)};
  EXPECT_EQ(instance.TryAddBatch(1, dummy, 2, 0), 0u);
  EXPECT_EQ(instance.size(), 0u);
  // Zero-ary rows: all duplicates of each other after the first.
  EXPECT_EQ(instance.TryAddBatch(2, dummy, 0, 3), 1u);
  EXPECT_EQ(instance.size(), 1u);
  EXPECT_TRUE(instance.Contains(Atom(2, {})));
}

// -------------------------------------------------------------------------
// Posting runs: every position list is a run inside one shared pool that
// relocates as it fills. Readers must see exactly the per-key vector the
// runs replaced.

std::vector<AtomId> ToVector(PostingList list) {
  return std::vector<AtomId>(list.begin(), list.end());
}

TEST(InstanceTest, PostingRunsMatchAReferenceThroughEveryRelocation) {
  // Key k of position 0 receives an atom every (k + 1)-th step, so runs
  // of different lengths fill and relocate interleaved with each other;
  // key 0 grows through every size from 1 to 1,025, crossing each power
  // of two. Position 1 holds a fresh constant per atom (runs of one).
  constexpr uint32_t kKeys = 7;
  constexpr uint32_t kSteps = 1025;
  Instance instance;
  std::vector<std::vector<AtomId>> reference(kKeys);
  uint32_t next_constant = 1000;
  for (uint32_t step = 0; step < kSteps; ++step) {
    for (uint32_t key = 0; key < kKeys; ++key) {
      if (step % (key + 1) != 0) continue;
      auto [id, inserted] =
          instance.TryAdd(MakeAtom(0, {key, next_constant}));
      ASSERT_TRUE(inserted);
      reference[key].push_back(id);
      ASSERT_EQ(ToVector(instance.AtomsWithTermAt(
                    0, 1, Term::Constant(next_constant))),
                std::vector<AtomId>{id});
      ++next_constant;
    }
    for (uint32_t key = 0; key < kKeys; ++key) {
      ASSERT_EQ(ToVector(instance.AtomsWithTermAt(0, 0, Term::Constant(key))),
                reference[key])
          << "key " << key << " after step " << step;
    }
  }
  EXPECT_EQ(reference[0].size(), kSteps);
  EXPECT_EQ(instance.PositionIndexKeys(), kKeys + instance.size());
  EXPECT_EQ(instance.PositionIndexEntries(), 2u * instance.size());
  // A run of n entries has claimed 2 * nextpow2(n) - 1 < 4n pool slots.
  EXPECT_GE(instance.PositionPoolSlots(), instance.PositionIndexEntries());
  EXPECT_LT(instance.PositionPoolSlots(), 4 * instance.PositionIndexEntries());
}

TEST(InstanceTest, ClipPostingsOverARunMatchesALinearFilter) {
  Instance instance;
  std::vector<AtomId> reference;
  for (uint32_t i = 0; i < 300; ++i) {
    // Every third atom carries the probed key; the others interleave
    // other keys, so the run's ids are sparse and it relocates mid-way.
    const uint32_t key = i % 3 == 0 ? 7 : 8 + i;
    auto [id, inserted] = instance.TryAdd(MakeAtom(2, {key, i}));
    ASSERT_TRUE(inserted);
    if (key == 7) reference.push_back(id);
  }
  const PostingList run = instance.AtomsWithTermAt(2, 0, Term::Constant(7));
  ASSERT_EQ(ToVector(run), reference);
  for (AtomId watermark :
       {0u, 1u, 3u, 4u, 150u, 297u, 298u, 299u, 300u, 1000u}) {
    for (MatchRange range :
         {MatchRange::kAll, MatchRange::kOldOnly, MatchRange::kDeltaOnly}) {
      std::vector<AtomId> expected;
      for (AtomId id : reference) {
        if (range == MatchRange::kAll ||
            (range == MatchRange::kOldOnly) == (id < watermark)) {
          expected.push_back(id);
        }
      }
      const PostingView view = ClipPostings(run, range, watermark);
      EXPECT_EQ(std::vector<AtomId>(view.begin, view.end), expected)
          << "watermark " << watermark << " range " << static_cast<int>(range);
    }
  }
}

TEST(InstanceTest, KeysDifferingInOneComponentNeverShareARun) {
  // Each pair below differs only in the predicate, only in the position
  // or only in the term (value, or constant vs null of the same index).
  Instance instance;
  auto add = [&instance](PredicateId pred, Term first, Term second) {
    return instance.TryAdd(Atom(pred, {first, second})).first;
  };
  auto run = [&instance](PredicateId pred, uint32_t position, Term term) {
    return ToVector(instance.AtomsWithTermAt(pred, position, term));
  };
  const Term c5 = Term::Constant(5), c6 = Term::Constant(6);
  const Term c8 = Term::Constant(8), c9 = Term::Constant(9);
  const AtomId a = add(1, c5, c9);
  const AtomId b = add(2, c5, c9);
  const AtomId c = add(1, c9, c5);
  const AtomId d = add(1, Term::Null(5), c8);
  const AtomId e = add(1, c6, c8);
  const AtomId f = add(256, c5, c9);
  using Ids = std::vector<AtomId>;
  EXPECT_EQ(run(1, 0, c5), Ids{a});
  EXPECT_EQ(run(2, 0, c5), Ids{b});
  EXPECT_EQ(run(256, 0, c5), Ids{f});
  EXPECT_EQ(run(1, 1, c5), Ids{c});
  EXPECT_EQ(run(1, 0, Term::Null(5)), Ids{d});
  EXPECT_EQ(run(1, 0, c6), Ids{e});
  EXPECT_EQ(run(1, 1, c9), Ids{a});
  EXPECT_EQ(run(1, 1, c8), (Ids{d, e}));
  EXPECT_TRUE(instance.AtomsWithTermAt(3, 0, Term::Constant(5)).empty());
  EXPECT_TRUE(instance.AtomsWithTermAt(1, 1, Term::Null(9)).empty());
  EXPECT_EQ(instance.PositionIndexKeys(), 11u);
}

TEST(InstanceTest, CopiedInstanceReturnsEqualRuns) {
  Instance original;
  for (uint32_t i = 0; i < 500; ++i) {
    original.TryAdd(MakeAtom(i % 3, {i % 11, i}));
  }
  const Instance copy = original;
  ASSERT_EQ(copy.size(), original.size());
  EXPECT_EQ(copy.PositionIndexKeys(), original.PositionIndexKeys());
  for (PredicateId pred = 0; pred < 3; ++pred) {
    EXPECT_EQ(copy.AtomsWithPredicate(pred),
              original.AtomsWithPredicate(pred));
    for (uint32_t key = 0; key < 11; ++key) {
      const Term term = Term::Constant(key);
      const PostingList copied = copy.AtomsWithTermAt(pred, 0, term);
      const PostingList source = original.AtomsWithTermAt(pred, 0, term);
      EXPECT_FALSE(copied.empty());
      EXPECT_EQ(copied, source);
      EXPECT_NE(copied.begin(), source.begin());  // separate storage
    }
  }
  for (uint32_t i = 0; i < 500; ++i) {
    EXPECT_EQ(copy.AtomsWithTermAt(i % 3, 1, Term::Constant(i)),
              original.AtomsWithTermAt(i % 3, 1, Term::Constant(i)));
  }
}

TEST(InstanceTest, FootprintTracksTheBudgetThroughMixedGrowth) {
  MemoryBudget budget;
  Instance instance;
  instance.SetMemoryBudget(&budget);
  std::vector<Term> rows;
  for (uint32_t round = 0; round < 6; ++round) {
    // Per-atom inserts past any reserve: runs relocate and the pool grows
    // geometrically.
    for (uint32_t i = 0; i < 200; ++i) {
      instance.TryAdd(MakeAtom(0, {i % 5, round * 1000 + i}));
    }
    EXPECT_EQ(budget.in_use_bytes(), instance.MemoryFootprint());
    rows.clear();
    for (uint32_t i = 0; i < 300; ++i) {
      rows.push_back(Term::Constant(i % 4));
      rows.push_back(Term::Constant(round * 1000 + i % 150));
    }
    instance.TryAddBatch(1, rows.data(), 2, 300);
    EXPECT_EQ(budget.in_use_bytes(), instance.MemoryFootprint());
    instance.ReserveAdditional(round * 40, round * 90);
    EXPECT_EQ(budget.in_use_bytes(), instance.MemoryFootprint());
  }
  EXPECT_GT(instance.PositionPoolSlots(), instance.PositionIndexEntries());
  instance.SetMemoryBudget(nullptr);
  EXPECT_EQ(budget.in_use_bytes(), 0u);
}

}  // namespace
}  // namespace gchase
