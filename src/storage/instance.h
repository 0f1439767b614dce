#ifndef GCHASE_STORAGE_INSTANCE_H_
#define GCHASE_STORAGE_INSTANCE_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "base/check.h"
#include "base/memory_budget.h"
#include "model/atom.h"
#include "storage/arena.h"

namespace gchase {

/// Which atoms of the instance a conjunct may match; used for semi-naive
/// trigger discovery (every new homomorphism must touch the delta). Lives
/// with the storage layer because the posting-list probe API clips to a
/// range directly — append-ordered ids make both bounds a binary search.
enum class MatchRange {
  kAll,       ///< Any atom.
  kOldOnly,   ///< Atoms with id < watermark.
  kDeltaOnly, ///< Atoms with id >= watermark.
};

/// A borrowed, range-clipped view of one posting list. `full_size` is the
/// unclipped list length — the join-work charge of scanning the list in
/// the backtracking engine, which visits every candidate and filters by
/// range per candidate. Keeping the two separate lets the set-at-a-time
/// plan executor skip out-of-range candidates without touching them while
/// still accounting visits in the legacy engine's units.
struct PostingView {
  const AtomId* begin = nullptr;
  const AtomId* end = nullptr;
  uint32_t full_size = 0;

  uint32_t size() const { return static_cast<uint32_t>(end - begin); }
};

/// Clip an append-ordered posting list to `range` relative to `watermark`.
/// Because ids are sorted, one binary search finds the boundary; kAll needs
/// no search at all. full_size stays the unclipped length — the legacy
/// engine's visit count for scanning this list. Exposed inline so hot
/// executor loops can probe raw lists (hash lookup only) and clip just the
/// list they actually scan.
inline PostingView ClipPostings(PostingList ids, MatchRange range,
                                AtomId watermark) {
  PostingView view;
  view.begin = ids.begin();
  view.end = ids.end();
  view.full_size = ids.size();
  if (range == MatchRange::kAll) return view;
  const AtomId* split = std::lower_bound(view.begin, view.end, watermark);
  if (range == MatchRange::kOldOnly) {
    view.end = split;
  } else {
    view.begin = split;
  }
  return view;
}

/// A set of ground atoms (facts over constants and labeled nulls) stored
/// columnar:
///  - all atom arguments live in one contiguous TermArena; an atom is a
///    (predicate, offset, arity) record, read through AtomView — no
///    per-atom heap allocation;
///  - content-hash dedup via an open-addressing table of 8-byte
///    {low 32 hash bits, atom id} slots that hashes each probe atom
///    exactly once (TryAdd = Contains + Insert in one probe);
///  - a per-predicate atom list;
///  - a (predicate, position, term) -> atoms PositionIndex, used by the
///    join engines to seed and extend matches: 16-byte slots pointing at
///    append-ordered runs of one shared AtomId pool, so no key owns a
///    heap block.
///
/// Thread-safety contract: all const members are safe to call from any
/// number of threads concurrently as long as no thread is mutating (there
/// are no mutable caches and no lazily built indexes). The chase's
/// parallel trigger-discovery phase relies on exactly this: workers share
/// one read-only Instance between mutation-free phases.
///
/// Invalidation contract: AtomViews, TermSpans and PostingLists borrow
/// from the instance's internal arrays and are invalidated by the next
/// TryAdd/TryAddBatch/Insert/ReserveAdditional — any insert may relocate
/// a posting run or reallocate the pool under every list. AtomIds are
/// stable forever.
class Instance {
 public:
  Instance() = default;

  /// Inserts `atom` (must be ground) unless already present. Returns the
  /// atom's id — the prior id on a duplicate — and whether it was new.
  /// The atom is hashed exactly once, shared by the dedup probe and the
  /// insert, so a Contains-then-Add sequence should be a single TryAdd.
  std::pair<AtomId, bool> TryAdd(const Atom& atom);

  /// Allocation-free TryAdd over raw storage: `args` points at `arity`
  /// ground terms (any contiguous buffer; it need not outlive the call,
  /// but must not alias this instance's own arena — insertion may
  /// reallocate it). Same dedup/id semantics as TryAdd(Atom).
  std::pair<AtomId, bool> TryAddTerms(PredicateId pred, const Term* args,
                                      uint32_t arity);

  /// Bulk insert of `n` same-shape atoms: `terms` holds n*arity ground
  /// terms, row-major (atom i's arguments at terms + i*arity). All
  /// structures are pre-sized exactly once up front, then rows are
  /// deduped and appended in order — duplicate rows (within the block or
  /// against the store) are skipped, and surviving rows get contiguous
  /// append-ordered ids, exactly as if inserted one TryAdd at a time.
  /// Returns the number of rows actually added.
  uint32_t TryAddBatch(PredicateId pred, const Term* terms, uint32_t arity,
                       uint32_t n);

  /// Synonym for TryAdd (the historical name).
  std::pair<AtomId, bool> Insert(const Atom& atom) { return TryAdd(atom); }

  bool Contains(const Atom& atom) const { return Find(atom).has_value(); }

  /// Returns the id of `atom` if present.
  std::optional<AtomId> Find(const Atom& atom) const;

  /// Allocation-free Find/Contains over raw storage.
  std::optional<AtomId> FindTerms(PredicateId pred, const Term* args,
                                  uint32_t arity) const;
  bool ContainsTerms(PredicateId pred, const Term* args, uint32_t arity) const {
    return FindTerms(pred, args, arity).has_value();
  }

  /// Borrowed view of the atom; invalidated by the next insertion.
  AtomView atom(AtomId id) const {
    GCHASE_CHECK(id < records_.size());
    const AtomRecord& record = records_[id];
    return AtomView{record.predicate,
                    arena_.Span(record.offset, record.arity)};
  }

  uint32_t size() const { return static_cast<uint32_t>(records_.size()); }
  bool empty() const { return records_.empty(); }

  /// Iterable range of AtomViews in id order:
  /// `for (AtomView atom : instance.atoms())`.
  class AtomIterator {
   public:
    AtomIterator(const Instance* instance, AtomId id)
        : instance_(instance), id_(id) {}
    AtomView operator*() const { return instance_->atom(id_); }
    AtomIterator& operator++() {
      ++id_;
      return *this;
    }
    friend bool operator!=(const AtomIterator& a, const AtomIterator& b) {
      return a.id_ != b.id_;
    }
    friend bool operator==(const AtomIterator& a, const AtomIterator& b) {
      return a.id_ == b.id_;
    }

   private:
    const Instance* instance_;
    AtomId id_;
  };
  class AtomRange {
   public:
    explicit AtomRange(const Instance* instance) : instance_(instance) {}
    AtomIterator begin() const { return AtomIterator(instance_, 0); }
    AtomIterator end() const {
      return AtomIterator(instance_, instance_->size());
    }

   private:
    const Instance* instance_;
  };
  AtomRange atoms() const { return AtomRange(this); }

  /// Owning copies of all atoms in id order (for callers that need to
  /// outlive the instance or mutate; iteration should use atoms()).
  std::vector<Atom> MaterializeAtoms() const;

  /// Ids of atoms with this predicate (append order).
  PostingList AtomsWithPredicate(PredicateId pred) const;

  /// Number of atoms with this predicate whose id is >= `watermark` —
  /// the per-predicate delta cardinality, O(log n) via the append-ordered
  /// posting list. Feeds round-start work estimates.
  uint32_t CountWithPredicateSince(PredicateId pred, AtomId watermark) const;

  /// Ids of atoms with `term` at `position` of `pred` (append order).
  PostingList AtomsWithTermAt(PredicateId pred, uint32_t position,
                              Term term) const {
    return position_index_.Find(PositionIndex::Key(pred, position, term));
  }

  /// Range-clipped view of AtomsWithPredicate(pred): the ids in `range`
  /// relative to `watermark`, found by binary search on the append-ordered
  /// list, plus the unclipped length for visit accounting.
  PostingView PredicatePostings(PredicateId pred, MatchRange range,
                                AtomId watermark) const;

  /// Range-clipped view of AtomsWithTermAt(pred, position, term).
  PostingView PositionPostings(PredicateId pred, uint32_t position, Term term,
                               MatchRange range, AtomId watermark) const;

  /// Number of distinct labeled nulls occurring in the instance.
  uint32_t CountNulls() const;

  /// Distinct (predicate, position, term) keys in the position index.
  uint64_t PositionIndexKeys() const { return position_index_.keys(); }

  /// Total posting-list entries across the position index (equals the sum
  /// of atom arities). Maintained as a plain counter so observability
  /// layers can sample it in O(1).
  uint64_t PositionIndexEntries() const { return position_index_.entries(); }

  /// Pool slots the position index has claimed: the entries plus the
  /// unfilled run tails and the ranges abandoned by relocated runs — the
  /// space cost of keeping every run contiguous.
  uint64_t PositionPoolSlots() const { return position_index_.pool_slots(); }

  /// Pre-sizes the arena, record array, dedup table and position index
  /// (its slots, and one pool slot per term) for `extra_atoms` more atoms
  /// carrying `extra_terms` arguments in total, so a bulk-add phase
  /// (delta application) proceeds without mid-flight rehashing. A hint:
  /// overestimates waste only reserved capacity; underestimates, and
  /// posting runs that relocate, fall back to geometric pool growth.
  void ReserveAdditional(uint64_t extra_atoms, uint64_t extra_terms);

  /// Bytes an equivalent ReserveAdditional(extra_atoms, extra_terms)
  /// would allocate right now, projected from the exact growth policies
  /// of every structure (vector reserve, the posting pool included; dedup
  /// table at 8 and position index at 16 bytes/slot, both at max load
  /// 1/2 with power-of-two doubling). Memory governance hoists its budget
  /// check to this projection so a denial happens *before* the reserve
  /// commits the bytes. Excludes the per-predicate lists and the pool
  /// slots that run relocations claim beyond one per term, whose
  /// geometric growth the governed per-trigger checkpoints bound instead.
  uint64_t EstimateReserveBytes(uint64_t extra_atoms,
                                uint64_t extra_terms) const;

  /// Bytes of heap capacity this instance currently retains across its
  /// growth sites (arena, records, dedup table, per-predicate lists,
  /// position index slots and posting pool). Maintained incrementally — O(1) to
  /// read. Copies inherit the source's figure, which upper-bounds their
  /// own allocation (a copied vector trims capacity to size).
  uint64_t MemoryFootprint() const { return footprint_bytes_; }

  /// Attaches (or, with nullptr, detaches) a byte budget. On attach the
  /// current footprint is charged; every later growth charges its delta,
  /// and destruction (or detach) releases the whole charge. The budget
  /// must outlive the instance. Copies of a budgeted instance are
  /// unbudgeted — a result snapshot must not double-charge the run's
  /// budget; moves transfer the charge.
  void SetMemoryBudget(MemoryBudget* budget) {
    budget_.Reset(budget);
    budget_.Charge(footprint_bytes_);
  }

 private:
  static constexpr AtomId kEmptySlot = 0xffffffffu;

  /// One dedup slot: the low 32 bits of the atom's content hash and its
  /// id (kEmptySlot = free). The stored bits filter probes and place the
  /// entry on rehash, which stays exact while the table has at most 2^32
  /// slots — at most 2^31 atoms at max load 1/2.
  struct DedupSlot {
    uint32_t hash = 0;
    AtomId id = kEmptySlot;
  };

  /// True if stored atom `id` equals (pred, args).
  bool RecordEquals(AtomId id, PredicateId pred, const Term* args,
                    uint32_t arity) const;

  /// Linear-probe slot for an atom with hash `hash`: either the slot
  /// holding its id or the empty slot where it would go. Requires a
  /// non-empty table.
  std::size_t DedupSlotFor(uint64_t hash, PredicateId pred, const Term* args,
                           uint32_t arity) const;

  /// Unconditionally appends a row known to be absent, with `slot` its
  /// free dedup slot (from DedupSlotFor after a miss). Returns the new id.
  AtomId AppendRow(PredicateId pred, const Term* args, uint32_t arity,
                   uint64_t hash, std::size_t slot);

  /// Grows the dedup table so `want` entries fit under the load cap.
  void GrowDedup(std::size_t want);

  /// Slot count GrowDedup(want) would leave the table at (its exact
  /// policy: max load 1/2, power-of-two doubling from 16).
  std::size_t GrownDedupCapacity(std::size_t want) const {
    if (!dedup_.empty() && want * 2 <= dedup_.size()) return dedup_.size();
    std::size_t capacity = dedup_.empty() ? 16 : dedup_.size();
    while (want * 2 > capacity) capacity *= 2;
    return capacity;
  }

  template <typename T>
  static uint64_t VectorBytes(const std::vector<T>& v) {
    return static_cast<uint64_t>(v.capacity()) * sizeof(T);
  }

  /// Folds one growth site's capacity delta (bytes before/after a
  /// mutation) into the footprint and the attached budget. Capacities are
  /// append-only here, so `after >= before` always.
  void AccountGrowth(uint64_t before_bytes, uint64_t after_bytes) {
    if (after_bytes == before_bytes) return;
    const uint64_t delta = after_bytes - before_bytes;
    footprint_bytes_ += delta;
    budget_.Charge(delta);
  }

  /// RAII handle on the budget charge: releases on destruction, drops on
  /// copy (copies are unbudgeted), transfers on move — which is what
  /// keeps Instance's implicit copy/move correct without hand-written
  /// member lists.
  class BudgetAttachment {
   public:
    BudgetAttachment() = default;
    ~BudgetAttachment() { Reset(nullptr); }
    BudgetAttachment(const BudgetAttachment&) {}
    BudgetAttachment& operator=(const BudgetAttachment&) {
      Reset(nullptr);
      return *this;
    }
    BudgetAttachment(BudgetAttachment&& other) noexcept
        : budget_(std::exchange(other.budget_, nullptr)),
          charged_(std::exchange(other.charged_, 0)) {}
    BudgetAttachment& operator=(BudgetAttachment&& other) noexcept {
      if (this != &other) {
        Reset(nullptr);
        budget_ = std::exchange(other.budget_, nullptr);
        charged_ = std::exchange(other.charged_, 0);
      }
      return *this;
    }

    void Reset(MemoryBudget* budget) {
      if (budget_ != nullptr && charged_ != 0) budget_->Release(charged_);
      budget_ = budget;
      charged_ = 0;
    }
    void Charge(uint64_t bytes) {
      if (budget_ == nullptr || bytes == 0) return;
      budget_->Charge(bytes);
      charged_ += bytes;
    }
    MemoryBudget* get() const { return budget_; }

   private:
    MemoryBudget* budget_ = nullptr;
    uint64_t charged_ = 0;
  };

  TermArena arena_;
  std::vector<AtomRecord> records_;
  /// Open-addressing dedup; stored hash bits make rehash-on-grow a move,
  /// not a recompute.
  std::vector<DedupSlot> dedup_;
  std::vector<std::vector<AtomId>> by_predicate_;
  PositionIndex position_index_;
  /// Retained heap capacity across all growth sites; see MemoryFootprint.
  uint64_t footprint_bytes_ = 0;
  BudgetAttachment budget_;
};

}  // namespace gchase

#endif  // GCHASE_STORAGE_INSTANCE_H_
