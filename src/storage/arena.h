#ifndef GCHASE_STORAGE_ARENA_H_
#define GCHASE_STORAGE_ARENA_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/check.h"
#include "base/hash.h"
#include "model/atom.h"

namespace gchase {

/// A non-owning view of a contiguous run of terms inside a TermArena.
/// Iterable and indexable like the `std::vector<Term>` it replaces, so
/// `for (Term t : view.args)` and `view.args[pos]` read unchanged.
class TermSpan {
 public:
  TermSpan() = default;
  TermSpan(const Term* data, uint32_t size) : data_(data), size_(size) {}

  const Term* begin() const { return data_; }
  const Term* end() const { return data_ + size_; }
  uint32_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Term operator[](uint32_t i) const {
    GCHASE_CHECK(i < size_);
    return data_[i];
  }

  friend bool operator==(TermSpan a, TermSpan b) {
    if (a.size_ != b.size_) return false;
    for (uint32_t i = 0; i < a.size_; ++i) {
      if (a.data_[i] != b.data_[i]) return false;
    }
    return true;
  }
  friend bool operator!=(TermSpan a, TermSpan b) { return !(a == b); }

 private:
  const Term* data_ = nullptr;
  uint32_t size_ = 0;
};

/// Columnar atom storage: all arguments of all atoms of an instance live
/// in one contiguous term array, and each atom is a (predicate, offset,
/// arity) record into it. Appending an atom costs zero heap allocations
/// once the arena's geometric growth has levelled off — the per-atom
/// `std::vector<Term>` of the old row store is gone.
///
/// Invalidation rule: spans returned by `Span()` (and the `AtomView`s an
/// Instance builds from them) point into the arena and are invalidated by
/// the next `Append()`/`Reserve()` that reallocates. Hold them only
/// across mutation-free stretches — exactly the contract the
/// homomorphism search already obeys for posting lists.
class TermArena {
 public:
  /// Copies `count` terms into the arena; returns their offset.
  uint32_t Append(const Term* terms, uint32_t count) {
    const uint32_t offset = static_cast<uint32_t>(terms_.size());
    terms_.insert(terms_.end(), terms, terms + count);
    return offset;
  }

  TermSpan Span(uint32_t offset, uint32_t count) const {
    GCHASE_CHECK(offset + count <= terms_.size());
    return TermSpan(terms_.data() + offset, count);
  }

  const std::vector<Term>& terms() const { return terms_; }
  std::size_t size() const { return terms_.size(); }
  std::size_t capacity() const { return terms_.capacity(); }
  /// Bytes of heap capacity currently retained — the arena's contribution
  /// to Instance::MemoryFootprint().
  std::size_t capacity_bytes() const { return terms_.capacity() * sizeof(Term); }
  void Reserve(std::size_t total_terms) { terms_.reserve(total_terms); }

 private:
  std::vector<Term> terms_;
};

/// One atom of a columnar instance: 12 bytes, stored densely by id.
struct AtomRecord {
  PredicateId predicate = 0;
  uint32_t offset = 0;  ///< First argument's index in the TermArena.
  uint32_t arity = 0;
};

/// A lightweight, trivially-copyable view of a stored atom. Mirrors the
/// read surface of `Atom` (`.predicate`, `.args`, `.arity()`) so most
/// call sites work unchanged; materialize with `ToAtom()` where an owning
/// atom is genuinely needed (sets, maps, mutation).
///
/// Views borrow from the instance's arena: they are invalidated by the
/// next insertion (see TermArena's invalidation rule).
struct AtomView {
  PredicateId predicate = 0;
  TermSpan args;

  uint32_t arity() const { return args.size(); }

  bool HasNull() const {
    for (Term t : args) {
      if (t.IsNull()) return true;
    }
    return false;
  }

  Atom ToAtom() const {
    Atom atom;
    atom.predicate = predicate;
    atom.args.assign(args.begin(), args.end());
    return atom;
  }

  friend bool operator==(const AtomView& a, const AtomView& b) {
    return a.predicate == b.predicate && a.args == b.args;
  }
  friend bool operator!=(const AtomView& a, const AtomView& b) {
    return !(a == b);
  }
};

/// Content hash over a predicate and a term run — the single hash an
/// Instance computes per probe/insert. Identical to HashAtom for the same
/// logical atom, but usable against both an `Atom` and arena storage.
inline uint64_t HashAtomTerms(PredicateId predicate, const Term* args,
                              uint32_t arity) {
  std::size_t seed = 0x9ae16a3b2f90404fULL;
  HashCombine(&seed, predicate);
  for (uint32_t i = 0; i < arity; ++i) HashCombine(&seed, args[i].raw());
  // HashCombine diffuses the low bits poorly for sequential ids, and the
  // dedup table indexes with a power-of-two mask (no prime-bucket rescue
  // like unordered_map) — finalize with splitmix64 so low bits carry the
  // whole word.
  uint64_t h = seed;
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

/// Dense id of an atom within an Instance; ids are append-ordered and
/// stable, which lets callers use an id watermark as a "delta" boundary
/// for semi-naive evaluation.
using AtomId = uint32_t;

/// A borrowed view of one posting list: atom ids in append (so ascending)
/// order; copy it by value. Invalidated by the next insertion into the
/// instance it came from: a run may relocate inside the PositionIndex
/// pool, and the pool itself may reallocate.
class PostingList {
 public:
  using const_iterator = const AtomId*;  // lets test failures print ids

  PostingList() = default;
  PostingList(const AtomId* data, uint32_t size) : data_(data), size_(size) {}

  const AtomId* begin() const { return data_; }
  const AtomId* end() const { return data_ + size_; }
  uint32_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  friend bool operator==(PostingList a, PostingList b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  const AtomId* data_ = nullptr;
  uint32_t size_ = 0;
};

/// The (predicate, position, term) -> atoms position index. No key owns a
/// heap block, and a lookup reads one 16-byte slot:
///  - open addressing over {packed key, run offset, run size} slots, with
///    linear probing at a max load factor of 1/2 (join probes are
///    miss-heavy, and unsuccessful linear-probe chains grow as
///    1/(1-load)^2) and power-of-two doubling from 16 slots; size 0 marks
///    an empty slot;
///  - every posting list is a run of one shared AtomId pool. A run's
///    capacity is the next power of two of its size; when a run fills, it
///    moves to the end of the pool at twice its capacity and its old range
///    is abandoned. A run of n entries has thus consumed under 4n pool
///    slots over its life, and the pool holds no per-run header.
///
/// Ids arrive in ascending order, so every run is sorted — what
/// ClipPostings' binary search relies on.
class PositionIndex {
 public:
  /// Packs (pred, position, term) into one 64-bit key: term in the high
  /// word, then 24 bits of predicate and 8 of position.
  static uint64_t Key(PredicateId pred, uint32_t position, Term term) {
    GCHASE_CHECK(position < 256);
    GCHASE_CHECK(pred < (1u << 24));
    return (static_cast<uint64_t>(term.raw()) << 32) |
           (static_cast<uint64_t>(pred) << 8) | position;
  }

  /// The run stored under `key`; empty when the key is absent.
  PostingList Find(uint64_t key) const {
    if (slots_.empty()) return PostingList();
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(Mix(key)) & mask;
    while (slots_[i].size != 0) {
      if (slots_[i].key == key) {
        return PostingList(pool_.data() + slots_[i].offset, slots_[i].size);
      }
      i = (i + 1) & mask;
    }
    return PostingList();
  }

  /// Appends `id` to the run under `key`, opening the run if the key is
  /// new. Ids must arrive in ascending order per key.
  void Append(uint64_t key, AtomId id) {
    GrowSlots(keys_ + 1);
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(Mix(key)) & mask;
    while (slots_[i].size != 0 && slots_[i].key != key) i = (i + 1) & mask;
    Slot& slot = slots_[i];
    if (slot.size == 0) {
      slot.key = key;
      slot.offset = ClaimPool(1);
      ++keys_;
    } else if ((slot.size & (slot.size - 1)) == 0) {
      // A power-of-two size is a full run: relocate at twice the room.
      GCHASE_CHECK(slot.size <= (1u << 30));
      const uint32_t offset = ClaimPool(2 * slot.size);
      std::copy_n(pool_.data() + slot.offset, slot.size,
                  pool_.data() + offset);
      slot.offset = offset;
    }
    pool_[slot.offset + slot.size] = id;
    ++slot.size;
    ++entries_;
  }

  /// Pre-sizes for `extra_keys` more keys and `extra_entries` more pool
  /// slots, so that much growth neither rehashes nor reallocates.
  void Reserve(std::size_t extra_keys, std::size_t extra_entries) {
    GrowSlots(keys_ + extra_keys);
    pool_.reserve(pool_.size() + extra_entries);
  }

  /// Heap bytes Reserve(extra_keys, extra_entries) would add right now —
  /// its exact policy, so byte budgets can project a reserve's cost
  /// before committing it.
  uint64_t ReserveBytes(std::size_t extra_keys,
                        std::size_t extra_entries) const {
    uint64_t bytes =
        (SlotsFor(keys_ + extra_keys) - slots_.size()) * sizeof(Slot);
    const std::size_t want_pool = pool_.size() + extra_entries;
    if (want_pool > pool_.capacity()) {
      bytes += (want_pool - pool_.capacity()) * sizeof(AtomId);
    }
    return bytes;
  }

  /// Distinct keys.
  std::size_t keys() const { return keys_; }
  /// Live posting entries across all runs.
  uint64_t entries() const { return entries_; }
  /// Pool slots claimed so far: live entries, the unfilled tails of runs
  /// and the abandoned ranges of relocated runs.
  std::size_t pool_slots() const { return pool_.size(); }

  /// Bytes of heap capacity currently retained (slots + pool).
  std::size_t capacity_bytes() const {
    return slots_.capacity() * sizeof(Slot) +
           pool_.capacity() * sizeof(AtomId);
  }

 private:
  struct Slot {
    uint64_t key = 0;
    uint32_t offset = 0;  ///< First pool slot of the run.
    uint32_t size = 0;    ///< Entries in the run; 0 = empty slot.
  };
  static_assert(sizeof(Slot) == 16, "one probe, one 16-byte slot");

  static uint64_t Mix(uint64_t key) {
    // splitmix64 finalizer: full-avalanche, so linear probing does not
    // cluster on the structured (term, pred, pos) key packing.
    key ^= key >> 30;
    key *= 0xbf58476d1ce4e5b9ULL;
    key ^= key >> 27;
    key *= 0x94d049bb133111ebULL;
    key ^= key >> 31;
    return key;
  }

  /// Slot count for `want` keys: max load 1/2, power-of-two doubling
  /// from 16; never below the current count.
  std::size_t SlotsFor(std::size_t want) const {
    if (!slots_.empty() && want * 2 <= slots_.size()) return slots_.size();
    std::size_t capacity = slots_.empty() ? 16 : slots_.size();
    while (want * 2 > capacity) capacity *= 2;
    return capacity;
  }

  void GrowSlots(std::size_t want) {
    const std::size_t capacity = SlotsFor(want);
    if (capacity == slots_.size()) return;
    std::vector<Slot> old_slots = std::move(slots_);
    slots_.assign(capacity, Slot{});
    const std::size_t mask = capacity - 1;
    for (const Slot& slot : old_slots) {
      if (slot.size == 0) continue;
      std::size_t j = static_cast<std::size_t>(Mix(slot.key)) & mask;
      while (slots_[j].size != 0) j = (j + 1) & mask;
      slots_[j] = slot;
    }
  }

  /// Claims `count` slots at the end of the pool; returns the first.
  uint32_t ClaimPool(uint32_t count) {
    const std::size_t offset = pool_.size();
    GCHASE_CHECK_MSG(offset + count <= 0xffffffffu,
                     "position index pool past 2^32 slots");
    pool_.resize(offset + count);
    return static_cast<uint32_t>(offset);
  }

  std::vector<Slot> slots_;
  std::vector<AtomId> pool_;
  std::size_t keys_ = 0;
  uint64_t entries_ = 0;
};

}  // namespace gchase

#endif  // GCHASE_STORAGE_ARENA_H_
