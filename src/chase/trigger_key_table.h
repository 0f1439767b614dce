#ifndef GCHASE_CHASE_TRIGGER_KEY_TABLE_H_
#define GCHASE_CHASE_TRIGGER_KEY_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "model/term.h"
#include "model/tgd.h"

namespace gchase {

/// The set of trigger keys one rule has applied (or, for the restricted
/// chase, marked satisfied). A key is the images of the rule's key
/// variables under a body homomorphism: every universal variable for the
/// oblivious chase, the frontier for the semi-oblivious and restricted
/// ones. The width is fixed per rule, so keys live inline in one flat
/// open-addressing array — no node, no per-key vector.
///
/// Each slot is `width + 1` words: a non-zero hash tag (0 marks an empty
/// slot), then the key. Lookups take a binding row (terms indexed by
/// VarId) and project it through the key variables on the fly, so the
/// discovery merge dedups straight off columnar binding rows. Width 0 is
/// allowed: such a rule has exactly one key, the empty one.
///
/// Capacity is a power of two with linear probing at a max load factor of
/// 1/2, doubling from 16 slots like the PositionIndex. The table is never
/// pre-sized from binding-row counts: most rows of a high-fan-out rule
/// are duplicates.
class TriggerKeyTable {
 public:
  explicit TriggerKeyTable(std::vector<VarId> key_variables)
      : vars_(std::move(key_variables)),
        stride_(static_cast<uint32_t>(vars_.size()) + 1) {}

  /// The binding-row slots projected into the key, in key order.
  const std::vector<VarId>& key_variables() const { return vars_; }
  uint32_t width() const { return stride_ - 1; }
  /// Distinct keys stored.
  std::size_t size() const { return count_; }

  /// Inserts the key of binding row `row`; true if it was not present.
  bool InsertRow(const Term* row) {
    GrowIfNeeded(count_ + 1);
    const uint64_t hash = HashRow(row);
    const uint32_t tag = Tag(hash);
    std::size_t i = static_cast<std::size_t>(hash) & mask_;
    for (;;) {
      uint32_t* slot = slots_.data() + i * stride_;
      if (slot[0] == 0) {
        slot[0] = tag;
        for (uint32_t k = 0; k + 1 < stride_; ++k) {
          slot[k + 1] = row[vars_[k]].raw();
        }
        ++count_;
        return true;
      }
      if (slot[0] == tag && KeyEquals(slot + 1, row)) return false;
      i = (i + 1) & mask_;
    }
  }

  /// True if the key of binding row `row` is present.
  bool ContainsRow(const Term* row) const {
    if (count_ == 0) return false;
    const uint64_t hash = HashRow(row);
    const uint32_t tag = Tag(hash);
    std::size_t i = static_cast<std::size_t>(hash) & mask_;
    for (;;) {
      const uint32_t* slot = slots_.data() + i * stride_;
      if (slot[0] == 0) return false;
      if (slot[0] == tag && KeyEquals(slot + 1, row)) return true;
      i = (i + 1) & mask_;
    }
  }

  /// True if binding rows `a` and `b` have the same key.
  bool SameKey(const Term* a, const Term* b) const {
    for (VarId v : vars_) {
      if (a[v] != b[v]) return false;
    }
    return true;
  }

  /// Slot count (a power of two, or 0 before the first insert).
  std::size_t capacity_slots() const { return slots_.size() / stride_; }

 private:
  static uint64_t Step(uint64_t hash, uint32_t word) {
    return (hash ^ word) * 0x9e3779b97f4a7c15ULL;
  }

  static uint64_t Finalize(uint64_t hash) {
    // splitmix64 finalizer: the slot index takes the low bits and the tag
    // the high ones, so both must carry every key word.
    hash ^= hash >> 30;
    hash *= 0xbf58476d1ce4e5b9ULL;
    hash ^= hash >> 27;
    hash *= 0x94d049bb133111ebULL;
    hash ^= hash >> 31;
    return hash;
  }

  static uint32_t Tag(uint64_t hash) {
    return static_cast<uint32_t>(hash >> 32) | 1u;
  }

  uint64_t HashRow(const Term* row) const {
    uint64_t hash = stride_;
    for (VarId v : vars_) hash = Step(hash, row[v].raw());
    return Finalize(hash);
  }

  uint64_t HashKey(const uint32_t* key) const {
    uint64_t hash = stride_;
    for (uint32_t k = 0; k + 1 < stride_; ++k) hash = Step(hash, key[k]);
    return Finalize(hash);
  }

  bool KeyEquals(const uint32_t* key, const Term* row) const {
    for (uint32_t k = 0; k + 1 < stride_; ++k) {
      if (key[k] != row[vars_[k]].raw()) return false;
    }
    return true;
  }

  void GrowIfNeeded(std::size_t want) {
    const std::size_t slots = capacity_slots();
    if (slots != 0 && want * 2 <= slots) return;
    std::size_t capacity = slots == 0 ? 16 : slots;
    while (want * 2 > capacity) capacity *= 2;
    std::vector<uint32_t> old = std::move(slots_);
    slots_.assign(capacity * stride_, 0);
    mask_ = capacity - 1;
    for (std::size_t s = 0; s < old.size(); s += stride_) {
      if (old[s] == 0) continue;
      const uint64_t hash = HashKey(old.data() + s + 1);
      std::size_t i = static_cast<std::size_t>(hash) & mask_;
      while (slots_[i * stride_] != 0) i = (i + 1) & mask_;
      std::copy(old.begin() + s, old.begin() + s + stride_,
                slots_.begin() + i * stride_);
    }
  }

  std::vector<VarId> vars_;
  uint32_t stride_;
  std::vector<uint32_t> slots_;
  std::size_t mask_ = 0;
  std::size_t count_ = 0;
};

}  // namespace gchase

#endif  // GCHASE_CHASE_TRIGGER_KEY_TABLE_H_
