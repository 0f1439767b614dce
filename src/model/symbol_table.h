#ifndef GCHASE_MODEL_SYMBOL_TABLE_H_
#define GCHASE_MODEL_SYMBOL_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace gchase {

/// Bidirectional string interner: the one interner behind a Vocabulary's
/// constants, the parser and InMemoryEdb's dictionary. Ids are dense,
/// starting at 0, in first-appearance (interning) order, and stable for
/// the lifetime of the table; at most kMaxSize names, the Term constant-
/// index limit.
///
/// The layout allocates nothing per name: every name's bytes sit in one
/// arena, name i spans [ends_[i-1], ends_[i]) (0 for i = 0), and dedup is
/// an open-addressing index of 16-byte (hash, id) slots — power of two,
/// max load 1/2, starting at 16 slots — that stores each name's hash, so
/// growing it never rehashes a string. Freeing the table frees three
/// buffers. Copies are deep: a copy interns independently of its source.
class SymbolTable {
 public:
  static constexpr uint32_t kMaxSize = 1u << 30;

  /// Returns the id of `name`, interning it if new. CHECK-fails when a new
  /// name would exceed kMaxSize.
  uint32_t Intern(std::string_view name);

  /// Interns names[0..count) in order, writing ids[i] for names[i]: the
  /// same ids as `count` Intern calls, but hashes a chunk ahead and
  /// prefetches each member's first probe slot. At bulk scale the index
  /// outgrows the caches, so overlapping the misses beats a dependent
  /// hash-probe chain. Returns false, with a prefix interned, when a new
  /// name would exceed kMaxSize.
  bool InternBatch(const std::string_view* names, uint32_t* ids,
                   std::size_t count);

  /// Returns the id of `name` if present.
  std::optional<uint32_t> Find(std::string_view name) const;

  /// Returns the name for `id`. The view points into the arena: it stays
  /// valid until the next Intern, InternBatch or Reserve on this table.
  /// CHECK-fails on out-of-range ids.
  std::string_view NameOf(uint32_t id) const;

  /// Pre-sizes the arena and the index for `names` more names of `bytes`
  /// total bytes, so interning them grows nothing.
  void Reserve(std::size_t names, std::size_t bytes);

  /// Heap bytes Reserve(names, bytes) would add right now — its exact
  /// policy, so a byte budget can deny the reserve before it commits.
  uint64_t ReserveBytes(std::size_t names, std::size_t bytes) const;

  uint32_t size() const { return static_cast<uint32_t>(ends_.size()); }
  /// Sum of all names' lengths.
  uint64_t name_bytes() const { return bytes_.size(); }
  /// Heap bytes retained by the arena, the ends and the index (capacity,
  /// not size). O(1); InMemoryEdb charges its deltas to a MemoryBudget.
  uint64_t capacity_bytes() const {
    return bytes_.capacity() + ends_.capacity() * sizeof(uint64_t) +
           slots_.capacity() * sizeof(Slot);
  }

 private:
  static constexpr uint32_t kEmptySlot = 0xffffffffu;
  static constexpr std::size_t kMinSlots = 16;

  /// Hash and id co-located, so one prefetch pulls both.
  struct Slot {
    uint64_t hash = 0;
    uint32_t id = kEmptySlot;
    uint32_t unused = 0;
  };

  std::string_view Stored(uint32_t id) const {
    const uint64_t begin = id == 0 ? 0 : ends_[id - 1];
    return std::string_view(bytes_.data() + begin, ends_[id] - begin);
  }
  /// Slot count that fits `extra` more names at max load 1/2: the index
  /// size, or the next power-of-two doubling of it (from kMinSlots).
  std::size_t SlotsFor(std::size_t extra) const;
  /// Grows the index to SlotsFor(extra).
  void EnsureSlotsFor(std::size_t extra);
  bool InternHashed(std::string_view name, uint64_t hash, uint32_t* id);

  std::vector<char> bytes_;     ///< Every name's bytes, back to back.
  std::vector<uint64_t> ends_;  ///< ends_[i]: arena offset past name i.
  std::vector<Slot> slots_;     ///< Empty, or a power of two >= kMinSlots.
};

}  // namespace gchase

#endif  // GCHASE_MODEL_SYMBOL_TABLE_H_
