#include "model/symbol_table.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "base/check.h"

namespace gchase {

namespace {

/// FNV-1a over 8-byte words (one multiply per word, not per byte — the
/// bulk loader hashes every field of every row), length folded into the
/// tail word, splitmix64-finalized: the index masks with a power of two,
/// so the low bits must avalanche.
uint64_t HashName(std::string_view name) {
  uint64_t h = 0xcbf29ce484222325ULL;
  const char* p = name.data();
  std::size_t n = name.size();
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    h = (h ^ word) * 0x100000001b3ULL;
    p += 8;
    n -= 8;
  }
  uint64_t tail = static_cast<uint64_t>(n) << 56;  // n < 8: top byte free
  if (n > 0) std::memcpy(&tail, p, n);
  h = (h ^ tail) * 0x100000001b3ULL;
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

}  // namespace

uint32_t SymbolTable::Intern(std::string_view name) {
  EnsureSlotsFor(1);
  uint32_t id = 0;
  GCHASE_CHECK_MSG(InternHashed(name, HashName(name), &id),
                   "symbol table full: 2^30 names");
  return id;
}

bool SymbolTable::InternBatch(const std::string_view* names, uint32_t* ids,
                              std::size_t count) {
  // Hash a chunk, prefetch every member's first probe slot, then probe:
  // the probes' cache misses overlap instead of serializing.
  constexpr std::size_t kChunk = 64;
  uint64_t hashes[kChunk];
  for (std::size_t done = 0; done < count; done += kChunk) {
    const std::size_t chunk = std::min(kChunk, count - done);
    EnsureSlotsFor(chunk);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = 0; i < chunk; ++i) {
      hashes[i] = HashName(names[done + i]);
      __builtin_prefetch(&slots_[static_cast<std::size_t>(hashes[i]) & mask]);
    }
    for (std::size_t i = 0; i < chunk; ++i) {
      if (!InternHashed(names[done + i], hashes[i], &ids[done + i])) {
        return false;
      }
    }
  }
  return true;
}

std::optional<uint32_t> SymbolTable::Find(std::string_view name) const {
  if (slots_.empty()) return std::nullopt;
  const uint64_t hash = HashName(name);
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t slot = static_cast<std::size_t>(hash) & mask;
       slots_[slot].id != kEmptySlot; slot = (slot + 1) & mask) {
    if (slots_[slot].hash == hash && Stored(slots_[slot].id) == name) {
      return slots_[slot].id;
    }
  }
  return std::nullopt;
}

std::string_view SymbolTable::NameOf(uint32_t id) const {
  GCHASE_CHECK(id < ends_.size());
  return Stored(id);
}

void SymbolTable::Reserve(std::size_t names, std::size_t bytes) {
  bytes_.reserve(bytes_.size() + bytes);
  ends_.reserve(ends_.size() + names);
  EnsureSlotsFor(names);
}

uint64_t SymbolTable::ReserveBytes(std::size_t names,
                                   std::size_t bytes) const {
  uint64_t extra = (SlotsFor(names) - slots_.size()) * sizeof(Slot);
  if (bytes_.size() + bytes > bytes_.capacity()) {
    extra += bytes_.size() + bytes - bytes_.capacity();
  }
  if (ends_.size() + names > ends_.capacity()) {
    extra += (ends_.size() + names - ends_.capacity()) * sizeof(uint64_t);
  }
  return extra;
}

std::size_t SymbolTable::SlotsFor(std::size_t extra) const {
  const std::size_t needed = (ends_.size() + extra) * 2;
  if (needed <= slots_.size()) return slots_.size();
  std::size_t capacity = std::max(kMinSlots, slots_.size());
  while (capacity < needed) capacity *= 2;
  return capacity;
}

void SymbolTable::EnsureSlotsFor(std::size_t extra) {
  const std::size_t capacity = SlotsFor(extra);
  if (capacity == slots_.size()) return;
  std::vector<Slot> old_slots = std::move(slots_);
  slots_.assign(capacity, Slot{});
  const std::size_t mask = capacity - 1;
  for (const Slot& entry : old_slots) {
    if (entry.id == kEmptySlot) continue;
    std::size_t slot = static_cast<std::size_t>(entry.hash) & mask;
    while (slots_[slot].id != kEmptySlot) slot = (slot + 1) & mask;
    slots_[slot] = entry;
  }
}

bool SymbolTable::InternHashed(std::string_view name, uint64_t hash,
                               uint32_t* id) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = static_cast<std::size_t>(hash) & mask;
  while (slots_[slot].id != kEmptySlot) {
    if (slots_[slot].hash == hash && Stored(slots_[slot].id) == name) {
      *id = slots_[slot].id;
      return true;
    }
    slot = (slot + 1) & mask;
  }
  const uint32_t count = size();
  if (count >= kMaxSize) return false;
  bytes_.insert(bytes_.end(), name.begin(), name.end());
  ends_.push_back(bytes_.size());
  slots_[slot] = Slot{hash, count, 0};
  *id = count;
  return true;
}

}  // namespace gchase
