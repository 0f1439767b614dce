#include "storage/instance.h"

#include <algorithm>
#include <unordered_set>

#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"

namespace gchase {

bool Instance::RecordEquals(AtomId id, PredicateId pred, const Term* args,
                            uint32_t arity) const {
  const AtomRecord& record = records_[id];
  if (record.predicate != pred || record.arity != arity) return false;
  const Term* stored = arena_.terms().data() + record.offset;
  for (uint32_t i = 0; i < arity; ++i) {
    if (stored[i] != args[i]) return false;
  }
  return true;
}

std::size_t Instance::DedupSlotFor(uint64_t hash, PredicateId pred,
                                   const Term* args, uint32_t arity) const {
  const uint32_t tag = static_cast<uint32_t>(hash);
  const std::size_t mask = dedup_.size() - 1;
  std::size_t i = tag & mask;
  while (dedup_[i].id != kEmptySlot) {
    if (dedup_[i].hash == tag &&
        RecordEquals(dedup_[i].id, pred, args, arity)) {
      return i;
    }
    i = (i + 1) & mask;
  }
  return i;
}

void Instance::GrowDedup(std::size_t want) {
  // Max load factor 1/2, power-of-two capacity. Linear-probe miss chains
  // grow as 1/(1-load)^2, and the chase's Contains traffic is miss-heavy
  // (every candidate head atom is probed before insertion) — the extra
  // 8 bytes/slot buys ~1.5-probe misses instead of ~6 at 7/10 load.
  const std::size_t capacity = GrownDedupCapacity(want);
  if (capacity == dedup_.size()) return;
  GCHASE_CHECK_MSG(capacity <= (uint64_t{1} << 32),
                   "dedup table past 2^32 slots (2^31 atoms)");
  // Span only inside the actual-grow branch: the early-outs above are
  // the TryAdd fast path and must stay untraced.
  GCHASE_TRACE_SPAN_PERF(TraceCategory::kStorage, "storage.grow_dedup",
                         capacity, PerfPhase::kDedupGrowth);
  static MetricHistogram* const grow_hist =
      MetricsRegistry::Global().Histogram("storage.dedup_grow_ns");
  LatencyTimer grow_timer(grow_hist);
  const uint64_t bytes_before = VectorBytes(dedup_);
  std::vector<DedupSlot> old_slots = std::move(dedup_);
  dedup_.assign(capacity, DedupSlot{});
  const std::size_t mask = capacity - 1;
  for (const DedupSlot& entry : old_slots) {
    if (entry.id == kEmptySlot) continue;
    std::size_t j = entry.hash & mask;
    while (dedup_[j].id != kEmptySlot) j = (j + 1) & mask;
    dedup_[j] = entry;
  }
  AccountGrowth(bytes_before, VectorBytes(dedup_));
}

std::pair<AtomId, bool> Instance::TryAdd(const Atom& atom) {
  GCHASE_CHECK_MSG(atom.IsGround(), "instances hold ground atoms only");
  return TryAddTerms(atom.predicate, atom.args.data(), atom.arity());
}

std::pair<AtomId, bool> Instance::TryAddTerms(PredicateId pred,
                                              const Term* args,
                                              uint32_t arity) {
  const uint64_t hash = HashAtomTerms(pred, args, arity);
  GrowDedup(records_.size() + 1);
  const std::size_t slot = DedupSlotFor(hash, pred, args, arity);
  if (dedup_[slot].id != kEmptySlot) return {dedup_[slot].id, false};
  return {AppendRow(pred, args, arity, hash, slot), true};
}

AtomId Instance::AppendRow(PredicateId pred, const Term* args, uint32_t arity,
                           uint64_t hash, std::size_t slot) {
  const AtomId id = static_cast<AtomId>(records_.size());
  GCHASE_CHECK(id != kEmptySlot);
  // Every mutation below is bracketed by capacity-bytes reads so the
  // footprint (and any attached budget) tracks geometric growth exactly.
  // On the steady-state path — capacity pre-reserved by ReserveAdditional
  // or TryAddBatch — each bracket is two loads and a compare, nothing
  // more.
  uint64_t before = arena_.capacity_bytes();
  const uint32_t offset = arena_.Append(args, arity);
  AccountGrowth(before, arena_.capacity_bytes());
  before = VectorBytes(records_);
  records_.push_back(AtomRecord{pred, offset, arity});
  AccountGrowth(before, VectorBytes(records_));
  dedup_[slot] = DedupSlot{static_cast<uint32_t>(hash), id};

  if (pred >= by_predicate_.size()) {
    before = VectorBytes(by_predicate_);
    by_predicate_.resize(pred + 1);
    AccountGrowth(before, VectorBytes(by_predicate_));
  }
  {
    std::vector<AtomId>& list = by_predicate_[pred];
    before = VectorBytes(list);
    list.push_back(id);
    AccountGrowth(before, VectorBytes(list));
  }
  for (uint32_t pos = 0; pos < arity; ++pos) {
    before = position_index_.capacity_bytes();
    position_index_.Append(PositionIndex::Key(pred, pos, args[pos]), id);
    AccountGrowth(before, position_index_.capacity_bytes());
  }
  return id;
}

uint32_t Instance::TryAddBatch(PredicateId pred, const Term* terms,
                               uint32_t arity, uint32_t n) {
  if (n == 0) return 0;
  // One exact-sized growth pass for the whole block: the per-row loop
  // below never rehashes or reallocates, so a round's worth of head
  // atoms dedups at streaming speed. Duplicate rows merely leave the
  // reserved slack unused.
  GrowDedup(records_.size() + n);
  uint64_t before = arena_.capacity_bytes();
  arena_.Reserve(arena_.size() + static_cast<std::size_t>(arity) * n);
  AccountGrowth(before, arena_.capacity_bytes());
  before = VectorBytes(records_);
  records_.reserve(records_.size() + n);
  AccountGrowth(before, VectorBytes(records_));
  // Worst case every argument position of every row opens a fresh index
  // key; reserving here keeps the per-row loop rehash-free end to end.
  before = position_index_.capacity_bytes();
  position_index_.Reserve(static_cast<std::size_t>(arity) * n,
                          static_cast<std::size_t>(arity) * n);
  AccountGrowth(before, position_index_.capacity_bytes());
  uint32_t added = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const Term* args = terms + static_cast<std::size_t>(i) * arity;
    const uint64_t hash = HashAtomTerms(pred, args, arity);
    const std::size_t slot = DedupSlotFor(hash, pred, args, arity);
    if (dedup_[slot].id != kEmptySlot) continue;
    AppendRow(pred, args, arity, hash, slot);
    ++added;
  }
  return added;
}

std::optional<AtomId> Instance::Find(const Atom& atom) const {
  return FindTerms(atom.predicate, atom.args.data(), atom.arity());
}

std::optional<AtomId> Instance::FindTerms(PredicateId pred, const Term* args,
                                          uint32_t arity) const {
  if (dedup_.empty()) return std::nullopt;
  const uint64_t hash = HashAtomTerms(pred, args, arity);
  const std::size_t slot = DedupSlotFor(hash, pred, args, arity);
  if (dedup_[slot].id == kEmptySlot) return std::nullopt;
  return dedup_[slot].id;
}

std::vector<Atom> Instance::MaterializeAtoms() const {
  std::vector<Atom> out;
  out.reserve(records_.size());
  for (AtomId id = 0; id < records_.size(); ++id) {
    out.push_back(atom(id).ToAtom());
  }
  return out;
}

PostingList Instance::AtomsWithPredicate(PredicateId pred) const {
  if (pred >= by_predicate_.size()) return PostingList();
  const std::vector<AtomId>& ids = by_predicate_[pred];
  return PostingList(ids.data(), static_cast<uint32_t>(ids.size()));
}

uint32_t Instance::CountWithPredicateSince(PredicateId pred,
                                           AtomId watermark) const {
  const PostingList ids = AtomsWithPredicate(pred);
  // Append order means the list is sorted by id.
  const AtomId* it = std::lower_bound(ids.begin(), ids.end(), watermark);
  return static_cast<uint32_t>(ids.end() - it);
}

uint32_t Instance::CountNulls() const {
  std::unordered_set<uint32_t> nulls;
  for (Term t : arena_.terms()) {
    if (t.IsNull()) nulls.insert(t.index());
  }
  return static_cast<uint32_t>(nulls.size());
}

void Instance::ReserveAdditional(uint64_t extra_atoms, uint64_t extra_terms) {
  // The pre-round bulk rebuild of every index: arena, dedup table,
  // position index. This is where round-boundary rebuild time goes.
  GCHASE_TRACE_SPAN(TraceCategory::kStorage, "storage.reserve", extra_atoms);
  uint64_t before = arena_.capacity_bytes();
  arena_.Reserve(arena_.size() + extra_terms);
  AccountGrowth(before, arena_.capacity_bytes());
  before = VectorBytes(records_);
  records_.reserve(records_.size() + extra_atoms);
  AccountGrowth(before, VectorBytes(records_));
  GrowDedup(records_.size() + extra_atoms);
  // Worst case every new argument position opens a fresh index key, and
  // each term takes one pool slot (relocations beyond that grow the pool
  // geometrically).
  before = position_index_.capacity_bytes();
  position_index_.Reserve(extra_terms, extra_terms);
  AccountGrowth(before, position_index_.capacity_bytes());
}

uint64_t Instance::EstimateReserveBytes(uint64_t extra_atoms,
                                        uint64_t extra_terms) const {
  // Mirrors ReserveAdditional site by site: each term is the byte delta
  // the corresponding reserve would commit right now. `vector::reserve`
  // to at most the current capacity is a no-op; the two hash tables grow
  // by their exact doubling policy.
  uint64_t extra = 0;
  const uint64_t want_terms = arena_.size() + extra_terms;
  if (want_terms > arena_.capacity()) {
    extra += (want_terms - arena_.capacity()) * sizeof(Term);
  }
  const uint64_t want_records = records_.size() + extra_atoms;
  if (want_records > records_.capacity()) {
    extra += (want_records - records_.capacity()) * sizeof(AtomRecord);
  }
  const std::size_t dedup_capacity =
      GrownDedupCapacity(records_.size() + extra_atoms);
  extra += (dedup_capacity - dedup_.size()) * sizeof(DedupSlot);
  extra += position_index_.ReserveBytes(extra_terms, extra_terms);
  return extra;
}

}  // namespace gchase
