#include "storage/edb.h"

#include <algorithm>

#include "base/check.h"
#include "model/term.h"
#include "obs/trace.h"

namespace gchase {

StatusOr<uint32_t> InMemoryEdb::GetOrAddTable(std::string_view predicate,
                                              uint32_t arity) {
  auto it = table_index_.find(std::string(predicate));
  if (it != table_index_.end()) {
    const Table& existing = tables_[it->second];
    if (existing.arity() != arity) {
      return Status::InvalidArgument(
          "predicate '" + std::string(predicate) + "' declared with arity " +
          std::to_string(existing.arity()) + ", row has arity " +
          std::to_string(arity));
    }
    return it->second;
  }
  if (arity > kMaxArity) {
    return Status::InvalidArgument("predicate '" + std::string(predicate) +
                                   "' exceeds the maximum arity " +
                                   std::to_string(kMaxArity));
  }
  const uint32_t index = static_cast<uint32_t>(tables_.size());
  tables_.emplace_back(std::string(predicate), arity);
  table_index_.emplace(std::string(predicate), index);
  // Approximate the map node + table header cost; the dominant storage
  // (columns, dictionary) is accounted exactly at its growth sites.
  AccountGrowth(0, sizeof(Table) + predicate.size() + 64);
  return index;
}

void InMemoryEdb::AppendRow(uint32_t table_index, const uint32_t* ids) {
  GCHASE_CHECK(table_index < tables_.size());
  Table& table = tables_[table_index];
  for (std::size_t c = 0; c < table.columns_.size(); ++c) {
    std::vector<uint32_t>& column = table.columns_[c];
    if (column.size() == column.capacity()) {
      const uint64_t before = VectorBytes(column);
      column.push_back(ids[c]);
      AccountGrowth(before, VectorBytes(column));
    } else {
      column.push_back(ids[c]);
    }
  }
  ++table.rows_;
}

void InMemoryEdb::ReserveRows(uint32_t table_index, uint64_t extra_rows) {
  GCHASE_CHECK(table_index < tables_.size());
  Table& table = tables_[table_index];
  for (std::vector<uint32_t>& column : table.columns_) {
    const uint64_t before = VectorBytes(column);
    column.reserve(column.size() + extra_rows);
    AccountGrowth(before, VectorBytes(column));
  }
}

Status SeedInstanceFromEdb(const EdbDatabase& edb, Vocabulary* vocabulary,
                           Instance* instance, MemoryBudget* budget,
                           EdbSeedStats* stats) {
  GCHASE_TRACE_SPAN(TraceCategory::kStorage, "storage.edb_seed",
                    edb.TotalRows());
  EdbSeedStats local;
  EdbSeedStats& out = stats != nullptr ? *stats : local;
  out = EdbSeedStats{};

  // Intern the whole dictionary up front, in dictionary order, through
  // one reserve and the batched intern. Dictionary order is first-
  // appearance order of the original input stream, so the constant ids
  // handed out here are exactly the ids the per-atom parser path would
  // have produced after the rules' own constants — the root of the
  // EDB/parser bit-identity contract.
  const EdbDictionary& dictionary = edb.dictionary();
  const uint32_t num_names = dictionary.size();
  SymbolTable& constants = vocabulary->constants;
  if (budget != nullptr &&
      budget->WouldExceed(
          constants.ReserveBytes(num_names, dictionary.name_bytes()))) {
    budget->NoteDenied();
    out.budget_denied = true;
    return Status::Ok();
  }
  const uint64_t vocabulary_before = constants.capacity_bytes();
  constants.Reserve(num_names, dictionary.name_bytes());
  out.vocabulary_bytes = constants.capacity_bytes() - vocabulary_before;
  if (budget != nullptr) budget->Charge(out.vocabulary_bytes);
  std::vector<Term> term_of(num_names);
  {
    constexpr uint32_t kInternChunk = 1024;
    std::string_view names[kInternChunk];
    uint32_t ids[kInternChunk] = {};
    for (uint32_t base = 0; base < num_names; base += kInternChunk) {
      const uint32_t n = std::min(kInternChunk, num_names - base);
      for (uint32_t i = 0; i < n; ++i) names[i] = dictionary.NameOf(base + i);
      if (!constants.InternBatch(names, ids, n)) {
        return Status::ResourceExhausted(
            "vocabulary full: more than 2^30 distinct constants");
      }
      for (uint32_t i = 0; i < n; ++i) {
        term_of[base + i] = Term::Constant(ids[i]);
      }
    }
  }

  // Register every predicate (table order = first-appearance order) and
  // tally the total load for one up-front reserve.
  std::vector<PredicateId> predicate_of(edb.num_tables());
  uint64_t total_rows = 0;
  uint64_t total_terms = 0;
  for (uint32_t t = 0; t < edb.num_tables(); ++t) {
    const EdbTable& table = edb.table(t);
    StatusOr<PredicateId> predicate =
        vocabulary->schema.GetOrAdd(table.predicate(), table.arity());
    if (!predicate.ok()) return predicate.status();
    predicate_of[t] = *predicate;
    total_rows += table.rows();
    total_terms += table.rows() * table.arity();
  }

  // Reserve once for everything when the budget allows; otherwise fall
  // back to per-table reserves so the seed degrades to a valid prefix
  // instead of refusing outright.
  bool reserve_per_table = false;
  if (budget != nullptr &&
      budget->WouldExceed(
          instance->EstimateReserveBytes(total_rows, total_terms))) {
    reserve_per_table = true;
  } else {
    instance->ReserveAdditional(total_rows, total_terms);
  }

  // Row-major staging block, refilled per chunk from the columns. 64k
  // rows keeps the block cache-warm without rivaling the store itself.
  constexpr uint32_t kChunkRows = 64 * 1024;
  std::vector<Term> block;
  for (uint32_t t = 0; t < edb.num_tables(); ++t) {
    const EdbTable& table = edb.table(t);
    const uint32_t arity = table.arity();
    const uint64_t rows = table.rows();
    if (reserve_per_table) {
      if (budget->WouldExceed(
              instance->EstimateReserveBytes(rows, rows * arity))) {
        budget->NoteDenied();
        out.budget_denied = true;
        return Status::Ok();
      }
      instance->ReserveAdditional(rows, rows * arity);
    }
    if (arity == 0) {
      // Zero-ary tables carry at most one distinct fact.
      if (rows > 0) {
        auto [id, inserted] =
            instance->TryAddTerms(predicate_of[t], nullptr, 0);
        (void)id;
        out.rows += rows;
        out.atoms_added += inserted ? 1 : 0;
        out.duplicate_rows += rows - (inserted ? 1 : 0);
      }
      continue;
    }
    block.resize(static_cast<std::size_t>(std::min<uint64_t>(rows, kChunkRows)) *
                 arity);
    for (uint64_t base = 0; base < rows; base += kChunkRows) {
      const uint32_t n =
          static_cast<uint32_t>(std::min<uint64_t>(kChunkRows, rows - base));
      for (uint32_t c = 0; c < arity; ++c) {
        const uint32_t* column = table.column(c) + base;
        for (uint32_t r = 0; r < n; ++r) {
          const uint32_t dict_id = column[r];
          if (dict_id >= term_of.size()) {
            return Status::Internal(
                "EDB row references dictionary id " + std::to_string(dict_id) +
                " out of range (dictionary has " +
                std::to_string(term_of.size()) + " entries)");
          }
          block[static_cast<std::size_t>(r) * arity + c] = term_of[dict_id];
        }
      }
      const uint32_t added =
          instance->TryAddBatch(predicate_of[t], block.data(), arity, n);
      out.rows += n;
      out.atoms_added += added;
      out.duplicate_rows += n - added;
    }
  }
  return Status::Ok();
}

}  // namespace gchase
