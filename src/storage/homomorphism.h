#ifndef GCHASE_STORAGE_HOMOMORPHISM_H_
#define GCHASE_STORAGE_HOMOMORPHISM_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "base/check.h"
#include "base/governor.h"
#include "base/memory_budget.h"
#include "model/atom.h"
#include "storage/instance.h"

namespace gchase {

/// A variable binding: `binding[v]` is the image of variable v, or
/// `kUnbound` if v is not (yet) mapped.
using Binding = std::vector<Term>;

/// Sentinel for unbound variables (a null with the max index; the chase
/// never allocates it).
inline constexpr uint32_t kUnboundIndex = (1u << 30) - 1;
inline Term UnboundTerm() { return Term::Null(kUnboundIndex); }
inline bool IsBound(Term t) { return t != UnboundTerm(); }

/// Limits of one search.
///
/// Concurrency: a search only reads the instance, so any number of
/// searches may run in parallel against one Instance that no thread is
/// mutating. The governor is thread-safe.
struct HomSearchOptions {
  /// Cap on candidate atoms counted (bounds join *work*, not just
  /// results; high-fanout unguarded joins can do enormous work while
  /// yielding few homomorphisms).
  uint64_t max_candidate_visits = std::numeric_limits<uint64_t>::max();
  /// Run governor polled each time the count reaches a multiple of 1024
  /// when set — the cooperative checkpoint that keeps a single
  /// pathological join from outliving its deadline.
  const RunGovernor* governor = nullptr;
};

/// What one search did. A search stopped by its budget or its governor
/// has reported only some homomorphisms, so finding none is then
/// inconclusive.
struct HomSearchStatus {
  /// Join work: candidates counted, max_candidate_visits + 1 once it ran
  /// out.
  uint64_t charge = 0;
  bool budget_exhausted = false;  ///< The charge passed the cap.
  bool row_capped = false;        ///< The row sink stopped the search.
  bool governor_tripped = false;  ///< The governor tripped.
};

/// Columnar buffer of fixed-width binding rows (one row = the images of
/// one rule's variables, unbound slots holding the UnboundTerm sentinel).
/// Each discovery unit writes its homomorphisms into one of these instead
/// of per-trigger Binding vectors. Growth is charged to an attached memory
/// budget with the same ratchet the HeadBlock staging buffer uses:
/// capacity deltas on growth, the full charge released on re-attach or
/// destruction.
class BindingSegment {
 public:
  BindingSegment() = default;
  BindingSegment(const BindingSegment&) = delete;
  BindingSegment& operator=(const BindingSegment&) = delete;
  ~BindingSegment() {
    if (budget_ != nullptr) budget_->Release(charged_bytes_);
  }

  void SetWidth(uint32_t width) {
    GCHASE_CHECK(terms_.empty());
    width_ = width;
  }
  uint32_t width() const { return width_; }
  uint64_t rows() const { return rows_; }
  bool empty() const { return rows_ == 0; }

  /// Copies one row of `width()` terms into the segment.
  void AppendRow(const Term* row) {
    terms_.insert(terms_.end(), row, row + width_);
    ++rows_;
    TrackGrowth();
  }

  const Term* row(uint64_t r) const { return terms_.data() + r * width_; }

  void Clear() {
    terms_.clear();
    rows_ = 0;
  }

  /// Bytes of heap capacity currently retained. Clear() keeps capacity,
  /// so this is a high-water figure by design.
  uint64_t capacity_bytes() const { return terms_.capacity() * sizeof(Term); }

  /// Attaches (or detaches, with nullptr) a budget to charge retained
  /// capacity to; see HeadBlock::SetMemoryBudget for the contract.
  void SetMemoryBudget(MemoryBudget* budget) {
    if (budget_ != nullptr) budget_->Release(charged_bytes_);
    budget_ = budget;
    charged_bytes_ = 0;
    TrackGrowth();
  }

 private:
  void TrackGrowth() {
    if (budget_ == nullptr) return;
    const uint64_t now = capacity_bytes();
    if (now > charged_bytes_) {
      budget_->Charge(now - charged_bytes_);
      charged_bytes_ = now;
    }
  }

  std::vector<Term> terms_;
  uint32_t width_ = 0;
  uint64_t rows_ = 0;
  MemoryBudget* budget_ = nullptr;
  uint64_t charged_bytes_ = 0;
};

/// The one conjunctive matcher: trigger discovery, head checks, queries,
/// cores, containment and model checks all run its walk.
///
/// Enumerates homomorphisms h from a conjunction of atoms (whose variables
/// are dense ids < num_variables) into `instance`, extending an optional
/// initial binding. The walk is depth-first: at each node it matches next
/// the unmatched conjunct with the smallest candidate list — the
/// predicate list or, when smaller, the posting list of a constant or
/// bound position — with ties to the earlier conjunct and position, and
/// it scans candidates in id order, counting each one.
///
/// A discovery unit (FindUnit) restricts conjuncts to ranges of atom ids
/// and scans only each list's clipped span, but it still counts every
/// candidate of the chosen list, in range or not: a delta-only node's old
/// prefix before its children, an old-only node's delta suffix after
/// them. Its join work is therefore the one an unranged walk would count
/// at the same point, which keeps where a capped round stops independent
/// of how the round is split.
///
/// Stateless beyond the borrowed instance, so any number of searches may
/// run concurrently; each writes only its own binding and sink.
class HomomorphismFinder {
 public:
  explicit HomomorphismFinder(const Instance& instance)
      : instance_(instance) {}

  /// Invokes `callback` once per homomorphism with the complete binding.
  /// The callback returns true to continue enumerating, false to stop.
  /// Variables of the conjunction not bound by any conjunct (impossible in
  /// valid TGD bodies) stay kUnbound in the reported binding.
  void FindAll(const std::vector<Atom>& conjunction, uint32_t num_variables,
               const std::function<bool(const Binding&)>& callback) const {
    FindAllWithOptions(conjunction, num_variables, HomSearchOptions{},
                       Binding(), callback);
  }

  /// Full-control variant: search options plus an initial partial
  /// binding (`initial` may be empty or sized num_variables). Returns
  /// what the search did; a callback that returns false sets row_capped.
  HomSearchStatus FindAllWithOptions(
      const std::vector<Atom>& conjunction, uint32_t num_variables,
      const HomSearchOptions& options, const Binding& initial,
      const std::function<bool(const Binding&)>& callback) const;

  /// Returns the first homomorphism found, if any.
  std::optional<Binding> FindOne(const std::vector<Atom>& conjunction,
                                 uint32_t num_variables,
                                 const Binding& initial = Binding()) const;

  /// True if some homomorphism exists (boolean CQ evaluation).
  bool Exists(const std::vector<Atom>& conjunction, uint32_t num_variables,
              const Binding& initial = Binding()) const {
    return FindOne(conjunction, num_variables, initial).has_value();
  }

  /// Runs discovery unit (`body`, `pivot`) of a semi-naive round against
  /// the delta starting at `watermark`: conjuncts before the pivot match
  /// old atoms only (ids below the watermark), the pivot matches the
  /// delta only, and later conjuncts match any atom, so a round's units
  /// partition its new homomorphisms. Writes every homomorphism, as a row
  /// of num_variables slots (head-only variables unbound), to `*out`
  /// (cleared first), and stops once `row_cap` rows are written (a cap of
  /// 0 stops after the first).
  HomSearchStatus FindUnit(const std::vector<Atom>& body,
                           uint32_t num_variables, uint32_t pivot,
                           AtomId watermark, const HomSearchOptions& options,
                           uint64_t row_cap, BindingSegment* out) const;

 private:
  const Instance& instance_;
};

/// Applies `binding` to a rule atom: variables are replaced by their
/// images (must be bound), constants pass through.
Atom SubstituteAtom(const Atom& atom, const Binding& binding);

}  // namespace gchase

#endif  // GCHASE_STORAGE_HOMOMORPHISM_H_
