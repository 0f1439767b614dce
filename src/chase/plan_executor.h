#ifndef GCHASE_CHASE_PLAN_EXECUTOR_H_
#define GCHASE_CHASE_PLAN_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "base/governor.h"
#include "base/memory_budget.h"
#include "model/tgd.h"
#include "storage/instance.h"

namespace gchase {

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

/// The chase's discovery engine. One call enumerates the body
/// homomorphisms of one (rule, pivot) unit of a semi-naive round: body
/// conjuncts before the pivot match old atoms only (ids below the
/// watermark), the pivot matches the delta only, and later conjuncts
/// match any atom, so a round's units partition its new homomorphisms.
///
/// The walk is depth-first and makes the backtracking search's choices
/// (HomomorphismFinder): at each node it matches next the unmatched
/// conjunct with the smallest candidate list — the predicate list or,
/// when smaller, the posting list of a constant or bound position — with
/// ties to the earlier conjunct and position, and it scans candidates in
/// id order. Rows therefore arrive in the search's order for every body
/// width, and so does the join work: the search counts every candidate
/// of the chosen list, in range or not. The executor scans only the
/// range-clipped span and charges the skipped candidates where the
/// search counts them: a delta-only node's old prefix before its
/// children, an old-only node's delta suffix after them. A unit stopped
/// by its join budget or row cap has therefore charged exactly what the
/// search had counted at that point.
///
/// Stateless beyond the borrowed instance, so any number of units may
/// run concurrently; each call writes only its own output segment.
class PlanExecutor {
 public:
  /// What one unit execution did.
  struct UnitStatus {
    /// Join work: candidates counted, max_charge + 1 once it ran out.
    uint64_t charge = 0;
    bool budget_exhausted = false;  ///< The charge passed max_charge.
    bool row_capped = false;        ///< Stopped after row number row_cap.
    bool governor_tripped = false;
  };

  explicit PlanExecutor(const Instance& instance) : instance_(instance) {}

  /// Runs unit (`rule`, `pivot`) against the delta starting at
  /// `watermark` and writes every homomorphism, as a row of the rule's
  /// num_variables() slots (head-only variables unbound), to `*out`
  /// (cleared first). Stops once the charge would pass `max_charge`, once
  /// `row_cap` rows are written (a cap of 0 stops after the first), or
  /// when the governor trips at a 1024-candidate boundary.
  UnitStatus ExecuteUnit(const Tgd& rule, uint32_t pivot, AtomId watermark,
                         uint64_t max_charge, uint64_t row_cap,
                         const RunGovernor* governor,
                         BindingSegment* out) const;

 private:
  const Instance& instance_;
};

}  // namespace gchase

#endif  // GCHASE_CHASE_PLAN_EXECUTOR_H_
