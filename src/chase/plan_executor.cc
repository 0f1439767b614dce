#include "chase/plan_executor.h"

#include "base/check.h"
#include "storage/homomorphism.h"

namespace gchase {

namespace {

/// The semi-naive range of a conjunct in a (rule, pivot) discovery unit.
MatchRange RangeFor(uint32_t conjunct, uint32_t pivot) {
  if (conjunct < pivot) return MatchRange::kOldOnly;
  if (conjunct == pivot) return MatchRange::kDeltaOnly;
  return MatchRange::kAll;
}

/// The depth-first walk of one unit: one binding row with a unification
/// trail, bound and unbound exactly as the backtracking search binds its
/// Binding vector.
class UnitWalk {
 public:
  UnitWalk(const Instance& instance, const Tgd& rule, uint32_t pivot,
           AtomId watermark, uint64_t max_charge, uint64_t row_cap,
           const RunGovernor* governor, BindingSegment* out,
           PlanExecutor::UnitStatus* status)
      : instance_(instance),
        body_(rule.body()),
        pivot_(pivot),
        watermark_(watermark),
        max_charge_(max_charge),
        row_cap_(row_cap),
        governor_(governor),
        out_(out),
        status_(status),
        row_(rule.num_variables(), UnboundTerm()),
        matched_(body_.size(), false) {
    // A conjunct's clipped predicate span is fixed for the whole unit;
    // only position lists depend on the row.
    predicate_spans_.reserve(body_.size());
    for (uint32_t c = 0; c < body_.size(); ++c) {
      predicate_spans_.push_back(
          ClipPostings(instance_.AtomsWithPredicate(body_[c].predicate),
                       RangeFor(c, pivot_), watermark_));
    }
  }

  void Run() { Expand(0); }

 private:
  /// Counts `n` candidates. False, and the walk stops, once the charge
  /// passes max_charge (the charge then reads max_charge + 1, where the
  /// search stops counting) or the governor trips on a 1024 boundary.
  bool Charge(uint64_t n) {
    const uint64_t before = status_->charge;
    if (n > max_charge_ - before) {
      status_->charge = max_charge_ + 1;
      status_->budget_exhausted = true;
      stop_ = true;
      return false;
    }
    status_->charge = before + n;
    if (governor_ != nullptr && (before >> 10) != (status_->charge >> 10) &&
        governor_->Check() != GovernorState::kOk) {
      status_->governor_tripped = true;
      stop_ = true;
      return false;
    }
    return true;
  }

  /// Unifies `pattern` with atom `id`, binding free slots onto the trail.
  bool Unify(const Atom& pattern, AtomId id) {
    const AtomView fact = instance_.atom(id);
    for (uint32_t pos = 0; pos < pattern.arity(); ++pos) {
      const Term t = pattern.args[pos];
      const Term image = fact.args[pos];
      if (!t.IsVariable()) {
        if (t != image) return false;
        continue;
      }
      Term& slot = row_[t.index()];
      if (IsBound(slot)) {
        if (slot != image) return false;
      } else {
        slot = image;
        trail_.push_back(t.index());
      }
    }
    return true;
  }

  void Expand(uint32_t depth) {
    if (depth == body_.size()) {
      out_->AppendRow(row_.data());
      if (out_->rows() >= row_cap_) {
        status_->row_capped = true;
        stop_ = true;
      }
      return;
    }
    // The search's choice: the unmatched conjunct with the smallest
    // candidate list, each conjunct's list being its predicate list or a
    // strictly smaller constant or bound-position list; ties go to the
    // earlier conjunct and the earlier position.
    uint32_t best = static_cast<uint32_t>(body_.size());
    PostingList best_list;
    bool best_is_predicate = false;
    for (uint32_t c = 0; c < body_.size(); ++c) {
      if (matched_[c]) continue;
      const Atom& atom = body_[c];
      PostingList list = instance_.AtomsWithPredicate(atom.predicate);
      bool is_predicate = true;
      for (uint32_t pos = 0; pos < atom.arity(); ++pos) {
        const Term t = atom.args[pos];
        const Term image = t.IsVariable() ? row_[t.index()] : t;
        if (t.IsVariable() && !IsBound(image)) continue;
        const PostingList probe =
            instance_.AtomsWithTermAt(atom.predicate, pos, image);
        if (probe.size() < list.size()) {
          list = probe;
          is_predicate = false;
        }
      }
      if (best == body_.size() || list.size() < best_list.size()) {
        best = c;
        best_list = list;
        best_is_predicate = is_predicate;
      }
    }
    const PostingView span =
        best_is_predicate
            ? predicate_spans_[best]
            : ClipPostings(best_list, RangeFor(best, pivot_), watermark_);
    const Atom& pattern = body_[best];
    matched_[best] = true;
    // Old atoms ahead of a delta-only span are counted before its
    // children, delta atoms behind an old-only span after them.
    if (Charge(span.begin - best_list.begin())) {
      for (const AtomId* it = span.begin; it != span.end && !stop_; ++it) {
        if (!Charge(1)) break;
        const std::size_t mark = trail_.size();
        if (Unify(pattern, *it)) Expand(depth + 1);
        for (std::size_t i = mark; i < trail_.size(); ++i) {
          row_[trail_[i]] = UnboundTerm();
        }
        trail_.resize(mark);
      }
      if (!stop_) Charge(best_list.end() - span.end);
    }
    matched_[best] = false;
  }

  const Instance& instance_;
  const std::vector<Atom>& body_;
  const uint32_t pivot_;
  const AtomId watermark_;
  const uint64_t max_charge_;
  const uint64_t row_cap_;
  const RunGovernor* const governor_;
  BindingSegment* const out_;
  PlanExecutor::UnitStatus* const status_;
  std::vector<Term> row_;
  std::vector<uint32_t> trail_;
  std::vector<bool> matched_;
  std::vector<PostingView> predicate_spans_;
  bool stop_ = false;
};

}  // namespace

PlanExecutor::UnitStatus PlanExecutor::ExecuteUnit(
    const Tgd& rule, uint32_t pivot, AtomId watermark, uint64_t max_charge,
    uint64_t row_cap, const RunGovernor* governor, BindingSegment* out) const {
  GCHASE_CHECK(pivot < rule.body().size());
  out->Clear();
  out->SetWidth(rule.num_variables());
  UnitStatus status;
  UnitWalk(instance_, rule, pivot, watermark, max_charge, row_cap, governor,
           out, &status)
      .Run();
  return status;
}

}  // namespace gchase
