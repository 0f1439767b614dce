#include "storage/homomorphism.h"

namespace gchase {

namespace {

/// The pivot of a search with every conjunct in range.
constexpr uint32_t kNoPivot = std::numeric_limits<uint32_t>::max();

/// The depth-first walk of one search: one binding row with a
/// unification trail, each complete row handed to `Sink` (a callable
/// taking the row and returning false to stop), so the discovery unit's
/// append is inlined rather than called through a std::function.
template <typename Sink>
class Walk {
 public:
  Walk(const Instance& instance, const std::vector<Atom>& conjunction,
       uint32_t num_variables, const Binding& initial, uint32_t pivot,
       AtomId watermark, const HomSearchOptions& options, const Sink& sink)
      : instance_(instance),
        conjunction_(conjunction),
        pivot_(pivot),
        watermark_(watermark),
        options_(options),
        sink_(sink),
        row_(num_variables, UnboundTerm()),
        matched_(conjunction.size(), false) {
    for (std::size_t v = 0; v < initial.size() && v < row_.size(); ++v) {
      row_[v] = initial[v];
    }
    // A conjunct's clipped predicate span is fixed for the whole search;
    // only position lists depend on the row.
    predicate_spans_.reserve(conjunction_.size());
    for (uint32_t c = 0; c < conjunction_.size(); ++c) {
      predicate_spans_.push_back(
          ClipPostings(instance_.AtomsWithPredicate(conjunction_[c].predicate),
                       RangeOf(c), watermark_));
    }
  }

  HomSearchStatus Run() {
    Expand(0);
    return status_;
  }

 private:
  /// Where conjunct `c` may match: anywhere in a plain search; in a
  /// discovery unit, old atoms before the pivot, the delta at it and any
  /// atom after it.
  MatchRange RangeOf(uint32_t c) const {
    if (pivot_ == kNoPivot || c > pivot_) return MatchRange::kAll;
    return c < pivot_ ? MatchRange::kOldOnly : MatchRange::kDeltaOnly;
  }

  /// Counts `n` candidates. False, and the walk stops, once the charge
  /// passes the cap (it then reads cap + 1) or the governor trips as the
  /// charge crosses a multiple of 1024.
  bool Charge(uint64_t n) {
    const uint64_t before = status_.charge;
    if (n > options_.max_candidate_visits - before) {
      status_.charge = options_.max_candidate_visits + 1;
      status_.budget_exhausted = true;
      stop_ = true;
      return false;
    }
    status_.charge = before + n;
    if (options_.governor != nullptr &&
        (before >> 10) != (status_.charge >> 10) &&
        options_.governor->Check() != GovernorState::kOk) {
      status_.governor_tripped = true;
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
    if (depth == conjunction_.size()) {
      if (!sink_(row_)) {
        status_.row_capped = true;
        stop_ = true;
      }
      return;
    }
    // The unmatched conjunct with the smallest candidate list, each
    // conjunct's list being its predicate list or a strictly smaller
    // constant or bound-position list; ties go to the earlier conjunct
    // and the earlier position.
    uint32_t best = static_cast<uint32_t>(conjunction_.size());
    PostingList best_list;
    bool best_is_predicate = false;
    for (uint32_t c = 0; c < conjunction_.size(); ++c) {
      if (matched_[c]) continue;
      const Atom& atom = conjunction_[c];
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
      if (best == conjunction_.size() || list.size() < best_list.size()) {
        best = c;
        best_list = list;
        best_is_predicate = is_predicate;
      }
    }
    const PostingView span =
        best_is_predicate
            ? predicate_spans_[best]
            : ClipPostings(best_list, RangeOf(best), watermark_);
    const Atom& pattern = conjunction_[best];
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
  const std::vector<Atom>& conjunction_;
  const uint32_t pivot_;
  const AtomId watermark_;
  const HomSearchOptions options_;
  const Sink& sink_;
  Binding row_;
  std::vector<uint32_t> trail_;
  std::vector<bool> matched_;
  std::vector<PostingView> predicate_spans_;
  HomSearchStatus status_;
  bool stop_ = false;
};

}  // namespace

HomSearchStatus HomomorphismFinder::FindAllWithOptions(
    const std::vector<Atom>& conjunction, uint32_t num_variables,
    const HomSearchOptions& options, const Binding& initial,
    const std::function<bool(const Binding&)>& callback) const {
  return Walk(instance_, conjunction, num_variables, initial, kNoPivot,
              /*watermark=*/0, options, callback)
      .Run();
}

std::optional<Binding> HomomorphismFinder::FindOne(
    const std::vector<Atom>& conjunction, uint32_t num_variables,
    const Binding& initial) const {
  std::optional<Binding> result;
  FindAllWithOptions(conjunction, num_variables, HomSearchOptions{}, initial,
                     [&result](const Binding& binding) {
                       result = binding;
                       return false;  // Stop after the first match.
                     });
  return result;
}

HomSearchStatus HomomorphismFinder::FindUnit(
    const std::vector<Atom>& body, uint32_t num_variables, uint32_t pivot,
    AtomId watermark, const HomSearchOptions& options, uint64_t row_cap,
    BindingSegment* out) const {
  GCHASE_CHECK(pivot < body.size());
  out->Clear();
  out->SetWidth(num_variables);
  const auto append = [out, row_cap](const Binding& row) {
    out->AppendRow(row.data());
    return out->rows() < row_cap;
  };
  return Walk(instance_, body, num_variables, Binding(), pivot, watermark,
              options, append)
      .Run();
}

Atom SubstituteAtom(const Atom& atom, const Binding& binding) {
  Atom out;
  out.predicate = atom.predicate;
  out.args.reserve(atom.arity());
  for (Term t : atom.args) {
    if (t.IsVariable()) {
      GCHASE_CHECK(t.index() < binding.size());
      Term image = binding[t.index()];
      GCHASE_CHECK_MSG(IsBound(image), "substitution with unbound variable");
      out.args.push_back(image);
    } else {
      out.args.push_back(t);
    }
  }
  return out;
}

}  // namespace gchase
