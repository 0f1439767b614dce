#ifndef GCHASE_CHASE_TRIGGER_LOG_H_
#define GCHASE_CHASE_TRIGGER_LOG_H_

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "base/check.h"
#include "model/term.h"
#include "model/tgd.h"
#include "storage/arena.h"

namespace gchase {

/// One applied trigger of a provenance-tracking run, borrowed from its
/// TriggerLog the way an AtomView borrows an atom from its instance: the
/// spans point into the log's buffer and are invalidated by the log's
/// next Append or AddProduced. Copy out whatever must outlive that.
struct TriggerView {
  uint32_t rule = 0;
  /// Images of the rule's body conjuncts, in body order.
  std::span<const AtomId> body_atoms;
  /// Ids of the head-atom images, in head order. Complete, except on the
  /// trigger the atom cap stopped: it keeps the ids up to and including
  /// the insert that crossed the cap.
  std::span<const AtomId> produced;
  /// The body homomorphism, one packed term per VarId (read it through
  /// binding(); existential slots hold no value).
  std::span<const uint32_t> binding_words;
  /// The fresh nulls are null ids first_null, first_null + 1, ..., one
  /// per existential variable in order: the apply loop allocates a
  /// trigger's nulls contiguously.
  uint32_t first_null = 0;
  uint32_t created_nulls = 0;

  Term binding(VarId v) const { return std::bit_cast<Term>(binding_words[v]); }
  Term created_null(uint32_t i) const {
    GCHASE_CHECK(i < created_nulls);
    return Term::Null(uint64_t{first_null} + i);
  }
};

/// The applied triggers of a provenance-tracking chase run, in
/// application order: one fixed-width record per trigger and one flat
/// word buffer. A trigger of rule r owns a slice laid out as r's |body|
/// body-atom ids, then its num_variables() binding terms, then up to
/// |head| produced ids; the record holds the rule, the slice's offset,
/// how many produced ids were written and the first created null. No
/// trigger allocates on its own, so appending costs what the buffers'
/// geometric growth costs.
class TriggerLog {
 public:
  /// Reads each rule's slice shape; `rules` is not retained.
  explicit TriggerLog(const RuleSet& rules) {
    shapes_.reserve(rules.size());
    for (const Tgd& rule : rules.rules()) {
      shapes_.push_back(
          {static_cast<uint32_t>(rule.body().size()), rule.num_variables(),
           static_cast<uint32_t>(rule.existential_variables().size())});
    }
  }

  /// Opens the record of the next trigger: rule `rule`, body homomorphism
  /// `binding` (the rule's num_variables() terms) and first created null
  /// `first_null`. Returns the |body| slots the caller writes the
  /// body-atom ids to, valid until the next AddProduced or Append.
  AtomId* Append(uint32_t rule, const Term* binding, uint32_t first_null) {
    const Shape& shape = shapes_[rule];
    const uint64_t offset = words_.size();
    entries_.push_back({offset, rule, 0, first_null});
    words_.resize(offset + shape.body + shape.variables);
    uint32_t* slice = words_.data() + offset;
    for (uint32_t v = 0; v < shape.variables; ++v) {
      slice[shape.body + v] = binding[v].raw();
    }
    return slice;
  }

  /// Appends `id` to the open record's produced ids.
  void AddProduced(AtomId id) {
    GCHASE_CHECK(!entries_.empty());
    words_.push_back(id);
    ++entries_.back().produced;
  }

  TriggerView operator[](uint32_t index) const {
    GCHASE_CHECK(index < entries_.size());
    const Entry& entry = entries_[index];
    const Shape& shape = shapes_[entry.rule];
    const uint32_t* slice = words_.data() + entry.offset;
    TriggerView view;
    view.rule = entry.rule;
    view.body_atoms = {slice, shape.body};
    view.binding_words = {slice + shape.body, shape.variables};
    view.produced = {slice + shape.body + shape.variables, entry.produced};
    view.first_null = entry.first_null;
    view.created_nulls = shape.nulls;
    return view;
  }

  uint32_t size() const { return static_cast<uint32_t>(entries_.size()); }

  /// Bytes of heap capacity the records and the buffer retain.
  uint64_t capacity_bytes() const {
    return entries_.capacity() * sizeof(Entry) +
           words_.capacity() * sizeof(uint32_t);
  }

 private:
  static_assert(sizeof(Term) == sizeof(uint32_t));

  struct Shape {
    uint32_t body;
    uint32_t variables;
    uint32_t nulls;
  };
  struct Entry {
    uint64_t offset;  ///< First word of the trigger's slice in words_.
    uint32_t rule;
    uint32_t produced;
    uint32_t first_null;
  };

  std::vector<Shape> shapes_;
  std::vector<Entry> entries_;
  std::vector<uint32_t> words_;
};

}  // namespace gchase

#endif  // GCHASE_CHASE_TRIGGER_LOG_H_
