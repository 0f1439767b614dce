#include "termination/pump_detector.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "base/hash.h"

namespace gchase {

namespace {

/// Base index for symbolic nulls allocated during replay verification;
/// far above anything a real (capped) chase run allocates.
constexpr uint32_t kReplayNullBase = 1u << 29;

/// Marker prefix used to encode "i-th distinct null of this atom" in type
/// signatures (tag value 3 << 30 is unused by Term).
constexpr uint32_t kNullOccurrenceTag = 3u << 30;

struct AtomHash {
  std::size_t operator()(const Atom& a) const noexcept { return HashAtom(a); }
};

}  // namespace

PumpDetector::PumpDetector(const ChaseRun& run, PumpDetectorOptions options)
    : run_(run), options_(options) {}

PumpDetector::TypeRef PumpDetector::TypeOf(AtomId id) {
  if (id >= types_.size()) types_.resize(id + 1);
  if (types_[id].size != 0) return types_[id];
  const AtomView atom = run_.instance().atom(id);
  const uint64_t offset = type_words_.size();
  GCHASE_CHECK(offset + atom.arity() < std::numeric_limits<uint32_t>::max());
  TypeRef ref;
  ref.offset = static_cast<uint32_t>(offset);
  ref.size = atom.arity() + 1;
  type_words_.push_back(atom.predicate + 1);  // a signature never starts at 0
  uint32_t distinct_nulls = 0;
  for (uint32_t i = 0; i < atom.arity(); ++i) {
    const Term t = atom.args[i];
    uint32_t word = t.raw();
    if (t.IsNull()) {
      // A null repeats the marker of its first earlier position, or takes
      // the next unused occurrence number.
      uint32_t j = 0;
      while (j < i && atom.args[j] != t) ++j;
      if (j < i) {
        word = type_words_[ref.offset + 1 + j];
      } else {
        word = kNullOccurrenceTag | distinct_nulls++;
      }
    }
    type_words_.push_back(word);
  }
  ref.hash = HashRange(type_words_.begin() + ref.offset, type_words_.end());
  types_[id] = ref;
  return ref;
}

bool PumpDetector::SameType(TypeRef a, TypeRef b) const {
  if (a.hash != b.hash || a.size != b.size) return false;
  const uint32_t* w = type_words_.data();
  return std::equal(w + a.offset, w + a.offset + a.size, w + b.offset);
}

std::optional<PumpCertificate> PumpDetector::OnAtom(AtomId v) {
  const std::vector<AtomProvenance>& prov = run_.provenance();
  GCHASE_CHECK_MSG(!prov.empty() || run_.instance().empty(),
                   "PumpDetector requires provenance tracking");
  const TypeRef v_type = TypeOf(v);
  uint32_t walked = 0;
  uint32_t attempts = 0;
  for (AtomId u = prov[v].parent; u != kNoAtomId; u = prov[u].parent) {
    if (++walked > options_.max_chain_walk) break;
    if (!SameType(TypeOf(u), v_type)) continue;
    if (++attempts > options_.max_candidates) break;
    ++replays_attempted_;
    PumpCertificate certificate;
    if (TryReplay(u, v, &certificate)) return certificate;
  }
  return std::nullopt;
}

bool PumpDetector::TryReplay(AtomId u_id, AtomId v_id,
                             PumpCertificate* certificate) {
  const Instance& instance = run_.instance();
  const std::vector<AtomProvenance>& prov = run_.provenance();
  const AtomView u = instance.atom(u_id);
  const AtomView v = instance.atom(v_id);

  // --- Positional term map phi: terms(u) -> terms(v). ------------------
  std::unordered_map<uint32_t, uint32_t> phi;  // raw -> raw
  bool moved = false;
  for (uint32_t i = 0; i < u.arity(); ++i) {
    Term tu = u.args[i];
    Term tv = v.args[i];
    if (tu.IsConstant()) {
      if (tu != tv) return false;  // types matched, but double-check
      continue;
    }
    auto [it, inserted] = phi.emplace(tu.raw(), tv.raw());
    if (!inserted && it->second != tv.raw()) return false;
    if (tu != tv) moved = true;
  }
  if (!moved) return false;  // idle pump: replay recreates v verbatim

  // --- Collect the derivation segment (triggers from u down to v). -----
  std::vector<uint32_t> segment;  // trigger indexes, newest first
  for (AtomId a = v_id; a != u_id; a = prov[a].parent) {
    if (a == kNoAtomId || prov[a].trigger == kNoTriggerId) return false;
    segment.push_back(prov[a].trigger);
  }
  std::reverse(segment.begin(), segment.end());  // chronological

  const std::vector<TriggerRecord>& triggers = run_.triggers();

  // Atoms produced by the segment (their phi-images are reproduced by
  // each replay), and the "shift generation": nulls created during the
  // segment or the replay.
  std::unordered_set<Atom, AtomHash> segment_produced;
  std::unordered_set<uint32_t> generation;
  for (uint32_t t : segment) {
    for (AtomId id : triggers[t].produced) {
      segment_produced.insert(instance.atom(id).ToAtom());
    }
    for (Term n : triggers[t].created_nulls) generation.insert(n.raw());
  }

  // --- Symbolic replay. -------------------------------------------------
  auto apply_phi = [&phi](Term t) {
    auto it = phi.find(t.raw());
    if (it == phi.end()) return t;
    // Reconstruct a Term from its packed representation (phi maps nulls
    // to nulls and constants to constants, so the tag is preserved).
    uint32_t raw = it->second;
    uint32_t index = raw & ((1u << 30) - 1);
    switch (raw >> 30) {
      case 0:
        return Term::Constant(index);
      case 1:
        return Term::Variable(index);
      default:
        return Term::Null(index);
    }
  };

  std::unordered_set<Atom, AtomHash> overlay;
  std::unordered_map<uint32_t, TriggerKeyTable> replayed_keys;  // by rule
  uint32_t fresh_counter = kReplayNullBase;
  GCHASE_CHECK(run_.nulls_created() < kReplayNullBase);

  const RuleSet& rules = run_.rules();
  for (uint32_t t_index : segment) {
    const TriggerRecord& trigger = triggers[t_index];
    const Tgd& rule = rules.rule(trigger.rule);

    // Image of the body homomorphism.
    Binding image_binding(trigger.binding.size(), UnboundTerm());
    for (VarId var : rule.universal_variables()) {
      image_binding[var] = apply_phi(trigger.binding[var]);
    }

    // Every body atom must be phi-stable, segment-produced, or produced
    // by the replay so far.
    for (AtomId body_id : trigger.body_atoms) {
      Atom image = instance.atom(body_id).ToAtom();
      bool stable = true;
      for (Term& term : image.args) {
        Term mapped = apply_phi(term);
        if (mapped != term) stable = false;
        term = mapped;
      }
      if (stable) continue;  // unchanged atom, still present
      if (overlay.find(image) != overlay.end()) continue;
      if (segment_produced.find(image) != segment_produced.end()) continue;
      return false;
    }

    const TriggerKeyTable& applied = run_.applied_keys(trigger.rule);
    const std::vector<VarId>& key_vars = applied.key_variables();
    if (applied.SameKey(image_binding.data(), trigger.binding.data())) {
      // Verbatim no-op: outputs already exist; created nulls map to
      // themselves.
      for (Term n : trigger.created_nulls) phi.emplace(n.raw(), n.raw());
      continue;
    }

    // Fresh replayed trigger: must be globally unapplied, must carry a
    // current-generation null (so the *next* replay's key is fresh too)
    // and must not repeat an earlier replayed key.
    if (applied.ContainsRow(image_binding.data())) return false;
    bool carries_generation = false;
    for (VarId var : key_vars) {
      if (generation.count(image_binding[var].raw()) != 0) {
        carries_generation = true;
        break;
      }
    }
    if (!carries_generation) return false;
    auto replayed = replayed_keys.try_emplace(trigger.rule, key_vars).first;
    if (!replayed->second.InsertRow(image_binding.data())) return false;

    // Extend phi with fresh nulls for the trigger's created nulls.
    Binding extended = image_binding;
    const std::vector<VarId>& existentials = rule.existential_variables();
    GCHASE_CHECK(existentials.size() == trigger.created_nulls.size());
    for (std::size_t i = 0; i < existentials.size(); ++i) {
      Term fresh = Term::Null(fresh_counter++);
      phi[trigger.created_nulls[i].raw()] = fresh.raw();
      generation.insert(fresh.raw());
      extended[existentials[i]] = fresh;
    }
    for (const Atom& head : rule.head()) {
      overlay.insert(SubstituteAtom(head, extended));
    }
  }

  // Productivity: the replayed copy of v must be a genuinely new atom.
  Atom v_image = v.ToAtom();
  bool v_moved = false;
  for (Term& term : v_image.args) {
    Term mapped = apply_phi(term);
    if (mapped != term) v_moved = true;
    term = mapped;
  }
  if (!v_moved) return false;
  if (overlay.find(v_image) == overlay.end()) return false;

  certificate->ancestor = u_id;
  certificate->descendant = v_id;
  certificate->segment_rules.reserve(segment.size());
  for (uint32_t t : segment) {
    certificate->segment_rules.push_back(triggers[t].rule);
  }
  return true;
}

}  // namespace gchase
