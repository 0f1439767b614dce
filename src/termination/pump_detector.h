#ifndef GCHASE_TERMINATION_PUMP_DETECTOR_H_
#define GCHASE_TERMINATION_PUMP_DETECTOR_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "chase/chase.h"

namespace gchase {

/// A verified non-termination certificate: the chase derived `descendant`
/// from `ancestor` through `segment_rules`, and the segment can be
/// replayed from `descendant` forever (each replay re-creates an
/// isomorphic, strictly fresher copy of itself).
struct PumpCertificate {
  AtomId ancestor = 0;
  AtomId descendant = 0;
  std::vector<uint32_t> segment_rules;  ///< Rules applied, oldest first.
};

/// Tuning knobs for the detector.
struct PumpDetectorOptions {
  /// Maximum ancestors inspected per new atom (walking the guard chain).
  uint32_t max_chain_walk = 1u << 14;
  /// Maximum replay verifications attempted per new atom.
  uint32_t max_candidates = 16;
};

/// Detects provable non-termination of an (semi-)oblivious chase run on
/// the fly.
///
/// After each derived atom v, the detector walks v's guard-ancestor chain
/// looking for an ancestor u of the same *type* (same predicate, same
/// argument-equality pattern, same constants). The positional map
/// phi: terms(u) -> terms(v) then suggests that the derivation segment
/// u ~> v can be replayed from v. The replay is *verified* symbolically:
///
///  - every body atom of every segment trigger must, under phi, be either
///    unchanged (still present), an atom produced earlier in the segment
///    (its image is produced by the replay, inductively), or an atom the
///    replay itself has produced;
///  - every replayed trigger is either a verbatim no-op (its dedup key is
///    phi-fixed, so its outputs already exist) or genuinely fresh: its
///    key must be unapplied and must contain a null of the current
///    "shift generation" (created during the segment or the replay), so
///    that the next replay's key is fresh again;
///  - the replayed copy of v must differ from v (productivity).
///
/// If the verification succeeds, replays compose indefinitely (each one
/// reproduces the preconditions of the next, shifted to fresher nulls),
/// so the chase applies infinitely many distinct triggers: a sound
/// non-termination proof. The detector never reports a false positive;
/// it can fail to report (the decider then keeps chasing or gives up at
/// its resource caps with an Unknown verdict).
class PumpDetector {
 public:
  /// `run` must have provenance tracking enabled and outlive the detector.
  PumpDetector(const ChaseRun& run, PumpDetectorOptions options = {});

  /// Inspects newly derived atom `v`; returns a certificate when a pump
  /// is proven. Call from the chase observer.
  std::optional<PumpCertificate> OnAtom(AtomId v);

  /// Number of replay verifications attempted (statistics).
  uint64_t replays_attempted() const { return replays_attempted_; }

 private:
  /// Where an atom's type signature sits in type_words_; size 0 marks a
  /// signature not computed yet (a real one holds at least the predicate).
  struct TypeRef {
    uint32_t offset = 0;
    uint32_t size = 0;
    uint64_t hash = 0;
  };

  /// Canonical type signature, computed on first use: predicate + 1
  /// followed by, per position, the constant's packed term or a
  /// first-occurrence marker for nulls.
  TypeRef TypeOf(AtomId id);

  /// Signature equality: hash and size first, then the words.
  bool SameType(TypeRef a, TypeRef b) const;

  bool TryReplay(AtomId u, AtomId v, PumpCertificate* certificate);

  const ChaseRun& run_;
  PumpDetectorOptions options_;
  /// Every computed signature, back to back, and each atom's slice of it.
  std::vector<uint32_t> type_words_;
  std::vector<TypeRef> types_;
  uint64_t replays_attempted_ = 0;
};

}  // namespace gchase

#endif  // GCHASE_TERMINATION_PUMP_DETECTOR_H_
