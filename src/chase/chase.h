#ifndef GCHASE_CHASE_CHASE_H_
#define GCHASE_CHASE_CHASE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "base/governor.h"
#include "base/status.h"
#include "base/thread_pool.h"
#include "chase/batch_apply.h"
#include "chase/join_plan.h"
#include "chase/plan_executor.h"
#include "chase/trigger_key_table.h"
#include "model/tgd.h"
#include "storage/homomorphism.h"
#include "storage/instance.h"

namespace gchase {

/// Which chase procedure to run. The variants differ in when a trigger
/// (rule, homomorphism) is considered "already applied":
///  - oblivious: one application per (rule, full body homomorphism);
///  - semi-oblivious: one application per (rule, frontier restriction) —
///    homomorphisms agreeing on the frontier are indistinguishable;
///  - restricted (standard): like semi-oblivious, but a trigger is skipped
///    if its head is already satisfied by an extension into the instance.
enum class ChaseVariant { kOblivious, kSemiOblivious, kRestricted };

/// Returns "oblivious", "semi-oblivious" or "restricted".
const char* ChaseVariantName(ChaseVariant variant);

/// In which order discovered triggers are applied within a round. The
/// (semi-)oblivious chase result does not depend on this (every trigger
/// fires eventually); the *restricted* chase is order-sensitive — one
/// order may terminate while another diverges — which is why deciding
/// its termination is substantially harder (the paper's future work).
enum class TriggerOrder {
  kFifo,          ///< Discovery order (round-robin; the default).
  kDatalogFirst,  ///< Existential-free rules first within each round: a
                  ///< satisfaction-eager heuristic that lets the
                  ///< restricted chase skip more triggers.
  kRandom,        ///< Seeded shuffle per round (for order-sensitivity
                  ///< probing).
};

/// Where a fault-injection checkpoint sits (see
/// ChaseOptions::fault_injector).
enum class FaultSite {
  kRoundStart,    ///< Ordinal: the 0-based round about to start.
  kDiscovery,     ///< Ordinal: the (rule, pivot) discovery-unit index
                  ///< within the round, in serial enumeration order.
  kTriggerApply,  ///< Ordinal: triggers applied so far in the run.
  kHeadCheck,     ///< Ordinal: restricted-chase head-satisfaction checks
                  ///< performed so far in the run. Sits at the entry of
                  ///< every satisfaction check, so tests can abort a run
                  ///< deterministically *inside* the check phase.
  kAllocation,    ///< Ordinal: storage-growth decision points passed so
                  ///< far in the run (the pre-round bulk reserve and each
                  ///< trigger's head materialization). This is where the
                  ///< memory budget's pre-size denial sits, so injecting
                  ///< kMemoryBudget here exercises every byte-budget stop
                  ///< path without an actual multi-megabyte instance. The
                  ///< ordinal sequence is identical between the batch and
                  ///< per-trigger apply paths (pinned by the fuzz
                  ///< oracles).
};

/// What a fault injector forces at a checkpoint.
enum class InjectedFault {
  kNone,           ///< No fault; the run proceeds.
  kCancel,         ///< As if the cancellation token had been tripped.
  kDeadline,       ///< As if the wall-clock deadline had expired.
  kResourceLimit,  ///< As if an allocation/count cap had been hit.
  kMemoryBudget,   ///< As if the byte budget's hard limit had been hit.
};

/// Test-only hook: called at every governor checkpoint with the site and
/// its ordinal; returning anything but kNone aborts the run there with
/// the corresponding outcome. This makes every abort path reachable
/// deterministically — no timing games — so tests can pin down exactly
/// which round / trigger / discovery unit a run died at. The injector is
/// called concurrently from parallel-discovery workers and must be
/// thread-safe (capture atomics, not plain counters).
using FaultInjector = std::function<InjectedFault(FaultSite, uint64_t)>;

/// Resource caps and feature toggles for one chase execution.
struct ChaseOptions {
  ChaseVariant variant = ChaseVariant::kRestricted;
  /// Trigger application order within a round.
  TriggerOrder order = TriggerOrder::kFifo;
  /// Seed for TriggerOrder::kRandom.
  uint64_t order_seed = 0;
  /// Worker threads for the trigger-discovery phase. 1 (the default) runs
  /// the serial engine; n > 1 shards the round's (rule, pivot) search
  /// units over n threads and merges the discovered candidates
  /// deterministically, so every value produces bit-identical instances
  /// and trigger sequences. Trigger *application* is always serial (it
  /// mutates the instance), so restricted-chase order sensitivity is
  /// unaffected.
  uint32_t discovery_threads = 1;
  /// Persistent executor for the discovery fan-out. When set, the run
  /// wakes this pool's parked workers each parallel round instead of
  /// spawning threads; the pool may be shared across consecutive runs
  /// (the restricted-probe driver does this). When unset and
  /// discovery_threads > 1, the run creates a private pool for its
  /// lifetime. The pool's worker count caps the effective parallelism.
  std::shared_ptr<ThreadPool> executor;
  /// Adaptive serial/parallel cutover: a round whose estimated join work
  /// (delta cardinality x candidate fan-out, summed over discovery
  /// units) falls below this threshold runs the serial engine even when
  /// discovery_threads > 1 — waking workers for a handful of probes
  /// costs more than the probes. 0 disables the cutover (always
  /// parallel). Results are bit-identical either way.
  uint64_t parallel_cutover_work = uint64_t{1} << 15;
  /// Cap on applied triggers (chase steps).
  uint64_t max_steps = std::numeric_limits<uint64_t>::max();
  /// Cap on total atoms in the instance.
  uint64_t max_atoms = std::numeric_limits<uint64_t>::max();
  /// Cap on fresh labeled nulls.
  uint64_t max_nulls = std::numeric_limits<uint64_t>::max();
  /// Cap on homomorphisms enumerated during trigger discovery across the
  /// whole run (each homomorphism is discovered exactly once). Unguarded
  /// bodies can have |instance|^k homomorphisms, far more than the
  /// triggers that survive dedup; this cap bounds that work.
  uint64_t max_hom_discoveries = std::numeric_limits<uint64_t>::max();
  /// Cap on candidate atoms visited by the join search across the run
  /// (bounds backtracking *work*, which can dwarf the homomorphism count
  /// on high-fanout unguarded joins).
  uint64_t max_join_work = std::numeric_limits<uint64_t>::max();
  /// Record per-atom and per-trigger provenance (costs memory; required by
  /// the termination deciders' pump detection).
  bool track_provenance = false;
  /// Set-at-a-time trigger application (the default). Head atoms of a
  /// round's pending triggers are materialized into a columnar scratch
  /// block and bulk-deduped into the store — no per-atom heap allocation.
  /// The per-trigger path remains for observer and provenance runs (which
  /// need per-atom insertion hooks) and as the differential baseline;
  /// both paths produce bit-identical instances, atom ids and counters
  /// (pinned by the fuzz oracles). Turn off to force per-trigger apply.
  bool batch_apply = true;
  /// Compiled set-at-a-time join plans for trigger discovery (the
  /// default). Each rule body is compiled once at chase start into an
  /// ordered join plan; discovery then executes plannable rules (bodies
  /// of at most two conjuncts) as a columnar pipeline over range-clipped
  /// posting lists instead of per-trigger backtracking. Non-plannable
  /// bodies and cap-adjacent rounds stay on the backtracking path, and
  /// both engines produce bit-identical instances, trigger sequences,
  /// counters and join-work accounting (pinned by the fuzz oracles and
  /// join_plan_test). Turn off to route every rule through the legacy
  /// backtracking search.
  bool join_plans = true;
  /// Byte budget for the run's retained storage (term arena, atom
  /// records, dedup table, position index, posting lists, batch staging).
  /// 0 means unlimited. Enforced two ways: bulk growth points project
  /// their exact byte cost and refuse to commit it when it would cross
  /// the limit, and every governor checkpoint trips once live usage is
  /// over it — either way the run stops cleanly with
  /// ChaseOutcome::kMemoryBudgetExceeded, the partial instance and stats
  /// intact, never a throw mid-grow. Per-atom steady-state growth between
  /// checkpoints bounds the overshoot to one geometric growth step.
  uint64_t max_memory_bytes = 0;
  /// Externally owned budget to charge instead of a private one built
  /// from max_memory_bytes (which is then ignored). Lets sequential
  /// phases (the decider cascade) or concurrent runs share one
  /// admission-controlled pool; the run charges its retained bytes on
  /// growth and releases them when its storage dies.
  std::shared_ptr<MemoryBudget> memory_budget;
  /// Wall-clock budget for the run. Checked cooperatively (round starts,
  /// discovery units, join-search visits, trigger applications); expiry
  /// surfaces as ChaseOutcome::kDeadlineExceeded with the partial
  /// instance and stats intact — never a throw or a hang. Default:
  /// infinite.
  Deadline deadline;
  /// External cancellation. Keep a copy of the token and RequestCancel()
  /// from any thread (or signal handler) to stop the run at its next
  /// checkpoint with ChaseOutcome::kCancelled.
  CancellationToken cancel;
  /// Test-only fault injection; see FaultInjector. Leave empty in
  /// production.
  FaultInjector fault_injector;
};

/// How a chase execution ended. kTerminated is a proof (a universal
/// model); everything else is a clean early stop that leaves the partial
/// instance, provenance and stats valid and inspectable.
enum class ChaseOutcome {
  kTerminated,        ///< No unapplied trigger remains: a universal model.
  kResourceLimit,     ///< A count cap in ChaseOptions was hit.
  kAborted,           ///< The observer callback requested a stop.
  kDeadlineExceeded,  ///< ChaseOptions::deadline expired mid-run.
  kCancelled,         ///< ChaseOptions::cancel was tripped mid-run.
  kMemoryBudgetExceeded,  ///< The byte budget's hard limit was crossed.
};

/// Returns "terminated", "resource-limit", "aborted", "deadline-exceeded",
/// "cancelled" or "memory-budget-exceeded".
const char* ChaseOutcomeName(ChaseOutcome outcome);

/// Collapses an outcome to the shared early-stop vocabulary (kNone for
/// kTerminated and kAborted — neither is a budget problem).
inline StopReason StopReasonOf(ChaseOutcome outcome) {
  switch (outcome) {
    case ChaseOutcome::kResourceLimit:
      return StopReason::kResourceCap;
    case ChaseOutcome::kDeadlineExceeded:
      return StopReason::kDeadline;
    case ChaseOutcome::kCancelled:
      return StopReason::kCancelled;
    case ChaseOutcome::kMemoryBudgetExceeded:
      return StopReason::kMemory;
    case ChaseOutcome::kTerminated:
    case ChaseOutcome::kAborted:
      break;
  }
  return StopReason::kNone;
}

/// Sentinel ids for provenance of database atoms.
inline constexpr uint32_t kNoRule = 0xffffffffu;
inline constexpr uint32_t kNoAtomId = 0xffffffffu;
inline constexpr uint32_t kNoTriggerId = 0xffffffffu;

/// Where an instance atom came from.
struct AtomProvenance {
  uint32_t rule = kNoRule;          ///< Producing rule index (kNoRule = DB atom).
  uint32_t head_index = 0;          ///< Which head atom of the rule.
  AtomId parent = kNoAtomId;        ///< Image of the rule's guard body atom.
  uint32_t depth = 0;               ///< 1 + parent depth (0 for DB atoms).
  uint32_t trigger = kNoTriggerId;  ///< Index into triggers().
};

/// One applied trigger, recorded when track_provenance is on.
struct TriggerRecord {
  uint32_t rule = 0;
  std::vector<AtomId> body_atoms;  ///< Images of the body conjuncts, in order.
  Binding binding;                 ///< The full body homomorphism.
  std::vector<Term> created_nulls; ///< Fresh nulls, in existential-var order.
  std::vector<AtomId> produced;    ///< Ids of the head-atom images.
};

/// Labeled-null ids the engine may allocate: [0, kMaxLabeledNulls). The id
/// kUnboundIndex is the binding sentinel and is never handed out; running
/// out of representable ids surfaces as ChaseOutcome::kResourceLimit, never
/// as a silent collision.
inline constexpr uint64_t kMaxLabeledNulls = kUnboundIndex;

/// Per-rule trigger counters, indexed like RuleSet::rule().
struct RuleStats {
  uint64_t discovered = 0;         ///< Candidates surviving key dedup.
  uint64_t applied = 0;            ///< Triggers actually fired.
  uint64_t skipped_satisfied = 0;  ///< Restricted-chase satisfied skips.
  /// Discovery units this rule executed through the compiled plan (one
  /// per (rule, pivot) rotation per kept plan round; 0 for non-plannable
  /// rules or with join_plans off).
  uint64_t plan_rotations = 0;
  /// The conjunct order the plan chose most recently (body indices in
  /// match order; empty if the rule never executed a plan). The order is
  /// re-chosen per round from the same selectivity estimates the
  /// backtracking engine uses, so this also documents what the legacy
  /// search would have matched first.
  std::vector<uint32_t> plan_order;
};

/// Per-round counters and phase timings. A round is one discovery pass
/// followed by one application pass; the final discovery pass that finds
/// no candidate (and so terminates the run) has no entry.
struct RoundStats {
  uint64_t delta_atoms = 0;        ///< Atoms entering the round as delta.
  uint64_t candidates = 0;         ///< Pending triggers after dedup.
  uint64_t applied = 0;            ///< Triggers fired this round.
  double discovery_seconds = 0.0;  ///< Wall time of the discovery phase.
  double apply_seconds = 0.0;      ///< Wall time of the application phase.
  /// Wall time of the whole round, discovery start to apply end — also
  /// covering the reorder/reserve work between the phases, which the two
  /// phase timers alone leave invisible.
  double total_seconds = 0.0;
  uint64_t estimated_work = 0;     ///< Join-work estimate driving cutover.
  bool parallel_discovery = false; ///< Round ran the parallel engine.
  /// Triggers applied through the set-at-a-time executor this round (0 on
  /// per-trigger rounds; equals `applied` on batch rounds).
  uint64_t batched_triggers = 0;
  /// Bulk segments flushed into the store this round. One per maximal run
  /// of same-shape head atoms: a whole (semi-)oblivious round of a
  /// single-head rule is one block; restricted rounds flush before every
  /// satisfaction check and so count one block per applied trigger.
  uint64_t batch_blocks = 0;
  /// Discovery units executed by the compiled-plan pipeline this round.
  uint64_t plan_units = 0;
  /// Discovery units that ran the backtracking search as units of the
  /// unit engine instead: units of non-plannable rules, every unit of a
  /// parallel round with join_plans off, or — when a discovery cap bound
  /// mid-round — every unit of the round (cap-adjacent rounds re-run on
  /// the serial backtracking path wholesale so capped runs stay
  /// bit-identical). 0 on plans-off serial rounds.
  uint64_t fallback_units = 0;
  /// Binding rows the plan units materialized (pre-dedup homomorphisms
  /// that flowed through columnar segments instead of callbacks).
  uint64_t binding_rows = 0;
};

/// Observability counters for one chase execution. Collection is always
/// on: everything here is O(rules + rounds) memory and a couple of clock
/// reads per round. Serialized to JSON by bench_util::ChaseStatsToJson.
struct ChaseStats {
  std::vector<RuleStats> per_rule;
  std::vector<RoundStats> per_round;
  uint64_t peak_atoms = 0;                   ///< Final instance size.
  uint64_t peak_position_index_keys = 0;     ///< Distinct (pred,pos,term) keys.
  uint64_t peak_position_index_entries = 0;  ///< Total posting-list entries.
  uint64_t peak_dedup_keys = 0;              ///< Applied trigger keys.
  uint32_t discovery_threads = 1;            ///< Effective worker count.
  uint64_t parallel_rounds = 0;              ///< Rounds using the pool.
  /// Rules whose body compiled to a usable join plan (bodies of at most
  /// two conjuncts; see JoinPlanSet). Reported even with join_plans off.
  uint32_t plannable_rules = 0;
  /// Wall time of terminal discovery passes that produced no per-round
  /// entry — the empty pass that proves termination, or an aborted one.
  /// Kept separate from per_round so round timings still sum to round
  /// activity; total discovery time is the per-round sum plus this.
  double final_discovery_seconds = 0.0;
  /// High-water mark of bytes charged to the run's memory budget. When
  /// the budget is shared across runs this is the *shared* peak — it can
  /// include other runs' charges.
  uint64_t peak_memory_bytes = 0;
  /// Bytes still charged at the end of the run (the instance's retained
  /// capacity; 0 only for an empty run).
  uint64_t memory_in_use_bytes = 0;
  /// The enforced hard limit (0 when unlimited).
  uint64_t memory_budget_bytes = 0;
  /// Pre-size requests the budget denied (each denial stops the run, so
  /// this exceeds 1 only for a shared budget).
  uint64_t memory_denials = 0;
  /// Load-phase observability (serialized as load_ms / edb_atoms /
  /// load_bytes): wall time of seeding the instance from the database —
  /// for an EDB-backed run this includes the bulk loader's parse (or
  /// snapshot open) time —, distinct database atoms seeded, and input
  /// bytes the loader consumed (0 for an in-memory std::vector<Atom>
  /// database).
  double load_seconds = 0.0;
  uint64_t edb_atoms = 0;
  uint64_t load_bytes = 0;
};

/// A single chase execution. Construct, Execute() once, then inspect.
///
/// The engine uses round-based semi-naive trigger discovery: in each round
/// it enumerates homomorphisms that touch at least one atom added in the
/// previous round (pivot decomposition), filters them through the
/// variant's dedup key, and applies the survivors FIFO. This realizes the
/// fairness condition of the chase definition.
class EdbDatabase;
struct Vocabulary;

class ChaseRun {
 public:
  /// `rules` must outlive the run. `database` atoms must be ground.
  ChaseRun(const RuleSet& rules, ChaseOptions options,
           const std::vector<Atom>& database);

  /// Seeds from a pre-built EDB (see storage/edb.h): the dictionary is
  /// interned into `vocabulary` in dictionary order and every table is
  /// block-inserted through Instance::TryAddBatch — constant ids, atom
  /// ids and the whole downstream run are bit-identical to the
  /// std::vector<Atom> constructor over the same fact stream. Check
  /// seed_status() before Execute(): a predicate arity conflict between
  /// `rules` and the EDB (or a corrupt snapshot) surfaces there. A
  /// budget denial of the seed reserve — or an EDB whose own load
  /// already tripped the budget — is not an error: Execute() then
  /// returns kMemoryBudgetExceeded immediately, partial stats intact.
  ChaseRun(const RuleSet& rules, ChaseOptions options, const EdbDatabase& edb,
           Vocabulary* vocabulary);

  /// Ok unless the EDB constructor failed to seed (see above). Execute()
  /// on a run with a failed seed is a checked error.
  const Status& seed_status() const { return seed_status_; }

  /// Observer invoked after each newly derived atom; return false to abort
  /// the run (outcome kAborted). May inspect the run through the getters.
  using AtomObserver = std::function<bool(AtomId)>;

  /// Runs the chase to completion, cap, or abort. Call exactly once.
  /// std::bad_alloc never escapes: if the allocator fails despite the
  /// budget (or with no budget set), the run degrades to
  /// kMemoryBudgetExceeded with whatever stats survived.
  ChaseOutcome Execute(const AtomObserver& observer = nullptr);

  const Instance& instance() const { return instance_; }
  /// The budget this run charges: options_.memory_budget if provided,
  /// else a private one built from options_.max_memory_bytes (unlimited
  /// when that is 0). Never null.
  const MemoryBudget& memory_budget() const { return *memory_budget_; }
  const RuleSet& rules() const { return rules_; }
  const std::vector<AtomProvenance>& provenance() const { return provenance_; }
  const std::vector<TriggerRecord>& triggers() const { return triggers_; }

  uint64_t applied_triggers() const { return applied_triggers_; }
  uint64_t rounds() const { return rounds_; }
  uint64_t nulls_created() const { return next_null_; }
  uint64_t hom_discoveries() const { return hom_discoveries_; }
  uint64_t join_work() const { return join_work_; }
  const ChaseStats& stats() const { return stats_; }

  /// The keys of rule `rule_index`'s triggers applied so far (or marked
  /// satisfied, for the restricted variant). Its key variables are the
  /// variant's dedup projection: all universals for oblivious, the
  /// frontier otherwise. Exposed for the termination deciders'
  /// pump-replay verification, which probes it with binding rows.
  const TriggerKeyTable& applied_keys(uint32_t rule_index) const {
    return applied_keys_[rule_index];
  }

 private:
  /// Shared construction tail: everything but the seeding (budget
  /// attachment, stats setup, plan compilation). The public constructors
  /// delegate here, then seed.
  ChaseRun(const RuleSet& rules, ChaseOptions options);

  /// A discovered, deduplicated trigger awaiting application: its rule
  /// and the offset of its binding row (the rule's num_variables() terms,
  /// indexed by VarId) in pending_rows_. Reordering a round permutes these
  /// records; the rows stay put.
  struct PendingTrigger {
    uint32_t rule;
    uint32_t offset;
  };

  const Term* PendingRow(const PendingTrigger& trigger) const {
    return pending_rows_.data() + trigger.offset;
  }

  /// Writes `atom`'s arguments under binding row `binding` into *out.
  static void SubstituteRow(const Atom& atom, const Term* binding,
                            std::vector<Term>* out);

  /// Outcome of one restricted-chase head-satisfaction check.
  enum class HeadCheck {
    kSatisfied,    ///< The head already maps into the instance.
    kUnsatisfied,  ///< It does not; the trigger must fire.
    kStopped,      ///< Governor/injector tripped or the join budget ran
                   ///< out mid-check; *outcome carries the abort outcome.
  };

  /// Governed head-satisfaction check: true iff the rule head, under the
  /// frontier part of binding row `binding`, already maps into the
  /// instance. Shared by the batch and per-trigger paths so join-work
  /// accounting and abort points are identical. Checkpoints at
  /// FaultSite::kHeadCheck on entry and threads the governor + join
  /// budget into the search; full rules take a ground fast path (one
  /// dedup probe per head atom, counted as one join-work visit each).
  HeadCheck CheckHeadSatisfied(const Tgd& rule, const Term* binding,
                               ChaseOutcome* outcome);

  /// Applies one trigger (`binding` is its row); returns false if a
  /// resource cap was hit.
  bool ApplyTrigger(uint32_t rule_index, const Term* binding,
                    const AtomObserver& observer, ChaseOutcome* outcome);

  /// Set-at-a-time application of a round's pending triggers (defined in
  /// batch_apply.cc; see HeadBlock). Semantically bit-identical to the
  /// per-trigger loop: same checkpoints, same cap trip points, same atom
  /// ids, same counters. Returns false when the run must stop, with
  /// *outcome set; staged atoms are always flushed before returning.
  bool ApplyPendingBatch(const std::vector<PendingTrigger>& pending,
                         RoundStats* round, ChaseOutcome* outcome);

  /// True if the run must stop here: consults the fault injector (when
  /// set) and then the governor, writing the abort outcome to *outcome.
  /// Pure (no member writes) so parallel workers may call it, provided
  /// any fault injector is thread-safe.
  bool GovernorStop(FaultSite site, uint64_t ordinal,
                    ChaseOutcome* outcome) const;

  /// Governor checkpoint at a storage-growth decision point: like
  /// GovernorStop(FaultSite::kAllocation, alloc_checks_++), but
  /// additionally denies the growth when charging `projected_bytes` more
  /// would cross the budget's hard limit (kMemoryBudgetExceeded before
  /// the memory is committed). Bumps the shared ordinal counter, so the
  /// batch and per-trigger paths see identical ordinals.
  bool AllocationStop(uint64_t projected_bytes, ChaseOutcome* outcome);

  /// The body of Execute(); the public wrapper adds the bad_alloc
  /// containment boundary.
  ChaseOutcome ExecuteLoop(const AtomObserver& observer);

  /// One round of semi-naive trigger discovery: every homomorphism whose
  /// image touches an atom with id >= `watermark`, deduplicated through
  /// applied_keys_, in deterministic (rule, pivot, discovery) order. The
  /// survivors' binding rows land in pending_rows_ (cleared first).
  /// Plans-off serial rounds run DiscoverSerial; everything else runs
  /// DiscoverPlanned; both produce identical results. Sets *capped when a
  /// discovery cap was hit (results may then be incomplete); sets
  /// *stopped and *stop_outcome when the governor or fault injector
  /// tripped mid-phase (the returned triggers are then partial and must
  /// not be applied).
  std::vector<PendingTrigger> DiscoverTriggers(AtomId watermark, bool* capped,
                                               bool* stopped,
                                               ChaseOutcome* stop_outcome);
  /// Backtracking engine: one search per (rule, pivot) unit, deduping
  /// each homomorphism as it is found and checking the caps after each.
  std::vector<PendingTrigger> DiscoverSerial(AtomId watermark, bool* capped,
                                             bool* stopped,
                                             ChaseOutcome* stop_outcome);
  /// Unit engine: with `use_plans`, plannable rules run the set-at-a-time
  /// PlanExecutor per (rule, pivot) unit; every other unit runs the
  /// backtracking search. Either way a unit fills its own columnar
  /// buffer; `num_threads` == 1 runs the units inline, > 1 fans them out
  /// over the pool. One merge then dedups the rows in unit order. Rounds
  /// where any discovery cap binds are re-run wholesale through
  /// DiscoverSerial so cap-adjacent behavior stays bit-identical.
  std::vector<PendingTrigger> DiscoverPlanned(AtomId watermark, bool* capped,
                                              bool* stopped,
                                              ChaseOutcome* stop_outcome,
                                              uint32_t num_threads,
                                              bool use_plans);

  /// The shared dedup step of both engines: counts one homomorphism and,
  /// when `row`'s key is new to the rule's table, counts it discovered and
  /// appends it to `pending` (its row copied into pending_rows_).
  void AdmitTrigger(uint32_t rule_index, const Term* row,
                    std::vector<PendingTrigger>* pending);

  /// Estimated join work for this round's discovery pass: for each
  /// (rule, pivot) unit, delta cardinality of the pivot predicate times
  /// the largest other-conjunct relation (its candidate fan-out),
  /// saturating at uint64 max. Cheap — two index lookups per unit — and
  /// feeds the serial/parallel cutover.
  uint64_t EstimateDiscoveryWork(AtomId watermark) const;

  /// The executor for parallel rounds: options_.executor if provided,
  /// else a lazily created pool owned by this run.
  ThreadPool* Pool(uint32_t num_threads);

  /// Folds current index sizes into the stats peaks.
  void UpdateStatsPeaks();

  const RuleSet& rules_;
  ChaseOptions options_;
  /// The effective byte budget (see memory_budget()). Declared before
  /// governor_ and instance_ so it outlives both: the governor holds a
  /// raw observer pointer, and the instance / batch block release their
  /// charges into it on destruction.
  std::shared_ptr<MemoryBudget> memory_budget_;
  /// Deadline + cancellation bundle, shared read-only with discovery
  /// workers and join searches.
  RunGovernor governor_;
  Instance instance_;
  std::vector<AtomProvenance> provenance_;
  std::vector<TriggerRecord> triggers_;

  /// Applied trigger keys, one table per rule (see applied_keys()).
  std::vector<TriggerKeyTable> applied_keys_;
  /// The current round's pending binding rows (see PendingTrigger). Like
  /// the key tables, not charged to the memory budget.
  std::vector<Term> pending_rows_;

  /// Lazily created pool for parallel discovery when the caller did not
  /// supply ChaseOptions::executor. Lives for the rest of the run so
  /// every parallel round reuses the same parked workers.
  std::shared_ptr<ThreadPool> owned_pool_;

  /// Compiled once at construction from rules_; execution is gated by
  /// options_.join_plans, compilation is not (it is cheap and lets stats
  /// report plannability either way).
  JoinPlanSet plans_;
  /// Per-rule first-conjunct choice for the current round (kNoRule for
  /// rules without a plan); recomputed by DiscoverPlanned each round.
  std::vector<uint32_t> round_first_;

  /// Scratch written by DiscoverTriggers, folded into the round's stats
  /// entry by Execute (the entry does not exist yet at discovery time).
  uint64_t last_estimated_work_ = 0;
  bool last_parallel_ = false;
  uint64_t last_plan_units_ = 0;
  uint64_t last_fallback_units_ = 0;
  uint64_t last_binding_rows_ = 0;

  ChaseStats stats_;
  uint64_t applied_triggers_ = 0;
  uint64_t rounds_ = 0;
  uint64_t hom_discoveries_ = 0;
  uint64_t join_work_ = 0;
  /// Head-satisfaction checks performed (the kHeadCheck fault ordinal).
  uint64_t head_checks_ = 0;
  /// Storage-growth decision points passed (the kAllocation fault
  /// ordinal). Serial: bumped only on the apply thread and at round
  /// starts.
  uint64_t alloc_checks_ = 0;
  /// Reused scratch: the apply phase and head checks run allocation-free
  /// once these have warmed to the run's working sizes.
  Binding extended_scratch_;
  Binding frontier_scratch_;
  std::vector<Term> head_scratch_;
  HeadBlock batch_block_;
  /// Next labeled-null id. 64-bit so the max_nulls comparison cannot wrap
  /// (a 32-bit counter would silently recycle ids past 2^32).
  uint64_t next_null_ = 0;
  bool executed_ = false;
  bool abort_requested_ = false;
  /// Set when the EDB seed was budget-denied (or the EDB's own load
  /// tripped the budget): Execute() returns kMemoryBudgetExceeded at its
  /// first checkpoint, with whatever prefix was seeded intact.
  bool seed_denied_ = false;
  /// Non-OK when the EDB constructor could not seed (arity conflict,
  /// corrupt snapshot); see seed_status().
  Status seed_status_;
};

/// Convenience result bundle for RunChase(). Carries every counter the
/// run exposes — callers capping discovery work need hom_discoveries and
/// join_work to observe how close a run came to its caps.
struct ChaseResult {
  ChaseOutcome outcome = ChaseOutcome::kTerminated;
  Instance instance;
  uint64_t applied_triggers = 0;
  uint64_t rounds = 0;
  uint64_t nulls_created = 0;
  uint64_t hom_discoveries = 0;
  uint64_t join_work = 0;
  ChaseStats stats;
};

/// One-shot helper: runs the chase of `database` w.r.t. `rules`.
ChaseResult RunChase(const RuleSet& rules, const ChaseOptions& options,
                     const std::vector<Atom>& database);

class MetricsRegistry;

/// Folds one run's ChaseStats into the metrics registry (the global one
/// when `registry` is null) under the "chase." prefix: run/round/trigger
/// counters — including the parallel-engine fields parallel_rounds and
/// per-round estimated_work — plus peak gauges. Counters accumulate
/// across runs; peak gauges fold a process-wide maximum.
void PublishChaseMetrics(const ChaseStats& stats,
                         MetricsRegistry* registry = nullptr);

/// Checks that `instance` satisfies every rule (every body homomorphism
/// extends to a head homomorphism). A terminated chase must satisfy this.
bool IsModelOf(const Instance& instance, const RuleSet& rules);

/// Governed IsModelOf: every body enumeration and head check runs under
/// `governor` checkpoints and a shared visit budget, so a pathological
/// model check cannot outlive a deadline. Returns nullopt when the
/// governor tripped or `max_join_work` ran out before a verdict (a
/// violation found before the trip is still conclusive). Accumulates the
/// visits performed into *join_work when non-null.
std::optional<bool> IsModelOfGoverned(
    const Instance& instance, const RuleSet& rules, const RunGovernor& governor,
    uint64_t max_join_work = std::numeric_limits<uint64_t>::max(),
    uint64_t* join_work = nullptr);

}  // namespace gchase

#endif  // GCHASE_CHASE_CHASE_H_
