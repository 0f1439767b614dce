#ifndef GCHASE_OBS_TRACE_H_
#define GCHASE_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

namespace gchase {

/// Event categories, one bit each, filterable at runtime through the
/// tracer's category mask (and from the CLIs via --trace-categories).
/// This header is deliberately self-contained (std only): base/ headers
/// include it — thread_pool.h traces its scheduler — so it must not
/// depend back on base/.
enum class TraceCategory : uint32_t {
  kChase = 1u << 0,    ///< Chase round lifecycle: discovery, apply, rules.
  kPool = 1u << 1,     ///< Thread-pool scheduler: jobs, chunks, steals, parks.
  kDecider = 1u << 2,  ///< Termination analyses: critical instance, the
                       ///< decider chase, MFA, restricted-probe rounds.
  kStorage = 1u << 3,  ///< Instance index growth and bulk reservations.
  kFuzz = 1u << 4,     ///< Fuzz campaign: trials, oracle evaluations, shrinks.
};

inline constexpr uint32_t kAllTraceCategories = 0x1f;

/// Returns "chase", "pool", "decider", "storage" or "fuzz".
const char* TraceCategoryName(TraceCategory category);

/// Parses a comma-separated category list ("chase,pool") into a mask.
/// Sets *ok to false (and returns 0) on an unknown name; an empty list
/// parses to the all-categories mask.
uint32_t ParseTraceCategories(std::string_view csv, bool* ok);

/// Chrome-trace phase of one event.
enum class TracePhase : char {
  kBegin = 'B',     ///< Span start (paired with kEnd on the same thread).
  kEnd = 'E',       ///< Span end.
  kInstant = 'i',   ///< Point event (steal, park, unpark).
  kComplete = 'X',  ///< Retroactive span with an explicit duration — used
                    ///< for threshold-gated spans recorded only when they
                    ///< turn out slow (per-rule trigger application).
};

/// Sentinel for "no numeric argument attached".
inline constexpr uint64_t kNoTraceArg = ~uint64_t{0};

/// One trace record. `name` must be a string literal (or otherwise
/// outlive the tracer session): events store the pointer, never a copy,
/// so recording is allocation-free.
struct TraceEvent {
  const char* name = nullptr;
  uint64_t ts_ns = 0;   ///< Nanoseconds since the session started.
  uint64_t dur_ns = 0;  ///< kComplete only.
  uint64_t arg = kNoTraceArg;
  TraceCategory category = TraceCategory::kChase;
  TracePhase phase = TracePhase::kInstant;
};

/// Fixed-capacity single-writer event buffer, one per recording thread.
/// The owning thread appends and publishes with a release store of the
/// count; readers (the exporter) acquire-load the count and read the
/// prefix — published events are immutable, so concurrent collection is
/// race-free without locking the writer. When the soft capacity is
/// reached, new begin/instant/complete events are *dropped* (counted,
/// never overwritten): a saturated trace stays internally consistent.
/// End events spend a small reserved slack instead, so every recorded
/// span still closes and B/E pairs stay balanced per thread.
class TraceBuffer {
 public:
  /// Reserved headroom for end events of spans open at saturation. Also
  /// the maximum recorded span nesting depth.
  static constexpr std::size_t kEndSlack = 64;

  TraceBuffer(uint32_t tid, std::size_t capacity)
      : tid_(tid), capacity_(capacity), events_(capacity + kEndSlack) {}

  uint32_t tid() const { return tid_; }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  friend class Tracer;

  /// Appends a non-end event; returns false (and counts a drop) when the
  /// soft capacity is full or the nesting depth exceeds the slack.
  bool PushChecked(const TraceEvent& event) {
    const std::size_t n = count_.load(std::memory_order_relaxed);
    const bool opens_span = event.phase == TracePhase::kBegin;
    if (n >= capacity_ || (opens_span && depth_ >= kEndSlack)) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (opens_span) ++depth_;
    events_[n] = event;
    count_.store(n + 1, std::memory_order_release);
    return true;
  }

  /// Appends the end event of a span whose begin was recorded. The slack
  /// guarantees room; the guard is belt-and-braces against unbalanced
  /// callers and drops rather than corrupts.
  void PushEnd(const TraceEvent& event) {
    const std::size_t n = count_.load(std::memory_order_relaxed);
    if (n >= events_.size()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (depth_ > 0) --depth_;
    events_[n] = event;
    count_.store(n + 1, std::memory_order_release);
  }

  const uint32_t tid_;
  const std::size_t capacity_;
  std::vector<TraceEvent> events_;
  std::atomic<std::size_t> count_{0};
  std::atomic<uint64_t> dropped_{0};
  std::size_t depth_ = 0;  ///< Open recorded spans; writer-thread only.
};

/// Process-wide tracing core.
///
/// Cost model: with tracing off (the default), every instrumentation
/// point is one relaxed load of the category mask and a predicted-
/// not-taken branch — no clock read, no buffer lookup, no allocation.
/// With tracing on, a record is a steady-clock read plus a bounds-checked
/// store into the calling thread's preallocated buffer.
///
/// Sessions: Start() opens a session (mask + per-thread capacity) and
/// Stop() closes it by clearing the mask; buffered events survive Stop()
/// and are read with Collect(), so an aborted run (deadline, SIGINT)
/// still flushes everything it recorded. Start() and Stop() must be
/// called from quiescent points — no thread concurrently inside a span —
/// which holds at every call site (CLI startup/exit, test boundaries;
/// parked pool workers record nothing).
class Tracer {
 public:
  struct Config {
    uint32_t categories = kAllTraceCategories;
    /// Soft event capacity per recording thread.
    std::size_t buffer_capacity = std::size_t{1} << 14;
    /// Threshold-gated spans (TracePhase::kComplete) shorter than this
    /// are not recorded; keeps per-trigger instrumentation out of the
    /// buffer unless a trigger is actually slow.
    uint64_t complete_threshold_ns = 100'000;
  };

  static Tracer& Global();

  /// Opens a fresh session: discards buffers of any previous session and
  /// enables the given categories. Quiescent callers only (see above).
  void Start(const Config& config);

  /// Disables recording; buffers stay readable through Collect().
  void Stop() { enabled_.store(0, std::memory_order_relaxed); }

  bool enabled(TraceCategory category) const {
    return (enabled_.load(std::memory_order_relaxed) &
            static_cast<uint32_t>(category)) != 0;
  }

  uint64_t complete_threshold_ns() const { return complete_threshold_ns_; }

  /// Nanoseconds since the session started (steady clock).
  uint64_t NowNs() const;

  /// Records a span begin on the calling thread. Returns true when the
  /// event was stored (the caller must then record the matching end).
  bool RecordBegin(TraceCategory category, const char* name, uint64_t arg);
  void RecordEnd(TraceCategory category, const char* name);
  void RecordInstant(TraceCategory category, const char* name, uint64_t arg);
  /// Retroactive span [start_ns, start_ns + dur_ns); dropped below the
  /// configured threshold.
  void RecordComplete(TraceCategory category, const char* name,
                      uint64_t start_ns, uint64_t dur_ns, uint64_t arg);

  /// Snapshot of one thread's published events.
  struct ThreadEvents {
    uint32_t tid = 0;
    uint64_t dropped = 0;
    std::vector<TraceEvent> events;
  };

  /// Copies every thread's published prefix. Safe concurrently with
  /// recording threads (they only append past the published count).
  std::vector<ThreadEvents> Collect() const;

  /// Sum of per-thread drop counters for the current session.
  uint64_t TotalDropped() const;

  /// Buffers ever allocated across all sessions — the overhead guard in
  /// obs_test asserts a disabled tracer allocates none.
  uint64_t buffers_created() const {
    return buffers_created_.load(std::memory_order_relaxed);
  }

 private:
  Tracer() = default;

  TraceBuffer* BufferForThisThread();

  std::atomic<uint32_t> enabled_{0};
  std::atomic<uint64_t> session_{0};
  std::atomic<uint64_t> buffers_created_{0};
  std::size_t buffer_capacity_ = std::size_t{1} << 14;
  uint64_t complete_threshold_ns_ = 100'000;
  /// Steady-clock epoch of the session, as time_since_epoch in ns.
  uint64_t epoch_ns_ = 0;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<TraceBuffer>> buffers_;
};

/// RAII span: records begin at construction, end at destruction. When
/// the category is disabled at construction the span is inert — one
/// relaxed load total. If tracing is disabled mid-span the end is still
/// recorded (buffers outlive Stop()), keeping pairs balanced.
class TraceSpan {
 public:
  TraceSpan(TraceCategory category, const char* name,
            uint64_t arg = kNoTraceArg)
      : category_(category), name_(name) {
    Tracer& tracer = Tracer::Global();
    recorded_ =
        tracer.enabled(category) && tracer.RecordBegin(category, name, arg);
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() {
    if (recorded_) Tracer::Global().RecordEnd(category_, name_);
  }

 private:
  const TraceCategory category_;
  const char* const name_;
  bool recorded_ = false;
};

// Macro guard: -DGCHASE_DISABLE_TRACING compiles every instrumentation
// point out entirely (the runtime check is already near-free; the switch
// exists for perf forensics that must rule observability out).
#if !defined(GCHASE_DISABLE_TRACING)

#define GCHASE_TRACE_CONCAT_INNER_(a, b) a##b
#define GCHASE_TRACE_CONCAT_(a, b) GCHASE_TRACE_CONCAT_INNER_(a, b)

/// Scoped span: GCHASE_TRACE_SPAN(TraceCategory::kChase, "chase.round")
/// or with a numeric argument: GCHASE_TRACE_SPAN(cat, name, round_index).
#define GCHASE_TRACE_SPAN(category, ...)                              \
  ::gchase::TraceSpan GCHASE_TRACE_CONCAT_(gchase_trace_span_,        \
                                           __COUNTER__)(category,     \
                                                        __VA_ARGS__)

/// Point event, recorded only when the category is enabled.
#define GCHASE_TRACE_INSTANT(category, name, arg)                     \
  do {                                                                \
    ::gchase::Tracer& gchase_trace_tracer = ::gchase::Tracer::Global(); \
    if (gchase_trace_tracer.enabled(category)) {                      \
      gchase_trace_tracer.RecordInstant(category, name, arg);         \
    }                                                                 \
  } while (0)

#else  // GCHASE_DISABLE_TRACING

#define GCHASE_TRACE_SPAN(category, ...) \
  do {                                   \
  } while (0)
#define GCHASE_TRACE_INSTANT(category, name, arg) \
  do {                                            \
  } while (0)

#endif  // GCHASE_DISABLE_TRACING

}  // namespace gchase

#endif  // GCHASE_OBS_TRACE_H_
