// chase_cli: run any chase variant on a rule/fact file and print the
// result — a minimal command-line front end over the library.
//
// Usage:
//   ./build/tools/chase_cli <file.dlgp> [variant] [max_atoms]
//                           [--dot] [--stats] [--threads=N]
//                           [--deadline-ms=N] [--max-memory-mb=N]
//                           [--load-csv=FILE] [--edb-dir=DIR]
//                           [--decide] [--trace=FILE]
//                           [--trace-categories=LIST]
//                           [--metrics-json=FILE]
//     variant:    restricted (default) | semi-oblivious | oblivious
//     max_atoms:  resource cap on the instance size, database included
//                 (default: the database's fact count plus 10000)
//     Every number (max_atoms, --threads, --deadline-ms, --max-memory-mb,
//     --progress=MS) must be a whole decimal string in range: no sign,
//     blank, unit or fraction. Anything else exits 2 and names the flag.
//     --dot:      emit the guarded chase forest in Graphviz DOT instead
//                 of the atom list (pipe into `dot -Tsvg`)
//     --stats:    emit the run's ChaseStats as JSON instead of the atom
//                 list (per-rule counters, per-round timings, peaks)
//     --threads=N parallel trigger discovery with N workers (default 1,
//                 and 0 counts as 1; the result is bit-identical for
//                 every N)
//     --deadline-ms=N  wall-clock budget; an expired run stops at its
//                 next cooperative checkpoint with the partial instance
//                 and stats intact
//     --max-memory-mb=N  byte budget for the run's retained storage
//                 (1 <= N <= 2^44 - 1); a run that would cross it stops
//                 cleanly (exit code 6) with the partial instance and
//                 stats intact, and the partial result is bit-identical
//                 to a prefix of the uncapped run. One budget is shared
//                 by everything the process runs: the loader and the
//                 chase, or under --decide every decider chase and the
//                 restricted probe, and the heartbeat reads that budget
//     --load-csv=FILE  bulk-load the database from a CSV fact file
//                 (predicate,arg1,...; see storage/bulk_load.h) instead
//                 of the program's inline facts. The loader bypasses the
//                 per-atom parser; the chase result is bit-identical to
//                 running the same facts inline. With --max-memory-mb
//                 the loader and the chase share one budget, so a load
//                 that trips it exits 6 with partial load stats.
//     --edb-dir=DIR  snapshot cache: opens DIR/edb.gsnap (memory-mapped
//                 columnar EDB) when present; otherwise loads --load-csv
//                 and writes the snapshot there for the next run
//     --decide:   instead of chasing the input database, run the full
//                 termination analysis on the rule set: one
//                 DecideTermination call (the critical-instance chase
//                 with the pump detector) for each of the oblivious and
//                 the semi-oblivious chase, printing the verdict, the
//                 chase's atom count and any pump certificate, plus the
//                 restricted-chase order probe fanned out over a
//                 2-worker pool — the one-flag way to exercise the
//                 chase, decider and pool layers in a single traceable
//                 process. --deadline-ms and --max-memory-mb bound the
//                 whole analysis; an unknown verdict is data, not an
//                 error, and the exit code is 0 once every call ran
//     --trace=FILE  record a Chrome-trace/Perfetto JSON of the run (load
//                 it at ui.perfetto.dev); a flame summary of the spans
//                 goes to stderr, and a machine-readable copy to
//                 FILE.summary.json
//     --trace-categories=LIST  comma-separated subset of
//                 chase,pool,decider,storage,fuzz (default: all)
//     --metrics-json=FILE  write the process metrics registry snapshot
//                 (chase.* counters including the parallel-discovery
//                 fields, forest.* gauges, latency histograms and the
//                 per-phase perf-counter section) as JSON. Also turns
//                 the profiling layer on: round/apply/discovery latency
//                 distributions and — where the kernel allows
//                 perf_event_open — per-phase IPC and cache-miss rates
//     --progress[=MS]  heartbeat: report round/atoms/atoms-per-second/
//                 memory/deadline every MS milliseconds (default 1000)
//                 as human-readable stderr lines
//     --progress-file=FILE  write the heartbeat as NDJSON to FILE
//                 instead of stderr (implies --progress)
//
// Ctrl-C (SIGINT) trips the run's cancellation token instead of killing
// the process: the chase stops cooperatively and the partial result is
// printed, exactly as on deadline expiry.
//
// Exit codes: 0 terminated, 1 I/O or parse error, 2 bad usage,
// 3 resource cap, 4 deadline exceeded, 5 cancelled, 6 memory budget
// exceeded. A run stopped by a cap (exit 3, 4 or 6) names the cap and
// the argument that raises it on stderr.
//
// The input file holds rules and facts in the library's syntax; see
// examples/rules/*.dlgp.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "base/thread_pool.h"
#include "base/timer.h"
#include "chase/chase.h"
#include "chase/forest.h"
#include "model/parser.h"
#include "model/printer.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "storage/bulk_load.h"
#include "storage/edb.h"
#include "storage/edb_snapshot.h"
#include "termination/decider.h"
#include "termination/restricted_probe.h"

namespace {

// Shared with the SIGINT handler; RequestCancel is a relaxed atomic
// store, which is async-signal-safe.
gchase::CancellationToken g_cancel;

extern "C" void HandleSigint(int) { g_cancel.RequestCancel(); }

// Largest --deadline-ms (and --progress interval) whose expiry time
// still fits the steady clock: half its range, about 146 years.
constexpr uint64_t kMaxMillis =
    std::chrono::duration_cast<std::chrono::milliseconds>(
        gchase::Deadline::Clock::duration::max() / 2)
        .count();

// Parses `text` as a whole decimal number in [min, max]: digits only, no
// sign, blank, unit or fraction. Otherwise names `flag` on stderr and
// returns false; the caller exits 2.
bool ParseNumber(const char* flag, const char* text, uint64_t min,
                 uint64_t max, uint64_t* value) {
  const char* end = text + std::strlen(text);
  uint64_t parsed = 0;
  const auto [ptr, error] = std::from_chars(text, end, parsed);
  if (error != std::errc() || ptr != end || parsed < min || parsed > max) {
    std::fprintf(stderr,
                 "%s needs a whole decimal number in [%llu, %llu], got "
                 "'%s'\n",
                 flag, static_cast<unsigned long long>(min),
                 static_cast<unsigned long long>(max), text);
    return false;
  }
  *value = parsed;
  return true;
}

int ExitCodeFor(gchase::ChaseOutcome outcome) {
  switch (outcome) {
    case gchase::ChaseOutcome::kTerminated:
      return 0;
    case gchase::ChaseOutcome::kResourceLimit:
    case gchase::ChaseOutcome::kAborted:
      return 3;
    case gchase::ChaseOutcome::kDeadlineExceeded:
      return 4;
    case gchase::ChaseOutcome::kCancelled:
      return 5;
    case gchase::ChaseOutcome::kMemoryBudgetExceeded:
      return 6;
  }
  return 1;
}

// Names the cap that stopped a run and how to raise it, or returns an
// empty string when `outcome` is not a cap stop. The only count cap the
// CLI sets is max_atoms (`cap_origin` says where its value came from);
// the other way to a resource limit is running out of labelled-null ids.
std::string CapMessage(gchase::ChaseOutcome outcome,
                       const gchase::ChaseRun& run,
                       const gchase::ChaseOptions& options,
                       const std::string& cap_origin) {
  char text[512];
  switch (outcome) {
    case gchase::ChaseOutcome::kResourceLimit:
      if (run.instance().size() > options.max_atoms) {
        // Twice the atoms reached, which exceed the cap (twice a cap of 0
        // is 0), saturating instead of wrapping.
        const uint64_t reached = run.instance().size();
        const unsigned long long suggestion =
            reached > UINT64_MAX / 2 ? UINT64_MAX : reached * 2;
        const unsigned long long cap = options.max_atoms;
        std::snprintf(text, sizeof(text),
                      "max_atoms=%llu (%s); pass a larger max_atoms as the "
                      "argument after the variant, e.g. %llu",
                      cap, cap_origin.c_str(), suggestion);
      } else {
        const unsigned long long nulls = gchase::kMaxLabeledNulls;
        std::snprintf(text, sizeof(text),
                      "the labelled-null id space (%llu nulls) is "
                      "exhausted; it cannot be raised",
                      nulls);
      }
      return text;
    case gchase::ChaseOutcome::kDeadlineExceeded:
      return "the --deadline-ms wall-clock budget fired; pass a larger "
             "--deadline-ms or drop it";
    case gchase::ChaseOutcome::kMemoryBudgetExceeded:
      return "the memory budget fired; pass a larger --max-memory-mb or "
             "drop it";
    case gchase::ChaseOutcome::kTerminated:
    case gchase::ChaseOutcome::kAborted:
    case gchase::ChaseOutcome::kCancelled:
      break;
  }
  return "";
}

// Flushes the observability side-channels on every exit path (normal,
// deadline, SIGINT): destructor order guarantees the progress heartbeat's
// final sample, the trace file, the flame-summary sidecar and the metrics
// snapshot are written no matter which return fires. Buffered events
// survive Tracer::Stop(), so an aborted run still flushes everything it
// recorded.
struct ObsFlusher {
  std::string trace_path;
  std::string metrics_path;
  gchase::ProgressReporter progress;

  ~ObsFlusher() {
    // The heartbeat first: its final sample reports where the run got to
    // before the (possibly slow) trace serialization below.
    progress.Stop();
    if (!trace_path.empty()) {
      gchase::Tracer::Global().Stop();
      const std::string summary_path = trace_path + ".summary.json";
      if (gchase::WriteGlobalTrace(trace_path) &&
          gchase::WriteGlobalTraceSummary(summary_path)) {
        std::fprintf(
            stderr, "%% trace written to %s (summary: %s)\n%s",
            trace_path.c_str(), summary_path.c_str(),
            gchase::TraceFlameSummary(gchase::Tracer::Global().Collect())
                .c_str());
      } else {
        std::fprintf(stderr, "cannot write trace to %s\n", trace_path.c_str());
      }
    }
    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path);
      if (out) {
        out << gchase::MetricsRegistry::Global().SnapshotJson() << "\n";
      } else {
        std::fprintf(stderr, "cannot write metrics to %s\n",
                     metrics_path.c_str());
      }
    }
  }
};

// The --decide mode: full termination analysis of the rule set, every
// chase charging `budget` (null = unlimited). Returns the process exit
// code (0 = every call ran; verdicts are data, not errors).
int RunDecideMode(gchase::ParsedProgram& parsed, int64_t deadline_ms,
                  uint32_t threads,
                  const std::shared_ptr<gchase::MemoryBudget>& budget) {
  using namespace gchase;
  DeciderOptions options;
  options.discovery_threads = threads;
  if (deadline_ms >= 0) options.deadline = Deadline::AfterMillis(deadline_ms);
  options.cancel = g_cancel;
  options.memory_budget = budget;

  for (ChaseVariant variant :
       {ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious}) {
    StatusOr<DeciderResult> result = DecideTermination(
        parsed.rules, &parsed.vocabulary, variant, options);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    std::printf("%% decide variant=%s verdict=%s atoms=%llu\n",
                ChaseVariantName(variant),
                TerminationVerdictName(result->verdict),
                static_cast<unsigned long long>(result->chase_atoms));
    if (!result->certificate_text.empty()) {
      std::printf("%%   %s\n", result->certificate_text.c_str());
    }
    PublishChaseMetrics(result->chase_stats);
  }

  // Restricted-chase order probe over its own 2-worker pool. The pool is
  // deliberately created regardless of core count so the pool category
  // records scheduler events (run/steal/park) even on a 1-core host.
  RestrictedProbeOptions probe;
  probe.executor = std::make_shared<ThreadPool>(2);
  probe.num_random_orders = 4;
  if (deadline_ms >= 0) probe.deadline = Deadline::AfterMillis(deadline_ms);
  probe.cancel = g_cancel;
  probe.memory_budget = budget;
  StatusOr<RestrictedProbeResult> probed =
      ProbeRestrictedTermination(parsed.rules, &parsed.vocabulary, {}, probe);
  if (!probed.ok()) {
    std::fprintf(stderr, "%s\n", probed.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "%% probe restricted fifo=%s datalog_first=%s random=%u/%u "
      "order_sensitive=%s aborted=%u\n",
      probed->fifo_terminated ? "terminated" : "diverged",
      probed->datalog_first_terminated ? "terminated" : "diverged",
      probed->random_orders_terminated,
      probed->random_orders_terminated + probed->random_orders_diverged,
      probed->order_sensitive ? "yes" : "no", probed->runs_aborted);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gchase;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <file.dlgp> [restricted|semi-oblivious|"
                 "oblivious] [max_atoms] [--dot] [--stats] [--threads=N] "
                 "[--deadline-ms=N] [--max-memory-mb=N] "
                 "[--load-csv=FILE] [--edb-dir=DIR] [--decide] "
                 "[--trace=FILE] [--trace-categories=LIST] "
                 "[--metrics-json=FILE] [--progress[=MS]] "
                 "[--progress-file=FILE]\n",
                 argv[0]);
    return 2;
  }
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", argv[1]);
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  StatusOr<ParsedProgram> parsed = ParseProgram(buffer.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 1;
  }

  bool want_dot = false;
  bool want_stats = false;
  bool want_decide = false;
  std::string load_csv_path;
  std::string edb_dir;
  uint32_t threads = 1;
  int64_t deadline_ms = -1;
  uint64_t max_memory_bytes = 0;
  uint64_t progress_interval_ms = 0;  // 0 = heartbeat off.
  std::string progress_file;
  uint32_t trace_categories = kAllTraceCategories;
  ObsFlusher flusher;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dot") == 0) {
      want_dot = true;
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      want_stats = true;
    } else if (std::strcmp(argv[i], "--decide") == 0) {
      want_decide = true;
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      flusher.trace_path = argv[i] + 8;
      if (flusher.trace_path.empty()) {
        std::fprintf(stderr, "--trace needs a file path\n");
        return 2;
      }
    } else if (std::strncmp(argv[i], "--trace-categories=", 19) == 0) {
      bool ok = true;
      trace_categories = ParseTraceCategories(argv[i] + 19, &ok);
      if (!ok) {
        std::fprintf(stderr,
                     "--trace-categories: unknown category in '%s' "
                     "(known: chase,pool,decider,storage,fuzz)\n",
                     argv[i] + 19);
        return 2;
      }
    } else if (std::strncmp(argv[i], "--load-csv=", 11) == 0) {
      load_csv_path = argv[i] + 11;
      if (load_csv_path.empty()) {
        std::fprintf(stderr, "--load-csv needs a file path\n");
        return 2;
      }
    } else if (std::strncmp(argv[i], "--edb-dir=", 10) == 0) {
      edb_dir = argv[i] + 10;
      if (edb_dir.empty()) {
        std::fprintf(stderr, "--edb-dir needs a directory path\n");
        return 2;
      }
    } else if (std::strncmp(argv[i], "--metrics-json=", 15) == 0) {
      flusher.metrics_path = argv[i] + 15;
      if (flusher.metrics_path.empty()) {
        std::fprintf(stderr, "--metrics-json needs a file path\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--progress") == 0) {
      progress_interval_ms = 1000;
    } else if (std::strncmp(argv[i], "--progress=", 11) == 0) {
      if (!ParseNumber("--progress", argv[i] + 11, 1, kMaxMillis,
                       &progress_interval_ms)) {
        return 2;
      }
    } else if (std::strncmp(argv[i], "--progress-file=", 16) == 0) {
      progress_file = argv[i] + 16;
      if (progress_file.empty()) {
        std::fprintf(stderr, "--progress-file needs a file path\n");
        return 2;
      }
      if (progress_interval_ms == 0) progress_interval_ms = 1000;
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      uint64_t requested = 0;
      if (!ParseNumber("--threads", argv[i] + 10, 0, UINT32_MAX,
                       &requested)) {
        return 2;
      }
      threads = std::max<uint32_t>(1, static_cast<uint32_t>(requested));
      // Oversubscribing buys nothing for a CPU-bound fan-out; cap at what
      // the machine actually has (hardware_concurrency can report 0 when
      // unknown — treat that as 1).
      const uint32_t cores =
          std::max(1u, std::thread::hardware_concurrency());
      if (threads > cores) {
        std::fprintf(stderr,
                     "%% --threads=%u exceeds hardware_concurrency=%u; "
                     "capping\n",
                     threads, cores);
        threads = cores;
      }
    } else if (std::strncmp(argv[i], "--deadline-ms=", 14) == 0) {
      uint64_t ms = 0;
      if (!ParseNumber("--deadline-ms", argv[i] + 14, 0, kMaxMillis, &ms)) {
        return 2;
      }
      deadline_ms = static_cast<int64_t>(ms);
    } else if (std::strncmp(argv[i], "--max-memory-mb=", 16) == 0) {
      uint64_t mb = 0;
      if (!ParseNumber("--max-memory-mb", argv[i] + 16, 1, UINT64_MAX >> 20,
                       &mb)) {
        return 2;
      }
      max_memory_bytes = mb << 20;
    } else {
      args.push_back(argv[i]);
    }
  }
  argc = static_cast<int>(args.size());
  argv = args.data();

  if (!flusher.trace_path.empty()) {
    Tracer::Config trace_config;
    trace_config.categories = trace_categories;
    Tracer::Global().Start(trace_config);
  }
  // --metrics-json turns the profiling layer on with it: latency
  // histograms start recording and the perf_event probe runs (degrading
  // to an "unavailable" snapshot section when the kernel says no).
  if (!flusher.metrics_path.empty()) {
    SetProfilingEnabled(true);
    EnablePerfCounters();
  }

  // One budget shared by the loader, the chase and the heartbeat (the
  // run would otherwise create a private one the reporter cannot see).
  std::shared_ptr<MemoryBudget> shared_budget;
  if (max_memory_bytes > 0) {
    shared_budget = std::make_shared<MemoryBudget>(max_memory_bytes);
  }
  if (progress_interval_ms > 0) {
    ProgressReporter::Options popts;
    popts.mode = ProgressReporter::Mode::kChase;
    popts.interval_ms = progress_interval_ms;
    popts.ndjson_path = progress_file;
    if (shared_budget != nullptr) {
      std::shared_ptr<MemoryBudget> budget = shared_budget;
      popts.in_use_bytes = [budget] { return budget->in_use_bytes(); };
      popts.budget_bytes = [budget] { return budget->hard_limit_bytes(); };
    }
    if (deadline_ms >= 0) {
      const Deadline heartbeat_deadline = Deadline::AfterMillis(deadline_ms);
      popts.remaining_seconds = [heartbeat_deadline] {
        const double remaining = heartbeat_deadline.RemainingSeconds();
        return remaining < 0.0 ? 0.0 : remaining;
      };
    }
    if (!flusher.progress.Start(popts)) {
      std::fprintf(stderr, "cannot write progress to %s\n",
                   progress_file.c_str());
      return 2;
    }
  }

  std::signal(SIGINT, HandleSigint);
  if (want_decide) {
    return RunDecideMode(*parsed, deadline_ms, threads, shared_budget);
  }

  ChaseOptions options;
  options.track_provenance = want_dot;
  options.discovery_threads = threads;
  if (deadline_ms >= 0) options.deadline = Deadline::AfterMillis(deadline_ms);
  options.cancel = g_cancel;
  options.memory_budget = shared_budget;
  if (argc > 2) {
    if (std::strcmp(argv[2], "oblivious") == 0) {
      options.variant = ChaseVariant::kOblivious;
    } else if (std::strcmp(argv[2], "semi-oblivious") == 0) {
      options.variant = ChaseVariant::kSemiOblivious;
    } else if (std::strcmp(argv[2], "restricted") == 0) {
      options.variant = ChaseVariant::kRestricted;
    } else {
      std::fprintf(stderr, "unknown variant '%s'\n", argv[2]);
      return 2;
    }
  }
  std::string cap_origin = "given on the command line";
  if (argc > 3 &&
      !ParseNumber("max_atoms", argv[3], 0, UINT64_MAX, &options.max_atoms)) {
    return 2;
  }

  // EDB-backed seeding: resolve the database source before constructing
  // the run so the loader and the chase share one memory budget (a load
  // that trips it surfaces as exit 6, like a mid-run trip).
  std::unique_ptr<EdbDatabase> edb;
  if (!load_csv_path.empty() || !edb_dir.empty()) {
    MemoryBudget* budget = options.memory_budget.get();
    const std::string snapshot_path = edb_dir + "/edb.gsnap";
    if (!edb_dir.empty()) {
      StatusOr<std::unique_ptr<EdbDatabase>> opened =
          OpenEdbSnapshot(snapshot_path, budget);
      if (opened.ok()) {
        edb = std::move(*opened);
        std::fprintf(stderr, "%% database memory-mapped from %s\n",
                     snapshot_path.c_str());
      } else if (opened.status().code() != StatusCode::kNotFound) {
        // A snapshot that exists but fails validation is an error, not a
        // cache miss — silently rebuilding would hide corruption.
        std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
        return 1;
      }
    }
    if (edb == nullptr) {
      if (load_csv_path.empty()) {
        std::fprintf(stderr,
                     "--edb-dir: %s not found and no --load-csv to build it "
                     "from\n",
                     snapshot_path.c_str());
        return 2;
      }
      BulkLoadOptions load_options;
      load_options.budget = budget;
      load_options.schema = &parsed->vocabulary.schema;
      StatusOr<std::unique_ptr<InMemoryEdb>> loaded =
          LoadCsvFactsFile(load_csv_path, load_options);
      if (!loaded.ok()) {
        std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
        return 1;
      }
      edb = std::move(*loaded);
      if (!edb_dir.empty() && !edb->load_stats().memory_exceeded) {
        Status written = WriteEdbSnapshot(*edb, snapshot_path);
        if (written.ok()) {
          std::fprintf(stderr, "%% snapshot written to %s\n",
                       snapshot_path.c_str());
        } else {
          std::fprintf(stderr, "%% cannot write snapshot: %s\n",
                       written.ToString().c_str());
        }
      }
    }
    if (!parsed->facts.empty()) {
      std::fprintf(stderr,
                   "%% note: %zu inline facts in %s ignored (the database "
                   "comes from the EDB)\n",
                   parsed->facts.size(), argv[1]);
    }
  }

  // The default atom cap leaves 10000 atoms of room above the database:
  // a fixed 10000 would stop any large EDB job after its first trigger.
  if (argc <= 3) {
    const uint64_t facts =
        edb != nullptr ? edb->TotalRows() : parsed->facts.size();
    options.max_atoms = facts + 10000;
    cap_origin = "the default: " + std::to_string(facts);
    cap_origin += " database facts + 10000";
  }

  WallTimer timer;
  std::optional<ChaseRun> run;
  if (edb != nullptr) {
    run.emplace(parsed->rules, options, *edb, &parsed->vocabulary);
    if (!run->seed_status().ok()) {
      std::fprintf(stderr, "%s\n", run->seed_status().ToString().c_str());
      return 1;
    }
  } else {
    run.emplace(parsed->rules, options, parsed->facts);
  }
  ChaseOutcome outcome = run->Execute();
  double seconds = timer.ElapsedSeconds();
  PublishChaseMetrics(run->stats());

  const std::string cap = CapMessage(outcome, *run, options, cap_origin);
  if (!cap.empty()) {
    std::fprintf(stderr, "%% run stopped by a cap: %s\n", cap.c_str());
  }
  const bool aborted = outcome == ChaseOutcome::kDeadlineExceeded ||
                       outcome == ChaseOutcome::kCancelled ||
                       outcome == ChaseOutcome::kMemoryBudgetExceeded;
  if (aborted) {
    // The instance and stats below are a valid prefix of the run, just
    // not a fixpoint; say so loudly and include the partial stats.
    std::fprintf(stderr, "%% run stopped early: %s after %.3fms\n",
                 ChaseOutcomeName(outcome), seconds * 1e3);
    std::fprintf(stderr, "%% partial stats: %s\n",
                 ChaseStatsToJson(run->stats()).c_str());
  }

  if (want_dot) {
    StatusOr<ChaseForest> forest = ChaseForest::Build(*run);
    if (!forest.ok()) {
      std::fprintf(stderr, "%s\n", forest.status().ToString().c_str());
      return 1;
    }
    PublishForestMetrics(forest->Stats());
    std::printf("%s", forest->ToDot(parsed->vocabulary).c_str());
    return ExitCodeFor(outcome);
  }

  if (want_stats) {
    std::printf("%s\n", ChaseStatsToJson(run->stats()).c_str());
    return ExitCodeFor(outcome);
  }

  std::printf("%% variant=%s outcome=%s atoms=%u triggers=%llu nulls=%llu "
              "rounds=%llu time=%.3fms\n",
              ChaseVariantName(options.variant), ChaseOutcomeName(outcome),
              run->instance().size(),
              static_cast<unsigned long long>(run->applied_triggers()),
              static_cast<unsigned long long>(run->nulls_created()),
              static_cast<unsigned long long>(run->rounds()),
              seconds * 1e3);
  for (gchase::AtomView atom : run->instance().atoms()) {
    std::printf("%s.\n",
                AtomToString(atom.ToAtom(), parsed->vocabulary).c_str());
  }
  return ExitCodeFor(outcome);
}
