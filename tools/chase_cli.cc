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
//     --dot:      emit the guarded chase forest in Graphviz DOT instead
//                 of the atom list (pipe into `dot -Tsvg`)
//     --stats:    emit the run's ChaseStats as JSON instead of the atom
//                 list (per-rule counters, per-round timings, peaks)
//     --threads=N parallel trigger discovery with N workers (default 1;
//                 the result is bit-identical for every N)
//     --join-plans=on|off  compiled set-at-a-time join plans for trigger
//                 discovery (default on); off routes every rule through
//                 the legacy backtracking search. The result is
//                 bit-identical either way — this is a performance
//                 toggle and the differential-testing baseline
//     --deadline-ms=N  wall-clock budget; an expired run stops at its
//                 next cooperative checkpoint with the partial instance
//                 and stats intact
//     --max-memory-mb=N  byte budget for the run's retained storage; a
//                 run that would cross it stops cleanly (exit code 6)
//                 with the partial instance and stats intact, and the
//                 partial result is bit-identical to a prefix of the
//                 uncapped run
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
//                 termination analysis on the rule set: the exact/probe
//                 decider cascade for both the oblivious and the
//                 semi-oblivious chase, plus the restricted-chase order
//                 probe fanned out over a 2-worker pool — the one-flag
//                 way to exercise the chase, decider and pool layers in
//                 a single traceable process
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
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "base/thread_pool.h"
#include "base/timer.h"
#include "bench/bench_util.h"
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
        const unsigned long long cap = options.max_atoms;
        std::snprintf(text, sizeof(text),
                      "max_atoms=%llu (%s); pass a larger max_atoms as the "
                      "argument after the variant, e.g. %llu",
                      cap, cap_origin.c_str(), cap * 2);
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

// The --decide mode: full termination analysis of the rule set. Returns
// the process exit code (0 = every phase ran; verdicts are data, not
// errors).
int RunDecideMode(gchase::ParsedProgram& parsed, int64_t deadline_ms,
                  uint32_t threads, uint64_t max_memory_bytes) {
  using namespace gchase;
  DeciderOptions options;
  options.discovery_threads = threads;
  if (deadline_ms >= 0) options.deadline = Deadline::AfterMillis(deadline_ms);
  options.cancel = g_cancel;
  options.max_memory_bytes = max_memory_bytes;

  for (ChaseVariant variant :
       {ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious}) {
    StatusOr<DeciderResult> result = DecideTerminationWithFallback(
        parsed.rules, &parsed.vocabulary, variant, options);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    std::printf("%% decide variant=%s verdict=%s phase=%s atoms=%llu\n",
                ChaseVariantName(variant),
                TerminationVerdictName(result->verdict),
                result->phase.c_str(),
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
  probe.max_memory_bytes = max_memory_bytes;
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
                 "[--join-plans=on|off] "
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
  bool join_plans = true;
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
      progress_interval_ms = std::strtoull(argv[i] + 11, nullptr, 10);
      if (progress_interval_ms == 0) {
        std::fprintf(stderr, "--progress needs a positive interval in ms\n");
        return 2;
      }
    } else if (std::strncmp(argv[i], "--progress-file=", 16) == 0) {
      progress_file = argv[i] + 16;
      if (progress_file.empty()) {
        std::fprintf(stderr, "--progress-file needs a file path\n");
        return 2;
      }
      if (progress_interval_ms == 0) progress_interval_ms = 1000;
    } else if (std::strncmp(argv[i], "--join-plans=", 13) == 0) {
      const char* value = argv[i] + 13;
      if (std::strcmp(value, "on") == 0) {
        join_plans = true;
      } else if (std::strcmp(value, "off") == 0) {
        join_plans = false;
      } else {
        std::fprintf(stderr, "--join-plans needs 'on' or 'off', got '%s'\n",
                     value);
        return 2;
      }
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = static_cast<uint32_t>(std::strtoul(argv[i] + 10, nullptr, 10));
      if (threads == 0) threads = 1;
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
      deadline_ms = std::strtoll(argv[i] + 14, nullptr, 10);
      if (deadline_ms < 0) {
        std::fprintf(stderr, "--deadline-ms needs a non-negative value\n");
        return 2;
      }
    } else if (std::strncmp(argv[i], "--max-memory-mb=", 16) == 0) {
      const uint64_t mb = std::strtoull(argv[i] + 16, nullptr, 10);
      if (mb == 0) {
        std::fprintf(stderr, "--max-memory-mb needs a positive value\n");
        return 2;
      }
      max_memory_bytes = mb * (uint64_t{1} << 20);
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
    return RunDecideMode(*parsed, deadline_ms, threads, max_memory_bytes);
  }

  ChaseOptions options;
  options.track_provenance = want_dot;
  options.discovery_threads = threads;
  options.join_plans = join_plans;
  if (deadline_ms >= 0) options.deadline = Deadline::AfterMillis(deadline_ms);
  options.cancel = g_cancel;
  options.max_memory_bytes = max_memory_bytes;
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
  if (argc > 3) options.max_atoms = std::strtoull(argv[3], nullptr, 10);

  // EDB-backed seeding: resolve the database source before constructing
  // the run so the loader and the chase share one memory budget (a load
  // that trips it surfaces as exit 6, like a mid-run trip).
  std::unique_ptr<EdbDatabase> edb;
  if (!load_csv_path.empty() || !edb_dir.empty()) {
    if (max_memory_bytes > 0 && options.memory_budget == nullptr) {
      options.memory_budget = std::make_shared<MemoryBudget>(max_memory_bytes);
    }
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
                 gchase::bench_util::ChaseStatsToJson(run->stats()).c_str());
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
    std::printf("%s\n",
                gchase::bench_util::ChaseStatsToJson(run->stats()).c_str());
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
