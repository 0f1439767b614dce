// gchase_perfbench: runs one named workload in this process and prints
// its metrics as one JSON object on the last line of stdout.
//
//   gchase_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--size full|tiny] [--spans-out FILE]
//
// A run sets up once and runs one warm-up job, neither of them reported.
// Then, until S seconds have passed, it sets up anew and runs a job, and
// times both: setup_s and job_s_p50 are medians over the same window, so
// they sample the same fast and slow stretches of the host. --trace 0
// prints the end-to-end metrics. --trace 1 alternates traced and
// untraced jobs and prints the per-layer metrics: the traced jobs record
// one span per public call, and the difference between the two kinds of
// job is the tracing overhead. Exit code 1 with
// "correct": false when an output disagrees with its reference; exit
// code 2, without a result, on a usage or set-up error.

#include <sched.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "measure.h"
#include "workload.h"

namespace perfbench {

void Job::Begin() {
  if (!ResetPeakRss()) {
    throw std::runtime_error("cannot reset the peak-RSS mark");
  }
  start_ = Clock::now();
  tracer_->BeginJob(id_, start_);
}

void Job::End() {
  const Clock::time_point end = Clock::now();
  tracer_->EndJob(end);
  record_->seconds = SecondsBetween(start_, end);
  record_->peak_rss_mib = PeakRssMib();
  if (record_->traced) {
    for (const auto& [name, ms] : tracer_->LastJobSelfMs()) {
      record_->self_ms[name + "_ms"] = ms;
    }
  }
}

namespace {

struct Metric {
  std::string name;
  std::string unit;
};

/// Shortest decimal form that reads back as the same double.
std::string JsonNumber(double value) {
  char buffer[64];
  const std::to_chars_result result =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

struct WorkloadInfo {
  const char* name;
  std::unique_ptr<Workload> (*make)(const WorkloadConfig&);
  /// Ops are DecideTermination calls (reports decide_ms_p99).
  bool decide_calls;
};

const WorkloadInfo kWorkloads[] = {
    {"chain_restricted_csv", &MakeChainRestrictedCsv, false},
    {"star_existential_snapshot", &MakeStarExistentialSnapshot, false},
    {"decide_suite", &MakeDecideSuite, true},
};

/// The CPUs this process may run on.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

/// Pins the calling thread, and the threads it starts later, to `width`
/// CPUs from position `slot` of `cpus` on, cyclically. Successive jobs,
/// each with its set-up, take successive slots, so every run samples
/// every CPU alike: on a shared host one CPU can run the same code 50%
/// slower than the others, and whichever CPU the scheduler picked would
/// otherwise decide a run's median. A refused pin leaves the thread where it was.
void PinToSlot(const std::vector<int>& cpus, uint32_t slot, uint32_t width) {
  if (cpus.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (uint32_t k = 0; k < std::min<std::size_t>(width, cpus.size()); ++k) {
    CPU_SET(cpus[(slot + k) % cpus.size()], &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
}

const std::vector<Metric>& EndToEndMetrics() {
  static const std::vector<Metric> metrics = {
      {"setup_s", "s"},
      {"job_s_p50", "s"},
      {"peak_rss_mib", "MiB"},
      {"op_ms_p50", "ms"},
  };
  return metrics;
}

const std::vector<Metric>& PerLayerMetrics() {
  static const std::vector<Metric> metrics = {
      {"load.parse_ms", "ms"},
      {"load.parse_mb_per_s", "MB/s"},
      {"load.seed_ms", "ms"},
      {"load.seed_ns_per_row", "ns"},
      {"load.open_ms", "ms"},
      {"snapshot.write_ms", "ms"},
      {"chase.execute_ms", "ms"},
      {"chase.discovery_ms", "ms"},
      {"chase.apply_ms", "ms"},
      {"chase.gap_ms", "ms"},
      {"chase.rounds", "count"},
      {"chase.binding_rows", "count"},
      {"chase.discovered", "count"},
      {"chase.applied", "count"},
      {"chase.skipped_satisfied", "count"},
      {"chase.nulls", "count"},
      {"chase.join_work", "count"},
      {"chase.parallel_rounds", "count"},
      {"chase.dedup_keep_ratio", "ratio"},
      {"chase.fire_ratio", "ratio"},
      {"chase.apply_ns_per_trigger", "ns"},
      {"output.write_ms", "ms"},
      {"output.mib", "MiB"},
      {"memory.charged_peak_mib", "MiB"},
      {"memory.rss_over_charged", "ratio"},
      {"job.teardown_ms", "ms"},
      {"job.unattributed_ms", "ms"},
      {"job.count", "count"},
      {"decide.tree_ms", "ms"},
      {"decide.random_ms", "ms"},
      {"decide.curated_ms", "ms"},
      {"decide.chase_discovery_ms", "ms"},
      {"decide.chase_apply_ms", "ms"},
      {"decide.outside_chase_ms", "ms"},
      {"decide.chase_atoms", "count"},
      {"decide.applied", "count"},
      {"decide.replays", "count"},
      {"decide.nonterminating", "count"},
      {"decide.unknown", "count"},
      {"decide_ms_p99", "ms"},
      {"trace.job_s_p50", "s"},
      {"trace.untraced_job_s_p50", "s"},
      {"trace.overhead_pct", "%"},
  };
  return metrics;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool tiny = false;
  std::string spans_out;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "gchase_perfbench: %s\nusage: gchase_perfbench --workload "
               "NAME --seed N --seconds S --trace 0|1 [--size full|tiny] "
               "[--spans-out FILE]\n",
               why.c_str());
  std::exit(2);
}

uint64_t ParseUnsigned(const char* flag, const char* text) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') {
    Usage(std::string("bad value for ") + flag + ": " + text);
  }
  return value;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = ParseUnsigned("--seed", value);
      have_seed = true;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      args.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(args.seconds > 0.0) ||
          args.seconds > 600.0) {
        Usage(std::string("bad value for --seconds: ") + value);
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      const uint64_t trace = ParseUnsigned("--trace", value);
      if (trace > 1) Usage("--trace takes 0 or 1");
      args.trace = trace == 1;
      have_trace = true;
    } else if (flag == "--size") {
      if (std::strcmp(value, "full") != 0 && std::strcmp(value, "tiny") != 0) {
        Usage("--size takes full or tiny");
      }
      args.tiny = std::strcmp(value, "tiny") == 0;
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  return args;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics,
                       const std::map<std::string, double>& values) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    auto it = values.find(metrics[i].name);
    const double value = it == values.end() ? 0.0 : it->second;
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + JsonNumber(value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

/// The per-layer values of the median traced job (the mean of the two
/// middle jobs for an even count), so that the self times and
/// job.unattributed_ms sum to trace.job_s_p50.
std::map<std::string, double> MedianJobLayers(
    const std::vector<const JobRecord*>& traced) {
  std::vector<double> seconds;
  for (const JobRecord* record : traced) seconds.push_back(record->seconds);
  const std::vector<std::size_t> middle = MedianIndices(seconds);
  std::map<std::string, double> layers;
  for (std::size_t index : middle) {
    for (const auto* source : {&traced[index]->self_ms,
                               &traced[index]->layers}) {
      for (const auto& [name, value] : *source) {
        layers[name] += value / static_cast<double>(middle.size());
      }
    }
  }
  return layers;
}

int Run(const Args& args) {
  const WorkloadInfo* info = nullptr;
  for (const WorkloadInfo& candidate : kWorkloads) {
    if (args.workload == candidate.name) info = &candidate;
  }
  if (info == nullptr) Usage("unknown workload " + args.workload);
  const Clock::time_point epoch = Clock::now();
  WorkloadConfig config;
  config.seed = args.seed;
  config.tiny = args.tiny;
  std::unique_ptr<Workload> workload = info->make(config);
  const std::vector<int> cpus = AllowedCpus();

  // Each job runs on the artefacts of the set-up just before it.
  std::vector<double> setup_seconds;
  std::map<std::string, std::vector<double>> setup_layers;
  auto set_up = [&] {
    std::map<std::string, double> layers;
    const Clock::time_point start = Clock::now();
    workload->SetUp(&layers);
    setup_seconds.push_back(SecondsBetween(start, Clock::now()));
    for (const auto& [name, ms] : layers) setup_layers[name].push_back(ms);
  };

  Tracer tracer;
  auto fail = [&](const std::string& error, uint64_t attempted,
                  uint64_t failed) {
    std::fprintf(stderr, "gchase_perfbench: %s: reference mismatch: %s\n",
                 args.workload.c_str(), error.c_str());
    std::printf("%s\n", ResultJson(false, attempted, failed,
                                   args.trace ? PerLayerMetrics()
                                              : EndToEndMetrics(),
                                   {})
                            .c_str());
    return 1;
  };

  // The first set-up and job of a process warm caches and the allocator;
  // the job is checked, and neither is reported.
  PinToSlot(cpus, 0, workload->threads());
  set_up();
  setup_seconds.clear();
  setup_layers.clear();
  JobRecord warm_up;
  Job warm_up_job(0, &tracer, &warm_up);
  workload->RunJob(&warm_up_job);
  if (!warm_up.error.empty()) return fail(warm_up.error, warm_up.ops, 0);
  const std::string reference_error = workload->AfterWarmUp();
  if (!reference_error.empty()) return fail(reference_error, warm_up.ops, 0);

  // Measurement: whole jobs until the time is up. A traced run alternates
  // traced and untraced jobs and needs at least two of each.
  const std::size_t min_jobs = args.trace ? 4 : 3;
  std::vector<JobRecord> records;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  const Clock::time_point measure_start = Clock::now();
  for (uint32_t id = 1;; ++id) {
    if (records.size() >= min_jobs &&
        SecondsBetween(measure_start, Clock::now()) >= args.seconds) {
      break;
    }
    JobRecord record;
    record.traced = args.trace && id % 2 == 1;
    // A traced job and the untraced one after it share a slot, so the
    // tracing overhead is measured on the same CPUs.
    PinToSlot(cpus, args.trace ? (id - 1) / 2 : id, workload->threads());
    set_up();
    tracer.set_enabled(record.traced);
    Job job(id, &tracer, &record);
    workload->RunJob(&job);
    tracer.set_enabled(false);
    attempted += record.ops;
    failed += record.failed_ops;
    if (!record.error.empty()) return fail(record.error, attempted, failed);
    records.push_back(std::move(record));
  }

  std::map<std::string, double> values;
  std::vector<double> job_seconds;
  std::vector<double> traced_seconds;
  std::vector<double> untraced_seconds;
  std::vector<double> rss;
  std::vector<double> op_ms;
  std::vector<const JobRecord*> traced;
  for (const JobRecord& record : records) {
    job_seconds.push_back(record.seconds);
    rss.push_back(record.peak_rss_mib);
    op_ms.insert(op_ms.end(), record.op_ms.begin(), record.op_ms.end());
    if (record.traced) {
      traced.push_back(&record);
      traced_seconds.push_back(record.seconds);
    } else {
      untraced_seconds.push_back(record.seconds);
    }
  }
  if (!args.trace) {
    values["setup_s"] = Median(setup_seconds);
    values["job_s_p50"] = Median(job_seconds);
    values["peak_rss_mib"] = Median(rss);
    values["op_ms_p50"] = Median(op_ms);
  } else {
    values = MedianJobLayers(traced);
    for (const auto& [name, samples] : setup_layers) {
      values[name] = Median(samples);
    }
    values["job.count"] = static_cast<double>(records.size());
    if (info->decide_calls) values["decide_ms_p99"] = NearestRank(op_ms, 0.99);
    const double traced_p50 = Median(traced_seconds);
    const double untraced_p50 = Median(untraced_seconds);
    values["trace.job_s_p50"] = traced_p50;
    values["trace.untraced_job_s_p50"] = untraced_p50;
    values["trace.overhead_pct"] =
        untraced_p50 > 0.0 ? (traced_p50 / untraced_p50 - 1.0) * 100.0 : 0.0;

    // The ledger must close: self times plus the residual are the job.
    double ledger_ms = 0.0;
    for (const auto& [name, value] : values) {
      if (traced.front()->self_ms.count(name) != 0) ledger_ms += value;
    }
    if (std::fabs(ledger_ms - traced_p50 * 1e3) > 1e-6 * traced_p50 * 1e3) {
      std::fprintf(stderr, "gchase_perfbench: span ledger %.6f ms != %.6f ms\n",
                   ledger_ms, traced_p50 * 1e3);
      return 2;
    }
    if (!args.spans_out.empty() &&
        !tracer.WriteJsonLines(args.spans_out, epoch)) {
      std::fprintf(stderr, "gchase_perfbench: cannot write %s\n",
                   args.spans_out.c_str());
      return 2;
    }
  }

  std::fprintf(stderr,
               "%s seed=%llu: %zu jobs in %.1f s (%zu traced), %zu set-ups, "
               "%llu ops, %llu failed\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), records.size(),
               SecondsBetween(measure_start, Clock::now()), traced.size(),
               setup_seconds.size(), static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed));
  for (const auto& [what, samples] :
       {std::pair{"job", &job_seconds}, std::pair{"set-up", &setup_seconds}}) {
    std::fprintf(stderr,
                 "%s seconds min/p25/p50/p75/max: %.4f %.4f %.4f %.4f %.4f\n",
                 what, NearestRank(*samples, 0.0), NearestRank(*samples, 0.25),
                 Median(*samples), NearestRank(*samples, 0.75),
                 NearestRank(*samples, 1.0));
  }
  std::printf("%s\n",
              ResultJson(true, attempted, failed,
                         args.trace ? PerLayerMetrics() : EndToEndMetrics(),
                         values)
                  .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::ParseArgs(argc, argv);
  try {
    return perfbench::Run(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "gchase_perfbench: %s\n", error.what());
    return 2;
  }
}
