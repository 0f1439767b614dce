// The two load -> chase -> output workloads.
//
// chain_restricted_csv: FactProfile::kChain facts as CSV text in memory,
//   BoundedFactRules(), restricted chase, 1 discovery thread. Each job
//   parses the CSV (LoadCsvFacts), seeds, chases and writes the instance.
// star_existential_snapshot: FactProfile::kStar facts, written once per
//   set-up as a GCHEDB1 snapshot; each job reopens it (OpenEdbSnapshot),
//   then runs the semi-oblivious chase with 2 discovery threads over
//   BoundedFactRules() plus three existential rules.
//
// Set-up files live in anonymous memory (memfd): nothing reaches a disk
// and nothing outside the process is written.

#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "chase/chase.h"
#include "generator/fact_emitter.h"
#include "model/parser.h"
#include "storage/bulk_load.h"
#include "storage/edb.h"
#include "storage/edb_snapshot.h"
#include "storage/io.h"
#include "workload.h"

namespace perfbench {
namespace {

using gchase::FactProfile;
using gchase::Status;
using gchase::StatusOr;

/// An anonymous in-memory file, addressable by path for the library's
/// path-based writers and readers.
class MemFile {
 public:
  explicit MemFile(const char* name) : fd_(memfd_create(name, MFD_CLOEXEC)) {}
  ~MemFile() {
    if (fd_ >= 0) close(fd_);
  }
  MemFile(const MemFile&) = delete;
  MemFile& operator=(const MemFile&) = delete;

  bool ok() const { return fd_ >= 0; }
  std::string path() const { return "/proc/self/fd/" + std::to_string(fd_); }

  /// The whole file as a string, or nullopt on a read error.
  std::optional<std::string> ReadAll() const {
    struct stat info {};
    if (fstat(fd_, &info) != 0) return std::nullopt;
    std::string text(static_cast<std::size_t>(info.st_size), '\0');
    std::size_t done = 0;
    while (done < text.size()) {
      const ssize_t got = pread(fd_, text.data() + done, text.size() - done,
                                static_cast<off_t>(done));
      if (got <= 0) return std::nullopt;
      done += static_cast<std::size_t>(got);
    }
    return text;
  }

 private:
  int fd_;
};

/// Row counts of a fact file, as generator/fact_emitter.cc documents and
/// builds them: one seed/1 row per 1024 rows (num_atoms / 1024 from 2048
/// rows on), the rest edge/2 rows; a star has one hub per 1024 edges and
/// its edge i is edge(n_{i mod hubs}, n_{hubs + i}); a chain's edge i is
/// edge(n_i, n_{i+1}). Seed j is the node n_j, labelled
/// "n<emit seed>_<j>".
struct EmittedShape {
  uint64_t seeds = 0;
  uint64_t edges = 0;
  uint64_t hubs = 0;
};

EmittedShape ShapeOf(FactProfile profile, uint64_t rows) {
  EmittedShape shape;
  shape.seeds = rows / 1024;  // every workload size is >= 2048 rows
  shape.edges = rows - shape.seeds;
  if (profile == FactProfile::kStar) shape.hubs = shape.edges / 1024;
  return shape;
}

/// An order-insensitive fingerprint of a set of lines: the sum and the
/// xor of a mix of their hashes.
struct Fingerprint {
  uint64_t sum = 0;
  uint64_t mixed_xor = 0;

  void Add(std::string_view line) {
    const uint64_t h = std::hash<std::string_view>()(line);
    sum += h;
    mixed_xor ^= h * 0x9e3779b97f4a7c15ULL;
  }
  bool operator==(const Fingerprint&) const = default;
};

/// Adds atoms over the emitter's nodes to a fingerprint, each as the line
/// WriteInstanceText writes for it, without the newline:
/// "edge(n<emit seed>_<i>,n<emit seed>_<j>).".
class NodeAtoms {
 public:
  NodeAtoms(uint64_t emit_seed, Fingerprint* fingerprint)
      : node_prefix_("n" + std::to_string(emit_seed) + "_"),
        fingerprint_(fingerprint) {}

  void Add(std::string_view predicate, uint64_t node) {
    Begin(predicate, node);
    End();
  }
  void Add(std::string_view predicate, uint64_t from, uint64_t to) {
    Begin(predicate, from);
    line_ += ',';
    AppendNode(to);
    End();
  }

 private:
  void Begin(std::string_view predicate, uint64_t node) {
    line_.assign(predicate);
    line_ += '(';
    AppendNode(node);
  }
  void AppendNode(uint64_t node) {
    line_ += node_prefix_;
    line_ += std::to_string(node);
  }
  void End() {
    line_ += ").";
    fingerprint_->Add(line_);
  }

  const std::string node_prefix_;
  Fingerprint* fingerprint_;
  std::string line_;
};

/// Closed-form contents of the chased instance, derived from the fact
/// shape and the rules alone: atoms per predicate, labelled nulls, and the
/// fingerprint of the atoms without nulls.
struct Expected {
  std::vector<std::pair<std::string, uint64_t>> per_predicate;
  uint64_t atoms = 0;
  uint64_t nulls = 0;
  Fingerprint null_free;
};

void Finish(Expected* expected) {
  for (const auto& [name, count] : expected->per_predicate) {
    expected->atoms += count;
  }
}

/// BoundedFactRules() over a chain: touched = every node (n_0..n_edges;
/// every seed is among them), reach(n_{j+1}) for each seed n_j.
Expected ChainExpected(uint64_t rows, uint64_t emit_seed) {
  const EmittedShape shape = ShapeOf(FactProfile::kChain, rows);
  const uint64_t reach = std::min(shape.seeds, shape.edges);
  Expected expected;
  expected.per_predicate = {
      {"seed", shape.seeds},
      {"edge", shape.edges},
      {"touched", shape.edges + 1},
      {"reach", reach},
  };
  NodeAtoms atoms(emit_seed, &expected.null_free);
  for (uint64_t j = 0; j < shape.seeds; ++j) atoms.Add("seed", j);
  for (uint64_t i = 0; i < shape.edges; ++i) atoms.Add("edge", i, i + 1);
  for (uint64_t i = 0; i <= shape.edges; ++i) atoms.Add("touched", i);
  for (uint64_t j = 0; j < reach; ++j) atoms.Add("reach", j + 1);
  Finish(&expected);
  return expected;
}

/// BoundedFactRules() plus the star's existential rules: touched = hubs +
/// leaves (every seed is a hub or a leaf), reach(Y) for each edge whose
/// hub is a seed, one semi-oblivious null per reached leaf (tag, then
/// labelled) and one per hub (link).
Expected StarExpected(uint64_t rows, uint64_t emit_seed) {
  const EmittedShape shape = ShapeOf(FactProfile::kStar, rows);
  const uint64_t seeded_hubs = std::min(shape.seeds, shape.hubs);
  const uint64_t reach =
      (shape.edges / shape.hubs) * seeded_hubs +
      std::min(shape.edges % shape.hubs, shape.seeds);
  Expected expected;
  expected.per_predicate = {
      {"seed", shape.seeds},        {"edge", shape.edges},
      {"touched", shape.hubs + shape.edges},
      {"reach", reach},             {"tag", reach},
      {"labelled", reach},          {"link", shape.hubs},
  };
  expected.nulls = reach + shape.hubs;
  NodeAtoms atoms(emit_seed, &expected.null_free);
  for (uint64_t j = 0; j < shape.seeds; ++j) atoms.Add("seed", j);
  for (uint64_t i = 0; i < shape.edges; ++i) {
    atoms.Add("edge", i % shape.hubs, shape.hubs + i);
    if (i % shape.hubs < shape.seeds) atoms.Add("reach", shape.hubs + i);
  }
  for (uint64_t i = 0; i < shape.hubs + shape.edges; ++i) {
    atoms.Add("touched", i);
  }
  Finish(&expected);
  return expected;
}

/// What the written instance text says, read without the library:
/// atoms per predicate, distinct labelled nulls ('_:...' tokens), an
/// order-insensitive fingerprint of all its lines and one of the lines
/// without nulls.
struct OutputDigest {
  std::vector<std::pair<std::string_view, uint64_t>> per_predicate;
  uint64_t lines = 0;
  uint64_t distinct_nulls = 0;
  Fingerprint all;
  Fingerprint null_free;
};

OutputDigest DigestOutput(std::string_view text) {
  OutputDigest digest;
  std::vector<uint64_t> null_hashes;
  const std::hash<std::string_view> hash;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty()) continue;
    ++digest.lines;
    digest.all.Add(line);
    const std::string_view predicate = line.substr(0, line.find('('));
    auto it = std::find_if(
        digest.per_predicate.begin(), digest.per_predicate.end(),
        [predicate](const auto& entry) { return entry.first == predicate; });
    if (it == digest.per_predicate.end()) {
      digest.per_predicate.emplace_back(predicate, 1);
    } else {
      ++it->second;
    }
    bool has_null = false;
    for (std::size_t at = line.find("'_:"); at != std::string_view::npos;
         at = line.find("'_:", at + 1)) {
      const std::size_t close = line.find('\'', at + 1);
      null_hashes.push_back(hash(line.substr(at, close - at)));
      has_null = true;
    }
    if (!has_null) digest.null_free.Add(line);
  }
  std::sort(null_hashes.begin(), null_hashes.end());
  digest.distinct_nulls = static_cast<uint64_t>(
      std::unique(null_hashes.begin(), null_hashes.end()) -
      null_hashes.begin());
  return digest;
}

struct ChaseSpec {
  FactProfile profile;
  uint64_t rows;
  uint64_t tiny_rows;
  gchase::ChaseVariant variant;
  uint32_t discovery_threads;
  const char* extra_rules;
  /// Jobs reopen a GCHEDB1 snapshot instead of parsing the CSV text.
  bool snapshot;
  Expected (*expected)(uint64_t rows, uint64_t emit_seed);
};

/// The numbers a job reads from ChaseRun before tearing it down.
struct ChaseCounters {
  uint64_t atoms = 0;
  uint64_t rounds = 0;
  uint64_t binding_rows = 0;
  uint64_t discovered = 0;
  uint64_t applied = 0;
  uint64_t skipped_satisfied = 0;
  uint64_t nulls = 0;
  uint64_t join_work = 0;
  uint64_t parallel_rounds = 0;
  uint64_t edb_rows = 0;
  uint64_t charged_peak_bytes = 0;
  double discovery_seconds = 0.0;
  double apply_seconds = 0.0;

  explicit ChaseCounters(const gchase::ChaseRun& run) {
    const gchase::ChaseStats& stats = run.stats();
    atoms = run.instance().size();
    rounds = run.rounds();
    applied = run.applied_triggers();
    nulls = run.nulls_created();
    join_work = run.join_work();
    parallel_rounds = stats.parallel_rounds;
    edb_rows = stats.edb_atoms;
    charged_peak_bytes = stats.peak_memory_bytes;
    discovery_seconds = stats.final_discovery_seconds;
    for (const gchase::RoundStats& round : stats.per_round) {
      binding_rows += round.binding_rows;
      discovery_seconds += round.discovery_seconds;
      apply_seconds += round.apply_seconds;
    }
    for (const gchase::RuleStats& rule : stats.per_rule) {
      discovered += rule.discovered;
      skipped_satisfied += rule.skipped_satisfied;
    }
  }
};

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

class ChaseWorkload : public Workload {
 public:
  ChaseWorkload(const ChaseSpec& spec, const WorkloadConfig& config)
      : spec_(spec),
        rows_(config.tiny ? spec.tiny_rows : spec.rows),
        // A fixed-width label namespace: every seed gives constants of
        // the same length, so seeds differ in values, not in bytes.
        emit_seed_(100000 + config.seed % 900000),
        expected_(spec.expected(rows_, emit_seed_)),
        csv_file_("perfbench_csv"),
        snapshot_file_("perfbench_snapshot") {}

  uint32_t threads() const override { return spec_.discovery_threads; }

  void SetUp(std::map<std::string, double>* layers) override {
    Require(csv_file_.ok() && snapshot_file_.ok(), "memfd_create failed");
    StatusOr<gchase::ParsedProgram> parsed =
        gchase::ParseProgram(gchase::BoundedFactRules() + spec_.extra_rules);
    Require(parsed.ok(), "rule parse failed");
    rules_.emplace(*std::move(parsed));

    gchase::FactEmitterOptions emit;
    emit.profile = spec_.profile;
    emit.num_atoms = rows_;
    emit.seed = emit_seed_;
    emit.format = gchase::FactFileFormat::kCsv;
    Require(gchase::EmitFactFile(emit, csv_file_.path()).ok(),
            "EmitFactFile failed");
    std::optional<std::string> csv = csv_file_.ReadAll();
    Require(csv.has_value(), "cannot read the emitted CSV back");
    csv_ = *std::move(csv);
    if (!spec_.snapshot) return;

    StatusOr<std::unique_ptr<gchase::InMemoryEdb>> edb =
        gchase::LoadCsvFacts(csv_, LoadOptions());
    Require(edb.ok(), "LoadCsvFacts failed in set-up");
    const Clock::time_point start = Clock::now();
    const Status written =
        gchase::WriteEdbSnapshot(**edb, snapshot_file_.path());
    (*layers)["snapshot.write_ms"] +=
        SecondsBetween(start, Clock::now()) * 1e3;
    Require(written.ok(), "WriteEdbSnapshot failed");
    csv_.clear();
    csv_.shrink_to_fit();
  }

  void RunJob(Job* job) override {
    JobRecord& record = job->record();
    Tracer& tracer = job->tracer();
    record.ops = 1;
    gchase::ChaseOptions options;
    options.variant = spec_.variant;
    options.discovery_threads = spec_.discovery_threads;

    job->Begin();
    gchase::Vocabulary vocabulary = rules_->vocabulary;
    std::unique_ptr<gchase::EdbDatabase> edb;
    Status load_status;
    if (spec_.snapshot) {
      tracer.Call("load.open", "OpenEdbSnapshot", [&] {
        StatusOr<std::unique_ptr<gchase::EdbDatabase>> opened =
            gchase::OpenEdbSnapshot(snapshot_file_.path());
        if (opened.ok()) {
          edb = *std::move(opened);
        } else {
          load_status = opened.status();
        }
      });
    } else {
      tracer.Call("load.parse", "LoadCsvFacts", [&] {
        StatusOr<std::unique_ptr<gchase::InMemoryEdb>> loaded =
            gchase::LoadCsvFacts(csv_, LoadOptions());
        if (loaded.ok()) {
          edb = *std::move(loaded);
        } else {
          load_status = loaded.status();
        }
      });
    }
    if (edb == nullptr) {
      job->End();
      record.failed_ops = 1;
      record.error = "load failed: " + load_status.ToString();
      return;
    }
    std::optional<gchase::ChaseRun> run;
    tracer.Call("load.seed", "ChaseRun::ChaseRun", [&] {
      run.emplace(rules_->rules, options, *edb, &vocabulary);
    });
    gchase::ChaseOutcome outcome = gchase::ChaseOutcome::kTerminated;
    std::string text;
    if (run->seed_status().ok()) {
      tracer.Call("chase.execute", "ChaseRun::Execute",
                  [&] { outcome = run->Execute(); });
      tracer.Call("output.write", "WriteInstanceText", [&] {
        text = gchase::WriteInstanceText(run->instance(), vocabulary);
      });
    }
    const Status seed_status = run->seed_status();
    const ChaseCounters counters(*run);
    tracer.Call("job.teardown", "~ChaseRun,~EdbDatabase", [&] {
      run.reset();
      edb.reset();
      vocabulary = gchase::Vocabulary();
    });
    job->End();

    if (!seed_status.ok()) {
      record.failed_ops = 1;
      record.error = "seeding failed: " + seed_status.ToString();
      return;
    }
    if (outcome != gchase::ChaseOutcome::kTerminated) {
      record.failed_ops = 1;  // a failed op, not a wrong answer
      return;
    }
    record.op_ms.push_back(record.seconds * 1e3);
    record.error = CheckOutput(text, counters);
    if (record.traced) AddLayers(counters, text.size(), &record);
  }

 private:
  gchase::BulkLoadOptions LoadOptions() const {
    gchase::BulkLoadOptions load;
    load.schema = &rules_->vocabulary.schema;
    return load;
  }

  std::string CheckOutput(std::string_view text,
                          const ChaseCounters& counters) {
    const OutputDigest digest = DigestOutput(text);
    std::string error;
    auto mismatch = [&error](const std::string& what, uint64_t got,
                             uint64_t want) {
      if (got == want || !error.empty()) return;
      error = what + ": got " + std::to_string(got) + ", expected " +
              std::to_string(want);
    };
    mismatch("atoms in the instance", counters.atoms, expected_.atoms);
    mismatch("lines written", digest.lines, expected_.atoms);
    mismatch("nulls created", counters.nulls, expected_.nulls);
    mismatch("distinct nulls written", digest.distinct_nulls,
             expected_.nulls);
    mismatch("predicates written", digest.per_predicate.size(),
             expected_.per_predicate.size());
    for (const auto& [name, want] : expected_.per_predicate) {
      uint64_t got = 0;
      for (const auto& [written, count] : digest.per_predicate) {
        if (written == name) got = count;
      }
      mismatch(name + " atoms written", got, want);
    }
    if (!error.empty()) return error;
    if (digest.null_free != expected_.null_free) {
      return "the atoms without nulls differ from the closed form";
    }
    if (!fingerprint_.has_value()) {
      fingerprint_ = digest.all;
    } else if (*fingerprint_ != digest.all) {
      return "output fingerprint differs from the first job's";
    }
    return "";
  }

  void AddLayers(const ChaseCounters& c, std::size_t output_bytes,
                 JobRecord* record) const {
    std::map<std::string, double>& l = record->layers;
    auto self_ms = [record](const char* name) {
      auto it = record->self_ms.find(name);
      return it == record->self_ms.end() ? 0.0 : it->second;
    };
    const double discovery_ms = c.discovery_seconds * 1e3;
    const double apply_ms = c.apply_seconds * 1e3;
    const double charged_mib =
        static_cast<double>(c.charged_peak_bytes) / (1 << 20);
    l["load.parse_mb_per_s"] =
        Ratio(static_cast<double>(csv_.size()) / 1e6,
              self_ms("load.parse_ms") / 1e3);
    l["load.seed_ns_per_row"] =
        Ratio(self_ms("load.seed_ms") * 1e6, static_cast<double>(c.edb_rows));
    l["chase.discovery_ms"] = discovery_ms;
    l["chase.apply_ms"] = apply_ms;
    l["chase.gap_ms"] = self_ms("chase.execute_ms") - discovery_ms - apply_ms;
    l["chase.rounds"] = static_cast<double>(c.rounds);
    l["chase.binding_rows"] = static_cast<double>(c.binding_rows);
    l["chase.discovered"] = static_cast<double>(c.discovered);
    l["chase.applied"] = static_cast<double>(c.applied);
    l["chase.skipped_satisfied"] = static_cast<double>(c.skipped_satisfied);
    l["chase.nulls"] = static_cast<double>(c.nulls);
    l["chase.join_work"] = static_cast<double>(c.join_work);
    l["chase.parallel_rounds"] = static_cast<double>(c.parallel_rounds);
    l["chase.dedup_keep_ratio"] = Ratio(static_cast<double>(c.discovered),
                                        static_cast<double>(c.binding_rows));
    l["chase.fire_ratio"] = Ratio(static_cast<double>(c.applied),
                                  static_cast<double>(c.discovered));
    l["chase.apply_ns_per_trigger"] =
        Ratio(apply_ms * 1e6, static_cast<double>(c.applied));
    l["output.mib"] = static_cast<double>(output_bytes) / (1 << 20);
    l["memory.charged_peak_mib"] = charged_mib;
    l["memory.rss_over_charged"] = Ratio(record->peak_rss_mib, charged_mib);
  }

  const ChaseSpec spec_;
  const uint64_t rows_;
  const uint64_t emit_seed_;
  const Expected expected_;
  MemFile csv_file_;
  MemFile snapshot_file_;
  std::optional<gchase::ParsedProgram> rules_;
  std::string csv_;
  std::optional<Fingerprint> fingerprint_;
};

}  // namespace

std::unique_ptr<Workload> MakeChainRestrictedCsv(
    const WorkloadConfig& config) {
  static const ChaseSpec kSpec{FactProfile::kChain,
                               /*rows=*/500000,
                               /*tiny_rows=*/4096,
                               gchase::ChaseVariant::kRestricted,
                               /*discovery_threads=*/1,
                               /*extra_rules=*/"",
                               /*snapshot=*/false,
                               &ChainExpected};
  return std::make_unique<ChaseWorkload>(kSpec, config);
}

std::unique_ptr<Workload> MakeStarExistentialSnapshot(
    const WorkloadConfig& config) {
  static const ChaseSpec kSpec{
      FactProfile::kStar,
      /*rows=*/250000,
      /*tiny_rows=*/8192,
      gchase::ChaseVariant::kSemiOblivious,
      /*discovery_threads=*/2,
      "reach(Y) -> tag(Y,Z).\n"
      "tag(Y,Z) -> labelled(Z).\n"
      "edge(X,Y) -> link(X,W).\n",
      /*snapshot=*/true,
      &StarExpected};
  return std::make_unique<ChaseWorkload>(kSpec, config);
}

}  // namespace perfbench
