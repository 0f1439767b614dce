#ifndef GCHASE_PERFBENCH_WORKLOAD_H_
#define GCHASE_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "measure.h"

namespace perfbench {

/// What one job produced: its wall time and peak RSS, the ops it attempted
/// (a chase job is one op, a decide job one op per DecideTermination
/// call), and, for a traced job, its per-layer values keyed by metric name.
struct JobRecord {
  bool traced = false;
  double seconds = 0.0;
  double peak_rss_mib = 0.0;
  uint64_t ops = 0;
  uint64_t failed_ops = 0;
  std::vector<double> op_ms;
  /// Self time in ms of each span layer of a traced job, keyed
  /// "<span name>_ms"; with "job.unattributed_ms" they sum to `seconds`.
  std::map<std::string, double> self_ms;
  /// Other per-layer values of a traced job (counters, ratios, splits).
  std::map<std::string, double> layers;
  /// Non-empty when an output disagreed with its reference: the run fails.
  std::string error;
};

/// Brackets the timed part of one job. Begin() resets the peak-RSS mark,
/// reads the clock and opens the job span; End() closes them, reads the
/// peak RSS and, for a traced job, fills JobRecord::self_ms.
class Job {
 public:
  Job(uint32_t id, Tracer* tracer, JobRecord* record)
      : id_(id), tracer_(tracer), record_(record) {}

  void Begin();
  void End();

  Tracer& tracer() { return *tracer_; }
  JobRecord& record() { return *record_; }
  bool traced() const { return record_->traced; }

 private:
  uint32_t id_;
  Tracer* tracer_;
  JobRecord* record_;
  Clock::time_point start_;
};

/// Fails the run (exit code 2, no result) when a set-up step fails.
inline void Require(bool condition, const char* what) {
  if (!condition) throw std::runtime_error(what);
}

/// Seed and size of one run; `tiny` shrinks every workload for the
/// benchmark's own tests.
struct WorkloadConfig {
  uint64_t seed = 0;
  bool tiny = false;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Threads a job runs on; the run pins set-ups and jobs to this many
  /// CPUs.
  virtual uint32_t threads() const { return 1; }

  /// Builds the inputs and the program's one-time artefacts anew,
  /// replacing those of an earlier call. Adds the time of each timed
  /// set-up call, in ms, to `layers`.
  virtual void SetUp(std::map<std::string, double>* layers) = 0;

  /// Runs one job between job->Begin() and job->End(), then checks its
  /// outputs against the references, outside the timed part.
  virtual void RunJob(Job* job) = 0;

  /// Called once, after the first (warm-up) job: builds the references
  /// that need a first result. Returns an error text, or "" when correct.
  virtual std::string AfterWarmUp() { return ""; }
};

std::unique_ptr<Workload> MakeChainRestrictedCsv(const WorkloadConfig& config);
std::unique_ptr<Workload> MakeStarExistentialSnapshot(
    const WorkloadConfig& config);
std::unique_ptr<Workload> MakeDecideSuite(const WorkloadConfig& config);

}  // namespace perfbench

#endif  // GCHASE_PERFBENCH_WORKLOAD_H_
