#ifndef GCHASE_PERFBENCH_MEASURE_H_
#define GCHASE_PERFBENCH_MEASURE_H_

// Measurement primitives of the benchmark: a span recorder around calls
// into the library's public functions, per-job peak RSS through the
// kernel's VmHWM mark, and order statistics. Nothing here reaches inside
// the library: every number is taken from outside a public call or read
// from a result struct the library already returns.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// One timed call. A job span has parent -1; the spans of one job share
/// its job id.
struct Span {
  const char* name;  ///< Layer key, e.g. "load.parse".
  const char* call;  ///< Public function timed, e.g. "LoadCsvFacts".
  Clock::time_point start;
  Clock::time_point end;
  int64_t parent;
  uint32_t job;
};

/// Records spans in memory while enabled; they are written out once, when
/// the run ends. Disabled, Call() only runs the call: no clock is read.
class Tracer {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Opens the span of job `job`; later calls become its children.
  void BeginJob(uint32_t job, Clock::time_point start);
  void EndJob(Clock::time_point end);

  /// Runs `fn` inside a span `name` when enabled.
  template <class Fn>
  void Call(const char* name, const char* call, Fn&& fn) {
    if (!enabled_) {
      fn();
      return;
    }
    const Clock::time_point start = Clock::now();
    fn();
    Record(name, call, start, Clock::now());
  }

  /// Adds a span timed by the caller (no-op when disabled).
  void Record(const char* name, const char* call, Clock::time_point start,
              Clock::time_point end);

  /// Self time in ms per span name over the spans of the last ended job:
  /// a span's duration minus the part its children cover. The job span's
  /// own self time is keyed "job.unattributed".
  std::map<std::string, double> LastJobSelfMs() const;

  /// Writes every recorded span as one JSON object per line. Returns
  /// false when the file cannot be written.
  bool WriteJsonLines(const std::string& path, Clock::time_point epoch) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  int64_t open_job_ = -1;
  std::size_t last_job_begin_ = 0;
  std::size_t last_job_end_ = 0;
};

/// Resets the process's peak-RSS mark (VmHWM) to the current RSS by
/// writing "5" to /proc/self/clear_refs. Returns false if refused.
bool ResetPeakRss();

/// VmHWM of this process in MiB, or a negative value if unreadable.
double PeakRssMib();

/// Median (mean of the two middle values for an even count); 0 if empty.
double Median(std::vector<double> values);

/// Nearest-rank quantile q in [0, 1]; 0 if empty.
double NearestRank(std::vector<double> values, double q);

/// Indices of the job(s) whose value is the median: one index for an odd
/// count, the two middle ones for an even count.
std::vector<std::size_t> MedianIndices(const std::vector<double>& values);

}  // namespace perfbench

#endif  // GCHASE_PERFBENCH_MEASURE_H_
