#include "measure.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {

void Tracer::BeginJob(uint32_t job, Clock::time_point start) {
  if (!enabled_) return;
  open_job_ = static_cast<int64_t>(spans_.size());
  last_job_begin_ = spans_.size();
  spans_.push_back(Span{"job", "job", start, start, -1, job});
}

void Tracer::EndJob(Clock::time_point end) {
  if (!enabled_ || open_job_ < 0) return;
  spans_[static_cast<std::size_t>(open_job_)].end = end;
  last_job_end_ = spans_.size();
  open_job_ = -1;
}

void Tracer::Record(const char* name, const char* call,
                    Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return;
  const uint32_t job =
      open_job_ >= 0 ? spans_[static_cast<std::size_t>(open_job_)].job : 0;
  spans_.push_back(Span{name, call, start, end, open_job_, job});
}

std::map<std::string, double> Tracer::LastJobSelfMs() const {
  std::map<std::string, double> self_ms;
  if (last_job_end_ <= last_job_begin_) return self_ms;
  // Children of a span sit after it in the list; subtract each span's
  // duration from its parent's.
  std::vector<double> self(last_job_end_ - last_job_begin_, 0.0);
  for (std::size_t i = last_job_begin_; i < last_job_end_; ++i) {
    const Span& span = spans_[i];
    const double ms = SecondsBetween(span.start, span.end) * 1e3;
    self[i - last_job_begin_] += ms;
    if (span.parent >= static_cast<int64_t>(last_job_begin_)) {
      self[static_cast<std::size_t>(span.parent) - last_job_begin_] -= ms;
    }
  }
  for (std::size_t i = last_job_begin_; i < last_job_end_; ++i) {
    const Span& span = spans_[i];
    const std::string key =
        span.parent < 0 ? std::string("job.unattributed") : span.name;
    self_ms[key] += self[i - last_job_begin_];
  }
  return self_ms;
}

bool Tracer::WriteJsonLines(const std::string& path,
                            Clock::time_point epoch) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  auto ns = [epoch](Clock::time_point t) {
    return static_cast<long long>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch)
            .count());
  };
  bool ok = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    ok = ok && std::fprintf(file,
                            "{\"id\": %zu, \"parent\": %lld, \"job\": %u, "
                            "\"name\": \"%s\", \"call\": \"%s\", "
                            "\"start_ns\": %lld, \"end_ns\": %lld}\n",
                            i, static_cast<long long>(span.parent), span.job,
                            span.name, span.call, ns(span.start),
                            ns(span.end)) > 0;
  }
  return std::fclose(file) == 0 && ok;
}

bool ResetPeakRss() {
  std::FILE* file = std::fopen("/proc/self/clear_refs", "w");
  if (file == nullptr) return false;
  const bool written = std::fputs("5", file) >= 0;
  return std::fclose(file) == 0 && written;
}

double PeakRssMib() {
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) return -1.0;
  char line[256];
  double mib = -1.0;
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      mib = std::strtod(line + 6, nullptr) / 1024.0;  // reported in kB
      break;
    }
  }
  std::fclose(file);
  return mib;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double NearestRank(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size())));
  return values[index - 1];
}

std::vector<std::size_t> MedianIndices(const std::vector<double>& values) {
  std::vector<std::size_t> order(values.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&values](std::size_t a,
                                                         std::size_t b) {
    return values[a] < values[b];
  });
  const std::size_t n = order.size();
  if (n == 0) return {};
  if (n % 2 == 1) return {order[n / 2]};
  return {order[n / 2 - 1], order[n / 2]};
}

}  // namespace perfbench
