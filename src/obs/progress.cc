#include "obs/progress.h"

#include <chrono>
#include <cstdio>

#include "obs/histogram.h"

namespace gchase {

namespace internal {
std::atomic<bool> g_progress_enabled{false};
}  // namespace internal

ProgressCounters& GlobalProgress() {
  static ProgressCounters* const counters = new ProgressCounters();
  return *counters;
}

namespace {

double PerSecond(uint64_t delta, uint64_t elapsed_ns) {
  if (elapsed_ns == 0) return 0.0;
  return static_cast<double>(delta) * 1e9 / static_cast<double>(elapsed_ns);
}

/// What a level counter gained since the last sample. The engine stores
/// each run's own level, so a level below the last sample means a new
/// run started (a decide call's next chase, say): everything it holds
/// was gained since, and the difference would wrap.
uint64_t Gained(uint64_t level, uint64_t last) {
  return level >= last ? level - last : level;
}

std::string HumanBytes(uint64_t bytes) {
  char buf[32];
  if (bytes >= (uint64_t{1} << 30)) {
    std::snprintf(buf, sizeof(buf), "%.1fGiB",
                  static_cast<double>(bytes) / (uint64_t{1} << 30));
  } else if (bytes >= (uint64_t{1} << 20)) {
    std::snprintf(buf, sizeof(buf), "%.1fMiB",
                  static_cast<double>(bytes) / (uint64_t{1} << 20));
  } else {
    std::snprintf(buf, sizeof(buf), "%lluB",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

}  // namespace

bool ProgressReporter::Start(const Options& options) {
  if (running_) return true;
  options_ = options;
  if (!options_.ndjson_path.empty()) {
    ndjson_.open(options_.ndjson_path, std::ios::out | std::ios::trunc);
    if (!ndjson_.is_open()) return false;
  }
  if (options_.interval_ms == 0) options_.interval_ms = 1000;
  stop_requested_ = false;
  samples_.store(0, std::memory_order_relaxed);
  start_ns_ = ProfilingNowNs();
  last_sample_ns_ = start_ns_;
  const ProgressCounters& pc = GlobalProgress();
  last_atoms_ = pc.atoms.load(std::memory_order_relaxed);
  last_trials_ = pc.trials_run.load(std::memory_order_relaxed);
  internal::g_progress_enabled.store(true, std::memory_order_relaxed);
  thread_ = std::thread([this] { Run(); });
  running_ = true;
  return true;
}

void ProgressReporter::Stop() {
  if (!running_) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  internal::g_progress_enabled.store(false, std::memory_order_relaxed);
  // Final sample so an aborted run (SIGINT, deadline, OOM) still shows
  // where it got to.
  EmitSample(ProfilingNowNs());
  if (ndjson_.is_open()) ndjson_.close();
  running_ = false;
}

void ProgressReporter::Run() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    const bool stopping = cv_.wait_for(
        lock, std::chrono::milliseconds(options_.interval_ms),
        [this] { return stop_requested_; });
    if (stopping) return;  // Stop() emits the final sample.
    lock.unlock();
    EmitSample(ProfilingNowNs());
    lock.lock();
  }
}

void ProgressReporter::EmitSample(uint64_t now_ns) {
  const ProgressCounters& pc = GlobalProgress();
  const uint64_t elapsed_ns = now_ns - start_ns_;
  const uint64_t tick_ns = now_ns - last_sample_ns_;
  const double elapsed_s = static_cast<double>(elapsed_ns) / 1e9;

  const uint64_t in_use =
      options_.in_use_bytes ? options_.in_use_bytes() : 0;
  const uint64_t budget =
      options_.budget_bytes ? options_.budget_bytes() : 0;
  const double remaining_s =
      options_.remaining_seconds ? options_.remaining_seconds() : -1.0;

  char line[512];
  if (options_.mode == Mode::kChase) {
    const uint64_t rounds = pc.rounds.load(std::memory_order_relaxed);
    const uint64_t atoms = pc.atoms.load(std::memory_order_relaxed);
    const uint64_t triggers = pc.triggers.load(std::memory_order_relaxed);
    const double atoms_per_s = PerSecond(Gained(atoms, last_atoms_), tick_ns);
    last_atoms_ = atoms;
    if (ndjson_.is_open()) {
      std::snprintf(
          line, sizeof(line),
          "{\"mode\": \"chase\", \"elapsed_s\": %.3f, \"round\": %llu, "
          "\"atoms\": %llu, \"atoms_per_sec\": %.0f, \"triggers\": %llu, "
          "\"in_use_bytes\": %llu, \"budget_bytes\": %llu, "
          "\"remaining_s\": %.3f}\n",
          elapsed_s, static_cast<unsigned long long>(rounds),
          static_cast<unsigned long long>(atoms), atoms_per_s,
          static_cast<unsigned long long>(triggers),
          static_cast<unsigned long long>(in_use),
          static_cast<unsigned long long>(budget), remaining_s);
      ndjson_ << line;
      ndjson_.flush();
    } else {
      std::string mem;
      if (budget > 0) {
        mem = " mem=" + HumanBytes(in_use) + "/" + HumanBytes(budget);
      } else if (options_.in_use_bytes) {
        mem = " mem=" + HumanBytes(in_use);
      }
      std::string deadline;
      if (remaining_s >= 0.0) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), " deadline=%.1fs", remaining_s);
        deadline = buf;
      }
      std::snprintf(line, sizeof(line),
                    "[progress] round=%llu atoms=%llu (+%.0f/s) "
                    "triggers=%llu%s%s elapsed=%.1fs\n",
                    static_cast<unsigned long long>(rounds),
                    static_cast<unsigned long long>(atoms), atoms_per_s,
                    static_cast<unsigned long long>(triggers), mem.c_str(),
                    deadline.c_str(), elapsed_s);
      std::fputs(line, stderr);
    }
  } else {
    const uint64_t started =
        pc.trials_started.load(std::memory_order_relaxed);
    const uint64_t run = pc.trials_run.load(std::memory_order_relaxed);
    const uint64_t failed =
        pc.trials_failed.load(std::memory_order_relaxed);
    const double trials_per_s = PerSecond(Gained(run, last_trials_), tick_ns);
    last_trials_ = run;
    if (ndjson_.is_open()) {
      std::snprintf(
          line, sizeof(line),
          "{\"mode\": \"fuzz\", \"elapsed_s\": %.3f, "
          "\"trials_started\": %llu, \"trials_run\": %llu, "
          "\"trials_failed\": %llu, \"trials_per_sec\": %.1f, "
          "\"remaining_s\": %.3f}\n",
          elapsed_s, static_cast<unsigned long long>(started),
          static_cast<unsigned long long>(run),
          static_cast<unsigned long long>(failed), trials_per_s,
          remaining_s);
      ndjson_ << line;
      ndjson_.flush();
    } else {
      std::string deadline;
      if (remaining_s >= 0.0) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), " deadline=%.1fs", remaining_s);
        deadline = buf;
      }
      std::snprintf(line, sizeof(line),
                    "[progress] trials=%llu/%llu failed=%llu "
                    "(%.1f/s)%s elapsed=%.1fs\n",
                    static_cast<unsigned long long>(run),
                    static_cast<unsigned long long>(started),
                    static_cast<unsigned long long>(failed), trials_per_s,
                    deadline.c_str(), elapsed_s);
      std::fputs(line, stderr);
    }
  }
  last_sample_ns_ = now_ns;
  samples_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace gchase
