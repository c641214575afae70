// Wall-clock and thread-CPU stopwatches behind the pipeline's UnfTim /
// SynTim / EspTim / TotTim columns and the executor's per-node trace times.
#pragma once

#include <chrono>
#include <ctime>

namespace punt {

/// Monotonic stopwatch; starts running on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Elapsed seconds since construction.
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// CPU-time stopwatch for the *calling thread*.  Unlike Stopwatch it does
/// not count time the thread spent descheduled, so per-task phase times
/// summed across a worker pool measure aggregate work, not oversubscription
/// artefacts (the pipeline's SynTim / EspTim columns rely on this).  Falls
/// back to wall clock where no thread CPU clock exists.
class ThreadCpuStopwatch {
 public:
  ThreadCpuStopwatch() : start_(now()) {}

  /// Elapsed CPU seconds of this thread since construction.
  double seconds() const { return now() - start_; }

 private:
  static double now() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
    timespec ts;
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
      return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
    }
#endif
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  double start_;
};

}  // namespace punt
