// Per-thread CPU time, for contention-robust compute measurements.
//
// A round's per-cohort compute figures want each handler's solo compute
// time: what it would cost on an uncontended core. Wall clocks add scheduler
// time slices once the pool oversubscribes cores; CLOCK_THREAD_CPUTIME_ID
// does not tick while the thread is preempted, so the figures compare across
// thread counts. (Measured wall-clock latency keeps the contention.)
#pragma once

#include <ctime>

#include <chrono>

namespace fides::common {

/// Microseconds of CPU time consumed by the calling thread. Falls back to a
/// monotonic wall clock where the POSIX per-thread clock is unavailable.
inline double thread_cpu_time_us() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) / 1e3;
  }
#endif
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace fides::common
