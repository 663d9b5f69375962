// A small fixed-size worker pool for intra-round parallelism.
//
// The commit-round driver uses this to run per-cohort phase work (votes,
// challenge responses, decision application) genuinely concurrently across
// servers, and the Merkle layer uses it for parallel tree construction —
// turning the Figure 14 scaling story (more servers => parallel Merkle work)
// into a measurable wall-clock effect.
//
// Design constraints:
//   * parallel_for(n, body) must produce results identical to a serial loop:
//     each index is executed exactly once and the caller blocks until every
//     index has finished, so callers can write into pre-sized slots by index
//     and observe all writes afterwards (the join is a full happens-before
//     edge).
//   * The calling thread participates in the work, so a pool with zero or
//     one workers degrades gracefully to a serial loop and nested
//     parallel_for calls cannot deadlock (the nested caller drains its own
//     indices even if all workers are busy).
//   * Exceptions thrown by the body are captured and the first one is
//     rethrown on the calling thread after the loop completes.
//
// Concurrency protocol (checked by clang -Wthread-safety in the .cpp): the
// task queue and the stopping flag are GUARDED_BY the pool mutex; the worker
// vector is confined to the constructor (spawn) and destructor (join);
// parallel_for's claim/done counters are atomics, with the final "all done"
// edge published under the loop mutex so the waiter's condition variable
// never misses the last notify.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace fides::common {

class ThreadPool {
 public:
  /// `num_threads` is the total number of threads that execute a
  /// parallel_for, *including* the calling thread — so N-1 workers are
  /// spawned. 0 means "one per hardware thread". 1 spawns no workers and
  /// runs everything inline on the caller, which keeps single-thread runs
  /// bit-identical to a plain loop and easy to debug.
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (0 when the pool runs everything inline).
  std::size_t size() const;

  /// Threads a parallel_for executes on: workers plus the calling thread.
  std::size_t concurrency() const { return size() + 1; }

  /// True when parallel_for actually fans out to workers.
  bool parallel() const { return size() > 0; }

  /// Fire-and-forget task submission. The destructor drains the queue.
  void submit(std::function<void()> task);

  /// Runs body(0) .. body(n-1), each exactly once, returning only after all
  /// have completed. Work is claimed dynamically (atomic index), and the
  /// calling thread participates. Rethrows the first captured exception.
  void parallel_for(std::size_t n, std::function<void(std::size_t)> body);

 private:
  struct Impl;
  Impl* impl_;  // confined(ctor): set once; the Impl synchronizes internally
};

}  // namespace fides::common
