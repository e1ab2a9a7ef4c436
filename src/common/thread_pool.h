// Minimal thread pool with a deterministic parallel-for.
//
// ParallelFor partitions [0, n) into static chunks, so the set of indices
// each worker receives is a pure function of (n, num_threads). Combined with
// Rng::Fork(index) per item, parallel sampling runs produce bit-identical
// results to serial runs.

#ifndef VULNDS_COMMON_THREAD_POOL_H_
#define VULNDS_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace vulnds {

/// Fixed-size worker pool. Work enters only through ParallelFor.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (0 means hardware concurrency).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  std::size_t num_threads() const { return workers_.size(); }

  /// Runs fn(i) for every i in [0, n) across the pool and blocks until done.
  /// Chunking is static, so work assignment is deterministic in n. Blocks
  /// only on this call's own chunks, so concurrent callers sharing one pool
  /// never convoy behind each other's work.
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Process-wide shared pool (created on first use).
  static ThreadPool& Global();

  /// True on a worker thread of any pool; false on a caller's thread, where
  /// ParallelFor runs a call of one chunk inline.
  static bool OnWorkerThread();

 private:
  /// Enqueues a task; tasks may run in any order.
  void Submit(std::function<void()> task);
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable task_cv_;  // signals workers
  bool stop_ = false;
};

}  // namespace vulnds

#endif  // VULNDS_COMMON_THREAD_POOL_H_
