#include "common/thread_pool.h"

#include <algorithm>

namespace vulnds {

namespace {
thread_local bool t_on_worker = false;
}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  try {
    for (std::size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  } catch (...) {
    // The Nth spawn can fail (thread limits); without this, unwinding would
    // destroy `workers_` while it holds joinable threads and terminate the
    // process. Shut down the workers that did start, then let the caller
    // handle the exception.
    {
      std::unique_lock<std::mutex> lock(mu_);
      stop_ = true;
    }
    task_cv_.notify_all();
    for (auto& w : workers_) w.join();
    throw;
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  task_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
  }
  task_cv_.notify_one();
}

void ThreadPool::ParallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t threads = std::min(num_threads(), n);
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const std::size_t chunk = (n + threads - 1) / threads;
  // Per-call completion state: this call returns when ITS chunks finish,
  // not when the whole pool drains, so concurrent ParallelFor callers —
  // e.g. two serve sessions cold-detecting different graphs on the shared
  // sampling pool — never convoy behind each other's in-flight work.
  struct CallState {
    std::mutex m;
    std::condition_variable cv;
    std::size_t remaining = 0;
  } state;
  state.remaining = (n + chunk - 1) / chunk;  // chunks actually submitted
  for (std::size_t t = 0; t < threads; ++t) {
    const std::size_t begin = t * chunk;
    const std::size_t end = std::min(n, begin + chunk);
    if (begin >= end) break;
    Submit([begin, end, &fn, &state] {
      for (std::size_t i = begin; i < end; ++i) fn(i);
      std::lock_guard<std::mutex> lock(state.m);
      if (--state.remaining == 0) state.cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(state.m);
  state.cv.wait(lock, [&state] { return state.remaining == 0; });
}

void ThreadPool::WorkerLoop() {
  t_on_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool;
  return pool;
}

bool ThreadPool::OnWorkerThread() { return t_on_worker; }

}  // namespace vulnds
