#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

namespace vulnds {
namespace {

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(8);
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  pool.ParallelFor(n, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPoolTest, ParallelForSmallerThanPool) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.ParallelFor(3, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForIndivisibleCoversEveryIndexOnce) {
  // n not divisible by num_threads: the last chunk is short, and with
  // ceil-sized chunks some workers may receive no chunk at all; every index
  // must still run exactly once.
  ThreadPool pool(8);
  for (const std::size_t n : {5u, 9u, 17u, 23u, 8u * 13u + 5u}) {
    std::vector<std::atomic<int>> hits(n);
    pool.ParallelFor(n, [&hits](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " index " << i;
    }
  }
}

// The contract documented in thread_pool.h: [0, n) is split into static
// contiguous chunks of ceil(n / threads) indices, a pure function of
// (n, num_threads). Which worker runs a chunk is scheduling-dependent, but
// each chunk must execute on a single thread, in ascending index order.
TEST(ThreadPoolTest, ParallelForUsesTheDocumentedStaticPartition) {
  const std::size_t num_threads = 4;
  ThreadPool pool(num_threads);
  for (const std::size_t n : {1u, 3u, 4u, 10u, 1001u}) {
    struct Record {
      std::thread::id thread;
      std::size_t seq = 0;
    };
    std::vector<Record> records(n);
    std::atomic<std::size_t> clock{0};
    pool.ParallelFor(n, [&](std::size_t i) {
      records[i] = {std::this_thread::get_id(), clock.fetch_add(1)};
    });

    const std::size_t threads = std::min(num_threads, n);
    const std::size_t chunk = (n + threads - 1) / threads;
    for (std::size_t begin = 0; begin < n; begin += chunk) {
      const std::size_t end = std::min(n, begin + chunk);
      for (std::size_t i = begin + 1; i < end; ++i) {
        EXPECT_EQ(records[i].thread, records[begin].thread)
            << "n=" << n << ": chunk [" << begin << ", " << end
            << ") split across threads";
        EXPECT_GT(records[i].seq, records[i - 1].seq)
            << "n=" << n << ": chunk [" << begin << ", " << end
            << ") executed out of order";
      }
    }
  }
}

TEST(ThreadPoolTest, ParallelForSingleWorkerRunsInline) {
  // threads <= 1 takes the serial path: everything runs on the caller.
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(7);
  pool.ParallelFor(seen.size(),
                   [&](std::size_t i) { seen[i] = std::this_thread::get_id(); });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  for (int round = 0; round < 5; ++round) {
    pool.ParallelFor(1000, [&sum](std::size_t i) {
      sum.fetch_add(static_cast<long>(i));
    });
  }
  EXPECT_EQ(sum.load(), 5L * (999L * 1000L / 2));
}

TEST(ThreadPoolTest, GlobalPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::Global(), &ThreadPool::Global());
  EXPECT_GE(ThreadPool::Global().num_threads(), 1u);
}

TEST(ThreadPoolTest, ZeroThreadRequestFallsBackToHardware) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}

}  // namespace
}  // namespace vulnds
