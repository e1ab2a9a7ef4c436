// Property tests for the wave-parallel bottom-k path: for EVERY thread
// count and EVERY wave size, RunBottomKSampling must be bit-identical to
// the serial loop — same estimates, same early-stop position, same
// nodes_touched. The serial run is the specification; the parallel run is
// only allowed to change wall-clock time.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "testing/test_graphs.h"
#include "vulnds/bsrbk.h"

namespace vulnds {
namespace {

// A graph big enough that worlds have non-trivial BFS work but early stop
// still fires for reachable bk: a noisy ring with chords.
UncertainGraph RingWithChords(std::size_t n, uint64_t seed) {
  Rng rng(seed);
  UncertainGraphBuilder b(n);
  for (NodeId v = 0; v < n; ++v) {
    testing::CheckOk(b.SetSelfRisk(v, 0.05 + 0.4 * rng.NextDouble()));
  }
  for (NodeId v = 0; v < n; ++v) {
    testing::CheckOk(b.AddEdge(v, (v + 1) % n, rng.NextDouble()));
    if (rng.NextDouble() < 0.5) {
      const NodeId w = (v + 2 + rng.NextBounded(n - 3)) % n;
      if (w != v) testing::CheckOk(b.AddEdge(v, w, 0.5 * rng.NextDouble()));
    }
  }
  return b.Build().MoveValue();
}

std::vector<NodeId> AllNodes(const UncertainGraph& g) {
  std::vector<NodeId> ids(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) ids[v] = v;
  return ids;
}

void ExpectBitIdentical(const BottomKRunStats& serial,
                        const BottomKRunStats& parallel, const char* what) {
  EXPECT_EQ(serial.samples_processed, parallel.samples_processed) << what;
  EXPECT_EQ(serial.total_samples, parallel.total_samples) << what;
  EXPECT_EQ(serial.nodes_touched, parallel.nodes_touched) << what;
  EXPECT_EQ(serial.early_stopped, parallel.early_stopped) << what;
  ASSERT_EQ(serial.estimates.size(), parallel.estimates.size()) << what;
  for (std::size_t c = 0; c < serial.estimates.size(); ++c) {
    EXPECT_EQ(serial.estimates[c], parallel.estimates[c])  // bit-exact
        << what << " candidate " << c;
    EXPECT_EQ(serial.reached_bk[c], parallel.reached_bk[c])
        << what << " candidate " << c;
  }
}

// The thread counts every property below sweeps: serial-by-width, two, an
// odd count that never divides the budgets, and the hardware width.
std::vector<std::size_t> SweptThreadCounts() {
  return {1, 2, 7,
          std::max<std::size_t>(1, std::thread::hardware_concurrency())};
}

TEST(BsrbkParallelTest, ThreadCountSweepIsBitIdentical) {
  const UncertainGraph g = RingWithChords(40, 97);
  const std::vector<NodeId> candidates = AllNodes(g);
  for (const std::size_t needed : {std::size_t{1}, std::size_t{3}}) {
    const auto serial =
        RunBottomKSampling(g, candidates, 500, needed, 8, 1234);
    ASSERT_TRUE(serial.ok());
    for (const std::size_t threads : SweptThreadCounts()) {
      ThreadPool pool(threads);
      const auto parallel =
          RunBottomKSampling(g, candidates, 500, needed, 8, 1234,
                             {nullptr, &pool, {WaveMode::kFixed, 0}});
      ASSERT_TRUE(parallel.ok());
      ExpectBitIdentical(*serial, *parallel,
                         ("threads=" + std::to_string(threads) +
                          " needed=" + std::to_string(needed))
                             .c_str());
    }
  }
}

TEST(BsrbkParallelTest, WaveSizeNeverChangesResults) {
  // Wave boundaries must be invisible: sweep sizes that divide t, don't
  // divide t, exceed t, and degenerate to one world per wave.
  const UncertainGraph g = RingWithChords(25, 5);
  const std::vector<NodeId> candidates = AllNodes(g);
  const std::size_t t = 100;  // deliberately not divisible by 7 or 32
  const auto serial = RunBottomKSampling(g, candidates, t, 2, 6, 77);
  ASSERT_TRUE(serial.ok());
  ThreadPool pool(3);
  for (const std::size_t wave : {std::size_t{1}, std::size_t{7},
                                 std::size_t{25}, std::size_t{100},
                                 std::size_t{1000}}) {
    const auto parallel = RunBottomKSampling(
        g, candidates, t, 2, 6, 77, {nullptr, &pool, {WaveMode::kFixed, wave}});
    ASSERT_TRUE(parallel.ok());
    ExpectBitIdentical(*serial, *parallel,
                       ("wave=" + std::to_string(wave)).c_str());
  }
}

TEST(BsrbkParallelTest, EarlyStopOnWaveBoundaryEdgeCases) {
  // Engineer the hardest alignment: the serial run tells us the stop
  // position S, then waves of exactly S (bk reached on the LAST sample of
  // the first wave), S - 1 (stop is the first sample of the second wave)
  // and S + 1 (wave outruns the stop) must all fold to the same answer.
  const UncertainGraph g = RingWithChords(30, 11);
  const std::vector<NodeId> candidates = AllNodes(g);
  const std::size_t t = 2000;
  const auto serial = RunBottomKSampling(g, candidates, t, 1, 8, 31);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(serial->early_stopped);
  const std::size_t stop = serial->samples_processed;
  ASSERT_GT(stop, 1u);
  for (const std::size_t threads : SweptThreadCounts()) {
    ThreadPool pool(threads);
    for (const std::size_t wave : {stop, stop - 1, stop + 1}) {
      const auto parallel =
          RunBottomKSampling(g, candidates, t, 1, 8, 31,
                             {nullptr, &pool, {WaveMode::kFixed, wave}});
      ASSERT_TRUE(parallel.ok());
      ExpectBitIdentical(*serial, *parallel,
                         ("threads=" + std::to_string(threads) +
                          " wave=" + std::to_string(wave))
                             .c_str());
    }
  }
}

TEST(BsrbkParallelTest, ExhaustedBudgetMatchesAcrossThreadCounts) {
  // No early stop (bk unreachable): every one of the t worlds is folded and
  // the prefix-frequency estimates must still match bit-exactly.
  UncertainGraphBuilder b(6);
  for (NodeId v = 0; v < 6; ++v) testing::CheckOk(b.SetSelfRisk(v, 0.02));
  const UncertainGraph g = b.Build().MoveValue();
  const std::vector<NodeId> candidates = AllNodes(g);
  const auto serial = RunBottomKSampling(g, candidates, 333, 1, 64, 9);
  ASSERT_TRUE(serial.ok());
  ASSERT_FALSE(serial->early_stopped);
  EXPECT_EQ(serial->samples_processed, 333u);
  for (const std::size_t threads : SweptThreadCounts()) {
    ThreadPool pool(threads);
    const auto parallel =
        RunBottomKSampling(g, candidates, 333, 1, 64, 9,
                           {nullptr, &pool, {WaveMode::kFixed, 0}});
    ASSERT_TRUE(parallel.ok());
    ExpectBitIdentical(*serial, *parallel,
                       ("threads=" + std::to_string(threads)).c_str());
  }
}

TEST(BsrbkParallelTest, PrecomputedOrderAndPoolCompose) {
  // The context-warm serving path hands in the sample order; the pool must
  // not perturb it.
  const UncertainGraph g = RingWithChords(20, 3);
  const std::vector<NodeId> candidates = AllNodes(g);
  const BottomKSampleOrder order = MakeBottomKSampleOrder(55, 400);
  BottomKRunOptions serial_run;
  serial_run.precomputed = &order;
  const auto serial = RunBottomKSampling(g, candidates, 400, 2, 8, 55, serial_run);
  ASSERT_TRUE(serial.ok());
  ThreadPool pool(4);
  const auto parallel =
      RunBottomKSampling(g, candidates, 400, 2, 8, 55,
                         {&order, &pool, {WaveMode::kFixed, 0}});
  ASSERT_TRUE(parallel.ok());
  ExpectBitIdentical(*serial, *parallel, "precomputed order");
}

TEST(BsrbkParallelTest, SeedSweepPropertyAcrossThreadCounts) {
  // Broad property sweep: many (graph, seed) pairs, all thread counts.
  for (const uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    const UncertainGraph g = RingWithChords(15 + seed % 7, seed * 13 + 1);
    const std::vector<NodeId> candidates = AllNodes(g);
    const auto serial =
        RunBottomKSampling(g, candidates, 200 + seed * 37, 2, 5, seed);
    ASSERT_TRUE(serial.ok());
    for (const std::size_t threads : SweptThreadCounts()) {
      ThreadPool pool(threads);
      const auto parallel = RunBottomKSampling(
          g, candidates, 200 + seed * 37, 2, 5, seed,
          {nullptr, &pool, {WaveMode::kFixed, 0}});
      ASSERT_TRUE(parallel.ok());
      ExpectBitIdentical(*serial, *parallel,
                         ("seed=" + std::to_string(seed) +
                          " threads=" + std::to_string(threads))
                             .c_str());
    }
  }
}

}  // namespace
}  // namespace vulnds
