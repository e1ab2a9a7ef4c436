// Property tests for the wave scheduler (stop floor, ramp, stop-distance
// clamp): for every thread count and every (honest or adversarial)
// lower-bound hint, RunBottomKSampling must be bit-identical to the serial
// loop. The schedule may only move wall-clock time and the worlds_wasted /
// waves_issued telemetry; the moment it moves anything else, these tests
// fail.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "testing/test_graphs.h"
#include "vulnds/bounds.h"
#include "vulnds/bsrbk.h"

namespace vulnds {
namespace {

// Same generator family as bsrbk_parallel_test: a noisy ring with chords,
// big enough that worlds do non-trivial BFS work but early stop still fires.
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
                        const BottomKRunStats& adaptive, const char* what) {
  EXPECT_EQ(serial.samples_processed, adaptive.samples_processed) << what;
  EXPECT_EQ(serial.total_samples, adaptive.total_samples) << what;
  EXPECT_EQ(serial.nodes_touched, adaptive.nodes_touched) << what;
  EXPECT_EQ(serial.early_stopped, adaptive.early_stopped) << what;
  ASSERT_EQ(serial.estimates.size(), adaptive.estimates.size()) << what;
  for (std::size_t c = 0; c < serial.estimates.size(); ++c) {
    EXPECT_EQ(serial.estimates[c], adaptive.estimates[c])  // bit-exact
        << what << " candidate " << c;
    EXPECT_EQ(serial.reached_bk[c], adaptive.reached_bk[c])
        << what << " candidate " << c;
  }
}

// One through eight workers (the ramp starts at one world per worker, so
// each count shifts the wave boundaries), plus the hardware width when it
// is wider.
std::vector<std::size_t> SweptThreadCounts() {
  std::vector<std::size_t> counts = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::size_t hardware = std::thread::hardware_concurrency();
  if (hardware > counts.back()) counts.push_back(hardware);
  return counts;
}

BottomKRunOptions AdaptiveRun(ThreadPool* pool,
                              const std::vector<double>* lower = nullptr) {
  BottomKRunOptions run;
  run.pool = pool;
  run.candidate_lower_bounds = lower;
  return run;
}

TEST(BsrbkAdaptiveTest, RampScheduleSweepIsBitIdentical) {
  // The hints DetectTopK passes: each candidate's order-2 lower bound.
  // Worker count and seed shape every floor, ramp step and clamp; none of
  // them may matter.
  const UncertainGraph g = RingWithChords(40, 97);
  const std::vector<NodeId> candidates = AllNodes(g);
  const Result<std::vector<double>> lower = LowerBounds(g, 2);
  ASSERT_TRUE(lower.ok());
  for (const uint64_t seed : {1234u, 99u, 7u}) {
    const auto serial = RunBottomKSampling(g, candidates, 500, 2, 8, seed);
    ASSERT_TRUE(serial.ok());
    for (const std::size_t threads : SweptThreadCounts()) {
      ThreadPool pool(threads);
      const auto adaptive = RunBottomKSampling(
          g, candidates, 500, 2, 8, seed, AdaptiveRun(&pool, &*lower));
      ASSERT_TRUE(adaptive.ok());
      ExpectBitIdentical(*serial, *adaptive,
                         ("seed=" + std::to_string(seed) +
                          " threads=" + std::to_string(threads))
                             .c_str());
    }
  }
}

TEST(BsrbkAdaptiveTest, AdversarialStopAlignments) {
  // A hint that overstates every rate (waves clamp to one world per
  // worker), one that understates it (waves ramp to the cap) and no hint
  // put the stop at different offsets inside its wave; every alignment must
  // fold to the serial answer, with waste bounded by the final wave.
  const UncertainGraph g = RingWithChords(30, 11);
  const std::vector<NodeId> candidates = AllNodes(g);
  const std::size_t t = 2000;
  const std::vector<double> high(candidates.size(), 0.999);
  const std::vector<double> low(candidates.size(), 1e-9);
  for (const uint64_t seed : {31u, 32u, 33u}) {
    const auto serial = RunBottomKSampling(g, candidates, t, 1, 8, seed);
    ASSERT_TRUE(serial.ok());
    ASSERT_TRUE(serial->early_stopped);
    ASSERT_GT(serial->samples_processed, 1u);
    for (const std::size_t threads : SweptThreadCounts()) {
      ThreadPool pool(threads);
      for (const std::vector<double>* lower :
           {&high, &low, static_cast<const std::vector<double>*>(nullptr)}) {
        const auto adaptive = RunBottomKSampling(g, candidates, t, 1, 8, seed,
                                                 AdaptiveRun(&pool, lower));
        ASSERT_TRUE(adaptive.ok());
        ExpectBitIdentical(*serial, *adaptive,
                           ("seed=" + std::to_string(seed) +
                            " threads=" + std::to_string(threads))
                               .c_str());
        if (threads > 1) {
          EXPECT_TRUE(adaptive->early_stopped);
          EXPECT_GE(adaptive->waves_issued, 1u);
          EXPECT_LT(adaptive->worlds_wasted, 32 * threads);
        }
      }
    }
  }
}

TEST(BsrbkAdaptiveTest, LyingLowerBoundsNeverChangeResults) {
  // The lower-bound hint steers the estimator only. Bounds that overstate
  // the default rate (estimate undershoots -> waves clamp too small) and
  // bounds that understate it (estimate overshoots -> waves ramp to the
  // cap) must both leave every result byte identical.
  const UncertainGraph g = RingWithChords(25, 5);
  const std::vector<NodeId> candidates = AllNodes(g);
  const std::size_t t = 600;
  const auto serial = RunBottomKSampling(g, candidates, t, 2, 6, 77);
  ASSERT_TRUE(serial.ok());
  const std::vector<double> overshoot(candidates.size(), 1e-9);
  const std::vector<double> undershoot(candidates.size(), 0.999);
  const std::vector<double> zeros(candidates.size(), 0.0);
  for (const std::size_t threads : SweptThreadCounts()) {
    ThreadPool pool(threads);
    for (const std::vector<double>* lower :
         {&overshoot, &undershoot, &zeros,
          static_cast<const std::vector<double>*>(nullptr)}) {
      const auto adaptive = RunBottomKSampling(
          g, candidates, t, 2, 6, 77, AdaptiveRun(&pool, lower));
      ASSERT_TRUE(adaptive.ok());
      ExpectBitIdentical(*serial, *adaptive,
                         ("threads=" + std::to_string(threads)).c_str());
    }
  }
}

TEST(BsrbkAdaptiveTest, MismatchedLowerBoundSizeIsRejected) {
  const UncertainGraph g = RingWithChords(10, 3);
  const std::vector<NodeId> candidates = AllNodes(g);
  ThreadPool pool(2);
  const std::vector<double> wrong(candidates.size() + 1, 0.1);
  const auto run = RunBottomKSampling(g, candidates, 100, 1, 4, 7,
                                      AdaptiveRun(&pool, &wrong));
  EXPECT_FALSE(run.ok());
}

TEST(BsrbkAdaptiveTest, ExhaustedBudgetWastesNothing) {
  // No early stop (bk unreachable): every world folds, so the schedule may
  // issue however many waves it likes but must waste zero worlds.
  UncertainGraphBuilder b(6);
  for (NodeId v = 0; v < 6; ++v) testing::CheckOk(b.SetSelfRisk(v, 0.02));
  const UncertainGraph g = b.Build().MoveValue();
  const std::vector<NodeId> candidates = AllNodes(g);
  const auto serial = RunBottomKSampling(g, candidates, 333, 1, 64, 9);
  ASSERT_TRUE(serial.ok());
  ASSERT_FALSE(serial->early_stopped);
  for (const std::size_t threads : SweptThreadCounts()) {
    ThreadPool pool(threads);
    const auto adaptive = RunBottomKSampling(g, candidates, 333, 1, 64, 9,
                                             AdaptiveRun(&pool));
    ASSERT_TRUE(adaptive.ok());
    ExpectBitIdentical(*serial, *adaptive,
                       ("threads=" + std::to_string(threads)).c_str());
    EXPECT_EQ(adaptive->worlds_wasted, 0u);
    EXPECT_EQ(adaptive->samples_processed, 333u);
  }
}

TEST(BsrbkAdaptiveTest, ShortStopWastesLessThanOneFullWave) {
  // The scheduler's reason to exist: a stop position far inside one
  // full-width wave. With 4 workers a full wave is 128 worlds, so equal
  // full waves would waste 128 minus the stop position; the floor-and-clamp
  // schedule wastes a handful. Deterministic given the seed, so a strict
  // inequality is safe to pin.
  const UncertainGraph g = RingWithChords(35, 19);
  const std::vector<NodeId> candidates = AllNodes(g);
  const std::size_t t = 4000;
  const auto serial = RunBottomKSampling(g, candidates, t, 1, 6, 13);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(serial->early_stopped);
  ASSERT_LT(serial->samples_processed, 64u)
      << "workload drifted; pick a seed with a short stop";
  ThreadPool pool(4);
  const auto adaptive_run =
      RunBottomKSampling(g, candidates, t, 1, 6, 13, AdaptiveRun(&pool));
  ASSERT_TRUE(adaptive_run.ok());
  ExpectBitIdentical(*serial, *adaptive_run, "adaptive");
  EXPECT_LT(adaptive_run->worlds_wasted, 128 - serial->samples_processed);
}

TEST(BsrbkAdaptiveTest, SeedSweepAcrossThreadCountsAndHints) {
  // Broad property sweep mirroring bsrbk_parallel_test's, with hints: many
  // (graph, seed) pairs, every thread count.
  for (const uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    const UncertainGraph g = RingWithChords(15 + seed % 7, seed * 13 + 1);
    const std::vector<NodeId> candidates = AllNodes(g);
    const std::size_t t = 200 + seed * 37;
    const auto serial = RunBottomKSampling(g, candidates, t, 2, 5, seed);
    ASSERT_TRUE(serial.ok());
    const std::vector<double> hint(candidates.size(), 0.01 * (seed % 5));
    for (const std::size_t threads : SweptThreadCounts()) {
      ThreadPool pool(threads);
      const auto adaptive = RunBottomKSampling(
          g, candidates, t, 2, 5, seed, AdaptiveRun(&pool, &hint));
      ASSERT_TRUE(adaptive.ok());
      ExpectBitIdentical(*serial, *adaptive,
                         ("seed=" + std::to_string(seed) +
                          " threads=" + std::to_string(threads))
                             .c_str());
    }
  }
}

}  // namespace
}  // namespace vulnds
