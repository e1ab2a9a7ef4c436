// Deterministic parallel bounds: LowerBounds/UpperBounds on a pool must be
// bit-identical to the serial loop for every thread count, order, and graph
// shape — including the early-fixpoint exit and the change-propagation
// sparsity it depends on. Bounds(), which sweeps both recurrences together,
// must equal each recurrence iterated alone.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "testing/test_graphs.h"
#include "vulnds/bounds.h"
#include "vulnds/detector.h"

namespace vulnds {
namespace {

// Bitwise equality of double vectors: EXPECT_EQ on doubles compares values
// (so -0.0 == 0.0 and NaN != NaN); determinism is a claim about bytes.
void ExpectBitIdentical(const std::vector<double>& a,
                        const std::vector<double>& b, const char* what,
                        std::size_t threads) {
  ASSERT_EQ(a.size(), b.size()) << what << " threads=" << threads;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::memcmp(&a[i], &b[i], sizeof(double)), 0)
        << what << " diverges at node " << i << " with " << threads
        << " threads: serial=" << a[i] << " parallel=" << b[i];
  }
}

std::vector<std::size_t> ThreadCounts() {
  std::vector<std::size_t> counts = {1, 2, 7};
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  if (std::find(counts.begin(), counts.end(), hw) == counts.end()) {
    counts.push_back(hw);
  }
  return counts;
}

TEST(BoundsParallelTest, BitIdenticalAcrossThreadCounts) {
  for (const uint64_t seed : {3u, 11u, 29u}) {
    const UncertainGraph g = testing::RandomSmallGraph(120, 0.05, seed);
    for (const int order : {1, 2, 3, 5, 9}) {
      const auto serial_lo = LowerBounds(g, order);
      const auto serial_hi = UpperBounds(g, order);
      ASSERT_TRUE(serial_lo.ok() && serial_hi.ok());
      for (const std::size_t threads : ThreadCounts()) {
        ThreadPool pool(threads);
        const auto lo = LowerBounds(g, order, &pool);
        const auto hi = UpperBounds(g, order, &pool);
        ASSERT_TRUE(lo.ok() && hi.ok());
        ExpectBitIdentical(*serial_lo, *lo, "lower", threads);
        ExpectBitIdentical(*serial_hi, *hi, "upper", threads);
      }
    }
  }
}

TEST(BoundsParallelTest, EarlyFixpointExitsOnSameIteration) {
  // A chain converges quickly: high orders hit the fixpoint exit, which
  // must fire identically (and leave identical values) in parallel. The
  // chain also exercises the sparse "in-neighbor unchanged" path.
  const UncertainGraph g = testing::ChainGraph(0.3, 0.6);
  for (const int order : {2, 4, 16, 64}) {
    const auto serial = LowerBounds(g, order);
    ASSERT_TRUE(serial.ok());
    for (const std::size_t threads : ThreadCounts()) {
      ThreadPool pool(threads);
      const auto parallel = LowerBounds(g, order, &pool);
      ASSERT_TRUE(parallel.ok());
      ExpectBitIdentical(*serial, *parallel, "lower-fixpoint", threads);
    }
  }
}

TEST(BoundsParallelTest, DetectWithPoolMatchesSerialDetect) {
  // The full path: DetectorOptions.pool flows into GetBounds, and the
  // ranked result must not move by a single ulp.
  const UncertainGraph g = testing::RandomSmallGraph(60, 0.08, 7);
  DetectorOptions options;
  options.method = Method::kBsrbk;
  options.k = 5;
  options.bound_order = 3;
  const auto serial = DetectTopK(g, options);
  ASSERT_TRUE(serial.ok());
  for (const std::size_t threads : ThreadCounts()) {
    ThreadPool pool(threads);
    DetectorOptions parallel_options = options;
    parallel_options.pool = &pool;
    const auto parallel = DetectTopK(g, parallel_options);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(serial->topk, parallel->topk) << threads << " threads";
    ExpectBitIdentical(serial->scores, parallel->scores, "scores", threads);
    EXPECT_EQ(serial->samples_processed, parallel->samples_processed);
    EXPECT_EQ(serial->verified_count, parallel->verified_count);
  }
}

TEST(BoundsParallelTest, EmptyAndTinyGraphs) {
  // n < threads exercises ParallelFor's short-chunk partition.
  ThreadPool pool(7);
  const UncertainGraph tiny = testing::ChainGraph(0.2, 0.4);
  const auto serial = UpperBounds(tiny, 4);
  const auto parallel = UpperBounds(tiny, 4, &pool);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  ExpectBitIdentical(*serial, *parallel, "tiny-upper", 7);
}

// One bound iterated alone and serially, as Algorithms 2 and 3 read: Jacobi
// sweeps from the order-1 values, a node re-evaluated only when an
// in-neighbor changed by more than 1e-12 in the previous iteration, and an
// exit at the first iteration that changes nothing.
struct ReferenceBound {
  std::vector<double> values;
  int fixpoint = 0;  // the iteration that changed nothing; 0 if none ran
};

ReferenceBound IterateAlone(const UncertainGraph& g, int order,
                            std::vector<double> probs) {
  const std::size_t n = g.num_nodes();
  std::vector<char> changed(n, 1);
  for (int i = 2; i <= order; ++i) {
    std::vector<double> next(probs);
    std::vector<char> next_changed(n, 0);
    bool any = false;
    for (NodeId v = 0; v < n; ++v) {
      bool in_changed = false;
      for (const Arc& arc : g.InArcs(v)) {
        in_changed = in_changed || changed[arc.neighbor] != 0;
      }
      if (!in_changed) continue;
      double survive = 1.0;
      for (const Arc& arc : g.InArcs(v)) {
        survive *= 1.0 - arc.prob * probs[arc.neighbor];
      }
      next[v] = 1.0 - (1.0 - g.self_risk(v)) * survive;
      next_changed[v] = std::fabs(next[v] - probs[v]) > 1e-12 ? 1 : 0;
      any = any || next_changed[v];
    }
    probs.swap(next);
    changed.swap(next_changed);
    if (!any) return {probs, i};
  }
  return {probs, 0};
}

ReferenceBound ReferenceLower(const UncertainGraph& g, int order) {
  return IterateAlone(g, order,
                      std::vector<double>(g.self_risks().begin(),
                                          g.self_risks().end()));
}

ReferenceBound ReferenceUpper(const UncertainGraph& g, int order) {
  std::vector<double> probs(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    double survive = 1.0;
    for (const Arc& arc : g.InArcs(v)) survive *= 1.0 - arc.prob;
    probs[v] = 1.0 - (1.0 - g.self_risk(v)) * survive;
  }
  return IterateAlone(g, order, std::move(probs));
}

// `chains` chains of six nodes with no self-risk: the lower bound stays 0
// and reaches its fixpoint at iteration 2, while the upper bound's order-1
// overestimate drains one hop per iteration and settles at iteration 7.
UncertainGraph TwoSpeedChains(std::size_t chains) {
  constexpr std::size_t kLength = 6;
  UncertainGraphBuilder b(chains * kLength);
  for (std::size_t c = 0; c < chains; ++c) {
    for (std::size_t i = 1; i < kLength; ++i) {
      const auto v = static_cast<NodeId>(c * kLength + i);
      testing::CheckOk(b.AddEdge(v - 1, v, 0.5));
    }
  }
  return b.Build().MoveValue();
}

TEST(BoundsParallelTest, FusedSweepEqualsEachBoundAlone) {
  // Small graphs sweep on the calling thread, large ones on the pool; the
  // two-speed chains check that each bound keeps its own early exit.
  const UncertainGraph graphs[] = {
      testing::RandomSmallGraph(60, 0.08, 5),
      testing::RandomSmallGraph(400, 0.05, 6),  // above the serial cutoff
      TwoSpeedChains(3),
      TwoSpeedChains(1500),  // above the serial cutoff
  };
  for (const UncertainGraph& g : {graphs[2], graphs[3]}) {
    EXPECT_EQ(ReferenceLower(g, 9).fixpoint, 2);
    EXPECT_EQ(ReferenceUpper(g, 9).fixpoint, 7);
  }
  for (std::size_t gi = 0; gi < std::size(graphs); ++gi) {
    const UncertainGraph& g = graphs[gi];
    for (int order = 1; order <= 9; ++order) {
      const ReferenceBound lower = ReferenceLower(g, order);
      const ReferenceBound upper = ReferenceUpper(g, order);
      for (const std::size_t threads : ThreadCounts()) {
        const std::string what = "graph " + std::to_string(gi) + " order " +
                                 std::to_string(order);
        ThreadPool pool(threads);
        const auto both = Bounds(g, order, &pool);
        const auto lo = LowerBounds(g, order, &pool);
        const auto hi = UpperBounds(g, order, &pool);
        ASSERT_TRUE(both.ok() && lo.ok() && hi.ok());
        ExpectBitIdentical(lower.values, both->lower,
                           (what + " fused lower").c_str(), threads);
        ExpectBitIdentical(upper.values, both->upper,
                           (what + " fused upper").c_str(), threads);
        ExpectBitIdentical(lower.values, *lo, (what + " lower").c_str(),
                           threads);
        ExpectBitIdentical(upper.values, *hi, (what + " upper").c_str(),
                           threads);
      }
    }
  }
}

TEST(BoundsParallelTest, FusedSweepRejectsOrderZero) {
  const UncertainGraph g = testing::ChainGraph(0.3, 0.6);
  EXPECT_FALSE(Bounds(g, 0).ok());
}

}  // namespace
}  // namespace vulnds
