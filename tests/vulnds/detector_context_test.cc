// DetectionContext reuse must never change results: a warm context returns
// bit-identical output to a cold run for every method and parameter mix.

#include <gtest/gtest.h>

#include "testing/test_graphs.h"
#include "vulnds/detector.h"

namespace vulnds {
namespace {

void ExpectSameResult(const DetectionResult& a, const DetectionResult& b) {
  EXPECT_EQ(a.topk, b.topk);
  ASSERT_EQ(a.scores.size(), b.scores.size());
  for (std::size_t i = 0; i < a.scores.size(); ++i) {
    EXPECT_EQ(a.scores[i], b.scores[i]);  // bit-exact
  }
  EXPECT_EQ(a.samples_budget, b.samples_budget);
  EXPECT_EQ(a.samples_processed, b.samples_processed);
  EXPECT_EQ(a.verified_count, b.verified_count);
  EXPECT_EQ(a.candidate_count, b.candidate_count);
  EXPECT_EQ(a.early_stopped, b.early_stopped);
}

TEST(DetectionContextTest, WarmContextBitIdenticalAcrossMethods) {
  const UncertainGraph g = testing::RandomSmallGraph(30, 0.15, 5);
  DetectionContext ctx;
  for (const Method method : AllMethods()) {
    DetectorOptions o;
    o.method = method;
    o.k = 3;
    o.naive_samples = 500;
    Result<DetectionResult> cold = DetectTopK(g, o);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    // Run twice with the context: the second run hits every cached layer.
    Result<DetectionResult> warm1 = DetectTopK(g, o, &ctx);
    Result<DetectionResult> warm2 = DetectTopK(g, o, &ctx);
    ASSERT_TRUE(warm1.ok());
    ASSERT_TRUE(warm2.ok());
    ExpectSameResult(*cold, *warm1);
    ExpectSameResult(*cold, *warm2);
  }
}

TEST(DetectionContextTest, IntermediatesAreReused) {
  const UncertainGraph g = testing::RandomSmallGraph(25, 0.2, 11);
  DetectionContext ctx;
  DetectorOptions o;
  o.method = Method::kBsrbk;
  o.k = 2;
  ASSERT_TRUE(DetectTopK(g, o, &ctx).ok());
  const std::size_t misses_after_first = ctx.reuse_misses;
  EXPECT_GT(misses_after_first, 0u);
  EXPECT_EQ(ctx.reuse_hits, 0u);
  ASSERT_TRUE(DetectTopK(g, o, &ctx).ok());
  // The repeat computes nothing new.
  EXPECT_EQ(ctx.reuse_misses, misses_after_first);
  EXPECT_GT(ctx.reuse_hits, 0u);
}

TEST(DetectionContextTest, BoundsSharedAcrossKAndMethod) {
  const UncertainGraph g = testing::RandomSmallGraph(25, 0.2, 17);
  DetectionContext ctx;
  DetectorOptions o;
  o.method = Method::kBsr;
  o.k = 2;
  ASSERT_TRUE(DetectTopK(g, o, &ctx).ok());
  EXPECT_EQ(ctx.lower_bounds.size(), 1u);
  // Different k and method, same bound order: bounds map must not grow.
  o.method = Method::kSampleReverse;
  o.k = 4;
  ASSERT_TRUE(DetectTopK(g, o, &ctx).ok());
  EXPECT_EQ(ctx.lower_bounds.size(), 1u);
  EXPECT_EQ(ctx.upper_bounds.size(), 1u);
  // A different bound order computes a second entry.
  o.bound_order = 3;
  ASSERT_TRUE(DetectTopK(g, o, &ctx).ok());
  EXPECT_EQ(ctx.lower_bounds.size(), 2u);
}

TEST(DetectionContextTest, SampleOrderKeyedBySeed) {
  const UncertainGraph g = testing::RandomSmallGraph(25, 0.2, 23);
  DetectionContext ctx;
  DetectorOptions o;
  o.method = Method::kBsrbk;
  o.k = 2;
  ASSERT_TRUE(DetectTopK(g, o, &ctx).ok());
  const std::size_t orders_after_first = ctx.sample_orders.size();
  o.seed = o.seed + 1;
  Result<DetectionResult> different_seed = DetectTopK(g, o, &ctx);
  ASSERT_TRUE(different_seed.ok());
  // A new seed must not reuse the old processing order.
  EXPECT_GE(ctx.sample_orders.size(), orders_after_first);
}

TEST(DetectionContextTest, ApproxBytesTracksWarmIntermediates) {
  // The serving layer reports context bytes alongside catalog bytes; the
  // estimate must start small, grow monotonically as intermediates warm,
  // and not grow when a repeat query reuses everything.
  const UncertainGraph g = testing::RandomSmallGraph(30, 0.15, 5);
  DetectionContext ctx;
  const std::size_t empty = ctx.ApproxBytes();
  EXPECT_GT(empty, 0u);  // the struct itself is charged
  DetectorOptions o;
  o.method = Method::kBsrbk;
  o.k = 3;
  ASSERT_TRUE(DetectTopK(g, o, &ctx).ok());
  const std::size_t warm = ctx.ApproxBytes();
  EXPECT_GT(warm, empty) << "bounds/reduction/order caches must be charged";
  ASSERT_TRUE(DetectTopK(g, o, &ctx).ok());
  EXPECT_EQ(ctx.ApproxBytes(), warm) << "a fully warm repeat adds nothing";
  o.bound_order = 3;  // new intermediates under a fresh key
  ASSERT_TRUE(DetectTopK(g, o, &ctx).ok());
  EXPECT_GT(ctx.ApproxBytes(), warm);
}

TEST(DetectionContextTest, PrecomputedSampleOrderSizeMismatchRejected) {
  const UncertainGraph g = testing::RandomSmallGraph(10, 0.3, 3);
  const BottomKSampleOrder wrong = MakeBottomKSampleOrder(42, 10);
  const std::vector<NodeId> candidates = {0, 1, 2};
  BottomKRunOptions wrong_order;
  wrong_order.precomputed = &wrong;
  EXPECT_EQ(RunBottomKSampling(g, candidates, 20, 1, 4, 42, wrong_order)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(DetectionContextTest, PrecomputedSampleOrderBitIdentical) {
  const UncertainGraph g = testing::RandomSmallGraph(20, 0.25, 9);
  const std::vector<NodeId> candidates = {0, 3, 7, 11, 15};
  const std::size_t t = 400;
  const uint64_t seed = 1234;
  const BottomKSampleOrder order = MakeBottomKSampleOrder(seed, t);
  BottomKRunOptions with_order;
  with_order.precomputed = &order;
  Result<BottomKRunStats> with = RunBottomKSampling(g, candidates, t, 2, 4, seed, with_order);
  Result<BottomKRunStats> without = RunBottomKSampling(g, candidates, t, 2, 4, seed);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(with->samples_processed, without->samples_processed);
  EXPECT_EQ(with->early_stopped, without->early_stopped);
  ASSERT_EQ(with->estimates.size(), without->estimates.size());
  for (std::size_t i = 0; i < with->estimates.size(); ++i) {
    EXPECT_EQ(with->estimates[i], without->estimates[i]);
  }
}

}  // namespace
}  // namespace vulnds
