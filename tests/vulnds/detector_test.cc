#include "vulnds/detector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "exact/possible_world.h"
#include "gen/datasets.h"
#include "testing/test_graphs.h"
#include "vulnds/basic_sampler.h"
#include "vulnds/precision.h"
#include "vulnds/sample_size.h"

namespace vulnds {
namespace {

DetectorOptions BaseOptions(Method m, std::size_t k) {
  DetectorOptions o;
  o.method = m;
  o.k = k;
  o.naive_samples = 4000;
  o.seed = 42;
  return o;
}

TEST(DetectorTest, ValidatesParameters) {
  UncertainGraph g = testing::PaperExampleGraph(0.2);
  DetectorOptions o = BaseOptions(Method::kBsrbk, 2);
  o.k = 0;
  EXPECT_FALSE(DetectTopK(g, o).ok());
  o.k = 6;
  EXPECT_FALSE(DetectTopK(g, o).ok());
  o = BaseOptions(Method::kBsrbk, 2);
  o.eps = 0.0;
  EXPECT_FALSE(DetectTopK(g, o).ok());
  o = BaseOptions(Method::kBsrbk, 2);
  o.delta = 1.0;
  EXPECT_FALSE(DetectTopK(g, o).ok());
  o = BaseOptions(Method::kBsrbk, 2);
  o.bound_order = 0;
  EXPECT_FALSE(DetectTopK(g, o).ok());
  o = BaseOptions(Method::kBsrbk, 2);
  o.bk = 2;
  EXPECT_FALSE(DetectTopK(g, o).ok());
  // Equation 3 sizes past kMaxBasicSamples (32-bit world counts) are
  // rejected up front for every (eps, delta) method: eps=1e-5 needs ~8e10
  // worlds, eps=1e-9 ~8e18, and eps=1e-12 more than 2^64.
  for (const Method method : {Method::kSampleNaive, Method::kSampleReverse,
                              Method::kBsr, Method::kBsrbk}) {
    for (const double eps : {1e-5, 1e-9, 1e-12}) {
      o = BaseOptions(method, 2);
      o.eps = eps;
      const Status st = ValidateDetectorOptions(g, o);
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
          << MethodName(method) << " eps=" << eps;
      EXPECT_EQ(DetectTopK(g, o).status().code(), StatusCode::kInvalidArgument)
          << MethodName(method) << " eps=" << eps;
    }
  }
  // Method N never reads eps: its budget is samples=.
  o = BaseOptions(Method::kNaive, 2);
  o.eps = 1e-9;
  EXPECT_TRUE(ValidateDetectorOptions(g, o).ok());
}

TEST(DetectorTest, ValidatesNaiveSampleCount) {
  // Method N needs at least one world, and no more than its uint32_t
  // per-node counts can hold; other methods ignore the field.
  UncertainGraph g = testing::PaperExampleGraph(0.2);
  DetectorOptions o = BaseOptions(Method::kNaive, 2);
  o.naive_samples = 0;
  EXPECT_EQ(ValidateDetectorOptions(g, o).code(), StatusCode::kInvalidArgument);
  o.naive_samples = kMaxBasicSamples + 1;
  EXPECT_EQ(ValidateDetectorOptions(g, o).code(), StatusCode::kInvalidArgument);
  o.naive_samples = kMaxBasicSamples;
  EXPECT_TRUE(ValidateDetectorOptions(g, o).ok());
  o = BaseOptions(Method::kSampleNaive, 2);
  o.naive_samples = 0;
  EXPECT_TRUE(DetectTopK(g, o).ok());
}

TEST(DetectorTest, ValidationRejectsNonFiniteEpsDelta) {
  // `eps <= 0 || eps >= 1` is false for NaN; without an isfinite() check a
  // poisoned option would reach the sample-size math, where a NaN-to-size_t
  // cast is undefined behavior.
  UncertainGraph g = testing::PaperExampleGraph(0.2);
  const double bad[] = {std::nan(""), HUGE_VAL, -HUGE_VAL};
  for (const double v : bad) {
    DetectorOptions o = BaseOptions(Method::kBsrbk, 2);
    o.eps = v;
    EXPECT_EQ(DetectTopK(g, o).status().code(), StatusCode::kInvalidArgument);
    o = BaseOptions(Method::kBsrbk, 2);
    o.delta = v;
    EXPECT_EQ(DetectTopK(g, o).status().code(), StatusCode::kInvalidArgument);
    o = BaseOptions(Method::kSampleNaive, 2);
    o.eps = v;
    EXPECT_EQ(ValidateDetectorOptions(g, o).code(),
              StatusCode::kInvalidArgument);
  }
  // Finite but tiny eps (or delta) drives the sample-size math out of
  // range instead: the size is computed in double and rejected, never cast.
  for (const double tiny : {1e-5, 1e-9, std::numeric_limits<double>::min()}) {
    DetectorOptions o = BaseOptions(Method::kBsrbk, 2);
    o.eps = tiny;
    EXPECT_EQ(DetectTopK(g, o).status().code(), StatusCode::kInvalidArgument)
        << "eps=" << tiny;
    o = BaseOptions(Method::kSampleNaive, 2);
    o.eps = tiny;
    EXPECT_EQ(DetectTopK(g, o).status().code(), StatusCode::kInvalidArgument)
        << "eps=" << tiny;
  }
  // pairs / delta overflows to inf: an infinite size, rejected like the rest.
  DetectorOptions o = BaseOptions(Method::kSampleNaive, 2);
  o.delta = std::numeric_limits<double>::min();
  EXPECT_EQ(ValidateDetectorOptions(g, o).code(), StatusCode::kInvalidArgument);
}

TEST(DetectorTest, MethodNamesMatchPaper) {
  EXPECT_EQ(MethodName(Method::kNaive), "N");
  EXPECT_EQ(MethodName(Method::kSampleNaive), "SN");
  EXPECT_EQ(MethodName(Method::kSampleReverse), "SR");
  EXPECT_EQ(MethodName(Method::kBsr), "BSR");
  EXPECT_EQ(MethodName(Method::kBsrbk), "BSRBK");
  EXPECT_EQ(AllMethods().size(), 5u);
}

TEST(DetectorTest, ResultHasKEntriesAlignedWithScores) {
  UncertainGraph g = testing::RandomSmallGraph(20, 0.15, 5);
  for (const Method m : AllMethods()) {
    const auto r = DetectTopK(g, BaseOptions(m, 4));
    ASSERT_TRUE(r.ok()) << MethodName(m);
    EXPECT_EQ(r->topk.size(), 4u) << MethodName(m);
    EXPECT_EQ(r->scores.size(), 4u) << MethodName(m);
    // No duplicate nodes in the answer.
    std::vector<NodeId> sorted = r->topk;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end())
        << MethodName(m);
  }
}

TEST(DetectorTest, DeterministicAcrossRuns) {
  UncertainGraph g = testing::RandomSmallGraph(30, 0.1, 6);
  for (const Method m : AllMethods()) {
    const auto a = DetectTopK(g, BaseOptions(m, 5));
    const auto b = DetectTopK(g, BaseOptions(m, 5));
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->topk, b->topk) << MethodName(m);
    EXPECT_EQ(a->scores, b->scores) << MethodName(m);
  }
}

TEST(DetectorTest, PoolDoesNotChangeResults) {
  // Every method — including the wave-parallel BSRBK hot path — must return
  // bit-identical rankings, scores and sampling counters with and without a
  // pool.
  UncertainGraph g = testing::RandomSmallGraph(30, 0.1, 8);
  ThreadPool pool(8);
  for (const Method m : AllMethods()) {
    DetectorOptions serial = BaseOptions(m, 5);
    DetectorOptions parallel = BaseOptions(m, 5);
    parallel.pool = &pool;
    const auto a = DetectTopK(g, serial);
    const auto b = DetectTopK(g, parallel);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->topk, b->topk) << MethodName(m);
    EXPECT_EQ(a->scores, b->scores) << MethodName(m);
    EXPECT_EQ(a->samples_processed, b->samples_processed) << MethodName(m);
    EXPECT_EQ(a->early_stopped, b->early_stopped) << MethodName(m);
  }
}

TEST(DetectorTest, PaperExampleTopIsNodeE) {
  // In Figure 3's graph, E dominates every other node. With a large fixed
  // sample size (method N) the detector must find it exactly; the
  // size-optimized methods only promise the (eps, delta) contract, checked
  // in ApproximationContractSweep, because the B/C/D/E probabilities are
  // within eps of each other on this tiny example.
  UncertainGraph g = testing::PaperExampleGraph(0.2);
  DetectorOptions o = BaseOptions(Method::kNaive, 1);
  o.naive_samples = 20000;
  const auto r = DetectTopK(g, o);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->topk[0], 4u);
}

TEST(DetectorTest, PaperExampleAllMethodsWithinEps) {
  UncertainGraph g = testing::PaperExampleGraph(0.2);
  const auto exact = ExactDefaultProbabilities(g);
  ASSERT_TRUE(exact.ok());
  const double p_top = (*exact)[4];
  for (const Method m : AllMethods()) {
    const auto r = DetectTopK(g, BaseOptions(m, 1));
    ASSERT_TRUE(r.ok()) << MethodName(m);
    EXPECT_GE((*exact)[r->topk[0]], p_top - 0.3) << MethodName(m);
  }
}

TEST(DetectorTest, VerifiedCountBoundedByK) {
  UncertainGraph g = MakeDataset(DatasetId::kInterbank, 1.0, 4).MoveValue();
  const auto r = DetectTopK(g, BaseOptions(Method::kBsr, 10));
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->verified_count, 10u);
  EXPECT_LE(r->candidate_count, g.num_nodes());
}

TEST(DetectorTest, BudgetAccountingSane) {
  UncertainGraph g = MakeDataset(DatasetId::kInterbank, 1.0, 4).MoveValue();
  const auto naive = DetectTopK(g, BaseOptions(Method::kNaive, 5));
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(naive->samples_budget, 4000u);
  EXPECT_EQ(naive->samples_processed, 4000u);

  const auto bsrbk = DetectTopK(g, BaseOptions(Method::kBsrbk, 5));
  ASSERT_TRUE(bsrbk.ok());
  EXPECT_LE(bsrbk->samples_processed, bsrbk->samples_budget);
}

TEST(DetectorTest, KEqualsNReturnsEveryNode) {
  UncertainGraph g = testing::RandomSmallGraph(12, 0.2, 10);
  const auto r = DetectTopK(g, BaseOptions(Method::kBsr, 12));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->topk.size(), 12u);
}

// The (eps, delta) contract against the exact oracle: the result R holds
//   for v in R:     p(v) >= Pk - eps
//   for v not in R: p(v) <  Pk + eps
// except with probability at most delta. Returns whether `result` holds it.
bool MeetsContract(const std::vector<double>& exact, double pk, double eps,
                   const std::vector<NodeId>& result) {
  std::vector<char> in_result(exact.size(), 0);
  for (const NodeId v : result) in_result[v] = 1;
  for (NodeId v = 0; v < exact.size(); ++v) {
    if (in_result[v] ? !(exact[v] >= pk - eps - 1e-9)
                     : !(exact[v] < pk + eps + 1e-9)) {
      return false;
    }
  }
  return true;
}

// Fixed-seed spot checks at a loose eps: each seed is deterministic, and
// every one of them must meet the contract. ApproximationContractBound
// below checks the delta half of the contract statistically.
class ApproximationContractSweep
    : public ::testing::TestWithParam<std::tuple<Method, uint64_t>> {};

TEST_P(ApproximationContractSweep, EpsDeltaContractHolds) {
  const auto [method, seed] = GetParam();
  UncertainGraph g = testing::RandomSmallGraph(5, 0.4, seed);
  const auto exact = ExactDefaultProbabilities(g);
  ASSERT_TRUE(exact.ok());
  const std::size_t k = 2;
  const auto truth = ExactTopK(g, k);
  ASSERT_TRUE(truth.ok());

  DetectorOptions o = BaseOptions(method, k);
  o.eps = 0.3;
  o.delta = 0.1;
  o.seed = seed * 1000 + 7;
  const auto r = DetectTopK(g, o);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(MeetsContract(*exact, (*exact)[truth->back()], o.eps, r->topk));
}

INSTANTIATE_TEST_SUITE_P(
    MethodsBySeeds, ApproximationContractSweep,
    ::testing::Combine(::testing::ValuesIn(AllMethods()),
                       ::testing::Values<uint64_t>(1, 2, 3, 4, 5)),
    [](const ::testing::TestParamInfo<std::tuple<Method, uint64_t>>& info) {
      return MethodName(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// The smallest c with P(Binomial(n, p) > c) < tail.
std::size_t BinomialUpperBound(std::size_t n, double p, double tail) {
  double pmf = std::pow(1.0 - p, static_cast<double>(n));  // P(X = 0)
  double cdf = pmf;
  std::size_t c = 0;
  while (c < n && 1.0 - cdf >= tail) {
    pmf *= static_cast<double>(n - c) / static_cast<double>(c + 1) * p / (1.0 - p);
    cdf += pmf;
    ++c;
  }
  return c;
}

TEST(DetectorTest, BinomialUpperBoundMatchesHandComputedTails) {
  // Binomial(10, 1/2): P(X > 9) = 1/1024 < 1e-3 <= P(X > 8) = 11/1024.
  EXPECT_EQ(BinomialUpperBound(10, 0.5, 1e-3), 9u);
  // Binomial(4, 1/2): P(X > 2) = 5/16 < 0.5 <= P(X > 1) = 11/16.
  EXPECT_EQ(BinomialUpperBound(4, 0.5, 0.5), 2u);
}

// The delta half of the contract: over many random graphs a method may miss
// the contract on about a delta share of them, never much more. Counts the
// misses over kContractSeeds graphs and fails only when the count exceeds
// what Binomial(kContractSeeds, delta) reaches with probability 1e-6. N is
// covered because its fixed sample size meets Equation 3 here.
class ApproximationContractBound : public ::testing::TestWithParam<Method> {};

TEST_P(ApproximationContractBound, MissesWithinBinomialBound) {
  constexpr std::size_t kContractSeeds = 200;
  constexpr std::size_t kNodes = 5;
  constexpr std::size_t k = 2;
  DetectorOptions o = BaseOptions(GetParam(), k);
  o.eps = 0.1;
  o.delta = 0.1;
  ASSERT_GE(o.naive_samples, BasicSampleSize(o.eps, o.delta, k, kNodes));
  std::size_t misses = 0;
  for (uint64_t seed = 1; seed <= kContractSeeds; ++seed) {
    UncertainGraph g = testing::RandomSmallGraph(kNodes, 0.4, seed);
    const auto exact = ExactDefaultProbabilities(g);
    ASSERT_TRUE(exact.ok());
    const auto truth = ExactTopK(g, k);
    ASSERT_TRUE(truth.ok());
    o.seed = seed * 1000 + 7;
    const auto r = DetectTopK(g, o);
    ASSERT_TRUE(r.ok());
    if (!MeetsContract(*exact, (*exact)[truth->back()], o.eps, r->topk)) {
      ++misses;
    }
  }
  const std::size_t bound = BinomialUpperBound(kContractSeeds, o.delta, 1e-6);
  EXPECT_LE(misses, bound) << MethodName(GetParam()) << " missed on " << misses
                           << " of " << kContractSeeds << " graphs";
}

INSTANTIATE_TEST_SUITE_P(
    Methods, ApproximationContractBound, ::testing::ValuesIn(AllMethods()),
    [](const ::testing::TestParamInfo<Method>& info) {
      return MethodName(info.param);
    });

// Integration on a registry dataset: all methods should agree closely with
// a high-sample ground truth.
TEST(DetectorIntegrationTest, MethodsAgreeOnInterbank) {
  UncertainGraph g = MakeDataset(DatasetId::kInterbank, 1.0, 2).MoveValue();
  const std::size_t k = 6;  // ~5% of 125
  DetectorOptions reference = BaseOptions(Method::kNaive, k);
  reference.naive_samples = 20000;
  const auto ref = DetectTopK(g, reference);
  ASSERT_TRUE(ref.ok());
  for (const Method m :
       {Method::kSampleNaive, Method::kSampleReverse, Method::kBsr,
        Method::kBsrbk}) {
    const auto r = DetectTopK(g, BaseOptions(m, k));
    ASSERT_TRUE(r.ok()) << MethodName(m);
    const double precision = PrecisionAtK(r->topk, ref->topk);
    EXPECT_GE(precision, 0.5) << MethodName(m);
  }
}

}  // namespace
}  // namespace vulnds
