#include "vulnds/detector.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "vulnds/basic_sampler.h"
#include "vulnds/bounds.h"
#include "vulnds/bsrbk.h"
#include "vulnds/candidate_reduction.h"
#include "vulnds/reverse_sampler.h"
#include "vulnds/sample_size.h"
#include "vulnds/topk.h"

namespace vulnds {

const std::vector<Method>& AllMethods() {
  static const std::vector<Method> kMethods = {
      Method::kNaive, Method::kSampleNaive, Method::kSampleReverse, Method::kBsr,
      Method::kBsrbk};
  return kMethods;
}

std::string MethodName(Method method) {
  switch (method) {
    case Method::kNaive:
      return "N";
    case Method::kSampleNaive:
      return "SN";
    case Method::kSampleReverse:
      return "SR";
    case Method::kBsr:
      return "BSR";
    case Method::kBsrbk:
      return "BSRBK";
  }
  return "?";
}

Status ValidateDetectorOptions(const UncertainGraph& graph,
                               const DetectorOptions& o) {
  VULNDS_RETURN_NOT_OK(ValidateTopK(o.k, graph.num_nodes()));
  // The open-interval checks are phrased positively because every
  // comparison against NaN is false: `eps <= 0 || eps >= 1` would wave a
  // NaN through into the sample-size math, where casting it to size_t is
  // undefined behavior.
  if (!std::isfinite(o.eps) || !(o.eps > 0.0 && o.eps < 1.0)) {
    return Status::InvalidArgument("eps must be finite and in (0, 1)");
  }
  if (!std::isfinite(o.delta) || !(o.delta > 0.0 && o.delta < 1.0)) {
    return Status::InvalidArgument("delta must be finite and in (0, 1)");
  }
  if (o.method == Method::kNaive &&
      (o.naive_samples == 0 || o.naive_samples > kMaxBasicSamples)) {
    return Status::InvalidArgument("samples must be in [1, " +
                                   std::to_string(kMaxBasicSamples) + "]");
  }
  // The samplers count worlds in 32 bits. Equation 3's size bounds every
  // (eps, delta) method's budget, Equation 4's included: (k - k')(|B| - k +
  // k') <= k (n - k).
  if (o.method != Method::kNaive &&
      BasicSampleSize(o.eps, o.delta, o.k, graph.num_nodes()) >
          kMaxBasicSamples) {
    return Status::InvalidArgument(
        "eps and delta need more than " + std::to_string(kMaxBasicSamples) +
        " samples (Equation 3)");
  }
  if (o.bound_order < 1) {
    return Status::InvalidArgument("bound_order must be >= 1");
  }
  if (o.bk < 3) {
    return Status::InvalidArgument("bk must be >= 3");
  }
  return Status::OK();
}

std::size_t DetectionContext::AdoptGraphIndependent(
    const DetectionContext& other) {
  std::size_t copied = 0;
  for (const auto& [key, order] : other.sample_orders) {
    copied += sample_orders.emplace(key, order).second ? 1 : 0;
  }
  return copied;
}

std::size_t DetectionContext::ApproxBytes() const {
  // Red-black tree nodes cost roughly three pointers + color + key/value
  // on top of each payload; an exact figure is allocator-specific and not
  // worth chasing for a residency report.
  constexpr std::size_t kMapNodeOverhead = 4 * sizeof(void*);
  std::size_t bytes = sizeof(DetectionContext);
  for (const auto& [order, values] : lower_bounds) {
    bytes += kMapNodeOverhead + values.capacity() * sizeof(double);
  }
  for (const auto& [order, values] : upper_bounds) {
    bytes += kMapNodeOverhead + values.capacity() * sizeof(double);
  }
  for (const auto& [key, reduction] : reductions) {
    bytes += kMapNodeOverhead + sizeof(CandidateReduction) +
             reduction.verified.capacity() * sizeof(NodeId) +
             reduction.candidates.capacity() * sizeof(NodeId);
  }
  for (const auto& [key, order] : sample_orders) {
    bytes += kMapNodeOverhead + sizeof(BottomKSampleOrder) +
             order.order.capacity() * sizeof(uint32_t) +
             order.hash_of.capacity() * sizeof(double);
  }
  return bytes;
}

namespace {

// Copies a block-kernel run's sample counts and telemetry.
void RecordBlockRun(const BasicSampleStats& stats, DetectionResult* result) {
  result->samples_processed = stats.samples;
  result->nodes_touched = stats.nodes_touched;
  result->simd_batched_coins = stats.coin_stats.batched_coins;
  result->simd_tail_coins = stats.coin_stats.tail_coins;
  result->node_visits = stats.node_visits;
  result->open_coins = stats.open_coins;
  result->edge_lanes = stats.edge_lanes;
}

// N / SN: full-graph forward sampling, then a global top-k.
DetectionResult DetectByBasicSampling(const UncertainGraph& graph,
                                      const DetectorOptions& o, std::size_t t,
                                      simd::SimdTier tier) {
  DetectionResult result;
  result.samples_budget = t;
  if (o.trace != nullptr) o.trace->BeginStage("sampling");
  const BasicSampleStats stats =
      RunBasicSampling(graph, t, o.seed, o.pool, tier);
  if (o.trace != nullptr) o.trace->EndStage();
  RecordBlockRun(stats, &result);
  result.topk = TopKByScore(stats.estimates, o.k);
  result.scores.reserve(result.topk.size());
  for (const NodeId v : result.topk) result.scores.push_back(stats.estimates[v]);
  return result;
}

// Appends (node, score) pairs ordered by decreasing score, id tiebreak.
void AppendRanked(const std::vector<NodeId>& nodes, const std::vector<double>& score,
                  std::size_t limit, DetectionResult* result) {
  std::vector<std::size_t> idx(nodes.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    if (score[a] != score[b]) return score[a] > score[b];
    return nodes[a] < nodes[b];
  });
  for (std::size_t i = 0; i < idx.size() && i < limit; ++i) {
    result->topk.push_back(nodes[idx[i]]);
    result->scores.push_back(score[idx[i]]);
  }
}

// Returns the order-z bounds, from `ctx` when warm. The returned pointers
// stay valid while `storage` / the context are alive (map nodes are stable).
Status GetBounds(const UncertainGraph& graph, const DetectorOptions& o,
                 DetectionContext* ctx,
                 std::pair<std::vector<double>, std::vector<double>>* storage,
                 const std::vector<double>** lower,
                 const std::vector<double>** upper) {
  if (ctx != nullptr) {
    const auto lo = ctx->lower_bounds.find(o.bound_order);
    const auto hi = ctx->upper_bounds.find(o.bound_order);
    if (lo != ctx->lower_bounds.end() && hi != ctx->upper_bounds.end()) {
      ++ctx->reuse_hits;
      *lower = &lo->second;
      *upper = &hi->second;
      return Status::OK();
    }
  }
  Result<DefaultBounds> bounds = Bounds(graph, o.bound_order, o.pool);
  if (!bounds.ok()) return bounds.status();
  if (ctx != nullptr) {
    ++ctx->reuse_misses;
    *lower = &(ctx->lower_bounds[o.bound_order] = std::move(bounds->lower));
    *upper = &(ctx->upper_bounds[o.bound_order] = std::move(bounds->upper));
  } else {
    storage->first = std::move(bounds->lower);
    storage->second = std::move(bounds->upper);
    *lower = &storage->first;
    *upper = &storage->second;
  }
  return Status::OK();
}

}  // namespace

Result<DetectionResult> DetectTopK(const UncertainGraph& graph,
                                   const DetectorOptions& o) {
  return DetectTopK(graph, o, nullptr);
}

Result<DetectionResult> DetectTopK(const UncertainGraph& graph,
                                   const DetectorOptions& o,
                                   DetectionContext* ctx) {
  VULNDS_RETURN_NOT_OK(ValidateDetectorOptions(graph, o));
  const std::size_t n = graph.num_nodes();
  // The kernel tier is resolved once per query from the request knob (kAuto
  // = process default) and drives every method's coin kernels.
  const simd::SimdTier simd_tier = simd::ResolveTier(o.simd_mode);

  switch (o.method) {
    case Method::kNaive:
      return DetectByBasicSampling(graph, o, o.naive_samples, simd_tier);
    case Method::kSampleNaive:
      return DetectByBasicSampling(
          graph, o, BasicSampleSize(o.eps, o.delta, o.k, n), simd_tier);
    default:
      break;
  }

  // SR / BSR / BSRBK all start from the order-z bounds.
  std::pair<std::vector<double>, std::vector<double>> bound_storage;
  const std::vector<double>* lower = nullptr;
  const std::vector<double>* upper = nullptr;
  if (o.trace != nullptr) o.trace->BeginStage("bounds");
  VULNDS_RETURN_NOT_OK(GetBounds(graph, o, ctx, &bound_storage, &lower, &upper));
  if (o.trace != nullptr) o.trace->EndStage();

  DetectionResult result;

  if (o.method == Method::kSampleReverse) {
    // Rule 2 of Lemma 1 only: prune nodes with pu(v) < Tl; no verification,
    // sample size still Equation 3.
    if (o.trace != nullptr) o.trace->BeginStage("reduce");
    const double tl = KthLargest(*lower, o.k);
    std::vector<NodeId> candidates;
    for (NodeId v = 0; v < n; ++v) {
      if ((*upper)[v] >= tl) candidates.push_back(v);
    }
    if (o.trace != nullptr) o.trace->EndStage();
    result.candidate_count = candidates.size();
    const std::size_t t = BasicSampleSize(o.eps, o.delta, o.k, n);
    result.samples_budget = t;
    if (o.trace != nullptr) o.trace->BeginStage("sampling");
    const BasicSampleStats stats =
        RunReverseSampling(graph, candidates, t, o.seed, o.pool, simd_tier);
    if (o.trace != nullptr) o.trace->EndStage();
    RecordBlockRun(stats, &result);
    AppendRanked(candidates, stats.estimates, o.k, &result);
    return result;
  }

  // BSR / BSRBK: full Algorithm 4 reduction, cached per (order, k).
  if (o.trace != nullptr) o.trace->BeginStage("reduce");
  const CandidateReduction* reduced = nullptr;
  CandidateReduction reduction_storage;
  const std::pair<int, std::size_t> reduction_key{o.bound_order, o.k};
  if (ctx != nullptr && ctx->reductions.count(reduction_key) != 0) {
    ++ctx->reuse_hits;
    reduced = &ctx->reductions.at(reduction_key);
  } else {
    Result<CandidateReduction> r = ReduceCandidates(*lower, *upper, o.k);
    if (!r.ok()) return r.status();
    if (ctx != nullptr) {
      ++ctx->reuse_misses;
      reduced = &(ctx->reductions[reduction_key] = r.MoveValue());
    } else {
      reduction_storage = r.MoveValue();
      reduced = &reduction_storage;
    }
  }
  if (o.trace != nullptr) o.trace->EndStage();
  result.verified_count = reduced->num_verified();
  result.candidate_count = reduced->candidates.size();

  // Verified nodes enter the result immediately, scored by their lower
  // bound (they were never sampled).
  for (const NodeId v : reduced->verified) {
    result.topk.push_back(v);
    result.scores.push_back((*lower)[v]);
  }
  const std::size_t needed = o.k - reduced->num_verified();
  if (needed == 0) return result;

  if (reduced->candidates.size() <= needed) {
    // Every candidate is selected; no ordering problem remains.
    AppendRanked(reduced->candidates,
                 std::vector<double>(reduced->candidates.size(), 0.0), needed,
                 &result);
    // Score them by their lower bound for reporting.
    for (std::size_t i = result.topk.size() - reduced->candidates.size();
         i < result.topk.size(); ++i) {
      result.scores[i] = (*lower)[result.topk[i]];
    }
    return result;
  }

  const std::size_t t = ReducedSampleSize(o.eps, o.delta, o.k,
                                          reduced->num_verified(),
                                          reduced->candidates.size());
  result.samples_budget = t;

  if (o.method == Method::kBsr) {
    if (o.trace != nullptr) o.trace->BeginStage("sampling");
    const BasicSampleStats stats = RunReverseSampling(
        graph, reduced->candidates, t, o.seed, o.pool, simd_tier);
    if (o.trace != nullptr) o.trace->EndStage();
    RecordBlockRun(stats, &result);
    AppendRanked(reduced->candidates, stats.estimates, needed, &result);
    return result;
  }

  // BSRBK; the hash-sorted sample order is pure in (seed, t) and cached.
  // The order build (hash + sort over t ids) is charged to the sampling
  // stage: on a cold query it is real per-sample work.
  // Coin columns are NOT resolved here: the bottom-k runner pulls the
  // graph's cached CoinColumns::Shared and hands them to every worker. They
  // deliberately do not live in the warm DetectionContext: a served context
  // is charged as ChargeClass::kContext and shed first under pressure, so
  // graph-sized columns there would be dropped and rebuilt on every squeeze.
  // The graph's derived cache holds the one immutable copy, which
  // EstimateGraphBytes charges once, with the snapshot.
  if (o.trace != nullptr) o.trace->BeginStage("sampling");
  const BottomKSampleOrder* order = nullptr;
  if (ctx != nullptr) {
    const std::pair<uint64_t, std::size_t> order_key{o.seed, t};
    const auto it = ctx->sample_orders.find(order_key);
    if (it != ctx->sample_orders.end()) {
      ++ctx->reuse_hits;
      order = &it->second;
    } else {
      ++ctx->reuse_misses;
      order = &(ctx->sample_orders[order_key] =
                    MakeBottomKSampleOrder(o.seed, t, simd_tier));
    }
  }
  BottomKRunOptions exec;
  exec.precomputed = order;
  exec.pool = o.pool;
  exec.trace = o.trace;
  exec.simd_tier = simd_tier;
  // The wave scheduler's analytic floor: each candidate defaults at least
  // as often as its lower bound says, so the bound sharpens the
  // stop-distance estimate before any counts accumulate. Aligned with the
  // candidate set; execution-only (the bounds already shaped the candidate
  // set above — here they only steer wave sizing).
  std::vector<double> candidate_lower;
  candidate_lower.reserve(reduced->candidates.size());
  for (const NodeId v : reduced->candidates) {
    candidate_lower.push_back((*lower)[v]);
  }
  exec.candidate_lower_bounds = &candidate_lower;
  Result<BottomKRunStats> run = RunBottomKSampling(
      graph, reduced->candidates, t, needed, o.bk, o.seed, exec);
  if (o.trace != nullptr) o.trace->EndStage();
  if (!run.ok()) return run.status();
  result.samples_processed = run->samples_processed;
  result.nodes_touched = run->nodes_touched;
  result.early_stopped = run->early_stopped;
  result.worlds_wasted = run->worlds_wasted;
  result.waves_issued = run->waves_issued;
  result.simd_batched_coins = run->coin_stats.batched_coins;
  result.simd_tail_coins = run->coin_stats.tail_coins;
  AppendRanked(reduced->candidates, run->estimates, needed, &result);
  // Sketch scores can exceed 1; clamp for reporting (ranking is done).
  for (double& score : result.scores) score = std::min(score, 1.0);
  return result;
}

}  // namespace vulnds
