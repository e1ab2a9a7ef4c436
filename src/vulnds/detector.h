// TopKDetector: the unified facade over the five methods the paper
// evaluates (§4.1): N, SN, SR, BSR and BSRBK.
//
//   N      Algorithm 1 with a fixed sample size.
//   SN     Algorithm 1 with the (eps, delta) sample size of Equation 3.
//   SR     reverse sampling (Algorithm 5) over the candidate set obtained
//          from rule 2 of Lemma 1 only; sample size from Equation 3.
//   BSR    bounds + full candidate reduction (verify k', prune to B) +
//          reverse sampling with the reduced size of Equation 4.
//   BSRBK  BSR with the bottom-k early-stopping condition (Theorem 6).
//
// All five sample the same hashed possible worlds (reverse_sampler.h): world
// i of a query is WorldSeed(seed, i) whichever method draws it, so the
// methods differ in which worlds they draw and which nodes they evaluate,
// never in what a world looks like. N, SN, SR and BSR run the block kernel
// (basic_sampler.h), SR and BSR over the candidates' reverse closure;
// BSRBK evaluates one world at a time with ReverseSampler.

#ifndef VULNDS_VULNDS_DETECTOR_H_
#define VULNDS_VULNDS_DETECTOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "graph/uncertain_graph.h"
#include "obs/query_trace.h"
#include "simd/dispatch.h"
#include "vulnds/bsrbk.h"
#include "vulnds/candidate_reduction.h"

namespace vulnds {

/// The five evaluated methods.
enum class Method {
  kNaive = 0,       ///< N
  kSampleNaive,     ///< SN
  kSampleReverse,   ///< SR
  kBsr,             ///< BSR
  kBsrbk,           ///< BSRBK
};

/// All methods in the paper's legend order.
const std::vector<Method>& AllMethods();

/// Printable method name ("N", "SN", "SR", "BSR", "BSRBK").
std::string MethodName(Method method);

/// Detector configuration; the defaults are the paper's experiment settings
/// (eps = 0.3, delta = 0.1, bound order 2, bk = 16).
struct DetectorOptions {
  Method method = Method::kBsrbk;
  std::size_t k = 1;                 ///< how many vulnerable nodes to return
  double eps = 0.3;                  ///< (eps, delta)-approximation epsilon
  double delta = 0.1;                ///< (eps, delta)-approximation delta
  std::size_t naive_samples = 10000; ///< fixed sample size of method N
  int bound_order = 2;               ///< z of Algorithms 2 and 3
  int bk = 16;                       ///< bottom-k parameter of BSRBK
  uint64_t seed = 42;                ///< RNG seed (worlds and hashes)
  /// Optional sampling parallelism. Results are bit-identical for every
  /// pool width, so the pool is never part of a query's identity
  /// (CanonicalizeOptions clears it).
  ThreadPool* pool = nullptr;
  /// Kernel tier request (serve protocol / CLI
  /// `simd=auto|avx512|avx2|scalar`).
  /// Execution-only like `pool`: every tier computes
  /// bit-identical results (simd/coin_kernels.h contract), kAuto defers to
  /// the process default (VULNDS_SIMD env, else CPUID), and an unavailable
  /// tier degrades to scalar. CanonicalizeOptions clears it out of the
  /// result-cache key.
  simd::SimdMode simd_mode = simd::SimdMode::kAuto;
  /// Optional observability span: when set, DetectTopK records one stage
  /// per pipeline phase (bounds, reduce, sampling) and the bottom-k runner
  /// publishes its wave detail onto it. Execution-only like `pool`: never
  /// part of a query's identity (CanonicalizeOptions clears it).
  obs::QueryTrace* trace = nullptr;
};

/// Outcome of a detection run.
struct DetectionResult {
  /// The k selected nodes, strongest first (verified nodes precede sampled
  /// ones; within each group ordered by decreasing score).
  std::vector<NodeId> topk;
  /// Score aligned with `topk`: sampled estimate for sampled nodes, the
  /// lower bound for nodes verified without sampling.
  std::vector<double> scores;

  std::size_t samples_budget = 0;     ///< t given by the method's formula
  std::size_t samples_processed = 0;  ///< worlds actually materialized
  std::size_t verified_count = 0;     ///< k' (BSR/BSRBK only)
  std::size_t candidate_count = 0;    ///< |B| (SR/BSR/BSRBK only)
  /// Sampling work: defaulted (node, world) pairs over the estimated nodes
  /// for N/SN/SR/BSR (every node, or the candidates), reverse-BFS expansions
  /// for BSRBK.
  std::size_t nodes_touched = 0;
  bool early_stopped = false;         ///< BSRBK stop condition fired

  /// Wave-schedule telemetry of the BSRBK sampling stage (0 for the other
  /// methods and for serial runs). Unlike every field above, these vary
  /// with pool width — they measure the schedule, not the
  /// answer — so they are never part of response payloads compared across
  /// thread counts.
  std::size_t worlds_wasted = 0;  ///< worlds materialized past the stop
  std::size_t waves_issued = 0;   ///< parallel waves dispatched

  /// Coin-kernel telemetry of the sampling stage, every method: coin slots
  /// evaluated in full vector lanes vs one at a time. Varies with the simd
  /// tier (for N, SN, SR and BSR also with the thread count, which decides
  /// how the block kernel packs worlds into blocks; for BSRBK through wasted
  /// worlds, with the schedule) exactly like the wave telemetry above — cost
  /// measurements, never part of response payloads.
  std::uint64_t simd_batched_coins = 0;
  std::uint64_t simd_tail_coins = 0;
  /// Block-kernel telemetry of N, SN, SR and BSR (0 for BSRBK):
  /// BasicSampleStats' node_visits, open_coins and edge_lanes. Cost
  /// measurements like the coin counts above; edge_lanes / open_coins is
  /// the share of the edge-coin kernel's lanes that carry an open world.
  std::uint64_t node_visits = 0;
  std::uint64_t open_coins = 0;
  std::uint64_t edge_lanes = 0;
};

/// Reusable per-graph derived state for repeated detections on the SAME
/// graph (the serving layer keeps one per catalog entry). Caches the
/// deterministic intermediates that dominate query setup:
///   * order-z lower/upper bounds (keyed by bound order),
///   * Algorithm 4 candidate reductions (keyed by bound order and k),
///   * bottom-k sample processing orders (keyed by seed and budget t).
/// Every cached value is a pure function of (graph, key), so results with a
/// warm context are bit-identical to a cold run. Not thread-safe; guard
/// externally when sharing across requests.
struct DetectionContext {
  std::map<int, std::vector<double>> lower_bounds;
  std::map<int, std::vector<double>> upper_bounds;
  std::map<std::pair<int, std::size_t>, CandidateReduction> reductions;
  std::map<std::pair<uint64_t, std::size_t>, BottomKSampleOrder> sample_orders;

  std::size_t reuse_hits = 0;    ///< cached intermediates served
  std::size_t reuse_misses = 0;  ///< intermediates computed and stored

  /// Copies the intermediates that do NOT depend on the graph from `other`
  /// into this context: bottom-k sample orders are pure in (seed, budget),
  /// so they stay bit-identical across graph mutations. Bounds and
  /// candidate reductions are functions of the graph and are deliberately
  /// left cold. Used by the dynamic-update write path when a new graph
  /// version inherits state from its predecessor. Returns the number of
  /// entries copied (existing keys are kept, not overwritten).
  std::size_t AdoptGraphIndependent(const DetectionContext& other);

  /// Approximate resident bytes of the cached intermediates (vector
  /// payloads plus per-entry map overhead). The serving layer charges this
  /// against hot-graph residency reporting: a catalog entry's byte estimate
  /// covers the immutable graph only, while the context grows with query
  /// traffic — this is the growing half. Deterministic in the cached keys,
  /// so tests can pin its behavior.
  std::size_t ApproxBytes() const;
};

/// The hard cap on the `threads=N` pool width the CLI accepts (one-shot
/// `detect` and the `serve` engine pool): a sanity bound so a mistyped
/// argument cannot make the process spawn an unbounded number of OS threads.
inline constexpr std::size_t kMaxDetectThreads = 64;

/// Validates `options` against `graph` without running anything: k in
/// [1, n], eps/delta finite and in (0, 1) — NaN is rejected, not merely not
/// accepted — naive_samples in [1, kMaxBasicSamples] for method N,
/// Equation 3's sample size <= kMaxBasicSamples for every other method,
/// bound_order >= 1, bk >= 3.
/// DetectTopK performs the same check; callers that cache results by
/// options should validate before consulting their cache so invalid
/// requests fail identically warm or cold.
Status ValidateDetectorOptions(const UncertainGraph& graph,
                               const DetectorOptions& options);

/// Runs the configured method on `graph`. Fails on invalid k / parameters.
Result<DetectionResult> DetectTopK(const UncertainGraph& graph,
                                   const DetectorOptions& options);

/// Same, reusing (and filling) `context` for the deterministic per-graph
/// intermediates. `context` must only ever be used with this graph. Passing
/// nullptr behaves like the two-argument overload.
Result<DetectionResult> DetectTopK(const UncertainGraph& graph,
                                   const DetectorOptions& options,
                                   DetectionContext* context);

}  // namespace vulnds

#endif  // VULNDS_VULNDS_DETECTOR_H_
