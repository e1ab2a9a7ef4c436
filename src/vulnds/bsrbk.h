// Bottom-k early-stopped reverse sampling (paper §3.3, Theorem 6).
//
// Every sample id in [0, t) is hashed into (0, 1); samples are materialized
// in ascending hash order. Each candidate counts the samples in which it
// defaulted; the hash value of its bk-th such sample is L(A, bk) of the
// bottom-k sketch over "samples where v defaults", giving the estimate
//   p̂(v) = (bk - 1) / (L(A, bk) * t).
// Because samples arrive in ascending hash order, the first candidate to
// reach bk has the smallest L and hence the largest estimate (Theorem 6);
// processing stops once `needed` candidates have reached bk. If the stream
// is exhausted first, the run degrades to plain reverse sampling and the
// prefix estimates count / processed are used (the prefix in hash order is
// a uniformly random subset of worlds, so these remain unbiased).
//
// Parallel execution (deterministic): each sampled world is a pure function
// of WorldSeed(seed, sample_id), so with a ThreadPool the run materializes
// the `defaulted` bitmaps of a wave of consecutive hash-order positions in
// parallel, then folds the wave's counts serially in ascending hash order.
// Each pool thread samples with the one ReverseSampler it keeps for its
// lifetime, rebound to the query in O(1), so a warm pool builds no O(n)
// sampler state per query. Within a wave the workers claim worlds one at a
// time from a shared cursor, so a slow world holds up one worker, not a
// whole slice.
// The fold — and therefore the early-stop position, every counter, kth_hash,
// samples_processed, nodes_touched and every estimate — is bit-identical to
// the serial loop for any thread count and however the waves fall; only
// wasted work (worlds materialized past the stop position inside the final
// wave) varies, and is reported as telemetry.
//
// Wave scheduling. Equal-size waves would throw away all but one world of
// the final wave, fully materialized, past every early stop. The schedule
// instead bounds, before each wave, how many more hash-order positions must
// fold before the stop fires, from both sides:
//  * the stop floor, exact: a fold raises each count by at most one, so no
//    stop comes before the (needed - reached)-th smallest bk - count over
//    the unreached candidates has folded. No wave is shorter, so the first
//    wave is bk worlds;
//  * the estimate: each unreached candidate's default rate is bounded
//    below by its prefix frequency (count so far / positions folded) and,
//    when the caller supplies them, by its analytic lower bound (bounds.cc;
//    the true rate can only exceed a lower bound, so the per-candidate
//    projection (bk - count) / rate only OVERestimates the distance and
//    clamping to it never cuts a wave short of the stop systematically).
// Between the two, the wave ramps geometrically — from one world per
// worker, doubling while the estimate is uncertain, up to
// workers × kWaveWorldsPerWorker once the stop is provably far — and the
// final wave is clamped to the estimate. Underestimates cost one extra
// ParallelFor round; they can never change a result.

#ifndef VULNDS_VULNDS_BSRBK_H_
#define VULNDS_VULNDS_BSRBK_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "graph/uncertain_graph.h"
#include "obs/query_trace.h"
#include "simd/coin_kernels.h"

namespace vulnds {

struct CoinColumns;

/// The hash-sorted processing order of the sample ids [0, t): order[i] is the
/// id of the i-th smallest hash, hash_of[id] its hash value. Pure in
/// (seed, t), so a serving layer can compute it once per (seed, t) pair and
/// reuse it across queries (DetectionContext does exactly that).
struct BottomKSampleOrder {
  std::vector<uint32_t> order;
  std::vector<double> hash_of;
};

/// Hashes and sorts the sample ids [0, t) for run seed `seed`. The bulk
/// Hash64 work runs on the batched kernel of `tier`; the exact HashUnit
/// double conversion stays scalar, so the result is bit-identical for every
/// tier (and cacheable across requests that force different tiers).
BottomKSampleOrder MakeBottomKSampleOrder(
    uint64_t seed, std::size_t t,
    simd::SimdTier tier = simd::DefaultTier());

/// Execution inputs of a bottom-k run, none of which may change a result:
/// they shape wall-clock time and wasted work only.
struct BottomKRunOptions {
  /// MakeBottomKSampleOrder(seed, t) when the caller already has it; must
  /// have been built for exactly that (seed, t) pair.
  const BottomKSampleOrder* precomputed = nullptr;
  /// Wave-parallel world materialization (nullptr = serial loop).
  ThreadPool* pool = nullptr;
  /// Optional per-candidate lower bounds on default probability, aligned
  /// with `candidates`. Sharpens the stop-distance estimate that sizes the
  /// waves before any counts accumulate.
  const std::vector<double>* candidate_lower_bounds = nullptr;
  /// Observability span for the query carrying this run: on completion the
  /// runner publishes its wave-level detail (waves_issued, worlds_wasted,
  /// early-stop position) onto the trace. Execution-only — the trace never
  /// influences the run.
  obs::QueryTrace* trace = nullptr;
  /// The graph's columns when the caller already holds them; nullptr uses
  /// the graph's cached CoinColumns::Shared. Must match `graph` exactly.
  const CoinColumns* coin_columns = nullptr;
  /// Kernel tier for coin batches and count folds. Execution-only like the
  /// pool: every tier computes bit-identical results by the kernel
  /// contract (property-tested in tests/simd/).
  simd::SimdTier simd_tier = simd::DefaultTier();
};

/// Result of a bottom-k sampling run.
struct BottomKRunStats {
  /// Score per candidate (candidate order): the raw sketch estimate
  /// (bk-1)/(L * t) for candidates that reached bk — which may exceed 1 and
  /// must not be clamped before ranking, or Theorem 6's order collapses
  /// into ties — and the prefix frequency for the rest.
  std::vector<double> estimates;
  /// Flag per candidate: did its counter reach bk?
  std::vector<char> reached_bk;
  std::size_t samples_processed = 0;  ///< worlds folded into the counters
  std::size_t total_samples = 0;      ///< the budget t
  std::size_t nodes_touched = 0;      ///< BFS expansions of folded worlds
  bool early_stopped = false;  ///< true iff `needed` candidates reached bk

  // Schedule telemetry — the only fields that legitimately vary with pool
  // width and simd tier (everything above is bit-identical across them).
  std::size_t worlds_wasted = 0;  ///< materialized but never folded
  std::size_t waves_issued = 0;   ///< ParallelFor rounds (0 for serial)
  /// Coin-kernel telemetry over every materialized world (wasted included).
  simd::CoinKernelStats coin_stats;
  /// Samplers that allocated per-node state in this run: created, or grown
  /// to a graph larger than any they had sampled. 1 for the serial loop; 0
  /// for a parallel run whose pool threads already hold samplers that fit.
  std::size_t samplers_built = 0;
};

/// Runs bottom-k early-stopped reverse sampling over `candidates` with a
/// budget of `t` worlds, stopping once `needed` candidates reach `bk`
/// defaults. Requires bk >= 3 (sketch estimator) and needed >= 1. `run`
/// carries the execution knobs (precomputed order, pool, lower bounds);
/// results are bit-identical across every combination of them, including
/// serial.
Result<BottomKRunStats> RunBottomKSampling(const UncertainGraph& graph,
                                           const std::vector<NodeId>& candidates,
                                           std::size_t t, std::size_t needed,
                                           int bk, uint64_t seed,
                                           const BottomKRunOptions& run = {});

}  // namespace vulnds

#endif  // VULNDS_VULNDS_BSRBK_H_
