// The block kernel: Algorithm 1's forward Monte-Carlo sampling,
// which every method but BSRBK runs (N, SN and `truth` over the whole graph,
// SR and BSR over the candidates' reverse closure; reverse_sampler.h).
//
// A sample is a possible world: every node flips its self-risk coin, and a
// forward propagation from the self-defaulted nodes flips each encountered
// edge's diffusion coin once. A node's default indicator is accumulated over
// samples; the estimate p̂(v) = defaults(v) / t is unbiased.
//
// The worlds are the hashed worlds of reverse_sampler.h: world i of a run is
// WorldSeed(seed, i), and each coin is a pure function of (world, node or
// edge id). All five methods therefore sample one world model, and for the
// same (seed, t) the estimates here equal ReverseSampler::SampleWorld's
// flags summed over worlds 0..t-1, bit for bit.
//
// Because coins do not depend on the order they are flipped in, many worlds
// run at once, one per bit of a 64-bit mask word, and a block holds up to two
// words: one visit of a node serves up to 128 worlds. For each block, every
// node v keeps two masks per word: D[v], the worlds where v defaulted, and
// P[v], the worlds where v defaulted but has not yet pushed to its
// out-neighbours. A worker stores them as one interleaved 32-byte record per
// node, {D[0], D[1], P[0], P[1]}, so a visit makes one random load rather
// than two. Seeding sets the self-risk bits; a worklist then pushes P[u]
// along each out-arc (u, w), flipping the edge's coin only in the worlds
// P[u] & ~D[w], so each (edge, world) coin is flipped at most once, as in a
// one-world BFS. The arc's coin constants are computed once per visit and
// shared by both words. Before a node is pushed, the worklist prefetches the
// records of the out-neighbours of the node 4 positions ahead and the arc
// run of the node 8 positions ahead.
//
// Seeding flips every scope node's coin in every world, so it runs on the
// tier-dispatched simd::CoinMask64 (one node, 64 world seeds per call, one
// call per word; four lanes at a time on AVX2, eight on AVX-512). A push
// opens few worlds, and its edge coins run on simd::CoinMaskOpen64, one call
// per (arc, word) that has open worlds: the scalar and AVX2 tiers flip one
// coin per open world, the AVX-512 tier one masked eight-lane hash per
// non-zero byte of the open mask. The tier changes cost, never a bit of the
// result.
//
// A run samples a node scope. Nodes outside it never seed and never receive
// a push, so a scope that holds the counted nodes and every node with a
// positive-probability path into one leaves their defaults exact.
//
// The run's ceil(t / 64) words are split statically across the pool's
// workers: worker w of W takes the contiguous words
// [words * w / W, words * (w + 1) / W) and packs them into blocks of up to two
// words. The per-worker counts are folded in worker order; they are integer
// sums, so results are identical for any thread count (including the serial
// path). How the words pair into blocks changes the push order, though, and
// with it how many edge coins a run flips: the coin telemetry
// (BasicSampleStats::coin_stats) varies with the thread count as well as with
// the tier.

#ifndef VULNDS_VULNDS_BASIC_SAMPLER_H_
#define VULNDS_VULNDS_BASIC_SAMPLER_H_

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "graph/uncertain_graph.h"
#include "simd/coin_kernels.h"

namespace vulnds {

/// The largest sample count RunBasicSampling accepts: per-node default
/// counts are uint32_t. Callers taking `t` from a request validate against
/// it (DetectTopK for method N, the `truth` verb).
inline constexpr std::size_t kMaxBasicSamples = UINT32_MAX;

/// Output of a block sampling run.
struct BasicSampleStats {
  std::vector<double> estimates;  ///< p̂(v) per counted node, in their order
  std::size_t samples = 0;        ///< number of worlds generated (t)
  /// Defaulted (counted node, world) pairs: the sum of the counts.
  std::size_t nodes_touched = 0;
  /// Coins flipped: seeding coins are batched on a vector tier and tail on
  /// the scalar one; edge coins are eight batched lanes per evaluated byte on
  /// AVX-512 and one tail coin per open world otherwise. Telemetry only;
  /// varies with the tier, and the edge-coin count with how the thread count
  /// packs words into blocks.
  simd::CoinKernelStats coin_stats;
};

/// Runs the block kernel for `t` <= kMaxBasicSamples worlds over the nodes
/// of `scope`, which must hold the nodes of `counted` and every node with a
/// positive-probability path into one, and estimates each node of `counted`.
/// If `pool` is non-null the 64-world words are distributed across its
/// workers (deterministically; see file comment). `tier` picks the seeding
/// and edge-coin kernels: execution-only, results are identical.
BasicSampleStats RunBlockSampling(const UncertainGraph& graph,
                                  const std::vector<NodeId>& scope,
                                  const std::vector<NodeId>& counted,
                                  std::size_t t, uint64_t seed,
                                  ThreadPool* pool,
                                  simd::SimdTier tier = simd::DefaultTier());

/// Runs Algorithm 1 with `t` <= kMaxBasicSamples samples: the block kernel
/// over every node, estimating every node.
BasicSampleStats RunBasicSampling(const UncertainGraph& graph, std::size_t t,
                                  uint64_t seed, ThreadPool* pool = nullptr,
                                  simd::SimdTier tier = simd::DefaultTier());

}  // namespace vulnds

#endif  // VULNDS_VULNDS_BASIC_SAMPLER_H_
