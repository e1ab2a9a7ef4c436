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
// run at once, one per bit of a 64-bit mask word, and a block holds up to
// four words: one visit of a node serves up to 256 worlds. For each block,
// every node v keeps D[v], the worlds where v defaulted, as one record of up
// to four words (32 bytes; the array starts on a cache line, so a visit
// makes one random load). Beside it, in a separate array, P[v] is a coarse
// pending mask: one bit per group of 8 worlds (one byte of a D word) where v
// defaulted in a world it has not yet pushed. Seeding sets the self-risk
// bits of D and the groups they fall in; a worklist then visits each node
// with a non-zero P[u], pushing D[u] restricted to its pending groups along
// each out-arc (u, w) and flipping the edge's coins only in the worlds that
// push opens at w, those where w has not defaulted yet. A hit sets D[w] and
// w's groups in P[w], and queues w when P[w] goes from 0 to non-zero.
//
// The coarse pending mask is exact. A visit may push a world again whose
// group became pending through another world, and flip an arc's coin in it
// again, but coins are pure functions of (edge, world): the second flip
// repeats the first, and a world already defaulted at the head is not open.
// Every world where a node defaults is pushed at least once after it does,
// so D reaches the one-world BFS's closure in every world, bit for bit. On
// P2P's N the re-pushes cost ~10% more open coins than exact per-world
// pending masks at 128-world blocks flipped, and keep the record half the
// size of an exact 256-world one. Before a node is pushed, the worklist
// prefetches the records of the out-neighbours of the node 4 positions
// ahead and the arc run of the node 8 positions ahead.
//
// Seeding flips every scope node's coin in every world, so it runs on the
// tier-dispatched simd::CoinMask64 (one node, 64 world seeds per call, one
// call per word; four lanes at a time on AVX2, eight on AVX-512). A push
// opens few worlds, and its edge coins run on simd::CoinMaskOpenWords, one
// call per arc over all the block's words: the scalar and AVX2 tiers flip
// one coin per open world, the AVX-512 tier packs the open worlds of every
// word into full eight-lane blocks. The tier changes cost, never a bit of
// the result.
//
// A run samples a node scope. Nodes outside it never seed and never receive
// a push, so a scope that holds the counted nodes and every node with a
// positive-probability path into one leaves their defaults exact.
//
// The run's ceil(t / 64) words are split statically across the pool's
// workers: worker w of W takes the contiguous words
// [words * w / W, words * (w + 1) / W). A worker runs blocks of the widest
// width (4, 2 or 1 words) its span fills at least once, the last block
// taking the rest: the record follows the span, so a short one (SN's few
// hundred worlds over four workers) does not carry empty words. The
// per-worker counts are folded in worker order; they are integer sums, so
// results are identical for any thread count (including the serial path).
// How the words group into blocks changes the push order, though, and with
// it how many edge coins a run flips: the telemetry (coin_stats,
// node_visits, open_coins, edge_lanes) varies with the thread count, and
// edge_lanes and coin_stats with the tier as well.

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
  /// the scalar one; edge coins are eight batched lanes per packed block on
  /// AVX-512 and one tail coin per open world otherwise. Telemetry only;
  /// varies with the tier, and the edge-coin count with how the thread count
  /// groups words into blocks.
  simd::CoinKernelStats coin_stats;
  /// Block-kernel telemetry, summed over blocks. All three vary with the
  /// thread count; of them, only edge_lanes varies with the tier.
  /// Worklist visits: one per node per time its pending mask turns non-zero.
  std::uint64_t node_visits = 0;
  /// (edge, world) coins the pushes handed to the edge-coin kernel: the open
  /// worlds of arcs whose probability is neither 0 nor 1.
  std::uint64_t open_coins = 0;
  /// Edge coin slots the kernel evaluated: open_coins on the scalar and
  /// AVX2 tiers, whole eight-lane blocks (so at least as many) on AVX-512.
  std::uint64_t edge_lanes = 0;
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
