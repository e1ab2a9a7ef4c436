// Algorithm 5: reverse sampling over the transposed graph.
//
// Instead of materializing a whole world forward, each candidate runs a
// reverse BFS asking "can a self-defaulted node reach me through surviving
// edges?". Coin flips for nodes (self-risk) and edges (diffusion) are
// memoized per sample, so every candidate observes the same world and the
// per-sample work is proportional to the explored region, not the graph.
//
// Worlds are *pure functions* of (seed, sample index, entity id): an
// entity's coin is the hash of its id under the world seed. The world a
// sampler observes therefore does not depend on traversal order, which lets
// tests verify that reverse evaluation equals forward evaluation of the
// identical world (tests/vulnds/reverse_sampler_test.cc). This is the one
// world model of the library: all five methods sample these worlds.
//
// Two forms of per-sample caching are applied, both conclusions that follow
// deterministically from the coins (they change cost, never results):
//  * a node whose self-risk coin came up "default" is recorded as defaulted
//    (the paper's line 13);
//  * when a candidate's BFS exhausts without finding a default, every node
//    it queued is recorded as non-defaulted — any later traversal
//    entering that region can stop immediately, since reverse-reachability
//    is transitive. This generalizes the paper's line-7 reuse of h-values.
//
// Two consumers, two evaluators. BSRBK folds worlds one at a time in hash
// order and stops after a few dozen positions, so it keeps the per-world
// ReverseSampler below, one per pool thread, rebound to each query in O(1).
// SR and BSR draw every world of their budget, so RunReverseSampling runs
// the block kernel of basic_sampler.h over the candidates' reverse closure
// instead — the same worlds, so the same estimates bit for bit as
// SampleWorld's flags summed over worlds 0..t-1.

#ifndef VULNDS_VULNDS_REVERSE_SAMPLER_H_
#define VULNDS_VULNDS_REVERSE_SAMPLER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "graph/uncertain_graph.h"
#include "simd/coin_kernels.h"
#include "vulnds/basic_sampler.h"
#include "vulnds/coin_columns.h"

namespace vulnds {

/// Seed identifying the world of sample `sample_index` under run seed `seed`.
uint64_t WorldSeed(uint64_t seed, uint64_t sample_index);

/// The seed of a world's node (self-risk) coins: v self-defaults iff
/// simd::CoinHits(NodeCoinSeed(w), CoinInnerHash(v), CoinThreshold(ps(v))).
uint64_t NodeCoinSeed(uint64_t world_seed);

/// The seed of a world's edge (diffusion) coins, keyed by EdgeId likewise.
uint64_t EdgeCoinSeed(uint64_t world_seed);

/// True iff node v self-defaults in the world (pure in its arguments).
bool WorldNodeSelfDefaults(uint64_t world_seed, NodeId v, double self_risk);

/// True iff edge e survives in the world (pure in its arguments).
bool WorldEdgeSurvives(uint64_t world_seed, EdgeId e, double prob);

/// Evaluates candidate default indicators world-by-world. One instance per
/// thread; Bind() points it at a query in O(1), so a pool thread keeps one
/// sampler for its whole life and reuses it across queries and graphs.
///
/// Per-node state is two stamp arrays of kStateBytesPerNode bytes per node
/// in all: a conclusion in the low 2 bits under a 30-bit sample stamp, and a
/// 32-bit visit stamp. The stamps keep counting across SampleWorld calls,
/// queries and graphs, so no array is re-zeroed until its stamp wraps; the
/// arrays are reallocated only for a graph larger than any seen so far.
///
/// The goal test runs when a node is first reached, not when it leaves the
/// BFS queue: the search ends at the first defaulted node in queue order,
/// before expanding the nodes queued ahead of it. Queue order is the BFS
/// order of a dequeue-time test, so every flag and every touch count is the
/// same as there (tests/vulnds/reverse_sampler_test.cc keeps that search as
/// an oracle). Edge coins run through the batched kernel layer
/// (simd/coin_kernels.h) against the precomputed CoinColumns kArcChunk arcs
/// at a time, survivors reached in ascending arc order, so a search that
/// stops inside a hub's in-arc run flips at most one chunk past its stop
/// and every result is bit-identical to the scalar WorldEdgeSurvives loop
/// for every tier.
class ReverseSampler {
 public:
  using Stamp = uint32_t;
  /// In-arc coins flipped per kernel call: four AVX2 blocks, the widest
  /// step of CoinSurvivorsPadded. On Facebook's worlds (21 in-arcs per node
  /// on average) 32 ran about 30% slower. 8 ran about 15% faster, but it
  /// saves the scalar tier more than the vector tiers: avx2 then led scalar
  /// by only 1.29x on bench_parallel_detect's BSRBK cells (1.70x at 16),
  /// below that bench's 1.5x gate.
  static constexpr std::size_t kArcChunk = 16;
  // Every chunk but a run's last must start on a lane boundary, where the
  // kernel may read whole blocks; the last reads the run's padding.
  static_assert(kArcChunk % simd::kCoinLanes == 0,
                "CoinSurvivorsPadded reads whole kCoinLanes blocks");
  /// Bytes of per-node state a sampler holds for each node of the largest
  /// graph it has been bound to.
  static constexpr std::size_t kStateBytesPerNode = 2 * sizeof(Stamp);
  /// Sample stamps live above the 2 conclusion bits, so they wrap here.
  static constexpr Stamp kSampleStampLimit = Stamp{1} << 30;

  ReverseSampler() = default;
  ~ReverseSampler();
  ReverseSampler(const ReverseSampler&) = delete;
  ReverseSampler& operator=(const ReverseSampler&) = delete;

  /// Points the sampler at `candidates` (node ids into `graph`) and resets
  /// coin_stats(). Keeps only pointers — graph, candidates and columns must
  /// outlive every SampleWorld call until the next Bind. `columns` must be
  /// the graph's columns or nullptr, which evaluates coins directly off the
  /// arcs (bit-identical). `tier` picks the kernel implementation —
  /// execution-only, results are identical. O(1) unless `graph` is larger
  /// than every graph bound before; returns true iff it allocated per-node
  /// state.
  bool Bind(const UncertainGraph& graph, std::span<const NodeId> candidates,
            const CoinColumns* columns = nullptr,
            simd::SimdTier tier = simd::DefaultTier());

  /// Evaluates all candidates in the world identified by `world_seed`.
  /// Writes one flag per candidate into `defaulted` (resized to the
  /// candidate count) and returns the number of node expansions performed.
  std::size_t SampleWorld(uint64_t world_seed, std::vector<char>* defaulted);

  /// Kernel telemetry accumulated across the SampleWorld calls since Bind.
  const simd::CoinKernelStats& coin_stats() const { return coin_stats_; }

  /// Starts the stamps at the given values (sample < kSampleStampLimit), so
  /// tests can drive both arrays across their wrap.
  void SetStampsForTesting(Stamp sample_stamp, Stamp visit_stamp);

 private:
  enum class Conclusion : Stamp { kUnknown = 0, kDefaulted, kSafe };

  // Evaluates one candidate in the current sample; assumes stamps are set.
  bool EvaluateCandidate(NodeId v, std::size_t* touched);
  // Marks u visited, queues it and tests it: true iff u is defaulted.
  bool Reach(NodeId u);
  // Reaches u's unvisited in-neighbors along surviving arcs, in arc order;
  // true at the first defaulted one.
  bool Expand(NodeId u);

  bool NodeSelfDefaults(NodeId v);
  Conclusion GetConclusion(NodeId v) const {
    const Stamp s = state_[v];
    return (s >> 2) == sample_stamp_ ? static_cast<Conclusion>(s & 3)
                                     : Conclusion::kUnknown;
  }
  void SetConclusion(NodeId v, Conclusion c) {
    state_[v] = (sample_stamp_ << 2) | static_cast<Stamp>(c);
  }

  const UncertainGraph* graph_ = nullptr;
  std::span<const NodeId> candidates_;
  const CoinColumns* columns_ = nullptr;
  simd::SimdTier tier_ = simd::SimdTier::kScalar;

  uint64_t edge_seed_ = 0;  // EdgeCoinSeed of the current world
  uint64_t node_seed_ = 0;  // NodeCoinSeed of the current world
  Stamp sample_stamp_ = 0;  // bumped per SampleWorld
  Stamp visit_stamp_ = 0;   // bumped per candidate BFS

  std::vector<Stamp> state_;    // sample_stamp << 2 | Conclusion, per node
  std::vector<Stamp> visited_;  // visit stamp, per node
  std::vector<NodeId> queue_;
  std::array<uint32_t, kArcChunk> survivor_scratch_;
  simd::CoinKernelStats coin_stats_;
};

/// Bytes of per-node state held by live ReverseSamplers in this process:
/// between queries, the samplers the pool threads keep.
std::size_t SamplerScratchBytes();

/// Estimates each candidate's default probability from worlds 0..t-1 of
/// `seed` (estimates in candidate order). Runs the block kernel
/// (RunBlockSampling) over the candidates' reverse closure: every node with
/// a positive-probability path into a candidate, found once per run by a
/// coin-free reverse BFS and handed to the kernel in node-id order, so that
/// seeding walks the per-node state sequentially (the kernel's fixpoint does
/// not depend on the scope's order). Parallel over 64-world words when `pool`
/// is provided; results are identical for any thread count and `tier`.
BasicSampleStats RunReverseSampling(const UncertainGraph& graph,
                                    const std::vector<NodeId>& candidates,
                                    std::size_t t, uint64_t seed,
                                    ThreadPool* pool = nullptr,
                                    simd::SimdTier tier = simd::DefaultTier());

}  // namespace vulnds

#endif  // VULNDS_VULNDS_REVERSE_SAMPLER_H_
