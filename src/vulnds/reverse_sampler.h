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
//    it fully explored is recorded as non-defaulted — any later traversal
//    entering that region can stop immediately, since reverse-reachability
//    is transitive. This generalizes the paper's line-7 reuse of h-values.
//
// Two consumers, two evaluators. BSRBK folds worlds one at a time in hash
// order and stops after a few dozen positions, so it keeps the per-world
// ReverseSampler below. SR and BSR draw every world of their budget, so
// RunReverseSampling runs the block kernel of basic_sampler.h over the
// candidates' reverse closure instead — the same worlds, so the same
// estimates bit for bit as SampleWorld's flags summed over worlds 0..t-1.

#ifndef VULNDS_VULNDS_REVERSE_SAMPLER_H_
#define VULNDS_VULNDS_REVERSE_SAMPLER_H_

#include <cstdint>
#include <memory>
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
/// thread; reusable across samples.
///
/// Coins run through the batched kernel layer (simd/coin_kernels.h): the
/// whole in-arc run of a BFS node is tested per iteration against the
/// precomputed CoinColumns, survivors pushed in ascending arc order, so the
/// visitation order — and every result — is bit-identical to the scalar
/// WorldEdgeSurvives loop for every tier.
class ReverseSampler {
 public:
  /// Prepares a sampler for the given candidate set (node ids into `graph`).
  /// `columns` must be the graph's columns when supplied (worker samplers
  /// share the run's instance); passing nullptr uses the graph's cached
  /// CoinColumns::Shared. `tier` picks the kernel implementation —
  /// execution-only, results are identical.
  ReverseSampler(const UncertainGraph& graph, std::vector<NodeId> candidates,
                 const CoinColumns* columns = nullptr,
                 simd::SimdTier tier = simd::DefaultTier());

  /// The candidate set, in the order `defaulted` entries are reported.
  const std::vector<NodeId>& candidates() const { return candidates_; }

  /// Evaluates all candidates in the world identified by `world_seed`.
  /// Writes one flag per candidate into `defaulted` (resized to the
  /// candidate count) and returns the number of node expansions performed.
  std::size_t SampleWorld(uint64_t world_seed, std::vector<char>* defaulted);

  /// Kernel telemetry accumulated across every SampleWorld call so far.
  const simd::CoinKernelStats& coin_stats() const { return coin_stats_; }

 private:
  enum class Conclusion : char { kUnknown = 0, kDefaulted, kSafe };

  // Evaluates one candidate in the current sample; assumes stamps are set.
  bool EvaluateCandidate(NodeId v, std::size_t* touched);

  bool NodeSelfDefaults(NodeId v);
  Conclusion GetConclusion(NodeId v) const;
  void SetConclusion(NodeId v, Conclusion c);

  const UncertainGraph& graph_;
  std::vector<NodeId> candidates_;
  // Keeps the graph's shared columns alive when none were passed in.
  std::shared_ptr<const CoinColumns> owned_columns_;
  const CoinColumns* columns_;
  simd::SimdTier tier_;

  uint64_t edge_seed_ = 0;     // EdgeCoinSeed of the current world
  uint64_t node_seed_ = 0;     // NodeCoinSeed of the current world
  uint64_t sample_stamp_ = 0;  // bumped per SampleWorld
  uint64_t visit_stamp_ = 0;   // bumped per candidate BFS

  std::vector<uint64_t> conclusion_stamp_;
  std::vector<char> conclusion_;
  std::vector<uint64_t> visited_stamp_;
  std::vector<NodeId> queue_;
  std::vector<NodeId> explored_;
  std::vector<uint32_t> survivor_scratch_;
  simd::CoinKernelStats coin_stats_;
};

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
