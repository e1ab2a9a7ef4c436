#include "vulnds/basic_sampler.h"

#include <algorithm>
#include <numeric>

#include "simd/coin_kernels.h"
#include "vulnds/reverse_sampler.h"

namespace vulnds {

namespace {

// Worlds per block: one per bit of a mask word, as CoinMask64 evaluates.
constexpr std::size_t kBlockWorlds = simd::kCoinMaskWorlds;

// The worlds of `mask` in which the coin (inner, threshold) hits, where
// `seeds[j]` is world j's coin seed: one scalar coin per world of the mask.
// The 0/1 thresholds short-circuit exactly as CoinHits would decide them.
inline uint64_t CoinMask(const uint64_t* seeds, uint64_t inner,
                         uint64_t threshold, uint64_t mask,
                         simd::CoinKernelStats* stats) {
  if (threshold == 0) return 0;
  if (threshold == simd::kCoinAlways) return mask;
  stats->tail_coins += static_cast<uint64_t>(__builtin_popcountll(mask));
  uint64_t hits = 0;
  while (mask != 0) {
    const int j = __builtin_ctzll(mask);
    mask &= mask - 1;
    hits |= static_cast<uint64_t>(simd::CoinHits(seeds[j], inner, threshold)) << j;
  }
  return hits;
}

// One worker's state: the D/P masks of the current block, the worklist of
// nodes with pending worlds and the coin telemetry. Reused across that
// worker's blocks. Nodes outside the scope are marked defaulted in every
// world once, so that no push ever opens a world at them.
class BlockSampler {
 public:
  BlockSampler(const UncertainGraph& graph, const std::vector<NodeId>& scope,
               const std::vector<NodeId>& counted, simd::SimdTier tier)
      : graph_(graph),
        scope_(scope),
        counted_(counted),
        tier_(tier),
        defaulted_(graph.num_nodes(), ~uint64_t{0}),
        pending_(graph.num_nodes(), 0) {
    queue_.reserve(scope.size());
  }

  // Samples worlds [first, first + worlds) of the run seeded `seed` (worlds
  // <= kBlockWorlds) and adds the default count of counted[i] into
  // counts[i].
  void SampleBlock(uint64_t seed, std::size_t first, std::size_t worlds,
                   uint32_t* counts) {
    const uint64_t all =
        worlds == kBlockWorlds ? ~uint64_t{0} : (uint64_t{1} << worlds) - 1;
    for (std::size_t j = 0; j < worlds; ++j) {
      const uint64_t world = WorldSeed(seed, first + j);
      node_seeds_[j] = NodeCoinSeed(world);
      edge_seeds_[j] = EdgeCoinSeed(world);
    }

    // Lines 4-8: every scope node's self-risk coin in every world of the
    // block, 64 worlds per kernel call. On a partial last block the seed
    // slots past `worlds` belong to no world of the block, so `& all` drops
    // their bits.
    queue_.clear();
    for (const NodeId v : scope_) {
      const uint64_t threshold = simd::CoinThreshold(graph_.self_risk(v));
      uint64_t hits = 0;
      if (threshold == simd::kCoinAlways) {
        hits = all;
      } else if (threshold != 0) {
        hits = simd::CoinMask64(tier_, node_seeds_, simd::CoinInnerHash(v),
                                threshold) &
               all;
        if (tier_ == simd::SimdTier::kAvx2) {
          coin_stats_.batched_coins += kBlockWorlds;
        } else {
          coin_stats_.tail_coins += kBlockWorlds;
        }
      }
      defaulted_[v] = hits;
      pending_[v] = hits;
      if (hits != 0) queue_.push_back(v);
    }

    // Lines 10-19: push each node's pending worlds along its out-arcs. A
    // node is queued exactly while its pending mask is non-zero; a world
    // becomes pending at a node only when the node first defaults in it, so
    // every (edge, world) coin is flipped at most once.
    for (std::size_t head = 0; head < queue_.size(); ++head) {
      const NodeId u = queue_[head];
      const uint64_t push = pending_[u];
      pending_[u] = 0;
      for (const Arc& arc : graph_.OutArcs(u)) {
        const uint64_t open = push & ~defaulted_[arc.neighbor];
        if (open == 0) continue;
        const uint64_t hits =
            CoinMask(edge_seeds_, simd::CoinInnerHash(arc.edge),
                     simd::CoinThreshold(arc.prob), open, &coin_stats_);
        if (hits == 0) continue;
        defaulted_[arc.neighbor] |= hits;
        if (pending_[arc.neighbor] == 0) queue_.push_back(arc.neighbor);
        pending_[arc.neighbor] |= hits;
      }
    }

    for (std::size_t i = 0; i < counted_.size(); ++i) {
      counts[i] += static_cast<uint32_t>(__builtin_popcountll(defaulted_[counted_[i]]));
    }
  }

  const simd::CoinKernelStats& coin_stats() const { return coin_stats_; }

 private:
  const UncertainGraph& graph_;
  const std::vector<NodeId>& scope_;
  const std::vector<NodeId>& counted_;
  const simd::SimdTier tier_;
  std::vector<uint64_t> defaulted_;  // D[v]
  std::vector<uint64_t> pending_;    // P[v]
  std::vector<NodeId> queue_;
  uint64_t node_seeds_[kBlockWorlds] = {};
  uint64_t edge_seeds_[kBlockWorlds] = {};
  simd::CoinKernelStats coin_stats_;
};

// Serial chunk: blocks [begin, end) of a t-world run, accumulated into
// counts. Returns the chunk's coin telemetry.
simd::CoinKernelStats RunBlocks(const UncertainGraph& graph,
                                const std::vector<NodeId>& scope,
                                const std::vector<NodeId>& counted,
                                uint64_t seed, std::size_t t, std::size_t begin,
                                std::size_t end, simd::SimdTier tier,
                                std::vector<uint32_t>* counts) {
  BlockSampler sampler(graph, scope, counted, tier);
  for (std::size_t b = begin; b < end; ++b) {
    const std::size_t first = b * kBlockWorlds;
    sampler.SampleBlock(seed, first, std::min(kBlockWorlds, t - first),
                        counts->data());
  }
  return sampler.coin_stats();
}

}  // namespace

BasicSampleStats RunBlockSampling(const UncertainGraph& graph,
                                  const std::vector<NodeId>& scope,
                                  const std::vector<NodeId>& counted,
                                  std::size_t t, uint64_t seed,
                                  ThreadPool* pool, simd::SimdTier tier) {
  const std::size_t n = counted.size();
  BasicSampleStats stats;
  stats.samples = t;
  stats.estimates.assign(n, 0.0);
  if (t == 0 || n == 0) return stats;

  const std::size_t blocks = (t + kBlockWorlds - 1) / kBlockWorlds;
  std::vector<uint32_t> counts(n, 0);

  if (pool == nullptr || pool->num_threads() <= 1 || blocks == 1) {
    stats.coin_stats =
        RunBlocks(graph, scope, counted, seed, t, 0, blocks, tier, &counts);
  } else {
    const std::size_t workers = std::min<std::size_t>(pool->num_threads(), blocks);
    std::vector<std::vector<uint32_t>> partial(workers,
                                               std::vector<uint32_t>(n, 0));
    std::vector<simd::CoinKernelStats> partial_coins(workers);
    const std::size_t chunk = (blocks + workers - 1) / workers;
    pool->ParallelFor(workers, [&](std::size_t w) {
      const std::size_t begin = w * chunk;
      const std::size_t end = std::min(blocks, begin + chunk);
      if (begin < end) {
        partial_coins[w] = RunBlocks(graph, scope, counted, seed, t, begin,
                                     end, tier, &partial[w]);
      }
    });
    for (std::size_t w = 0; w < workers; ++w) {
      for (std::size_t i = 0; i < n; ++i) counts[i] += partial[w][i];
      stats.coin_stats.Add(partial_coins[w]);
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    stats.nodes_touched += counts[i];
    stats.estimates[i] = static_cast<double>(counts[i]) / static_cast<double>(t);
  }
  return stats;
}

BasicSampleStats RunBasicSampling(const UncertainGraph& graph, std::size_t t,
                                  uint64_t seed, ThreadPool* pool,
                                  simd::SimdTier tier) {
  std::vector<NodeId> all(graph.num_nodes());
  std::iota(all.begin(), all.end(), NodeId{0});
  return RunBlockSampling(graph, all, all, t, seed, pool, tier);
}

}  // namespace vulnds
