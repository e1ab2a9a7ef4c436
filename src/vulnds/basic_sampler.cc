#include "vulnds/basic_sampler.h"

#include <algorithm>
#include <numeric>

#include "simd/coin_kernels.h"
#include "vulnds/reverse_sampler.h"

namespace vulnds {

namespace {

// Worlds per mask word: one per bit, as CoinMask64 evaluates.
constexpr std::size_t kWordWorlds = simd::kCoinMaskWorlds;

// Mask words per block: one node visit serves up to 128 worlds.
constexpr std::size_t kBlockWords = 2;

// Worklist prefetch distances, in queue positions ahead of the node being
// pushed: the state records of one node's out-neighbours, and (further
// ahead, so it has landed by then) the arc run those records are read from.
constexpr std::size_t kPrefetchStates = 4;
constexpr std::size_t kPrefetchArcs = 8;

// A node's masks in one block, interleaved so that a visit reads one 32-byte
// record rather than two arrays: D, the worlds where it defaulted, and P, the
// worlds where it defaulted but has not yet pushed to its out-neighbours.
struct NodeMasks {
  uint64_t defaulted[kBlockWords];
  uint64_t pending[kBlockWords];
};

// The masks of a node outside the scope: defaulted in every world, pending
// in none.
NodeMasks OutsideScope() {
  NodeMasks m{};
  for (uint64_t& d : m.defaulted) d = ~uint64_t{0};
  return m;
}

// One worker's state: the masks of the current block, the worklist of nodes
// with pending worlds and the coin telemetry. Reused across that worker's
// blocks. Nodes outside the scope are marked defaulted in every world once,
// so that no push ever opens a world at them.
class BlockSampler {
 public:
  BlockSampler(const UncertainGraph& graph, const std::vector<NodeId>& scope,
               const std::vector<NodeId>& counted, simd::SimdTier tier)
      : graph_(graph),
        scope_(scope),
        counted_(counted),
        tier_(tier),
        masks_(graph.num_nodes(), OutsideScope()) {
    queue_.reserve(scope.size());
  }

  // Samples the `words` (<= kBlockWords) 64-world words starting at word
  // `first_word` of the t-world run seeded `seed` and adds the default count
  // of counted[i] into counts[i].
  void SampleBlock(uint64_t seed, std::size_t t, std::size_t first_word,
                   std::size_t words, uint32_t* counts) {
    uint64_t all[kBlockWords] = {};
    for (std::size_t w = 0; w < words; ++w) {
      const std::size_t first = (first_word + w) * kWordWorlds;
      const std::size_t worlds = std::min(kWordWorlds, t - first);
      all[w] = worlds == kWordWorlds ? ~uint64_t{0}
                                     : (uint64_t{1} << worlds) - 1;
      for (std::size_t j = 0; j < worlds; ++j) {
        const uint64_t world = WorldSeed(seed, first + j);
        node_seeds_[w][j] = NodeCoinSeed(world);
        edge_seeds_[w][j] = EdgeCoinSeed(world);
      }
    }

    // Lines 4-8: every scope node's self-risk coin in every world of the
    // block, 64 worlds per kernel call. On a partial word the seed slots past
    // its worlds belong to no world of the block, so `& all[w]` drops their
    // bits; a word past `words` has all[w] == 0 and stays empty.
    queue_.clear();
    for (const NodeId v : scope_) {
      const uint64_t threshold = simd::CoinThreshold(graph_.self_risk(v));
      NodeMasks& m = masks_[v];
      uint64_t any = 0;
      for (std::size_t w = 0; w < kBlockWords; ++w) {
        uint64_t hits = 0;
        if (threshold == simd::kCoinAlways) {
          hits = all[w];
        } else if (threshold != 0 && w < words) {
          hits = simd::CoinMask64(tier_, node_seeds_[w], simd::CoinInnerHash(v),
                                  threshold) &
                 all[w];
          if (tier_ != simd::SimdTier::kScalar) {
            coin_stats_.batched_coins += kWordWorlds;
          } else {
            coin_stats_.tail_coins += kWordWorlds;
          }
        }
        m.defaulted[w] = m.pending[w] = hits;
        any |= hits;
      }
      if (any != 0) queue_.push_back(v);
    }

    // Lines 10-19: push each node's pending worlds along its out-arcs. A
    // node is queued exactly while some pending word is non-zero; a world
    // becomes pending at a node only when the node first defaults in it, so
    // every (edge, world) coin is flipped at most once. The arc's coin
    // constants are shared by both words.
    simd::CoinKernelStats edge_coins;
    for (std::size_t head = 0; head < queue_.size(); ++head) {
      Prefetch(head);
      const NodeId u = queue_[head];
      uint64_t push[kBlockWords];
      for (std::size_t w = 0; w < kBlockWords; ++w) {
        push[w] = masks_[u].pending[w];
        masks_[u].pending[w] = 0;
      }
      for (const Arc& arc : graph_.OutArcs(u)) {
        NodeMasks& m = masks_[arc.neighbor];
        uint64_t open[kBlockWords];
        uint64_t any_open = 0;
        for (std::size_t w = 0; w < kBlockWords; ++w) {
          open[w] = push[w] & ~m.defaulted[w];
          any_open |= open[w];
        }
        if (any_open == 0) continue;
        const uint64_t threshold = simd::CoinThreshold(arc.prob);
        if (threshold == 0) continue;
        const uint64_t inner = simd::CoinInnerHash(arc.edge);
        uint64_t was_pending = 0;
        uint64_t any_hit = 0;
        for (std::size_t w = 0; w < kBlockWords; ++w) {
          uint64_t hits = open[w];
          if (hits != 0 && threshold != simd::kCoinAlways) {
            hits = simd::CoinMaskOpen64(tier_, edge_seeds_[w], inner,
                                        threshold, open[w], &edge_coins);
          }
          was_pending |= m.pending[w];
          m.defaulted[w] |= hits;
          m.pending[w] |= hits;
          any_hit |= hits;
        }
        if (was_pending == 0 && any_hit != 0) queue_.push_back(arc.neighbor);
      }
    }
    coin_stats_.Add(edge_coins);

    for (std::size_t i = 0; i < counted_.size(); ++i) {
      for (const uint64_t d : masks_[counted_[i]].defaulted) {
        counts[i] += static_cast<uint32_t>(__builtin_popcountll(d));
      }
    }
  }

  const simd::CoinKernelStats& coin_stats() const { return coin_stats_; }

 private:
  // Hides the random loads of the nodes a few queue positions ahead.
  void Prefetch(std::size_t head) const {
    if (head + kPrefetchStates < queue_.size()) {
      for (const Arc& arc : graph_.OutArcs(queue_[head + kPrefetchStates])) {
        __builtin_prefetch(&masks_[arc.neighbor]);
      }
    }
    if (head + kPrefetchArcs < queue_.size()) {
      __builtin_prefetch(graph_.OutArcs(queue_[head + kPrefetchArcs]).data());
    }
  }

  const UncertainGraph& graph_;
  const std::vector<NodeId>& scope_;
  const std::vector<NodeId>& counted_;
  const simd::SimdTier tier_;
  std::vector<NodeMasks> masks_;
  std::vector<NodeId> queue_;
  uint64_t node_seeds_[kBlockWords][kWordWorlds] = {};
  uint64_t edge_seeds_[kBlockWords][kWordWorlds] = {};
  simd::CoinKernelStats coin_stats_;
};

// Serial chunk: words [begin, end) of a t-world run, packed into blocks of up
// to kBlockWords words and accumulated into counts. Returns the chunk's coin
// telemetry.
simd::CoinKernelStats RunWords(const UncertainGraph& graph,
                               const std::vector<NodeId>& scope,
                               const std::vector<NodeId>& counted,
                               uint64_t seed, std::size_t t, std::size_t begin,
                               std::size_t end, simd::SimdTier tier,
                               std::vector<uint32_t>* counts) {
  BlockSampler sampler(graph, scope, counted, tier);
  for (std::size_t word = begin; word < end; word += kBlockWords) {
    sampler.SampleBlock(seed, t, word, std::min(kBlockWords, end - word),
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

  const std::size_t words = (t + kWordWorlds - 1) / kWordWorlds;
  std::vector<uint32_t> counts(n, 0);

  if (pool == nullptr || pool->num_threads() <= 1 || words == 1) {
    stats.coin_stats =
        RunWords(graph, scope, counted, seed, t, 0, words, tier, &counts);
  } else {
    const std::size_t workers =
        std::min<std::size_t>(pool->num_threads(), words);
    std::vector<std::vector<uint32_t>> partial(workers,
                                               std::vector<uint32_t>(n, 0));
    std::vector<simd::CoinKernelStats> partial_coins(workers);
    pool->ParallelFor(workers, [&](std::size_t w) {
      partial_coins[w] =
          RunWords(graph, scope, counted, seed, t, words * w / workers,
                   words * (w + 1) / workers, tier, &partial[w]);
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
