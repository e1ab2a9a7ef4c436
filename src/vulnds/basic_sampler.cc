#include "vulnds/basic_sampler.h"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "simd/coin_kernels.h"
#include "vulnds/reverse_sampler.h"

namespace vulnds {

namespace {

// Worlds per mask word: one per bit, as CoinMask64 evaluates.
constexpr std::size_t kWordWorlds = simd::kCoinMaskWorlds;

// Worlds per coarse pending bit (one byte of a mask word), and the pending
// bits per word.
constexpr std::size_t kGroupWorlds = 8;
constexpr std::size_t kWordGroups = kWordWorlds / kGroupWorlds;

// Worklist prefetch distances, in queue positions ahead of the node being
// pushed: the default records of one node's out-neighbours, and (further
// ahead, so it has landed by then) the arc run those records are read from.
constexpr std::size_t kPrefetchStates = 4;
constexpr std::size_t kPrefetchArcs = 8;

// The default records start on a cache line, so no record straddles two.
constexpr std::size_t kLineWords = 64 / sizeof(uint64_t);

// The coarse pending bits of one mask word: bit g is set iff byte g of
// `hits` is non-zero. The folds OR each byte into its bit 0; the multiply
// gathers bit 8g to bit 56 + g, and no two partial products share a bit.
uint32_t CoarseOf(uint64_t hits) {
  hits |= hits >> 4;
  hits |= hits >> 2;
  hits |= hits >> 1;
  return static_cast<uint32_t>(
      ((hits & 0x0101010101010101ULL) * 0x0102040810204080ULL) >> 56);
}

// The worlds of coarse pending bits [0, 8): byte g is all ones iff bit g of
// `groups` is set. Byte g of `picked` keeps bit g of the replicated byte, so
// it is at most 0x80, and adding 0x7F sets its top bit iff it is non-zero
// without carrying into the next byte.
uint64_t ExpandOf(uint32_t groups) {
  const uint64_t picked = (groups & 0xFFu) * 0x0101010101010101ULL &
                          0x8040201008040201ULL;
  const uint64_t tops =
      (picked + 0x7F7F7F7F7F7F7F7FULL) & 0x8080808080808080ULL;
  return (tops >> 7) * 0xFF;
}

void AddTelemetry(const BasicSampleStats& from, BasicSampleStats* to) {
  to->coin_stats.Add(from.coin_stats);
  to->node_visits += from.node_visits;
  to->open_coins += from.open_coins;
  to->edge_lanes += from.edge_lanes;
}

// One worker's state for blocks of up to W words: the default masks of the
// current block, the coarse pending bits, the worklist of nodes with pending
// worlds and the block's world seeds. Reused across that worker's blocks.
// Nodes outside the scope are marked defaulted in every world once, so that
// no push ever opens a world at them.
template <std::size_t W>
class BlockSampler {
  static_assert(W <= simd::kCoinOpenMaxWords, "one edge-coin call per arc");
  static_assert(W * kWordGroups <= 32, "pending bits fit a uint32_t");

 public:
  BlockSampler(const UncertainGraph& graph, const std::vector<NodeId>& scope,
               const std::vector<NodeId>& counted, simd::SimdTier tier)
      : graph_(graph),
        scope_(scope),
        counted_(counted),
        tier_(tier),
        default_words_(graph.num_nodes() * W + kLineWords - 1, ~uint64_t{0}),
        pending_(graph.num_nodes(), 0) {
    const std::size_t misalign =
        reinterpret_cast<std::uintptr_t>(default_words_.data()) / 8 %
        kLineWords;
    defaults_ = default_words_.data() + (kLineWords - misalign) % kLineWords;
    queue_.reserve(scope.size());
  }

  // Samples the `words` (<= W) 64-world words starting at word `first_word`
  // of the t-world run seeded `seed`, adds the default count of counted[i]
  // into counts[i] and the block's telemetry into `telemetry`.
  void SampleBlock(uint64_t seed, std::size_t t, std::size_t first_word,
                   std::size_t words, uint32_t* counts,
                   BasicSampleStats* telemetry) {
    uint64_t all[W] = {};
    for (std::size_t w = 0; w < words; ++w) {
      const std::size_t first = (first_word + w) * kWordWorlds;
      const std::size_t worlds = std::min(kWordWorlds, t - first);
      all[w] = worlds == kWordWorlds ? ~uint64_t{0}
                                     : (uint64_t{1} << worlds) - 1;
      for (std::size_t j = 0; j < worlds; ++j) {
        const uint64_t world = WorldSeed(seed, first + j);
        node_seeds_[w * kWordWorlds + j] = NodeCoinSeed(world);
        edge_seeds_[w * kWordWorlds + j] = EdgeCoinSeed(world);
      }
    }

    // Lines 4-8: every scope node's self-risk coin in every world of the
    // block, 64 worlds per kernel call. On a partial word the seed slots past
    // its worlds belong to no world of the block, so `& all[w]` drops their
    // bits; a word past `words` has all[w] == 0 and stays empty.
    queue_.clear();
    for (const NodeId v : scope_) {
      const uint64_t threshold = simd::CoinThreshold(graph_.self_risk(v));
      uint64_t* const d = Defaults(v);
      uint32_t pending = 0;
      for (std::size_t w = 0; w < W; ++w) {
        uint64_t hits = 0;
        if (threshold == simd::kCoinAlways) {
          hits = all[w];
        } else if (threshold != 0 && w < words) {
          hits = simd::CoinMask64(tier_, node_seeds_ + w * kWordWorlds,
                                  simd::CoinInnerHash(v), threshold) &
                 all[w];
          if (tier_ != simd::SimdTier::kScalar) {
            telemetry->coin_stats.batched_coins += kWordWorlds;
          } else {
            telemetry->coin_stats.tail_coins += kWordWorlds;
          }
        }
        d[w] = hits;
        pending |= CoarseOf(hits) << (w * kWordGroups);
      }
      pending_[v] = pending;
      if (pending != 0) queue_.push_back(v);
    }

    // Lines 10-19: push each node's pending worlds along its out-arcs. A
    // node is queued exactly while its pending bits are non-zero. A visit
    // pushes every defaulted world of its pending groups, so a world may be
    // pushed again, and its coin at an arc whose head has not defaulted in
    // it flipped again: coins are pure, so the second flip repeats the first
    // and the defaults are the one-world BFS's.
    simd::CoinKernelStats edge_coins;
    uint64_t open_coins = 0;
    for (std::size_t head = 0; head < queue_.size(); ++head) {
      Prefetch(head);
      const NodeId u = queue_[head];
      const uint64_t* const du = Defaults(u);
      const uint32_t pending = pending_[u];
      pending_[u] = 0;
      uint64_t push[W];
      for (std::size_t w = 0; w < W; ++w) {
        push[w] = du[w] & ExpandOf(pending >> (w * kWordGroups));
      }
      for (const Arc& arc : graph_.OutArcs(u)) {
        uint64_t* const d = Defaults(arc.neighbor);
        uint64_t open[W];
        uint64_t any_open = 0;
        for (std::size_t w = 0; w < W; ++w) {
          open[w] = push[w] & ~d[w];
          any_open |= open[w];
        }
        if (any_open == 0) continue;
        const uint64_t threshold = simd::CoinThreshold(arc.prob);
        if (threshold == 0) continue;
        uint64_t hits[W];
        if (threshold == simd::kCoinAlways) {
          std::copy(open, open + W, hits);
        } else {
          open_coins += simd::CoinMaskOpenWords(
              tier_, edge_seeds_, simd::CoinInnerHash(arc.edge), threshold,
              open, W, hits, &edge_coins);
        }
        uint64_t any_hit = 0;
        for (std::size_t w = 0; w < W; ++w) any_hit |= hits[w];
        if (any_hit == 0) continue;
        uint32_t coarse = 0;
        for (std::size_t w = 0; w < W; ++w) {
          d[w] |= hits[w];
          coarse |= CoarseOf(hits[w]) << (w * kWordGroups);
        }
        uint32_t& target = pending_[arc.neighbor];
        if (target == 0) queue_.push_back(arc.neighbor);
        target |= coarse;
      }
    }
    telemetry->coin_stats.Add(edge_coins);
    telemetry->node_visits += queue_.size();
    telemetry->open_coins += open_coins;
    telemetry->edge_lanes += edge_coins.batched_coins + edge_coins.tail_coins;

    for (std::size_t i = 0; i < counted_.size(); ++i) {
      const uint64_t* const d = Defaults(counted_[i]);
      for (std::size_t w = 0; w < W; ++w) {
        counts[i] += static_cast<uint32_t>(__builtin_popcountll(d[w]));
      }
    }
  }

 private:
  uint64_t* Defaults(NodeId v) const { return defaults_ + std::size_t{v} * W; }

  // Hides the random loads of the nodes a few queue positions ahead.
  void Prefetch(std::size_t head) const {
    if (head + kPrefetchStates < queue_.size()) {
      for (const Arc& arc : graph_.OutArcs(queue_[head + kPrefetchStates])) {
        __builtin_prefetch(Defaults(arc.neighbor));
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
  // D[v], the worlds of the block where v defaulted: W words per node from
  // defaults_, which points at the first cache line of default_words_.
  std::vector<uint64_t> default_words_;
  uint64_t* defaults_ = nullptr;
  // P[v], the 8-world groups of the block where v defaulted in a world it
  // has not yet pushed: bit 8w + g covers byte g of word w.
  std::vector<uint32_t> pending_;
  std::vector<NodeId> queue_;
  uint64_t node_seeds_[W * kWordWorlds] = {};
  uint64_t edge_seeds_[W * kWordWorlds] = {};
};

// Words [begin, end) of a t-world run in blocks of W words (the last one may
// be shorter), accumulated into counts and telemetry.
template <std::size_t W>
void RunBlocks(const UncertainGraph& graph, const std::vector<NodeId>& scope,
               const std::vector<NodeId>& counted, uint64_t seed,
               std::size_t t, std::size_t begin, std::size_t end,
               simd::SimdTier tier, uint32_t* counts,
               BasicSampleStats* telemetry) {
  BlockSampler<W> sampler(graph, scope, counted, tier);
  for (std::size_t word = begin; word < end; word += W) {
    sampler.SampleBlock(seed, t, word, std::min(W, end - word), counts,
                        telemetry);
  }
}

// Serial chunk: words [begin, end) of a t-world run, in blocks of the widest
// width that the chunk fills at least once, so a short chunk does not carry
// the records of empty words.
void RunWords(const UncertainGraph& graph, const std::vector<NodeId>& scope,
              const std::vector<NodeId>& counted, uint64_t seed,
              std::size_t t, std::size_t begin, std::size_t end,
              simd::SimdTier tier, std::vector<uint32_t>* counts,
              BasicSampleStats* telemetry) {
  const std::size_t span = end - begin;
  const auto run = span >= 4   ? &RunBlocks<4>
                   : span >= 2 ? &RunBlocks<2>
                               : &RunBlocks<1>;
  run(graph, scope, counted, seed, t, begin, end, tier, counts->data(),
      telemetry);
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
    RunWords(graph, scope, counted, seed, t, 0, words, tier, &counts, &stats);
  } else {
    const std::size_t workers =
        std::min<std::size_t>(pool->num_threads(), words);
    std::vector<std::vector<uint32_t>> partial(workers,
                                               std::vector<uint32_t>(n, 0));
    std::vector<BasicSampleStats> partial_telemetry(workers);
    pool->ParallelFor(workers, [&](std::size_t w) {
      RunWords(graph, scope, counted, seed, t, words * w / workers,
               words * (w + 1) / workers, tier, &partial[w],
               &partial_telemetry[w]);
    });
    for (std::size_t w = 0; w < workers; ++w) {
      for (std::size_t i = 0; i < n; ++i) counts[i] += partial[w][i];
      AddTelemetry(partial_telemetry[w], &stats);
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
