#include "vulnds/reverse_sampler.h"

#include <algorithm>
#include <atomic>

#include "common/hash.h"
#include "common/rng.h"

namespace vulnds {

namespace {
// Domain separators so node coins, edge coins and world seeds never collide.
constexpr uint64_t kNodeSalt = 0x9AE16A3B2F90404FULL;
constexpr uint64_t kEdgeSalt = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kWorldSalt = 0x165667B19E3779F9ULL;

// Per-node bytes of every live sampler (SamplerScratchBytes).
std::atomic<std::size_t> g_scratch_bytes{0};
}  // namespace

uint64_t WorldSeed(uint64_t seed, uint64_t sample_index) {
  return Mix64(seed ^ Mix64(sample_index + kWorldSalt));
}

uint64_t NodeCoinSeed(uint64_t world_seed) { return world_seed ^ kNodeSalt; }

uint64_t EdgeCoinSeed(uint64_t world_seed) { return world_seed ^ kEdgeSalt; }

bool WorldNodeSelfDefaults(uint64_t world_seed, NodeId v, double self_risk) {
  if (self_risk <= 0.0) return false;
  if (self_risk >= 1.0) return true;
  return UniformHash(NodeCoinSeed(world_seed)).HashUnit(v) < self_risk;
}

bool WorldEdgeSurvives(uint64_t world_seed, EdgeId e, double prob) {
  if (prob <= 0.0) return false;
  if (prob >= 1.0) return true;
  return UniformHash(EdgeCoinSeed(world_seed)).HashUnit(e) < prob;
}

ReverseSampler::~ReverseSampler() {
  g_scratch_bytes.fetch_sub(state_.size() * kStateBytesPerNode,
                            std::memory_order_relaxed);
}

std::size_t SamplerScratchBytes() {
  return g_scratch_bytes.load(std::memory_order_relaxed);
}

bool ReverseSampler::Bind(const UncertainGraph& graph,
                          std::span<const NodeId> candidates,
                          const CoinColumns* columns, simd::SimdTier tier) {
  graph_ = &graph;
  candidates_ = candidates;
  // columns_ may stay null (sparse graphs, below the density gate): the
  // sampler then evaluates coins directly off the arcs — same inner hash,
  // same exact threshold, so bit-identical — with no column build at all.
  columns_ = columns;
  tier_ = tier;
  coin_stats_ = {};
  const std::size_t n = graph.num_nodes();
  if (n <= state_.size()) return false;
  // Exactly n zeroed entries: 0 is below every stamp in use, since both
  // stamps are bumped before their first use and restart at 1 on a wrap.
  g_scratch_bytes.fetch_add((n - state_.size()) * kStateBytesPerNode,
                            std::memory_order_relaxed);
  state_ = std::vector<Stamp>(n);
  visited_ = std::vector<Stamp>(n);
  return true;
}

void ReverseSampler::SetStampsForTesting(Stamp sample_stamp,
                                         Stamp visit_stamp) {
  sample_stamp_ = sample_stamp;
  visit_stamp_ = visit_stamp;
}

bool ReverseSampler::NodeSelfDefaults(NodeId v) {
  // The integer form of WorldNodeSelfDefaults (CoinThreshold folds the
  // 0/1 early-outs in); bit-identical by the kernel contract.
  ++coin_stats_.tail_coins;
  if (columns_ == nullptr) {
    return simd::CoinHits(node_seed_, simd::CoinInnerHash(v),
                          simd::CoinThreshold(graph_->self_risk(v)));
  }
  return simd::CoinHits(node_seed_, columns_->node_inner[v],
                        columns_->node_threshold[v]);
}

bool ReverseSampler::Reach(NodeId u) {
  visited_[u] = visit_stamp_;
  queue_.push_back(u);
  // Line 7: reuse a previous conclusion about u in this sample.
  switch (GetConclusion(u)) {
    case Conclusion::kDefaulted:
      return true;
    case Conclusion::kSafe:
      return false;
    case Conclusion::kUnknown:
      break;
  }
  // Lines 9-13: flip u's self-risk coin (memoized by world purity).
  if (NodeSelfDefaults(u)) {
    SetConclusion(u, Conclusion::kDefaulted);
    return true;
  }
  return false;
}

bool ReverseSampler::Expand(NodeId u) {
  // Lines 14-20 along u's surviving in-edges, each survivor reached in
  // ascending arc order.
  if (columns_ == nullptr) {
    // Sparse graph below the density gate: direct per-arc coins.
    for (const Arc& arc : graph_->InArcs(u)) {
      ++coin_stats_.tail_coins;
      if (!simd::CoinHits(edge_seed_, simd::CoinInnerHash(arc.edge),
                          simd::CoinThreshold(arc.prob))) {
        continue;
      }
      if (visited_[arc.neighbor] == visit_stamp_) continue;
      if (Reach(arc.neighbor)) return true;
    }
    return false;
  }
  // The padded run's coins go through the batched kernel kArcChunk at a
  // time, so a hub's run is flipped only up to the chunk holding the first
  // default. Every chunk but the run's last is a whole number of lanes; the
  // last ends at the run's real length, and the kernel reads its padding.
  const std::size_t run_begin = columns_->pad_offsets[u];
  const std::size_t degree = graph_->InDegree(u);
  for (std::size_t chunk = 0; chunk < degree; chunk += kArcChunk) {
    const std::size_t begin = run_begin + chunk;
    const std::size_t survivors = simd::CoinSurvivorsPadded(
        tier_, edge_seed_, columns_->edge_inner.data() + begin,
        columns_->edge_threshold.data() + begin,
        std::min(kArcChunk, degree - chunk), survivor_scratch_.data(),
        &coin_stats_);
    for (std::size_t s = 0; s < survivors; ++s) {
      const NodeId neighbor =
          columns_->edge_neighbor[begin + survivor_scratch_[s]];
      if (visited_[neighbor] == visit_stamp_) continue;
      if (Reach(neighbor)) return true;
    }
  }
  return false;
}

bool ReverseSampler::EvaluateCandidate(NodeId v, std::size_t* touched) {
  // Algorithm 5 lines 2-20, one candidate.
  switch (GetConclusion(v)) {
    case Conclusion::kDefaulted:
      return true;
    case Conclusion::kSafe:
      return false;
    case Conclusion::kUnknown:
      break;
  }
  if (++visit_stamp_ == 0) {
    std::fill(visited_.begin(), visited_.end(), 0);
    visit_stamp_ = 1;
  }
  queue_.clear();
  // Reach tests each node as it is queued, so the search ends on the first
  // defaulted node in queue order without expanding the nodes queued ahead
  // of it. A node's conclusion cannot change while it waits in the queue:
  // only the default that ends the search, or the exhaustion below, sets
  // one.
  bool found_default = Reach(v);
  for (std::size_t head = 0; head < queue_.size() && !found_default; ++head) {
    const NodeId u = queue_[head];
    if (GetConclusion(u) == Conclusion::kSafe) continue;  // dead region
    found_default = Expand(u);
  }
  // A touch is a queued node, the one the search stopped on included.
  *touched += queue_.size();
  if (found_default) {
    SetConclusion(v, Conclusion::kDefaulted);
    return true;
  }
  // Exhausted without a default: the whole queued region is reverse-
  // unreachable from any defaulted node in this world.
  for (const NodeId u : queue_) SetConclusion(u, Conclusion::kSafe);
  return false;
}

std::size_t ReverseSampler::SampleWorld(uint64_t world_seed,
                                        std::vector<char>* defaulted) {
  edge_seed_ = EdgeCoinSeed(world_seed);
  node_seed_ = NodeCoinSeed(world_seed);
  if (++sample_stamp_ == kSampleStampLimit) {
    std::fill(state_.begin(), state_.end(), 0);
    sample_stamp_ = 1;
  }
  defaulted->assign(candidates_.size(), 0);
  std::size_t touched = 0;
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    (*defaulted)[i] = EvaluateCandidate(candidates_[i], &touched) ? 1 : 0;
  }
  return touched;
}

BasicSampleStats RunReverseSampling(const UncertainGraph& graph,
                                    const std::vector<NodeId>& candidates,
                                    std::size_t t, uint64_t seed,
                                    ThreadPool* pool, simd::SimdTier tier) {
  // The reverse closure: only its nodes can make a candidate default, and an
  // arc of probability <= 0 never survives, so it joins no path.
  std::vector<char> in_closure(graph.num_nodes(), 0);
  std::vector<NodeId> closure;
  for (const NodeId c : candidates) {
    if (in_closure[c] == 0) {
      in_closure[c] = 1;
      closure.push_back(c);
    }
  }
  for (std::size_t head = 0; head < closure.size(); ++head) {
    for (const Arc& arc : graph.InArcs(closure[head])) {
      if (arc.prob > 0.0 && in_closure[arc.neighbor] == 0) {
        in_closure[arc.neighbor] = 1;
        closure.push_back(arc.neighbor);
      }
    }
  }
  // Handed over in node-id order, so that seeding walks the per-node state
  // sequentially; the block kernel's fixpoint does not depend on the order.
  closure.clear();
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    if (in_closure[v] != 0) closure.push_back(v);
  }
  return RunBlockSampling(graph, closure, candidates, t, seed, pool, tier);
}

}  // namespace vulnds
