#include "vulnds/coin_columns.h"

#include "simd/coin_kernels.h"

namespace vulnds {

namespace {

inline std::size_t RoundUpToLanes(std::size_t n) {
  return (n + simd::kCoinLanes - 1) / simd::kCoinLanes * simd::kCoinLanes;
}

// The padded layout pass shared by Build and BuildFrom; allocates the edge
// columns zeroed. threshold 0 in the padding slots is what makes
// over-reading them safe: no 53-bit hash is < 0, so a padding slot can
// never survive.
void LayOut(const UncertainGraph& graph, CoinColumns* cols) {
  const std::size_t n = graph.num_nodes();
  cols->pad_offsets.resize(n + 1);
  std::size_t total = 0;
  for (NodeId v = 0; v < n; ++v) {
    cols->pad_offsets[v] = total;
    total += RoundUpToLanes(graph.InDegree(v));
  }
  cols->pad_offsets[n] = total;
  cols->edge_inner.assign(total, 0);
  cols->edge_threshold.assign(total, 0);
  cols->edge_neighbor.assign(total, 0);
}

}  // namespace

bool CoinColumns::Worthwhile(const UncertainGraph& graph) {
  // Average in-degree of at least one vector block; below that, padded runs
  // are mostly alignment slots and the build never amortizes (a degree-1
  // graph pads 4 slots per real arc). Shape-only, so every layer agrees.
  return graph.num_edges() >= simd::kCoinLanes * graph.num_nodes();
}

CoinColumns CoinColumns::Build(const UncertainGraph& graph) {
  CoinColumns cols;
  const std::size_t n = graph.num_nodes();
  LayOut(graph, &cols);
  for (NodeId v = 0; v < n; ++v) {
    std::size_t slot = cols.pad_offsets[v];
    for (const Arc& arc : graph.InArcs(v)) {
      cols.edge_inner[slot] = simd::CoinInnerHash(arc.edge);
      cols.edge_threshold[slot] = simd::CoinThreshold(arc.prob);
      cols.edge_neighbor[slot] = arc.neighbor;
      ++slot;
    }
  }

  cols.node_inner.resize(n);
  cols.node_threshold.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    cols.node_inner[v] = simd::CoinInnerHash(v);
    cols.node_threshold[v] = simd::CoinThreshold(graph.self_risk(v));
  }
  return cols;
}

CoinColumns CoinColumns::BuildFrom(const UncertainGraph& graph,
                                   const UncertainGraph& base,
                                   const CoinColumns& base_cols,
                                   std::span<const EdgeId> deleted) {
  const std::size_t n = graph.num_nodes();
  if (base.num_nodes() != n || base_cols.pad_offsets.size() != n + 1 ||
      base_cols.node_inner.size() != n) {
    return Build(graph);  // not a version of the same graph — nothing to reuse
  }
  // Base edge id -> compacted id, or kGone for deleted ids. A flat table
  // instead of per-arc binary searches: the merge loop below consults it
  // once per old arc, and O(base_m) sequential writes beat O(m log d)
  // branchy lookups even for a handful of deletions.
  constexpr EdgeId kGone = static_cast<EdgeId>(-1);
  std::vector<EdgeId> new_id(base.num_edges());
  {
    std::size_t next_deleted = 0;
    for (EdgeId e = 0; e < new_id.size(); ++e) {
      if (next_deleted < deleted.size() && deleted[next_deleted] == e) {
        ++next_deleted;
        new_id[e] = kGone;
      } else {
        new_id[e] = e - static_cast<EdgeId>(next_deleted);
      }
    }
  }

  CoinColumns cols;
  LayOut(graph, &cols);
  for (NodeId v = 0; v < n; ++v) {
    const std::span<const Arc> new_run = graph.InArcs(v);
    const std::span<const Arc> old_run = base.InArcs(v);
    const std::size_t old_base = base_cols.pad_offsets[v];
    std::size_t old_i = 0;
    std::size_t slot = cols.pad_offsets[v];
    for (const Arc& arc : new_run) {
      cols.edge_neighbor[slot] = arc.neighbor;
      while (old_i < old_run.size() && new_id[old_run[old_i].edge] == kGone) {
        ++old_i;
      }
      if (old_i < old_run.size() && new_id[old_run[old_i].edge] == arc.edge) {
        // The same logical edge. Its inner hash transfers unless deletions
        // shifted its numeric id; its threshold unless the probability was
        // patched. (In-runs of both versions ascend by edge id, so the
        // two-pointer walk pairs logical edges exactly once.)
        const Arc& old_arc = old_run[old_i];
        cols.edge_inner[slot] = old_arc.edge == arc.edge
                                    ? base_cols.edge_inner[old_base + old_i]
                                    : simd::CoinInnerHash(arc.edge);
        cols.edge_threshold[slot] =
            old_arc.prob == arc.prob
                ? base_cols.edge_threshold[old_base + old_i]
                : simd::CoinThreshold(arc.prob);
        ++old_i;
      } else {
        // Staged insertion (or an arc the base cannot account for — then
        // this is just Build's computation; reuse never changes content).
        cols.edge_inner[slot] = simd::CoinInnerHash(arc.edge);
        cols.edge_threshold[slot] = simd::CoinThreshold(arc.prob);
      }
      ++slot;
    }
  }

  // Node ids are stable across versions, so the inner hashes transfer
  // wholesale; thresholds transfer wherever the self-risk is unchanged
  // (edge-only deltas never touch it, but compare defensively).
  cols.node_inner = base_cols.node_inner;
  cols.node_threshold.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    cols.node_threshold[v] = graph.self_risk(v) == base.self_risk(v)
                                 ? base_cols.node_threshold[v]
                                 : simd::CoinThreshold(graph.self_risk(v));
  }
  return cols;
}

std::shared_ptr<const CoinColumns> CoinColumns::Shared(
    const UncertainGraph& graph) {
  return graph.derived().GetOrBuild<CoinColumns>(
      [&graph] { return Build(graph); });
}

std::size_t CoinColumns::EstimateBytes(const UncertainGraph& graph) {
  const std::size_t n = graph.num_nodes();
  std::size_t padded = 0;
  for (NodeId v = 0; v < n; ++v) padded += RoundUpToLanes(graph.InDegree(v));
  return sizeof(CoinColumns) + (n + 1) * sizeof(std::size_t) +
         padded * (2 * sizeof(uint64_t) + sizeof(NodeId)) +
         n * 2 * sizeof(uint64_t);
}

std::size_t CoinColumns::ApproxBytes() const {
  return sizeof(CoinColumns) +
         pad_offsets.capacity() * sizeof(std::size_t) +
         edge_inner.capacity() * sizeof(uint64_t) +
         edge_threshold.capacity() * sizeof(uint64_t) +
         edge_neighbor.capacity() * sizeof(NodeId) +
         node_inner.capacity() * sizeof(uint64_t) +
         node_threshold.capacity() * sizeof(uint64_t);
}

}  // namespace vulnds
