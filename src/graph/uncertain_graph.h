// UncertainGraph: the directed uncertain graph of the paper (§2.1).
//
// Each node v carries a self-risk probability ps(v); each edge (u, v) carries
// a diffusion probability p(v|u). The graph is stored in CSR form in both
// directions so forward sampling (Algorithm 1) and reverse sampling
// (Algorithm 5) both enumerate incident edges in O(degree).
//
// Instances are immutable after construction; build them with
// UncertainGraphBuilder (builder.h) or the generators in src/gen.

#ifndef VULNDS_GRAPH_UNCERTAIN_GRAPH_H_
#define VULNDS_GRAPH_UNCERTAIN_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/derived_cache.h"

namespace vulnds {

/// Node identifier; dense in [0, num_nodes).
using NodeId = uint32_t;

/// Edge identifier; dense in [0, num_edges), shared between the forward and
/// reverse CSR so that per-edge sampled state can be memoized once per world.
using EdgeId = uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// A directed uncertain edge: src defaults may diffuse to dst with prob.
struct UncertainEdge {
  NodeId src = 0;
  NodeId dst = 0;
  double prob = 0.0;  ///< diffusion probability p(dst | src), in [0, 1]
};

/// One incident edge as seen from a node: the neighbor, the diffusion
/// probability, and the global edge id (stable across both directions).
struct Arc {
  NodeId neighbor;
  double prob;
  EdgeId edge;
};

/// Immutable directed uncertain graph in dual-CSR form.
class UncertainGraph {
 public:
  UncertainGraph() = default;

  /// Number of nodes n = |V|.
  std::size_t num_nodes() const { return self_risk_.size(); }
  /// Number of edges m = |E|.
  std::size_t num_edges() const { return out_arcs_.size(); }

  /// Self-risk probability ps(v).
  double self_risk(NodeId v) const { return self_risk_[v]; }

  /// All self-risk probabilities, indexed by node.
  std::span<const double> self_risks() const { return self_risk_; }

  /// Out-arcs of v: edges (v, w) with their diffusion probabilities.
  std::span<const Arc> OutArcs(NodeId v) const {
    return {out_arcs_.data() + out_offsets_[v],
            out_offsets_[v + 1] - out_offsets_[v]};
  }

  /// Every out-arc, grouped by source node in id order (OutArcs(0), then
  /// OutArcs(1), ...).
  std::span<const Arc> out_arcs() const { return out_arcs_; }

  /// In-arcs of v: edges (u, v); Arc::neighbor is the in-neighbor u.
  /// This is the paper's N(v) together with p(v|u).
  std::span<const Arc> InArcs(NodeId v) const {
    return {in_arcs_.data() + in_offsets_[v],
            in_offsets_[v + 1] - in_offsets_[v]};
  }

  /// Out-degree of v.
  std::size_t OutDegree(NodeId v) const {
    return out_offsets_[v + 1] - out_offsets_[v];
  }
  /// In-degree of v.
  std::size_t InDegree(NodeId v) const {
    return in_offsets_[v + 1] - in_offsets_[v];
  }

  /// The edge list in insertion order (edge id == index).
  std::span<const UncertainEdge> edges() const { return edge_list_; }

  /// Returns a copy with every edge reversed (p(v|u) becomes an edge v->u).
  /// The detectors never need this — InArcs already exposes the transpose —
  /// but it is useful for tests and for callers that want an explicit Gt.
  UncertainGraph Transposed() const;

  /// Assembles a graph directly from prebuilt dual-CSR arrays, bypassing the
  /// builder's counting sort. The caller is trusted to supply a consistent
  /// layout (exactly what UncertainGraphBuilder::Build produces): offsets of
  /// size n + 1, arcs grouped by src / dst in ascending edge-id order, and
  /// edge id == position in `edge_list`. Used by the dynamic-update write
  /// path (src/dyn), which patches a validated base layout instead of
  /// rebuilding it.
  static UncertainGraph FromParts(std::vector<double> self_risk,
                                  std::vector<std::size_t> out_offsets,
                                  std::vector<Arc> out_arcs,
                                  std::vector<std::size_t> in_offsets,
                                  std::vector<Arc> in_arcs,
                                  std::vector<UncertainEdge> edge_list);

  /// Lazily-built immutable structures derived from this graph (e.g. the
  /// sampling kernels' coin columns). Safe to use from concurrent readers;
  /// content is a pure function of the graph, so sharing it never changes
  /// results. See graph/derived_cache.h.
  DerivedCache& derived() const { return derived_; }

 private:
  friend class UncertainGraphBuilder;

  std::vector<double> self_risk_;
  std::vector<std::size_t> out_offsets_;  // size n + 1
  std::vector<Arc> out_arcs_;             // size m, grouped by src
  std::vector<std::size_t> in_offsets_;   // size n + 1
  std::vector<Arc> in_arcs_;              // size m, grouped by dst
  std::vector<UncertainEdge> edge_list_;  // size m, insertion order
  mutable DerivedCache derived_;          // lazy derived data, copies cold
};

}  // namespace vulnds

#endif  // VULNDS_GRAPH_UNCERTAIN_GRAPH_H_
