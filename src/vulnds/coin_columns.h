// Precomputed per-graph coin columns for the batched world kernels.
//
// A world coin (reverse_sampler.h) is `UniformHash(world_seed ^ salt)
// .HashUnit(id) < prob`. Both expensive halves are seed-independent and
// therefore per-graph constants:
//   * the inner hash round Mix64(id + C)            (simd::CoinInnerHash),
//   * the exact integer threshold of prob           (simd::CoinThreshold).
// CoinColumns materializes them once per graph in struct-of-arrays form so a
// per-world coin collapses to one Mix64 and one integer compare — and so the
// AVX2 tier can evaluate a whole adjacency run of in-edges per iteration.
//
// Layout. In-arc runs are stored in InArcs order but PADDED: node v's run
// starts at pad_offsets[v] and holds InDegree(v) real slots followed by
// alignment slots up to the next multiple of simd::kCoinLanes. Padding slots
// carry threshold 0, which no hash is ever below, so a kernel may evaluate
// them freely (CoinSurvivorsPadded does) without producing a survivor —
// worlds are pure, extra coins are free. The columns are immutable after
// Build and safe to share across worker samplers.
//
// Ownership. Shared() caches one instance in the graph's DerivedCache, so
// every query against the same resident graph amortizes the O(n + m) build —
// rebuilding per run is ~85us even on a 3k-edge graph, which dominates a
// warm sub-millisecond query. The footprint is a deterministic function of
// the graph's shape (EstimateBytes) and is included in the serving layer's
// EstimateGraphBytes, so the byte governor accounts for it up front.
//
// Density gate. Columns only pay when adjacency runs actually fill vector
// lanes: below an average in-degree of kCoinLanes the batched kernel is
// mostly evaluating padding, and the O(n + m) build (plus the per-commit
// carry-forward on dynamic graphs) costs more than it saves. Worthwhile()
// decides from the graph's shape alone — deterministic, so every layer
// (samplers, byte accounting, commit seeding) agrees — and samplers fall
// back to the direct per-arc coin evaluation, which is bit-identical by the
// kernel contract (coin_kernels.h): same inner hash, same exact threshold.

#ifndef VULNDS_VULNDS_COIN_COLUMNS_H_
#define VULNDS_VULNDS_COIN_COLUMNS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/uncertain_graph.h"

namespace vulnds {

struct CoinColumns {
  /// Start of node v's padded in-arc run; size n + 1 (the last entry is the
  /// padded column length). Run v holds InDegree(v) real slots.
  std::vector<std::size_t> pad_offsets;
  std::vector<uint64_t> edge_inner;      ///< Mix64(edge_id + C) per slot
  std::vector<uint64_t> edge_threshold;  ///< CoinThreshold(prob); 0 in pads
  std::vector<NodeId> edge_neighbor;     ///< in-neighbor u of the arc (u, v)
  std::vector<uint64_t> node_inner;      ///< Mix64(v + C), size n
  std::vector<uint64_t> node_threshold;  ///< CoinThreshold(self_risk(v))

  /// True when the graph is dense enough (average in-degree >= kCoinLanes)
  /// for the padded columns to beat direct per-arc coin evaluation. A pure
  /// function of the graph's shape; samplers, the byte governor, and the
  /// dynamic-commit seeding all consult it so they stay in agreement.
  static bool Worthwhile(const UncertainGraph& graph);

  /// Builds the columns for `graph`; O(n + m) plus one CoinThreshold fixup
  /// per arc and node.
  static CoinColumns Build(const UncertainGraph& graph);

  /// The per-graph shared instance, built on first use and cached in the
  /// graph's DerivedCache (thread-safe; concurrent first callers wait for
  /// one build). The returned pointer keeps the columns alive even if the
  /// graph is destroyed mid-run.
  static std::shared_ptr<const CoinColumns> Shared(const UncertainGraph& graph);

  /// Builds columns for `graph` reusing `base_cols` (the columns of `base`,
  /// a previous version of the same graph whose edges with the sorted base
  /// ids `deleted` were removed, probabilities possibly patched, and new
  /// edges appended with ids >= the live base count — exactly the layout a
  /// dynamic-update commit produces). Inner hashes are pure in the numeric
  /// edge id and thresholds pure in the probability, so unchanged arcs are
  /// copied instead of rehashed; a remapped id recomputes only its Mix64, a
  /// changed probability only its threshold. Falls back to recomputing any
  /// arc it cannot match, so the result equals Build(graph) for ANY inputs —
  /// reuse changes cost, never content.
  static CoinColumns BuildFrom(const UncertainGraph& graph,
                               const UncertainGraph& base,
                               const CoinColumns& base_cols,
                               std::span<const EdgeId> deleted);

  /// Approximate resident bytes (vector payloads), for byte accounting.
  std::size_t ApproxBytes() const;

  /// What ApproxBytes will report once built — a deterministic function of
  /// the graph's shape, computable without building, so residency budgets
  /// can charge the columns alongside the graph itself.
  static std::size_t EstimateBytes(const UncertainGraph& graph);
};

}  // namespace vulnds

#endif  // VULNDS_VULNDS_COIN_COLUMNS_H_
