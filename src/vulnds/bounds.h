// Algorithms 2 and 3: iterative lower / upper bounds on default probability.
//
// Both algorithms iterate Equation 1,
//   p(v) = 1 - (1 - ps(v)) * prod_{x in N(v)} (1 - p(v|x) p(x)),
// Jacobi style: iteration i reads iteration i-1's values. The lower bound
// starts from p(v) = ps(v) (order 1) and grows monotonically; the upper
// bound starts from Equation 1 with every in-neighbor treated as certainly
// defaulted (order 1) and shrinks monotonically. A node is re-evaluated only
// if one of its in-neighbors changed in the previous iteration, exactly as
// the pseudo-code prescribes.
//
// Soundness note (also in DESIGN.md): the upper bound is sound on every
// graph; the lower bound is exact on in-trees and can over-count slightly
// when distinct in-paths share an ancestor, because Equation 1 assumes
// independent in-neighbor events. This matches the paper.
//
// One sweep per iteration. Bounds() iterates both recurrences together: each
// iteration visits every node once and updates each bound that has not yet
// reached its fixpoint, with that bound's own changed-gating. A bound's
// values and its early exit depend only on its own state, so both come out
// bit-identical to LowerBounds and UpperBounds run alone.
//
// Parallelism. Each Jacobi iteration reads only the previous iteration's
// values and writes node v's slot alone, so a sweep runs on the pool as one
// task per worker over a static chunk of node ids, the convergence flags
// folded in fixed (ascending-node) order afterwards — and the returned bounds
// are bit-identical to the serial loop for any thread count, including the
// early-fixpoint exits happening on the same iterations. Graphs too small to
// pay for a pool round sweep on the calling thread.

#ifndef VULNDS_VULNDS_BOUNDS_H_
#define VULNDS_VULNDS_BOUNDS_H_

#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "graph/uncertain_graph.h"

namespace vulnds {

/// Equation 1 evaluated at node v with in-neighbor probabilities taken from
/// `probs` (indexed by node id).
double EquationOne(const UncertainGraph& graph, NodeId v,
                   const std::vector<double>& probs);

/// Algorithm 2: order-z lower bounds pl(v). Requires order >= 1.
/// `pool` parallelizes the per-node sweeps (nullptr = serial); the result
/// is bit-identical for every thread count.
Result<std::vector<double>> LowerBounds(const UncertainGraph& graph, int order,
                                        ThreadPool* pool = nullptr);

/// Algorithm 3: order-z upper bounds pu(v). Requires order >= 1.
/// `pool` as in LowerBounds.
Result<std::vector<double>> UpperBounds(const UncertainGraph& graph, int order,
                                        ThreadPool* pool = nullptr);

/// Both order-z bounds, aligned with node ids.
struct DefaultBounds {
  std::vector<double> lower;  ///< Algorithm 2's pl(v)
  std::vector<double> upper;  ///< Algorithm 3's pu(v)
};

/// Algorithms 2 and 3 in one sweep per iteration; bit-identical to
/// LowerBounds and UpperBounds. Requires order >= 1; `pool` as there.
Result<DefaultBounds> Bounds(const UncertainGraph& graph, int order,
                             ThreadPool* pool = nullptr);

}  // namespace vulnds

#endif  // VULNDS_VULNDS_BOUNDS_H_
