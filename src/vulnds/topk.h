// Top-k selection over score vectors with deterministic tie-breaking.

#ifndef VULNDS_VULNDS_TOPK_H_
#define VULNDS_VULNDS_TOPK_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/status.h"
#include "graph/uncertain_graph.h"

namespace vulnds {

/// InvalidArgument unless 1 <= k <= n: the k every top-k answer (detect,
/// truth, candidate reduction) accepts, with one message for all of them.
Status ValidateTopK(std::size_t k, std::size_t n);

/// Node ids of the k largest scores, ordered by decreasing score; ties break
/// toward the smaller node id so results are deterministic. k is clamped to
/// the score count.
std::vector<NodeId> TopKByScore(std::span<const double> scores, std::size_t k);

/// Same, but restricted to the given subset of nodes; `scores` is indexed by
/// node id.
std::vector<NodeId> TopKByScoreSubset(std::span<const double> scores,
                                      std::span<const NodeId> subset, std::size_t k);

/// The k-th largest value of `scores` (1-based: k=1 is the maximum).
/// k is clamped to [1, scores.size()]; returns -infinity for empty input.
double KthLargest(std::span<const double> scores, std::size_t k);

}  // namespace vulnds

#endif  // VULNDS_VULNDS_TOPK_H_
