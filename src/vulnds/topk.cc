#include "vulnds/topk.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>

namespace vulnds {

namespace {

// Orders candidate ids by (score desc, id asc) and keeps the first k.
std::vector<NodeId> SelectTopK(std::vector<NodeId> ids,
                               std::span<const double> scores, std::size_t k) {
  k = std::min(k, ids.size());
  auto cmp = [&scores](NodeId a, NodeId b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return a < b;
  };
  std::partial_sort(ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(k),
                    ids.end(), cmp);
  ids.resize(k);
  return ids;
}

}  // namespace

Status ValidateTopK(std::size_t k, std::size_t n) {
  if (k == 0 || k > n) {
    return Status::InvalidArgument("k must be in [1, n], got " +
                                   std::to_string(k));
  }
  return Status::OK();
}

std::vector<NodeId> TopKByScore(std::span<const double> scores, std::size_t k) {
  std::vector<NodeId> ids(scores.size());
  std::iota(ids.begin(), ids.end(), 0);
  return SelectTopK(std::move(ids), scores, k);
}

std::vector<NodeId> TopKByScoreSubset(std::span<const double> scores,
                                      std::span<const NodeId> subset, std::size_t k) {
  std::vector<NodeId> ids(subset.begin(), subset.end());
  return SelectTopK(std::move(ids), scores, k);
}

double KthLargest(std::span<const double> scores, std::size_t k) {
  if (scores.empty()) return -std::numeric_limits<double>::infinity();
  k = std::min(std::max<std::size_t>(k, 1), scores.size());
  std::vector<double> copy(scores.begin(), scores.end());
  std::nth_element(copy.begin(), copy.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   copy.end(), std::greater<double>());
  return copy[k - 1];
}

}  // namespace vulnds
