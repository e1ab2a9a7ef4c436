#include "vulnds/candidate_reduction.h"

#include <algorithm>
#include <string>

#include "vulnds/topk.h"

namespace vulnds {

Result<CandidateReduction> ReduceCandidates(std::span<const double> lower,
                                            std::span<const double> upper,
                                            std::size_t k) {
  const std::size_t n = lower.size();
  if (upper.size() != n) {
    return Status::InvalidArgument("bound vectors differ in size");
  }
  VULNDS_RETURN_NOT_OK(ValidateTopK(k, n));

  CandidateReduction out;
  out.threshold_lower = KthLargest(lower, k);
  out.threshold_upper = KthLargest(upper, k);

  std::vector<NodeId> rule1;
  for (NodeId v = 0; v < n; ++v) {
    if (lower[v] >= out.threshold_upper) {
      rule1.push_back(v);
    }
  }
  // More than k rule-1 hits implies exact ties across the k-th upper bound;
  // verify the strongest k and demote the rest to candidates.
  std::sort(rule1.begin(), rule1.end(), [&](NodeId a, NodeId b) {
    if (lower[a] != lower[b]) return lower[a] > lower[b];
    return a < b;
  });
  std::vector<char> is_verified(n, 0);
  for (std::size_t i = 0; i < rule1.size() && i < k; ++i) {
    out.verified.push_back(rule1[i]);
    is_verified[rule1[i]] = 1;
  }
  for (NodeId v = 0; v < n; ++v) {
    if (is_verified[v]) continue;
    if (upper[v] >= out.threshold_lower) {
      out.candidates.push_back(v);
    }
  }
  return out;
}

}  // namespace vulnds
