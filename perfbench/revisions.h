// Update rounds of the update_requery workload (and of the layer battery's
// dyn probe): valid by construction against a mirrored edge list.

#ifndef PERFBENCH_REVISIONS_H_
#define PERFBENCH_REVISIONS_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "graph/uncertain_graph.h"

namespace perfbench {

inline constexpr std::size_t kSets = 32, kAdds = 8, kDels = 4;
// Small enough that the journal compacts every few dozen rounds.
inline constexpr std::size_t kJournalCompactBytes = 64u << 10;

struct Revision {
  enum Kind { kSet, kAdd, kDel } kind = kSet;
  vulnds::NodeId src = 0;
  vulnds::NodeId dst = 0;
  double prob = 0.0;
};

// Mirrors DeltaLog semantics on a plain edge list: deledge/setprob hit the
// lowest-id live match, addedge appends.
inline void ApplyRevision(const Revision& r, std::vector<vulnds::UncertainEdge>* edges) {
  if (r.kind == Revision::kAdd) {
    edges->push_back({r.src, r.dst, r.prob});
    return;
  }
  for (std::size_t i = 0; i < edges->size(); ++i) {
    if ((*edges)[i].src == r.src && (*edges)[i].dst == r.dst) {
      if (r.kind == Revision::kSet) {
        (*edges)[i].prob = r.prob;
      } else {
        edges->erase(edges->begin() + static_cast<std::ptrdiff_t>(i));
      }
      return;
    }
  }
}

// One round (kSets setprob, kAdds addedge, kDels deledge), drawn against
// the live edge list so every op is valid; applied to `edges` as drawn.
inline std::vector<Revision> DrawRound(std::vector<vulnds::UncertainEdge>* edges,
                                       std::size_t n, vulnds::Rng& rng) {
  using vulnds::NodeId;
  std::vector<Revision> round;
  const auto emit = [&](Revision r) {
    ApplyRevision(r, edges);
    round.push_back(r);
  };
  for (std::size_t i = 0; i < kSets; ++i) {
    const vulnds::UncertainEdge e = (*edges)[rng.NextBounded(edges->size())];
    emit({Revision::kSet, e.src, e.dst, rng.NextDouble()});
  }
  for (std::size_t i = 0; i < kAdds; ++i) {
    const NodeId src = static_cast<NodeId>(rng.NextBounded(n));
    NodeId dst = static_cast<NodeId>(rng.NextBounded(n));
    if (src == dst) dst = static_cast<NodeId>((dst + 1) % n);
    emit({Revision::kAdd, src, dst, rng.NextDouble()});
  }
  for (std::size_t i = 0; i < kDels; ++i) {
    const vulnds::UncertainEdge e = (*edges)[rng.NextBounded(edges->size())];
    emit({Revision::kDel, e.src, e.dst, 0.0});
  }
  return round;
}

}  // namespace perfbench

#endif  // PERFBENCH_REVISIONS_H_
