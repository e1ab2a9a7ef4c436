// The four workloads and the per-layer battery their traced runs share.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "support.h"

namespace perfbench {

Outcome RunHotCached(const Options& options);
Outcome RunZipfMixed(const Options& options);
Outcome RunUpdateRequery(const Options& options);
Outcome RunFig6Grid(const Options& options);

/// Per-layer metric values of a traced run, keyed by metric name.
using LayerValues = std::map<std::string, double>;

/// What the layer battery measures a workload's layers on: its snapshots,
/// the detect request lines it serves (measured as cache hits), and its
/// (graph, k) cells (measured through the cold detection stages).
struct LayerInputs {
  std::vector<std::pair<std::string, std::string>> graphs;  ///< (name, path)
  std::vector<std::string> keys;
  std::vector<std::pair<std::string, std::size_t>> cells;  ///< (name, k)
  uint64_t detect_seed = 42;
  std::string temp_dir;  ///< for the spill and journal probes
};

/// Times each layer's public calls on `inputs` and fills the layer metrics
/// no workload replay provides. Values already in `values` are kept.
void RunLayerBattery(const LayerInputs& inputs, LayerValues* values, Outcome* outcome);

/// Checks span accounting for every op of `tracer` (root spans = ops):
/// the share of each op's latency its child spans leave unattributed.
/// Adds trace.unattributed_p99_share and fails the run when it exceeds
/// kMaxUnattributedShare.
void CheckSpanAccounting(const Tracer& tracer, LayerValues* values, Outcome* outcome);
inline constexpr double kMaxUnattributedShare = 0.10;

/// Emits every declared per-layer metric, in declaration order.
void EmitLayerMetrics(const LayerValues& values, Outcome* outcome);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
