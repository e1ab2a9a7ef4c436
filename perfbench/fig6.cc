// fig6_grid: the paper's efficiency table (Fig. 6) in process. Cold
// DetectTopK with no context on all eight Table 2 datasets x k in {2, 6, 10}%
// of n x {N, SN, SR, BSR, BSRBK}, N drawing 2000 worlds, on one pool of
// nproc workers. No serve layer is involved.

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/graph_io.h"
#include "serve/graph_catalog.h"
#include "serve/protocol.h"
#include "vulnds/detector.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 7;
constexpr std::size_t kNaiveWorlds = 2000;
// Every cell runs at least three times: the oracle needs a repeat, and the
// latency figures use each cell's median, which one slow execution cannot move.
constexpr std::size_t kMinPasses = 3;
const int kKPercents[] = {2, 6, 10};

struct Cell {
  std::size_t graph;
  std::size_t k;
  vulnds::Method method;
};

std::string RankingOf(const vulnds::DetectionResult& r) {
  std::string key;
  for (std::size_t i = 0; i < r.topk.size(); ++i) {
    key += std::to_string(r.topk[i]) + ":" + vulnds::serve::FormatRoundTrip(r.scores[i]) + " ";
  }
  return key;
}

}  // namespace

Outcome RunFig6Grid(const Options& o) {
  Outcome out;
  std::vector<std::pair<std::string, std::string>> paths;
  for (const vulnds::DatasetId id : vulnds::AllDatasets()) {
    const std::string path = EnsureSnapshot(o, id);
    if (path.empty()) {
      out.Fail("cannot prepare snapshot " + vulnds::DatasetName(id));
      return out;
    }
    paths.emplace_back(vulnds::DatasetName(id), path);
  }
  vulnds::ThreadPool pool(AvailableCpus());
  // One fixed detect seed, as the paper's table is one fixed grid; --seed
  // only shuffles the order cells run in.
  const uint64_t detect_seed = vulnds::DetectorOptions().seed;
  const auto options_for = [&](const Cell& c) {
    vulnds::DetectorOptions options;
    options.method = c.method;
    options.k = c.k;
    options.naive_samples = kNaiveWorlds;
    options.seed = detect_seed;
    options.pool = &pool;
    return options;
  };

  // Set-up: read every snapshot and run one small detect per graph (pool
  // threads up, per-graph coin columns built), timed kSetupRepeats times.
  std::vector<vulnds::UncertainGraph> graphs;
  std::vector<double> setups;
  for (int r = 0; r < kSetupRepeats; ++r) {
    graphs.clear();
    const double t0 = NowSeconds();
    for (const auto& [name, path] : paths) {
      vulnds::Result<vulnds::UncertainGraph> g = vulnds::ReadGraphFile(path);
      if (!g.ok()) {
        out.Fail("cannot read " + path);
        return out;
      }
      graphs.push_back(g.MoveValue());
    }
    for (std::size_t g = 0; g < graphs.size(); ++g) {
      const Cell warm{g, std::max<std::size_t>(1, graphs[g].num_nodes() * 2 / 100),
                      vulnds::Method::kBsrbk};
      if (!vulnds::DetectTopK(graphs[g], options_for(warm)).ok()) {
        out.Fail("warm-up detect failed on " + paths[g].first);
        return out;
      }
    }
    setups.push_back(NowSeconds() - t0);
  }
  const double setup_s = Median(setups);
  std::printf("setup_s(median of %d)=%.4f\n", kSetupRepeats, setup_s);

  std::vector<Cell> cells;
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    for (const int kp : kKPercents) {
      const std::size_t k = std::max<std::size_t>(
          1, graphs[g].num_nodes() * static_cast<std::size_t>(kp) / 100);
      for (const vulnds::Method m : vulnds::AllMethods()) cells.push_back({g, k, m});
    }
  }

  // Timed: whole passes over the grid until the time is up; every repeat
  // of a cell must return the first pass's ranking.
  std::vector<std::vector<double>> cell_seconds(cells.size());
  std::vector<std::string> first_ranking(cells.size());
  std::size_t attempted = 0, failed = 0, sampled = 0, passes = 0;
  const double start = NowSeconds();
  std::vector<std::size_t> order(cells.size());
  for (std::size_t c = 0; c < order.size(); ++c) order[c] = c;
  vulnds::Rng shuffle(vulnds::Mix64(o.seed));
  while (passes < kMinPasses || NowSeconds() - start < o.seconds) {
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[shuffle.NextBounded(i + 1)]);
    }
    for (const std::size_t c : order) {
      const int64_t t0 = NowNanos();
      vulnds::Result<vulnds::DetectionResult> r =
          vulnds::DetectTopK(graphs[cells[c].graph], options_for(cells[c]));
      const double ns = static_cast<double>(NowNanos() - t0);
      ++attempted;
      cell_seconds[c].push_back(ns / 1e9);
      if (!r.ok()) {
        ++failed;
        continue;
      }
      if (passes == 0 && r->samples_processed > 0) ++sampled;
      const std::string ranking = RankingOf(*r);
      if (passes == 0) {
        first_ranking[c] = ranking;
      } else if (ranking != first_ranking[c]) {
        ++failed;
      }
    }
    ++passes;
  }
  const double elapsed = NowSeconds() - start;
  if (failed > 0) out.Fail("a repeated cell returned a different ranking (or failed)");
  std::printf("passes=%zu cells=%zu elapsed=%.3fs\n", passes, cells.size(), elapsed);
  std::printf("vulnds.sampled_share=%.4f\n",
              static_cast<double>(sampled) / static_cast<double>(cells.size()));

  // Fig. 6 per method: the sum over the 24 cells of each cell's median.
  double per_method[5] = {0, 0, 0, 0, 0};
  std::vector<double> cell_median_us;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    per_method[static_cast<int>(cells[c].method)] += Median(cell_seconds[c]);
    cell_median_us.push_back(Median(cell_seconds[c]) * 1e6);
  }
  for (const vulnds::Method m : vulnds::AllMethods()) {
    std::printf("fig6 %-5s %.4f s\n", vulnds::MethodName(m).c_str(),
                per_method[static_cast<int>(m)]);
  }
  std::printf("fig6 N/BSRBK ratio %.1fx (for comparison with the paper; not a metric)\n",
              per_method[0] / std::max(1e-12, per_method[4]));

  if (!o.trace) {
    out.Count(attempted, failed);
    out.Add("setup_s", setup_s, "s");
    out.Add("throughput_ops", static_cast<double>(attempted - failed) / elapsed, "ops/s");
    out.Add("latency_p50_us", Percentile(cell_median_us, 50), "us");
    out.Add("latency_p99_us", Percentile(cell_median_us, 99), "us");
    out.Add("peak_rss_mb", PeakRssMb(0), "MiB");
    return out;
  }

  // Traced: one more pass, each cell an op whose DetectTopK is its span.
  out.Count(attempted, failed);
  LayerValues layer;
  Tracer tracer;
  std::vector<double> traced_us;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const int64_t t0 = NowNanos();
    ScopedSpan root(&tracer, "op", c);
    {
      ScopedSpan s(&tracer, "vulnds.detect", c, root.id());
      (void)vulnds::DetectTopK(graphs[cells[c].graph], options_for(cells[c]));
    }
    root.End();
    traced_us.push_back(static_cast<double>(NowNanos() - t0) / 1e3);
  }
  layer["trace.overhead_p50_us"] = Percentile(traced_us, 50) - Percentile(cell_median_us, 50);
  CheckSpanAccounting(tracer, &layer, &out);
  tracer.WriteJsonl(o.work_dir + "/spans-fig6_grid.jsonl");

  LayerInputs inputs;
  inputs.graphs = paths;
  inputs.detect_seed = detect_seed;
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    for (const int kp : kKPercents) {
      const std::size_t k = std::max<std::size_t>(
          1, graphs[g].num_nodes() * static_cast<std::size_t>(kp) / 100);
      inputs.cells.emplace_back(paths[g].first, k);
      inputs.keys.push_back("detect " + paths[g].first + " " + std::to_string(k) +
                            " BSRBK seed=" + std::to_string(detect_seed));
    }
  }
  inputs.temp_dir = o.work_dir + "/battery";
  double resident = 0;
  for (const vulnds::UncertainGraph& g : graphs) {
    resident += static_cast<double>(vulnds::serve::EstimateGraphBytes(g));
  }
  layer["store.resident_mb"] = resident / (1024.0 * 1024.0);
  graphs.clear();
  RunLayerBattery(inputs, &layer, &out);
  EmitLayerMetrics(layer, &out);
  return out;
}

}  // namespace perfbench
