// Dynamic-update write path: staged-delta commit + warm re-query on the new
// version vs the static stack's full text-reload + cold detect.
//
// The scenario is the paper's risk-monitoring loop: a standing top-k query
// over a graph whose edge probabilities are revised in rounds. The old
// world re-parses the regenerated text file and detects cold every round;
// the dynamic path stages the same revisions through an UpdateManager,
// commits a versioned snapshot (rebuilding only touched CSR runs), and
// re-queries with the carried-forward context. Both paths must return
// bit-identical rankings every round; the dynamic path must win by >= 5x.
//
// Quick profile by default; VULNDS_BENCH_FULL=1 runs the paper-scale graph.
// --json writes a BENCH_dyn_updates.json record.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "dyn/update_manager.h"
#include "graph/builder.h"
#include "graph/graph_io.h"
#include "serve/graph_catalog.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"

namespace {

using namespace vulnds;

// One round of probability revisions plus a little topology churn.
struct Revision {
  NodeId src = 0;
  NodeId dst = 0;
  double prob = 0.0;
  enum Kind { kSet, kAdd, kDel } kind = kSet;
};

// Applies one revision to a plain edge list, mirroring DeltaLog semantics
// (deledge/setprob hit the lowest-id live match).
void ApplyRevision(const Revision& r, std::vector<UncertainEdge>* edges) {
  if (r.kind == Revision::kAdd) {
    edges->push_back({r.src, r.dst, r.prob});
    return;
  }
  for (std::size_t i = 0; i < edges->size(); ++i) {
    if ((*edges)[i].src == r.src && (*edges)[i].dst == r.dst) {
      if (r.kind == Revision::kSet) {
        (*edges)[i].prob = r.prob;
      } else {
        edges->erase(edges->begin() + i);
      }
      return;
    }
  }
}

// Draws a revision batch, applying each revision to `edges` as it is drawn
// so every deledge/setprob targets an edge that is live at its position in
// the batch — DeltaLog will accept the whole sequence by construction.
std::vector<Revision> DrawAndApplyBatch(std::vector<UncertainEdge>* edges,
                                        std::size_t num_nodes,
                                        std::size_t sets, std::size_t adds,
                                        std::size_t dels, Rng& rng) {
  std::vector<Revision> batch;
  const auto emit = [&](Revision r) {
    ApplyRevision(r, edges);
    batch.push_back(r);
  };
  for (std::size_t i = 0; i < sets; ++i) {
    const UncertainEdge& e = (*edges)[rng.NextU64() % edges->size()];
    emit({e.src, e.dst, rng.NextDouble(), Revision::kSet});
  }
  for (std::size_t i = 0; i < adds; ++i) {
    NodeId src = static_cast<NodeId>(rng.NextU64() % num_nodes);
    NodeId dst = static_cast<NodeId>(rng.NextU64() % num_nodes);
    if (src == dst) dst = (dst + 1) % num_nodes;
    emit({src, dst, rng.NextDouble(), Revision::kAdd});
  }
  for (std::size_t i = 0; i < dels; ++i) {
    const UncertainEdge& e = (*edges)[rng.NextU64() % edges->size()];
    emit({e.src, e.dst, 0.0, Revision::kDel});
  }
  return batch;
}

UncertainGraph BuildFromEdges(const UncertainGraph& base,
                              const std::vector<UncertainEdge>& edges) {
  UncertainGraphBuilder b(base.num_nodes());
  for (NodeId v = 0; v < base.num_nodes(); ++v) {
    b.SetSelfRisk(v, base.self_risk(v));
  }
  for (const UncertainEdge& e : edges) b.AddEdge(e.src, e.dst, e.prob);
  return b.Build().MoveValue();
}

std::string RankingKey(const DetectionResult& r) {
  std::string key;
  for (std::size_t i = 0; i < r.topk.size(); ++i) {
    key += std::to_string(r.topk[i]) + ":" +
           serve::FormatRoundTrip(r.scores[i]) + " ";
  }
  return key;
}

DetectionResult MustDetect(serve::QueryEngine& engine, const std::string& name,
                           const DetectorOptions& options) {
  Result<serve::DetectResponse> response = engine.Detect(name, options);
  if (!response.ok()) {
    std::fprintf(stderr, "detect %s failed: %s\n", name.c_str(),
                 response.status().ToString().c_str());
    std::exit(1);
  }
  return response->result;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchProfile profile = bench::GetProfile();
  bench::PrintProfileBanner(profile, "dynamic updates (commit + warm re-query)");
  bench::BenchJson json("dyn_updates", bench::JsonRequested(argc, argv));

  const DatasetId dataset = DatasetId::kCitation;
  const double scale = profile.DatasetScale(dataset);
  Result<UncertainGraph> base = MakeDataset(dataset, scale, 42);
  if (!base.ok()) {
    std::fprintf(stderr, "dataset failed: %s\n", base.status().ToString().c_str());
    return 1;
  }
  const std::size_t n = base->num_nodes();
  std::printf("graph: %s scale=%.3f (%zu nodes, %zu edges)\n\n",
              DatasetName(dataset).c_str(), scale, n, base->num_edges());

  // The gate compares per-round medians. A quick round is well under a
  // millisecond, so the quick profile times more of them to narrow the
  // ratio's run-to-run spread around the 5x bound.
  const std::size_t kRounds = profile.full ? 7 : 41;
  const std::size_t kSets = 32, kAdds = 8, kDels = 4;
  DetectorOptions standing;
  standing.method = Method::kBsrbk;
  standing.k = std::max<std::size_t>(1, n / 200);  // 0.5%: revision-latency bound, not detect bound
  standing.naive_samples = profile.naive_samples;

  // Pre-generate the revision rounds and the regenerated text files the
  // static stack would reload (the upstream write cost belongs to neither
  // measured path).
  Rng rng(7);
  std::vector<UncertainEdge> edges(base->edges().begin(), base->edges().end());
  std::vector<std::vector<Revision>> rounds;
  std::vector<std::string> round_paths;
  for (std::size_t r = 0; r < kRounds; ++r) {
    rounds.push_back(DrawAndApplyBatch(&edges, n, kSets, kAdds, kDels, rng));
    const UncertainGraph rebuilt = BuildFromEdges(*base, edges);
    round_paths.push_back(bench::TempPath("bench_dyn_r" + std::to_string(r) + ".graph"));
    if (!WriteGraphFile(rebuilt, round_paths.back(), GraphFileFormat::kText).ok()) {
      std::fprintf(stderr, "snapshot write failed\n");
      return 1;
    }
  }
  const std::string base_path = bench::TempPath("bench_dyn_base.graph");
  if (!WriteGraphFile(*base, base_path, GraphFileFormat::kText).ok()) return 1;

  ThreadPool pool;
  serve::GraphCatalog catalog;
  serve::QueryEngineOptions engine_options;
  engine_options.pool = &pool;
  serve::QueryEngine engine(&catalog, engine_options);
  dyn::UpdateManager updates(&catalog);

  if (!catalog.Load("g", base_path).ok()) return 1;
  // Reach serving steady state on the base version before the first round.
  MustDetect(engine, "g", standing);

  std::vector<double> reloads, colds, stages, commit_latencies,
      warm_query_latencies;
  bool identical = true;

  for (std::size_t r = 0; r < kRounds; ++r) {
    // --- static stack: full text reload (fresh uid => cold) + cold detect.
    WallTimer timer;
    if (!catalog.Load("static", round_paths[r]).ok()) return 1;
    const double reload = timer.Seconds();
    timer.Reset();
    const DetectionResult static_result = MustDetect(engine, "static", standing);
    const double cold = timer.Seconds();
    reloads.push_back(reload);
    colds.push_back(cold);

    // --- dynamic path: stage the same batch, commit, query the version.
    timer.Reset();
    for (const Revision& rev : rounds[r]) {
      Status st;
      switch (rev.kind) {
        case Revision::kSet:
          st = updates.SetProb("g", rev.src, rev.dst, rev.prob).status();
          break;
        case Revision::kAdd:
          st = updates.AddEdge("g", rev.src, rev.dst, rev.prob).status();
          break;
        case Revision::kDel:
          st = updates.DeleteEdge("g", rev.src, rev.dst).status();
          break;
      }
      if (!st.ok()) {
        std::fprintf(stderr, "stage failed: %s\n", st.ToString().c_str());
        return 1;
      }
    }
    stages.push_back(timer.Seconds());
    timer.Reset();
    Result<serve::CommitInfo> commit = updates.Commit("g");
    if (!commit.ok()) {
      std::fprintf(stderr, "commit failed: %s\n",
                   commit.status().ToString().c_str());
      return 1;
    }
    commit_latencies.push_back(timer.Seconds());
    timer.Reset();
    const DetectionResult dyn_result =
        MustDetect(engine, commit->versioned_name, standing);
    warm_query_latencies.push_back(timer.Seconds());

    if (RankingKey(static_result) != RankingKey(dyn_result)) {
      identical = false;
      std::fprintf(stderr, "round %zu: rankings diverge!\n", r);
    }
  }

  // Medians, not totals: the speedup gate must not fail because one round
  // caught a scheduler hiccup on a shared CI runner (same reasoning as the
  // median-of-3 cold in bench_serve_throughput).
  const double reload_p50 = bench::Percentile(reloads, 50);
  const double cold_p50 = bench::Percentile(colds, 50);
  const double stage_p50 = bench::Percentile(stages, 50);
  const double commit_p50 = bench::Percentile(commit_latencies, 50);
  const double query_p50 = bench::Percentile(warm_query_latencies, 50);
  const double static_round = reload_p50 + cold_p50;
  const double dyn_round = stage_p50 + commit_p50 + query_p50;
  const double speedup = dyn_round > 0 ? static_round / dyn_round : 0.0;
  const double rebuild_speedup = commit_p50 > 0 ? reload_p50 / commit_p50 : 0.0;

  TextTable table;
  table.SetHeader({"path", "median round (ms)", "breakdown (ms)"});
  table.AddRow({"static: reload + cold detect",
                TextTable::Num(static_round * 1e3, 3),
                "reload " + TextTable::Num(reload_p50 * 1e3, 3) + " + detect " +
                    TextTable::Num(cold_p50 * 1e3, 3)});
  table.AddRow({"dyn: stage + commit + warm query",
                TextTable::Num(dyn_round * 1e3, 3),
                "stage " + TextTable::Num(stage_p50 * 1e3, 3) + " + commit " +
                    TextTable::Num(commit_p50 * 1e3, 3) + " + query " +
                    TextTable::Num(query_p50 * 1e3, 3)});
  std::printf("%s\n", table.ToString().c_str());
  std::printf("rounds=%zu ops/round=%zu (set=%zu add=%zu del=%zu)\n", kRounds,
              kSets + kAdds + kDels, kSets, kAdds, kDels);
  const double commit_p99 = bench::Percentile(commit_latencies, 99);
  const double query_p99 = bench::Percentile(warm_query_latencies, 99);
  std::printf("commit p50=%.3fms p99=%.3fms; warm query p50=%.3fms p99=%.3fms\n",
              commit_p50 * 1e3, commit_p99 * 1e3, query_p50 * 1e3,
              query_p99 * 1e3);
  std::printf("commit vs full text rebuild (median): %.1fx faster\n",
              rebuild_speedup);
  std::printf("end-to-end median (stage+commit+query vs reload+detect): %.1fx\n",
              speedup);
  std::printf("rankings bit-identical across %zu rounds: %s\n", kRounds,
              identical ? "yes" : "NO");

  json.Add("n", n);
  json.Add("m", base->num_edges());
  json.Add("rounds", kRounds);
  json.Add("ops_per_round", kSets + kAdds + kDels);
  json.Add("static_reload_p50_ms", reload_p50 * 1e3);
  json.Add("static_detect_p50_ms", cold_p50 * 1e3);
  json.Add("dyn_stage_p50_ms", stage_p50 * 1e3);
  json.Add("commit_p50_ms", commit_p50 * 1e3);
  json.Add("commit_p99_ms", commit_p99 * 1e3);
  json.Add("warm_query_p50_ms", query_p50 * 1e3);
  json.Add("warm_query_p99_ms", query_p99 * 1e3);
  json.Add("speedup_vs_static", speedup);
  json.Add("commit_vs_rebuild", rebuild_speedup);
  json.Add("bit_identical", identical);
  if (!json.Write()) return 1;

  if (!identical) return 1;
  if (speedup < 5.0) {
    std::printf("\nWARNING: dynamic path %.1fx below the 5x target\n", speedup);
    return 1;
  }
  std::printf("\ndynamic path %.1fx >= 5x target: OK\n", speedup);
  return 0;
}
