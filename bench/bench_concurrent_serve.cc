// Concurrent serving: aggregate cached-query throughput and latency
// percentiles as the number of concurrent sessions grows, over one shared
// QueryEngine: each session is a ServeSession on its own thread, all of them
// reporting into one ServerStats.
//
// Sessions are prewarmed so every timed request is a result-cache hit: the
// scaling measured here is the serve stack's (catalog lookup, per-request
// formatting, result-cache lock), not the detectors'. Every response is
// checked bit-identical to its single-session counterpart modulo the
// wall-clock time= token — the only nondeterministic byte in the protocol.
//
// With --socket a second phase drives 8 concurrent TCP connections through
// the src/net front end against a zero-clock engine: the time= token is
// pinned to 0, so every socket response is checked byte-exact against the
// stdin front's cached block — modulo NOTHING — while round-trip qps and
// p50/p99 are timed from the client side of a real socket.
//
// Gate (>=4-core hosts): 8 sessions must aggregate >=3x the
// single-session throughput. On narrower hosts the throughput gate is
// reported but not enforced (VULNDS_BENCH_GATE=0
// demotes them everywhere); bit-identity is always enforced.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/table.h"
#include "common/timer.h"
#include "gen/datasets.h"
#include "net/net_server.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "serve/session.h"

namespace {

using namespace vulnds;

constexpr std::size_t kGraphs = 8;
constexpr int kRepeats = 1500;       // timed cached queries per session
constexpr std::size_t kSocketClients = 8;
constexpr int kSocketRepeats = 400;  // round trips per TCP client

std::string StripTimes(const std::string& text) {
  std::istringstream in(text);
  std::string line, rebuilt;
  while (std::getline(in, line)) {
    rebuilt += serve::StripWallClockTokens(line) + "\n";
  }
  return rebuilt;
}

// A session over the shared engine, counted in `stats` as a front counts it.
serve::ServeSession NewSession(serve::QueryEngine* engine,
                               serve::ServerStats* stats) {
  stats->sessions_started->Increment();
  return serve::ServeSession(engine, nullptr, stats);
}

struct SessionRun {
  std::vector<double> latencies;  // seconds per request
  std::string output;
};

// The in-process histogram quantile must agree with the externally timed
// percentile up to bucket quantization: the latency ladder's widest edge
// ratio is 2.5x, so interpolation can sit a small factor off the exact
// sample percentile; a 10us absolute floor absorbs timer noise on
// single-digit-microsecond cached hits.
bool QuantilesAgree(double hist_us, double external_us) {
  return hist_us <= 3.0 * external_us + 10.0 &&
         external_us <= 3.0 * hist_us + 10.0;
}

// Reads exactly `want` more bytes into *out (deadline-bounded).
bool RecvExact(int fd, std::size_t want, std::string* out) {
  char buf[4096];
  while (want > 0) {
    std::size_t got = 0;
    if (vulnds::net::RecvSome(fd, buf, std::min(sizeof(buf), want), 30'000,
                              &got) != vulnds::net::IoStatus::kOk) {
      return false;
    }
    out->append(buf, got);
    want -= got;
  }
  return true;
}

// The --socket phase: kSocketClients concurrent TCP connections through a
// real NetServer over a ZERO-CLOCK engine (time= renders as time=0), so
// every response must be byte-exact against the stdin front's cached block
// with no stripping at all. Round trips are timed from the client side.
// Returns false when any transcript diverges.
bool RunSocketPhase(vulnds::serve::GraphCatalog* catalog,
                    const std::vector<std::string>& queries,
                    bench::BenchJson* json) {
  using namespace vulnds;
  serve::QueryEngineOptions zero_options;
  zero_options.clock = [] { return int64_t{0}; };
  serve::QueryEngine engine(catalog, zero_options);

  // The stdin-front oracle: cold detect per graph, then the cached block
  // every socket response must reproduce byte for byte.
  std::vector<std::string> blocks(kGraphs);
  {
    serve::ServeSession session(&engine);
    for (std::size_t g = 0; g < kGraphs; ++g) {
      std::ostringstream warm;
      session.HandleLine(queries[g], warm);
      std::ostringstream cached;
      session.HandleLine(queries[g], cached);
      blocks[g] = cached.str();
    }
  }

  net::NetServerOptions options;
  options.tcp_port = 0;  // ephemeral
  options.max_connections = kSocketClients + 4;
  net::NetServer server(&engine, nullptr, options);
  if (const Status st = server.Start(); !st.ok()) {
    std::fprintf(stderr, "socket phase: %s\n", st.message().c_str());
    return false;
  }
  const int port = server.tcp_port();

  struct ClientRun {
    std::vector<double> latencies;
    bool identical = true;
    bool io_ok = true;
  };
  std::vector<ClientRun> runs(kSocketClients);
  std::vector<std::thread> clients;
  WallTimer wall;
  for (std::size_t c = 0; c < kSocketClients; ++c) {
    clients.emplace_back([&, c] {
      ClientRun& run = runs[c];
      Result<net::Socket> sock = net::DialTcp("127.0.0.1", port);
      if (!sock.ok()) {
        run.io_ok = false;
        return;
      }
      const std::string request = queries[c % kGraphs] + "\n";
      const std::string& block = blocks[c % kGraphs];
      run.latencies.reserve(kSocketRepeats);
      for (int r = 0; r < kSocketRepeats; ++r) {
        WallTimer timer;
        if (net::SendAll(sock->fd(), request.data(), request.size(),
                         30'000) != net::IoStatus::kOk) {
          run.io_ok = false;
          return;
        }
        std::string response;
        if (!RecvExact(sock->fd(), block.size(), &response)) {
          run.io_ok = false;
          return;
        }
        run.latencies.push_back(timer.Seconds());
        if (response != block) run.identical = false;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double elapsed = wall.Seconds();
  server.BeginDrain();
  server.Join();

  bool identical = true;
  std::vector<double> latencies;
  for (std::size_t c = 0; c < kSocketClients; ++c) {
    if (!runs[c].io_ok) {
      identical = false;
      std::fprintf(stderr, "FAIL: socket client %zu hit an I/O error\n", c);
    } else if (!runs[c].identical) {
      identical = false;
      std::fprintf(stderr, "FAIL: socket client %zu diverged from the stdin "
                           "front's transcript\n", c);
    }
    latencies.insert(latencies.end(), runs[c].latencies.begin(),
                     runs[c].latencies.end());
  }
  const double qps =
      static_cast<double>(kSocketClients * kSocketRepeats) / elapsed;
  const double p50_us = bench::Percentile(latencies, 50) * 1e6;
  const double p99_us = bench::Percentile(latencies, 99) * 1e6;
  std::printf("socket phase: %zu TCP clients x %d round trips: %.0f qps, "
              "p50 %.1fus, p99 %.1fus, byte-exact (modulo nothing): %s\n",
              kSocketClients, kSocketRepeats, qps, p50_us, p99_us,
              identical ? "yes" : "NO");
  json->Add("socket_qps_c8", qps);
  json->Add("socket_p50_us", p50_us);
  json->Add("socket_p99_us", p99_us);
  json->Add("socket_bit_identical", identical);
  return identical;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchProfile profile = bench::GetProfile();
  bench::PrintProfileBanner(profile, "concurrent serve (sessions over one engine)");
  bench::BenchJson json("concurrent_serve", bench::JsonRequested(argc, argv));
  bool socket_phase = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--socket") == 0) socket_phase = true;
  }

  serve::GraphCatalog catalog;
  serve::QueryEngine engine(&catalog);
  serve::ServerStats stats(*engine.registry());

  // One modest graph per session slot; distinct seeds so catalog entries
  // and cache lines are genuinely distinct.
  const DatasetSpec spec = GetDatasetSpec(DatasetId::kCitation);
  const double scale =
      std::min(1.0, 800.0 / static_cast<double>(spec.num_nodes));
  std::vector<std::string> queries;
  for (std::size_t g = 0; g < kGraphs; ++g) {
    Result<UncertainGraph> graph = MakeDataset(DatasetId::kCitation, scale, 42 + g);
    if (!graph.ok()) {
      std::fprintf(stderr, "dataset failed: %s\n",
                   graph.status().ToString().c_str());
      return 1;
    }
    const std::size_t k = std::max<std::size_t>(1, graph->num_nodes() / 50);
    const std::string name = "g" + std::to_string(g);
    if (!catalog.Put(name, graph.MoveValue()).ok()) return 1;
    queries.push_back("detect " + name + " " + std::to_string(k) +
                      " BSRBK seed=7");
  }

  // Prewarm (the one cold detect per graph) and capture the per-graph
  // cached response block each timed request must reproduce.
  std::vector<std::string> expected_blocks(kGraphs);
  {
    serve::ServeSession session = NewSession(&engine, &stats);
    for (std::size_t g = 0; g < kGraphs; ++g) {
      std::ostringstream warm;
      session.HandleLine(queries[g], warm);  // cold
      std::ostringstream cached;
      session.HandleLine(queries[g], cached);  // cached=1 from here on
      expected_blocks[g] = StripTimes(cached.str());
    }
  }

  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::printf("graphs: %zu (~%zu nodes each), %d cached queries/session, "
              "%zu hardware threads\n\n",
              kGraphs, static_cast<std::size_t>(spec.num_nodes * scale),
              kRepeats, hw);

  TextTable table;
  table.SetHeader({"sessions", "qps", "p50 (us)", "p99 (us)", "scaling"});
  double qps1 = 0.0, qps8 = 0.0;
  bool all_identical = true;
  std::vector<double> all_latencies;  // every timed request, all phases
  for (const std::size_t sessions : {1u, 2u, 4u, 8u}) {
    std::vector<SessionRun> runs(sessions);
    std::vector<std::thread> threads;
    WallTimer wall;
    for (std::size_t s = 0; s < sessions; ++s) {
      threads.emplace_back([&, s] {
        serve::ServeSession session = NewSession(&engine, &stats);
        SessionRun& run = runs[s];
        run.latencies.reserve(kRepeats);
        std::ostringstream out;
        const std::string& query = queries[s % kGraphs];
        for (int r = 0; r < kRepeats; ++r) {
          WallTimer timer;
          session.HandleLine(query, out);
          run.latencies.push_back(timer.Seconds());
        }
        run.output = out.str();
      });
    }
    for (std::thread& t : threads) t.join();
    const double elapsed = wall.Seconds();

    // Bit-identity: each session's transcript is its expected cached block
    // repeated, modulo time=.
    for (std::size_t s = 0; s < sessions; ++s) {
      std::string expected;
      for (int r = 0; r < kRepeats; ++r) expected += expected_blocks[s % kGraphs];
      if (StripTimes(runs[s].output) != expected) {
        all_identical = false;
        std::fprintf(stderr,
                     "FAIL: session %zu of %zu diverged from its "
                     "single-session transcript\n",
                     s, sessions);
      }
    }

    std::vector<double> latencies;
    for (const SessionRun& run : runs) {
      latencies.insert(latencies.end(), run.latencies.begin(),
                       run.latencies.end());
    }
    all_latencies.insert(all_latencies.end(), latencies.begin(),
                         latencies.end());
    const double qps = static_cast<double>(sessions * kRepeats) / elapsed;
    const double p50 = bench::Percentile(latencies, 50);
    const double p99 = bench::Percentile(latencies, 99);
    if (sessions == 1) qps1 = qps;
    if (sessions == 8) qps8 = qps;
    table.AddRow({std::to_string(sessions), TextTable::Num(qps, 0),
                  TextTable::Num(p50 * 1e6, 1), TextTable::Num(p99 * 1e6, 1),
                  TextTable::Num(qps1 > 0 ? qps / qps1 : 0.0, 2) + "x"});
    json.Add("qps_s" + std::to_string(sessions), qps);
    json.Add("p50_ms_s" + std::to_string(sessions), p50 * 1e3);
    json.Add("p99_ms_s" + std::to_string(sessions), p99 * 1e3);
  }
  std::printf("%s\n", table.ToString().c_str());

  const double scaling = qps1 > 0 ? qps8 / qps1 : 0.0;
  std::printf("sessions: %zu, requests: %zu, errors: %zu\n",
              static_cast<std::size_t>(stats.sessions_started->Value()),
              static_cast<std::size_t>(stats.requests->Value()),
              static_cast<std::size_t>(stats.errors->Value()));
  std::printf("aggregate scaling at 8 sessions: %.2fx\n", scaling);

  // Cross-check the serving stack's own latency histogram against the
  // externally timed percentiles: the per-verb session histogram observed
  // exactly the HandleLine calls the WallTimer wrapped, so its in-process
  // p50/p99 (Histogram::Quantile, the estimator Prometheus applies
  // server-side) must land within bucket-quantization tolerance of the
  // exact sample percentiles. Divergence means the instrumentation drifted
  // from what it claims to measure.
  obs::Histogram* session_hist = engine.registry()->GetHistogram(
      "vulnds_server_request_micros", "", obs::LatencyBucketsMicros(),
      {{"verb", "detect"}});
  const double hist_p50_us = session_hist->Quantile(0.50);
  const double hist_p99_us = session_hist->Quantile(0.99);
  const double ext_p50_us = bench::Percentile(all_latencies, 50) * 1e6;
  const double ext_p99_us = bench::Percentile(all_latencies, 99) * 1e6;
  const bool hist_agrees = QuantilesAgree(hist_p50_us, ext_p50_us) &&
                           QuantilesAgree(hist_p99_us, ext_p99_us);
  std::printf("in-process histogram: p50 %.1fus (external %.1fus), "
              "p99 %.1fus (external %.1fus) -> %s\n",
              hist_p50_us, ext_p50_us, hist_p99_us, ext_p99_us,
              hist_agrees ? "agree" : "DIVERGED");

  // --socket: the same cached traffic through a real TCP front end,
  // byte-exact against the stdin front (zero clock, no stripping).
  bool socket_identical = true;
  if (socket_phase) {
    socket_identical = RunSocketPhase(&catalog, queries, &json);
  }

  json.Add("hardware_threads", hw);
  json.Add("scaling_x", scaling);
  json.Add("bit_identical", all_identical);
  json.Add("hist_p50_us", hist_p50_us);
  json.Add("hist_p99_us", hist_p99_us);
  json.Add("hist_matches_external", hist_agrees);
  if (!json.Write()) return 1;

  if (!all_identical) {
    std::printf("\nFAIL: concurrent responses diverged from single-session "
                "transcripts\n");
    return 1;
  }
  // Socket byte-exactness is machine-independent: enforced whenever the
  // phase ran, like the in-process transcript checks above.
  if (!socket_identical) {
    std::printf("\nFAIL: socket responses diverged from the stdin front\n");
    return 1;
  }
  // Histogram/external agreement is machine-independent (both sides measure
  // the same run), so it is enforced even where the throughput gate is
  // not.
  if (!hist_agrees) {
    std::printf("\nFAIL: in-process histogram percentiles diverged from the "
                "externally timed percentiles\n");
    return 1;
  }
  if (hw < 4 || bench::GateDisabled()) {
    std::printf("\nthroughput gate skipped (%s); bit-identity OK\n",
                hw < 4 ? "<4 hardware threads" : "VULNDS_BENCH_GATE=0");
    return 0;
  }
  if (scaling < 3.0) {
    std::printf("\nFAIL: scaling %.2fx below the 3x target on a %zu-core "
                "host\n",
                scaling, hw);
    return 1;
  }
  std::printf("\nscaling %.2fx >= 3x: OK\n", scaling);
  return 0;
}
