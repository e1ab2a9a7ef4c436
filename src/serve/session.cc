#include "serve/session.h"

#include <istream>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/line_splitter.h"
#include "common/parse.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "serve/protocol.h"
#include "simd/dispatch.h"
#include "vulnds/ground_truth.h"
#include "vulnds/topk.h"

namespace vulnds::serve {

ReadLineResult ReadRequestLine(std::istream& in, std::string* line,
                               std::size_t max_bytes) {
  line->clear();
  // Framing (cap, resync, CRLF) lives in the shared LineSplitter so the
  // blocking stdin loop and the socket connection loop (src/net/) cannot
  // drift apart; this wrapper only pumps streambuf bytes into it. sbumpc
  // serves from the buffer without per-byte istream sentry overhead, and
  // the hostile-line memory stays capped at max_bytes either way.
  LineSplitter splitter(max_bytes);
  std::streambuf* buf = in.rdbuf();
  constexpr int kEofChar = std::char_traits<char>::eof();
  for (;;) {
    const int c = buf->sbumpc();
    if (c == kEofChar) {
      in.setstate(std::ios::eofbit);
      switch (splitter.Finish(line)) {
        case LineSplitter::Event::kLine:
          return ReadLineResult::kLine;
        case LineSplitter::Event::kOversized:
          return ReadLineResult::kOversized;
        case LineSplitter::Event::kNone:
          return ReadLineResult::kEof;
      }
    }
    const char byte = static_cast<char>(c);
    splitter.Feed(&byte, 1);
    switch (splitter.Next(line)) {
      case LineSplitter::Event::kLine:
        return ReadLineResult::kLine;
      case LineSplitter::Event::kOversized:
        return ReadLineResult::kOversized;
      case LineSplitter::Event::kNone:
        break;
    }
  }
}

ServerStats::ServerStats(obs::MetricRegistry& registry)
    : sessions_started(
          registry.GetCounter("vulnds_server_sessions_started_total",
                              "Sessions accepted by the serve front")),
      sessions_finished(
          registry.GetCounter("vulnds_server_sessions_finished_total",
                              "Sessions that ran to quit or EOF")),
      requests(registry.GetCounter(
          "vulnds_server_requests_total",
          "Request lines processed across all sessions")),
      errors(registry.GetCounter("vulnds_server_errors_total",
                                 "err responses emitted across all sessions")),
      updates(registry.GetCounter("vulnds_server_updates_total",
                                  "Accepted update verbs (commits included)")) {}

ServeSession::ServeSession(QueryEngine* engine, UpdateBackend* updates,
                           ServerStats* server)
    : engine_(engine), updates_(updates), server_(server) {}

void ServeSession::CountRequest() {
  ++stats_.requests;
  if (server_ != nullptr) server_->requests->Increment();
}

void ServeSession::CountUpdate() {
  ++stats_.updates;
  if (server_ != nullptr) server_->updates->Increment();
}

void ServeSession::Err(std::ostream& out, const std::string& message) {
  ++stats_.errors;
  if (server_ != nullptr) server_->errors->Increment();
  out << "err " << message << "\n";
}

void ServeSession::HandleOversizedLine(std::ostream& out) {
  CountRequest();
  Err(out, "request line exceeds " + std::to_string(kMaxRequestLineBytes) +
               " bytes");
}

obs::Histogram* ServeSession::VerbHistogram(int command) {
  const std::size_t index = static_cast<std::size_t>(command);
  if (index >= kVerbSlots) return nullptr;
  obs::Histogram*& slot = verb_micros_[index];
  if (slot == nullptr) {
    slot = engine_->registry()->GetHistogram(
        "vulnds_server_request_micros",
        "Per-verb request handling latency in microseconds",
        obs::LatencyBucketsMicros(),
        {{"verb", ServeCommandName(static_cast<ServeCommand>(command))}});
  }
  return slot;
}

bool ServeSession::HandleLine(const std::string& line, std::ostream& out) {
  Result<ServeRequest> request = ParseServeRequest(line);
  if (!request.ok()) {
    CountRequest();
    Err(out, request.status().message());
    return true;
  }
  if (request->command == ServeCommand::kNone) return true;
  CountRequest();
  const int64_t start = engine_->NowMicros();
  bool keep_going = true;
  switch (request->command) {
    case ServeCommand::kQuit:
      out << "ok bye\n";
      keep_going = false;
      break;
    case ServeCommand::kShutdown:
      // Acknowledge before draining: the issuing client must see its answer
      // even though the front end stops accepting the moment the hook runs.
      out << "ok draining\n";
      if (drain_hook_) drain_hook_();
      keep_going = false;
      break;
    case ServeCommand::kLoad:
      HandleLoad(*request, out);
      break;
    case ServeCommand::kSave:
      HandleSave(*request, out);
      break;
    case ServeCommand::kDetect:
      HandleDetect(*request, out);
      break;
    case ServeCommand::kTruth:
      HandleTruth(*request, out);
      break;
    case ServeCommand::kStats:
      HandleStats(*request, out);
      break;
    case ServeCommand::kMetrics:
      HandleMetrics(out);
      break;
    case ServeCommand::kCatalog:
      HandleCatalog(out);
      break;
    case ServeCommand::kEvict:
      HandleEvict(*request, out);
      break;
    case ServeCommand::kAddEdge:
    case ServeCommand::kDelEdge:
    case ServeCommand::kSetProb:
      if (RequireUpdates(out)) HandleStageUpdate(*request, out);
      break;
    case ServeCommand::kCommit:
      if (RequireUpdates(out)) HandleCommit(*request, out);
      break;
    case ServeCommand::kVersions:
      if (RequireUpdates(out)) HandleVersions(*request, out);
      break;
    case ServeCommand::kNone:
      break;
  }
  if (obs::Histogram* h = VerbHistogram(static_cast<int>(request->command))) {
    h->Observe(static_cast<double>(engine_->NowMicros() - start));
  }
  return keep_going;
}

std::shared_ptr<CatalogEntry> ServeSession::ResolveGraph(
    const std::string& name, const std::string& absent, std::ostream& out) {
  Result<std::shared_ptr<CatalogEntry>> entry =
      engine_->catalog().GetOrLoad(name);
  if (!entry.ok()) {
    Err(out, entry.status().ToString());
    return nullptr;
  }
  if (*entry == nullptr) Err(out, absent);
  return entry.MoveValue();
}

void ServeSession::HandleLoad(const ServeRequest& r, std::ostream& out) {
  const Status st = engine_->catalog().Load(r.name, r.path);
  if (!st.ok()) {
    Err(out, st.ToString());
    return;
  }
  // A concurrent evict (or capacity eviction) can race the load-then-get.
  const auto entry =
      ResolveGraph(r.name, "graph '" + r.name + "' was evicted during load", out);
  if (entry == nullptr) return;
  out << "ok loaded " << r.name << " nodes=" << entry->graph.num_nodes()
      << " edges=" << entry->graph.num_edges() << " source=" << r.path << "\n";
}

void ServeSession::HandleSave(const ServeRequest& r, std::ostream& out) {
  const auto entry =
      ResolveGraph(r.name, "graph '" + r.name + "' is not in the catalog", out);
  if (entry == nullptr) return;
  const Status st = WriteGraphFile(entry->graph, r.path, r.format);
  if (!st.ok()) {
    Err(out, st.ToString());
    return;
  }
  out << "ok saved " << r.name << " path=" << r.path << " format="
      << (r.format == GraphFileFormat::kBinary ? "binary" : "text") << "\n";
}

namespace {

// A response buffer with room for its header line and `rows` ranked rows.
std::string ResponseBuffer(std::size_t rows) {
  std::string text;
  text.reserve(128 + rows * kMaxRankedRowBytes + 2);
  return text;
}

// Appends one ranked row per node, scored by `score_of(i)`, and the closing
// ".\n". The rows are written by pointer into room sized for the widest row,
// then the text is cut back to what was written.
template <typename ScoreOf>
void AppendRankedRows(std::string* text, const std::vector<NodeId>& nodes,
                      ScoreOf score_of) {
  const std::size_t start = text->size();
  text->resize(start + nodes.size() * kMaxRankedRowBytes + 2);
  char* at = text->data() + start;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    at = WriteRankedRow(at, i + 1, nodes[i], score_of(i));
  }
  *at++ = '.';
  *at++ = '\n';
  text->resize(static_cast<std::size_t>(at - text->data()));
}

}  // namespace

void ServeSession::HandleDetect(const ServeRequest& r, std::ostream& out) {
  Result<DetectResponse> response = engine_->Detect(r.name, r.options);
  if (!response.ok()) {
    Err(out, response.status().ToString());
    return;
  }
  // The whole response is built in one buffer and handed to the stream in
  // one write: a cached hit costs what the engine costs, not a stream
  // insertion per token.
  const DetectionResult& result = response->result;
  std::string text = ResponseBuffer(result.topk.size());
  text += "ok detect ";
  text += r.name;
  text += " method=";
  text += MethodName(r.options.method);
  text += " k=";
  AppendDecimal(&text, r.options.k);
  text += response->from_cache ? " cached=1 time=" : " cached=0 time=";
  AppendRoundTrip(&text, response->seconds);
  text += " samples=";
  AppendDecimal(&text, result.samples_processed);
  text += '/';
  AppendDecimal(&text, result.samples_budget);
  text += " verified=";
  AppendDecimal(&text, result.verified_count);
  text += '\n';
  AppendRankedRows(&text, result.topk,
                   [&](std::size_t i) { return result.scores[i]; });
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

void ServeSession::HandleTruth(const ServeRequest& r, std::ostream& out) {
  const std::size_t samples =
      r.samples == 0 ? kPaperGroundTruthSamples : r.samples;
  Result<TruthResponse> response = engine_->Truth(r.name, samples, r.seed);
  if (!response.ok()) {
    Err(out, response.status().ToString());
    return;
  }
  // The truth covers every node, so its size is the n detect checks k
  // against.
  const GroundTruth& truth = response->truth;
  const Status k_ok = ValidateTopK(r.k, truth.probabilities.size());
  if (!k_ok.ok()) {
    Err(out, k_ok.ToString());
    return;
  }
  const std::vector<NodeId> top = truth.TopK(r.k);
  std::string text = ResponseBuffer(top.size());
  text += "ok truth ";
  text += r.name;
  text += " k=";
  AppendDecimal(&text, r.k);
  text += " samples=";
  AppendDecimal(&text, samples);
  text += response->from_cache ? " cached=1 time=" : " cached=0 time=";
  AppendRoundTrip(&text, response->seconds);
  text += '\n';
  AppendRankedRows(&text, top, [&](std::size_t i) {
    return truth.probabilities[top[i]];
  });
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

void ServeSession::HandleStats(const ServeRequest& r, std::ostream& out) {
  if (r.name.empty()) {
    const EngineStats s = engine_->stats();
    const GraphCatalog& catalog = engine_->catalog();
    const CatalogStats c = catalog.stats();
    out << "ok stats engine\n";
    out << "detect_queries=" << s.detect_queries << "\n";
    out << "truth_queries=" << s.truth_queries << "\n";
    out << "batched_queries=" << s.batched_queries << "\n";
    out << "worlds_wasted=" << s.worlds_wasted << "\n";
    out << "waves_issued=" << s.waves_issued << "\n";
    // The process-default kernel tier plus the coin-kernel cost split.
    // Like the wave telemetry these vary with hardware and the simd= knob,
    // never with a query's answer.
    out << "simd_tier=" << simd::SimdTierName(simd::DefaultTier()) << "\n";
    out << "simd_batched_coins=" << s.simd_batched_coins << "\n";
    out << "simd_tail_coins=" << s.simd_tail_coins << "\n";
    out << "cache_hits=" << s.result_cache.hits << "\n";
    out << "cache_misses=" << s.result_cache.misses << "\n";
    out << "cache_hit_rate=" << FormatRoundTrip(s.result_cache.HitRate()) << "\n";
    out << "catalog_size=" << catalog.size() << "\n";
    out << "catalog_bytes=" << catalog.resident_bytes() << "\n";
    // Storage hierarchy: what is resident, what the governor allows, what
    // was spilled cold to disk, and how large the durability journal has
    // grown. resident_bytes repeats catalog_bytes under the storage
    // vocabulary so monitoring reads one consistent key set.
    out << "resident_bytes=" << catalog.resident_bytes() << "\n";
    out << "spilled_bytes=" << catalog.spilled_bytes() << "\n";
    out << "spilled_graphs=" << catalog.spilled_count() << "\n";
    out << "store_budget_bytes=" << catalog.governor()->budget() << "\n";
    out << "journal_bytes="
        << (updates_ != nullptr ? updates_->JournalBytes() : 0) << "\n";
    // Warm DetectionContext intermediates grow with query traffic. The
    // engine charges them to the governor as ChargeClass::kContext, the
    // first class it sheds; catalog_bytes= counts snapshots only, so they
    // are reported on their own line.
    const ContextResidency contexts = catalog.WarmContexts();
    out << "context_bytes=" << contexts.bytes << "\n";
    out << "context_busy=" << contexts.busy << "\n";
    out << "catalog_evictions=" << c.evictions << "\n";
    if (server_ != nullptr) {
      // Relaxed snapshot: each counter exact, the set read at one moment.
      out << "server sessions_started=" << server_->sessions_started->Value()
          << " sessions_finished=" << server_->sessions_finished->Value()
          << " requests=" << server_->requests->Value()
          << " errors=" << server_->errors->Value()
          << " updates=" << server_->updates->Value() << "\n";
    }
    // The whole session state in one parseable line: loop counters (the
    // stats request itself is already counted) plus the result cache. The
    // bare hits/misses keys keep this line's vocabulary disjoint from the
    // per-counter cache_* lines above.
    out << "serve requests=" << stats_.requests << " errors=" << stats_.errors
        << " updates=" << stats_.updates << " hits=" << s.result_cache.hits
        << " misses=" << s.result_cache.misses
        << " evictions=" << s.result_cache.evictions << "\n";
    out << ".\n";
    return;
  }
  const auto entry =
      ResolveGraph(r.name, "graph '" + r.name + "' is not in the catalog", out);
  if (entry == nullptr) return;
  const GraphStats s = ComputeStats(entry->graph);
  out << "ok stats " << r.name << "\n";
  out << "nodes=" << s.num_nodes << "\n";
  out << "edges=" << s.num_edges << "\n";
  out << "avg_degree=" << FormatRoundTrip(s.avg_degree) << "\n";
  out << "max_degree=" << s.max_degree << "\n";
  out << "source=" << entry->source << "\n";
  {
    // try_lock like the engine-level figures: a monitoring probe never
    // waits out a cold detect on this graph.
    std::unique_lock<std::mutex> lock(entry->context_mu, std::try_to_lock);
    if (lock.owns_lock()) {
      out << "context_reuse_hits=" << entry->context.reuse_hits << "\n";
      out << "context_reuse_misses=" << entry->context.reuse_misses << "\n";
      out << "context_bytes=" << entry->context.ApproxBytes() << "\n";
    } else {
      out << "context_busy=1\n";
    }
  }
  out << ".\n";
}

void ServeSession::HandleMetrics(std::ostream& out) {
  // One registry, one renderer: every counter is already in the catalog's
  // registry; only the gauges are read at scrape time.
  engine_->catalog().RefreshMetrics();
  out << "ok metrics\n";
  out << engine_->registry()->RenderPrometheus();
  out << ".\n";
}

void ServeSession::HandleCatalog(std::ostream& out) {
  out << "ok catalog size=" << engine_->catalog().size() << "\n";
  for (const std::string& name : engine_->catalog().Names()) {
    out << name << "\n";
  }
  out << ".\n";
}

void ServeSession::HandleEvict(const ServeRequest& r, std::ostream& out) {
  if (engine_->catalog().Evict(r.name)) {
    out << "ok evicted " << r.name << "\n";
  } else {
    Err(out, "graph '" + r.name + "' is not in the catalog");
  }
}

bool ServeSession::RequireUpdates(std::ostream& out) {
  if (updates_ != nullptr) return true;
  Err(out, "dynamic updates are not enabled in this session");
  return false;
}

void ServeSession::HandleStageUpdate(const ServeRequest& r, std::ostream& out) {
  const char* verb = r.command == ServeCommand::kAddEdge   ? "addedge"
                     : r.command == ServeCommand::kDelEdge ? "deledge"
                                                           : "setprob";
  Result<UpdateAck> ack = [&]() -> Result<UpdateAck> {
    switch (r.command) {
      case ServeCommand::kAddEdge:
        return updates_->AddEdge(r.name, r.src, r.dst, r.prob);
      case ServeCommand::kDelEdge:
        return updates_->DeleteEdge(r.name, r.src, r.dst);
      default:
        return updates_->SetProb(r.name, r.src, r.dst, r.prob);
    }
  }();
  if (!ack.ok()) {
    Err(out, ack.status().ToString());
    return;
  }
  CountUpdate();
  out << "ok " << verb << ' ' << r.name << ' ' << r.src << ' ' << r.dst;
  if (r.command != ServeCommand::kDelEdge) {
    out << " p=" << FormatRoundTrip(r.prob);
  }
  out << " pending=" << ack->pending << " live_edges=" << ack->live_edges
      << "\n";
}

void ServeSession::HandleCommit(const ServeRequest& r, std::ostream& out) {
  Result<CommitInfo> info = updates_->Commit(r.name);
  if (!info.ok()) {
    Err(out, info.status().ToString());
    return;
  }
  CountUpdate();
  out << "ok committed " << info->versioned_name << " nodes=" << info->nodes
      << " edges=" << info->edges << " ops=" << info->ops
      << " touched=" << info->touched_nodes << " carried=" << info->carried
      << " dropped=" << info->dropped
      << " time=" << FormatRoundTrip(info->seconds) << "\n";
}

void ServeSession::HandleVersions(const ServeRequest& r, std::ostream& out) {
  Result<std::vector<VersionInfo>> versions = updates_->Versions(r.name);
  if (!versions.ok()) {
    Err(out, versions.status().ToString());
    return;
  }
  out << "ok versions " << r.name << " count=" << versions->size() << "\n";
  for (const VersionInfo& v : *versions) {
    out << "v" << v.version << ' ' << v.catalog_name << " nodes=" << v.nodes
        << " edges=" << v.edges << " ops=" << v.ops << "\n";
  }
  out << ".\n";
}

}  // namespace vulnds::serve
