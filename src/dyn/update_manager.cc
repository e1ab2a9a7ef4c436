#include "dyn/update_manager.h"

#include <dirent.h>
#include <sys/stat.h>

#include <cstdio>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "common/atomic_file.h"
#include "common/parse.h"
#include "graph/graph_io.h"
#include "serve/io_metrics.h"

namespace vulnds::dyn {

namespace {

// Attempts per journal syscall before the failure is surfaced: transient
// errors are absorbed, persistent ones fail fast with no sleeps.
constexpr int kJournalIoAttempts = 3;

// The base graph of a catalog entry, kept alive by the entry itself.
std::shared_ptr<const UncertainGraph> GraphOf(
    const std::shared_ptr<serve::CatalogEntry>& entry) {
  return {entry, &entry->graph};
}

serve::VersionInfo BaseVersion(const std::string& name,
                               const serve::CatalogEntry& entry) {
  serve::VersionInfo v;
  v.version = 0;
  v.catalog_name = name;
  v.nodes = entry.graph.num_nodes();
  v.edges = entry.graph.num_edges();
  v.ops = 0;
  return v;
}

// Probabilities must survive the journal round trip bit-identically —
// replayed versions are only byte-equal to the originals if every double
// re-parses to the same bits. 17 significant digits guarantee that.
std::string FormatProb(double prob) {
  std::string text;
  AppendRoundTrip(&text, prob);
  return text;
}

// The directory of the file at `path`: "." for a bare name, "/" at the root.
std::string DirectoryOf(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  return slash == 0 ? std::string("/") : path.substr(0, slash);
}

// The side file a `version` record names. Compaction writes a bare name in
// the journal's directory; older journals wrote a path, absolute or relative
// to the process's directory, which is used as it stands.
std::string ResolveSideFile(const std::string& journal_path,
                            const std::string& recorded) {
  if (recorded.find('/') != std::string::npos) return recorded;
  return DirectoryOf(journal_path) + "/" + recorded;
}

}  // namespace

UpdateManager::UpdateManager(serve::GraphCatalog* catalog,
                             obs::ClockMicros clock)
    : catalog_(catalog), clock_(std::move(clock)) {}

UpdateManager::UpdateManager(serve::GraphCatalog* catalog,
                             DeltaJournal* journal, obs::ClockMicros clock)
    : catalog_(catalog), journal_(journal), clock_(std::move(clock)) {}

Result<UpdateManager::NameState*> UpdateManager::StateLocked(
    const std::string& name, bool reset_on_reload) {
  // GetOrLoad, not Get: a spilled base is still a valid lineage root and
  // pages back in here.
  Result<std::shared_ptr<serve::CatalogEntry>> resolved =
      catalog_->GetOrLoad(name);
  if (!resolved.ok()) return resolved.status();
  const std::shared_ptr<serve::CatalogEntry> entry = resolved.MoveValue();
  const auto it = states_.find(name);
  if (it == states_.end()) {
    if (entry == nullptr) {
      return Status::NotFound("graph '" + name + "' is not in the catalog");
    }
    NameState state;
    state.root_uid = entry->uid;
    state.root_source = entry->source;
    state.versions.push_back(BaseVersion(name, *entry));
    return &states_.emplace(name, std::move(state)).first->second;
  }
  NameState& state = it->second;
  // A reload replaces the snapshot behind the base name, detected by the
  // root uid changing (the overlay's own base is usually a committed vN
  // entry and is untouched by a reload of the plain name). Staged ops were
  // validated against the old lineage, so they cannot carry over: with a
  // clean log we silently restart from the reloaded snapshot; otherwise the
  // stale ops are discarded and the caller is told. The version counter
  // keeps increasing either way, so committed names never collide. A
  // restart also re-opens the lineage in the journal: the next staged op
  // writes a fresh `open` record with the new source.
  if (reset_on_reload && entry != nullptr && entry->uid != state.root_uid) {
    const std::size_t pending =
        state.overlay != nullptr ? state.overlay->pending_ops() : 0;
    state.root_uid = entry->uid;
    state.root_source = entry->source;
    state.journal_opened = false;
    state.base_entry = nullptr;
    state.base_pin.Release();
    state.overlay = nullptr;
    state.versions.assign(1, BaseVersion(name, *entry));
    if (pending > 0) {
      return Status::InvalidArgument(
          "base snapshot '" + name + "' was reloaded; " +
          std::to_string(pending) + " staged update(s) discarded");
    }
  }
  return &state;
}

Status UpdateManager::EnsureOverlayLocked(const std::string& name,
                                          NameState* state) {
  if (state->overlay != nullptr) return Status::OK();
  // Attach to the lineage tip: the last committed version, or the root when
  // nothing was committed yet. The tip lives in the catalog (resident or
  // spilled) between touches, so a fully evicted tip means the lineage is
  // gone.
  const std::string& tip = state->versions.back().catalog_name;
  Result<std::shared_ptr<serve::CatalogEntry>> resolved =
      catalog_->GetOrLoad(tip);
  if (!resolved.ok()) return resolved.status();
  std::shared_ptr<serve::CatalogEntry> entry = resolved.MoveValue();
  if (entry == nullptr) {
    return Status::NotFound("version '" + tip + "' of '" + name +
                            "' was evicted; reload the base to restart");
  }
  state->base_entry = entry;
  state->base_pin = serve::ScopedEntryPin(entry);
  state->overlay = std::make_unique<DynamicGraph>(GraphOf(entry));
  return Status::OK();
}

Status UpdateManager::JournalAppendRetryLocked(const std::string& payload) {
  Status st;
  for (int attempt = 0; attempt < kJournalIoAttempts; ++attempt) {
    st = journal_->Append(payload);
    if (st.ok()) {
      if (attempt > 0) {
        serve::CountIoError(registry_, "journal_append", "retried");
      }
      return st;
    }
  }
  ++stats_.journal_errors;
  serve::CountIoError(registry_, "journal_append", "error");
  return st;
}

Status UpdateManager::JournalSyncRetryLocked() {
  Status st;
  for (int attempt = 0; attempt < kJournalIoAttempts; ++attempt) {
    st = journal_->Sync();
    if (st.ok()) {
      if (attempt > 0) {
        serve::CountIoError(registry_, "journal_fsync", "retried");
      }
      return st;
    }
  }
  ++stats_.journal_errors;
  serve::CountIoError(registry_, "journal_fsync", "error");
  return st;
}

void UpdateManager::RollbackLastStagedLocked(NameState* state) {
  const std::vector<DeltaRecord> records = state->overlay->log().records();
  auto fresh = std::make_unique<DynamicGraph>(GraphOf(state->base_entry));
  // Re-apply everything but the last record. Each was validated against
  // exactly this base + prefix when first staged, so the replays succeed
  // and resolve to the same edges.
  for (std::size_t i = 0; i + 1 < records.size(); ++i) {
    const DeltaRecord& r = records[i];
    switch (r.op) {
      case DeltaOp::kAddEdge:
        (void)fresh->AddEdge(r.src, r.dst, r.prob);
        break;
      case DeltaOp::kDeleteEdge:
        (void)fresh->DeleteEdge(r.src, r.dst);
        break;
      case DeltaOp::kSetProb:
        (void)fresh->SetProb(r.src, r.dst, r.prob);
        break;
    }
  }
  state->overlay = std::move(fresh);
  ++stats_.journal_rollbacks;
  if (stats_.staged_ops > 0) --stats_.staged_ops;
  if (state->overlay->pending_ops() == 0) {
    state->overlay = nullptr;
    state->base_entry = nullptr;
    state->base_pin.Release();
  }
}

template <typename Fn>
Result<serve::UpdateAck> UpdateManager::StageLocked(const std::string& name,
                                                    const std::string& record,
                                                    Fn&& op) {
  Result<NameState*> state_result = [&]() -> Result<NameState*> {
    if (name.find('@') != std::string::npos) {
      return Status::InvalidArgument(
          "updates target the base name; versions ('" + name +
          "') are immutable");
    }
    // Live staging treats a base-uid change as an operator reload and
    // restarts the lineage. During replay that heuristic is wrong: a uid
    // can only drift mid-replay through a degraded page-in fallback
    // (transient spill failure), and resetting there would wipe versions
    // the journal still holds and regress the version counter into
    // collisions. Replayed reloads are represented by their own second
    // `open` record instead.
    return StateLocked(name, /*reset_on_reload=*/!replaying_);
  }();
  if (!state_result.ok()) {
    ++stats_.rejected_ops;
    return state_result.status();
  }
  NameState& state = **state_result;
  const Status ensured = EnsureOverlayLocked(name, &state);
  if (!ensured.ok()) {
    ++stats_.rejected_ops;
    return ensured;
  }
  const Status st = op(*state.overlay);
  if (!st.ok()) {
    ++stats_.rejected_ops;
    if (state.overlay->pending_ops() == 0) {
      // Nothing staged: drop the graph pin acquired above.
      state.overlay = nullptr;
      state.base_entry = nullptr;
      state.base_pin.Release();
    }
    return st;
  }
  ++stats_.staged_ops;
  if (journal_ != nullptr && !replaying_) {
    // Lazily open the lineage in the journal: the `open` record carries
    // everything replay needs to restore the base (its on-disk source) and
    // to keep minting non-colliding versions (the counter).
    Status journaled = Status::OK();
    if (!state.journal_opened) {
      journaled = JournalAppendRetryLocked(
          "open " + name + " " + std::to_string(state.next_version) + " " +
          state.root_source);
      if (journaled.ok()) state.journal_opened = true;
    }
    if (journaled.ok()) journaled = JournalAppendRetryLocked(record);
    if (!journaled.ok()) {
      // The op is in memory but not on disk: served results would vanish
      // at the next restart. Roll it back so the `err` the client sees is
      // the whole truth — the op neither serves nor survives.
      RollbackLastStagedLocked(&state);
      return Status::IOError("update to '" + name +
                             "' could not be journaled (" +
                             journaled.message() + "); op rolled back");
    }
  }
  serve::UpdateAck ack;
  ack.pending = state.overlay->pending_ops();
  ack.live_edges = state.overlay->live_edge_count();
  return ack;
}

template <typename Fn>
Result<serve::UpdateAck> UpdateManager::Stage(const std::string& name,
                                              const std::string& record,
                                              Fn&& op) {
  std::lock_guard<std::mutex> lock(mu_);
  return StageLocked(name, record, std::forward<Fn>(op));
}

Result<serve::UpdateAck> UpdateManager::AddEdge(const std::string& name,
                                                NodeId src, NodeId dst,
                                                double prob) {
  return Stage(name,
               "add " + name + " " + std::to_string(src) + " " +
                   std::to_string(dst) + " " + FormatProb(prob),
               [&](DynamicGraph& g) { return g.AddEdge(src, dst, prob); });
}

Result<serve::UpdateAck> UpdateManager::DeleteEdge(const std::string& name,
                                                   NodeId src, NodeId dst) {
  return Stage(name,
               "del " + name + " " + std::to_string(src) + " " +
                   std::to_string(dst),
               [&](DynamicGraph& g) { return g.DeleteEdge(src, dst); });
}

Result<serve::UpdateAck> UpdateManager::SetProb(const std::string& name,
                                                NodeId src, NodeId dst,
                                                double prob) {
  return Stage(name,
               "set " + name + " " + std::to_string(src) + " " +
                   std::to_string(dst) + " " + FormatProb(prob),
               [&](DynamicGraph& g) { return g.SetProb(src, dst, prob); });
}

Result<serve::CommitInfo> UpdateManager::Commit(const std::string& name) {
  const int64_t start_micros = NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  return CommitLocked(name, start_micros);
}

Result<serve::CommitInfo> UpdateManager::CommitLocked(const std::string& name,
                                                      int64_t start_micros) {
  if (name.find('@') != std::string::npos) {
    return Status::InvalidArgument(
        "updates target the base name; versions ('" + name +
        "') are immutable");
  }
  Result<NameState*> state_result = StateLocked(name, /*reset_on_reload=*/true);
  if (!state_result.ok()) return state_result.status();
  NameState& state = **state_result;
  if (state.overlay == nullptr || state.overlay->pending_ops() == 0) {
    return Status::InvalidArgument("no staged updates for '" + name + "'");
  }

  const std::string versioned_name =
      name + "@v" + std::to_string(state.next_version);
  // The manager mints each version number exactly once, so an entry
  // (resident or spilled — hence Contains, not Get) under the upcoming
  // name can only be something the operator loaded by hand — refuse
  // (before paying for the snapshot) rather than clobber it.
  if (catalog_->Contains(versioned_name)) {
    return Status::AlreadyExists(
        "catalog name '" + versioned_name +
        "' is already taken by an externally loaded graph; evict it before "
        "committing");
  }

  CommitSnapshot snapshot = state.overlay->Commit();

  serve::CommitInfo info;
  info.versioned_name = versioned_name;
  info.version = state.next_version;
  info.nodes = snapshot.graph.num_nodes();
  info.edges = snapshot.graph.num_edges();
  info.ops = snapshot.ops;
  info.touched_nodes = snapshot.touched.size();

  const std::string source =
      "commit:" + name + "+" + std::to_string(snapshot.ops) + "ops";
  VULNDS_RETURN_NOT_OK(
      catalog_->Put(versioned_name, std::move(snapshot.graph), source));
  const std::shared_ptr<serve::CatalogEntry> new_entry =
      catalog_->Get(versioned_name);
  if (new_entry == nullptr && !catalog_->Contains(versioned_name)) {
    return Status::Internal("version '" + versioned_name +
                            "' was evicted during commit (catalog capacity "
                            "too small)");
  }

  if (journal_ != nullptr && !replaying_) {
    // Durability barrier, *before* the in-memory version list advances: the
    // commit record plus fsync. If the barrier fails after retries the
    // commit is unwound — the snapshot leaves the catalog, the staged ops
    // stay in the overlay, and the caller may retry — so an `ok committed`
    // line always names a version that survives a crash. (fsync is
    // inherently ambiguous on failure: the record may still reach disk, so
    // replay tolerates re-seeing a version it already restored.)
    Status barrier =
        JournalAppendRetryLocked("commit " + name + " " +
                                 std::to_string(info.version));
    if (barrier.ok()) barrier = JournalSyncRetryLocked();
    if (!barrier.ok()) {
      catalog_->Evict(versioned_name);
      return Status::IOError("commit of '" + name + "' is not durable (" +
                             barrier.message() +
                             "); staged updates kept, retry commit");
    }
  }

  // Exact context invalidation: bottom-k sample orders are pure in
  // (seed, budget) and carry to the new version bit-identically; bounds and
  // candidate reductions are functions of the graph the deltas touched and
  // start cold. Under a tight memory governor the fresh snapshot may have
  // been spilled cold by its own Put — the commit stands, the contexts
  // simply start empty when it pages back in.
  if (new_entry != nullptr) {
    std::scoped_lock context_locks(state.base_entry->context_mu,
                                   new_entry->context_mu);
    const DetectionContext& old_context = state.base_entry->context;
    info.carried = new_entry->context.AdoptGraphIndependent(old_context);
    info.dropped = old_context.lower_bounds.size() +
                   old_context.upper_bounds.size() +
                   old_context.reductions.size();
  }

  serve::VersionInfo version;
  version.version = state.next_version;
  version.catalog_name = versioned_name;
  version.nodes = info.nodes;
  version.edges = info.edges;
  version.ops = info.ops;
  state.versions.push_back(version);
  ++state.next_version;
  // The log is clean again: release the graph pins so the catalog's
  // eviction policy stays in charge of memory. The next staged op
  // re-attaches to the lineage tip (the version just committed).
  state.base_entry = nullptr;
  state.base_pin.Release();
  state.overlay = nullptr;

  ++stats_.commits;
  stats_.contexts_carried += info.carried;
  stats_.contexts_dropped += info.dropped;

  if (!replaying_) MaybeCompactLocked();

  info.seconds = static_cast<double>(NowMicros() - start_micros) * 1e-6;
  return info;
}

void UpdateManager::SetJournalCompactThreshold(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  compact_threshold_bytes_ = bytes;
}

void UpdateManager::BindObservability(obs::MetricRegistry* registry) {
  std::lock_guard<std::mutex> lock(mu_);
  registry_ = registry;
}

void UpdateManager::MaybeCompactLocked() {
  if (journal_ == nullptr || compact_threshold_bytes_ == 0) return;
  if (journal_->bytes() <= compact_threshold_bytes_) return;
  if (!CompactNowLocked().ok()) {
    // The journal just stays long; every record in it is still valid and
    // the next commit retries the compaction.
    serve::CountIoError(registry_, "journal_compact", "error");
  }
}

Status UpdateManager::CompactJournal() {
  std::lock_guard<std::mutex> lock(mu_);
  if (journal_ == nullptr) return Status::OK();
  Status st = CompactNowLocked();
  if (!st.ok()) serve::CountIoError(registry_, "journal_compact", "error");
  return st;
}

Status UpdateManager::CompactNowLocked() {
  // Rewrite the journal as the minimal set of records that reconstructs
  // today's state: per lineage one `open` (version counter + base source),
  // one `version` record per committed version pointing at a crash-safely
  // written binary snapshot side file, and the staged-but-uncommitted tail
  // re-synthesized from the overlay. Everything is prepared beside the live
  // journal first; the swap itself is ReplaceWith's single rename().
  if (replay_incomplete_) {
    ++stats_.compactions_refused;
    return Status::Internal(
        "journal replay was incomplete; compacting would drop the records "
        "replay could not reconstruct — restart with readable side files "
        "first");
  }
  // Side files sit beside the journal, and records name them relative to
  // it: a full path in each of them would make the journal grow with
  // versions x path length.
  const std::string& jpath = journal_->path();
  const std::string dir = DirectoryOf(jpath);
  const std::string side_prefix =
      jpath.substr(jpath.find_last_of('/') + 1) + ".v.";  // npos + 1 == 0
  std::vector<std::string> payloads;
  std::unordered_set<std::string> referenced_side_files;
  for (auto& [name, state] : states_) {
    const bool has_versions = state.versions.size() > 1;
    const bool has_staged =
        state.overlay != nullptr && state.overlay->pending_ops() > 0;
    if (!state.journal_opened && !has_versions && !has_staged) continue;
    payloads.push_back("open " + name + " " +
                       std::to_string(state.next_version) + " " +
                       state.root_source);
    for (std::size_t i = 1; i < state.versions.size(); ++i) {
      const serve::VersionInfo& v = state.versions[i];
      Result<std::shared_ptr<serve::CatalogEntry>> resolved =
          catalog_->GetOrLoad(v.catalog_name);
      if (!resolved.ok() || *resolved == nullptr) {
        // The version is in the journal (op chain or side file) but cannot
        // be materialized right now — possibly a transient spill/page-in
        // failure. Abort: the uncompacted journal can still restore it on a
        // healthier day, while dropping its record here would be permanent.
        return Status::IOError("cannot resolve " + v.catalog_name +
                               " for compaction: " +
                               resolved.status().message());
      }
      const std::string side_name =
          side_prefix + SanitizeForFilename(v.catalog_name) + ".vg2";
      VULNDS_RETURN_NOT_OK(WriteGraphFile((*resolved)->graph,
                                          dir + "/" + side_name,
                                          GraphFileFormat::kBinary));
      referenced_side_files.insert(side_name);
      payloads.push_back("version " + name + " " +
                         std::to_string(v.version) + " " +
                         std::to_string(v.ops) + " " + side_name);
    }
    if (has_staged) {
      for (const DeltaRecord& r : state.overlay->log().records()) {
        switch (r.op) {
          case DeltaOp::kAddEdge:
            payloads.push_back("add " + name + " " + std::to_string(r.src) +
                               " " + std::to_string(r.dst) + " " +
                               FormatProb(r.prob));
            break;
          case DeltaOp::kDeleteEdge:
            payloads.push_back("del " + name + " " + std::to_string(r.src) +
                               " " + std::to_string(r.dst));
            break;
          case DeltaOp::kSetProb:
            payloads.push_back("set " + name + " " + std::to_string(r.src) +
                               " " + std::to_string(r.dst) + " " +
                               FormatProb(r.prob));
            break;
        }
      }
    }
  }
  VULNDS_RETURN_NOT_OK(journal_->ReplaceWith(payloads));
  ++stats_.journal_compactions;

  // Reclaim side files no longer referenced (dropped lineages, reloaded
  // bases): everything matching "<journal>.v.*" that the rewrite did not
  // emit. Best effort — an orphan costs disk, not correctness.
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* ent = ::readdir(d)) {
      const std::string fname = ent->d_name;
      if (fname.rfind(side_prefix, 0) != 0) continue;
      if (referenced_side_files.count(fname) == 0) {
        (void)std::remove((dir + "/" + fname).c_str());
      }
    }
    ::closedir(d);
  }
  return Status::OK();
}

bool UpdateManager::ReplayOpenLocked(const std::string& name,
                                     uint64_t next_version,
                                     const std::string& source) {
  // Restore the base snapshot if it is not already there (the operator's
  // serve command line usually preloads it; replay fills the gaps). A
  // graph Put() from memory has no on-disk source to reload from.
  if (!catalog_->Contains(name)) {
    if (source.empty() || source == "<memory>" ||
        source.rfind("commit:", 0) == 0) {
      return false;
    }
    if (!catalog_->Load(name, source).ok()) return false;
  }
  Result<NameState*> state_result =
      StateLocked(name, /*reset_on_reload=*/false);
  if (!state_result.ok()) return false;
  NameState& state = **state_result;
  if (state.overlay != nullptr || state.versions.size() > 1) {
    // A second `open` for a known lineage means the base was reloaded
    // between these records: restart from the current snapshot exactly
    // like the live path did.
    Result<std::shared_ptr<serve::CatalogEntry>> resolved =
        catalog_->GetOrLoad(name);
    if (!resolved.ok() || *resolved == nullptr) return false;
    const std::shared_ptr<serve::CatalogEntry> entry = resolved.MoveValue();
    state.root_uid = entry->uid;
    state.root_source = entry->source;
    state.base_entry = nullptr;
    state.base_pin.Release();
    state.overlay = nullptr;
    state.versions.assign(1, BaseVersion(name, *entry));
  }
  // The recorded counter keeps replayed versions from colliding with ones
  // committed before this journal existed; never move it backwards.
  if (next_version > state.next_version) state.next_version = next_version;
  state.journal_opened = true;
  return true;
}

bool UpdateManager::ReplayVersionLocked(const std::string& name,
                                        uint64_t version, uint64_t ops,
                                        const std::string& path) {
  Result<NameState*> state_result =
      StateLocked(name, /*reset_on_reload=*/false);
  if (!state_result.ok()) return false;
  NameState& state = **state_result;
  for (const serve::VersionInfo& v : state.versions) {
    if (v.version == version) return true;  // already restored
  }
  const std::string versioned_name =
      name + "@v" + std::to_string(version);
  uint64_t nodes = 0;
  uint64_t edges = 0;
  if (catalog_->Contains(versioned_name)) {
    Result<std::shared_ptr<serve::CatalogEntry>> resolved =
        catalog_->GetOrLoad(versioned_name);
    if (!resolved.ok() || *resolved == nullptr) return false;
    nodes = (*resolved)->graph.num_nodes();
    edges = (*resolved)->graph.num_edges();
  } else {
    Result<UncertainGraph> loaded = ReadGraphFile(path);
    if (!loaded.ok()) return false;
    nodes = (*loaded).num_nodes();
    edges = (*loaded).num_edges();
    // The side file is the entry's source, so a later spill of this version
    // can fall back to reloading it if the spill page breaks.
    if (!catalog_->Put(versioned_name, loaded.MoveValue(), path).ok()) {
      return false;
    }
  }
  serve::VersionInfo v;
  v.version = version;
  v.catalog_name = versioned_name;
  v.nodes = nodes;
  v.edges = edges;
  v.ops = ops;
  state.versions.push_back(v);
  if (version >= state.next_version) state.next_version = version + 1;
  return true;
}

Result<JournalReplayStats> UpdateManager::ReplayJournal() {
  std::lock_guard<std::mutex> lock(mu_);
  JournalReplayStats rs;
  if (journal_ == nullptr) return rs;
  rs.dropped_tail_bytes = journal_->dropped_tail_bytes();
  replaying_ = true;
  std::unordered_set<std::string> failed;
  for (const std::string& record : journal_->recovered()) {
    ++rs.records;
    std::istringstream in(record);
    std::string verb, name;
    if (!(in >> verb >> name)) {
      ++rs.skipped;
      continue;
    }
    if (failed.count(name) != 0) {
      ++rs.skipped;
      continue;
    }
    bool ok = false;
    if (verb == "open") {
      uint64_t next_version = 0;
      std::string source;
      if (in >> next_version) {
        std::getline(in, source);
        if (!source.empty() && source.front() == ' ') source.erase(0, 1);
        ok = ReplayOpenLocked(name, next_version, source);
        if (ok) ++rs.opens;
      }
    } else if (verb == "add" || verb == "set") {
      uint64_t src = 0, dst = 0;
      double prob = 0.0;
      if (in >> src >> dst >> prob) {
        const NodeId s = static_cast<NodeId>(src);
        const NodeId d = static_cast<NodeId>(dst);
        const bool adding = verb == "add";
        ok = StageLocked(name, record,
                         [&](DynamicGraph& g) {
                           return adding ? g.AddEdge(s, d, prob)
                                         : g.SetProb(s, d, prob);
                         })
                 .ok();
        if (ok) ++rs.ops;
      }
    } else if (verb == "del") {
      uint64_t src = 0, dst = 0;
      if (in >> src >> dst) {
        const NodeId s = static_cast<NodeId>(src);
        const NodeId d = static_cast<NodeId>(dst);
        ok = StageLocked(name, record,
                         [&](DynamicGraph& g) { return g.DeleteEdge(s, d); })
                 .ok();
        if (ok) ++rs.ops;
      }
    } else if (verb == "version") {
      // Compaction record: a committed version whose contents live in a
      // binary snapshot side file instead of an op chain.
      uint64_t version = 0, ops = 0;
      if (in >> version >> ops) {
        std::string path;
        std::getline(in, path);
        if (!path.empty() && path.front() == ' ') path.erase(0, 1);
        ok = ReplayVersionLocked(name, version, ops,
                                 ResolveSideFile(journal_->path(), path));
        if (ok) ++rs.commits;
      }
    } else if (verb == "commit") {
      uint64_t version = 0;
      if (in >> version) {
        const auto it = states_.find(name);
        bool already = false;
        if (it != states_.end()) {
          for (const serve::VersionInfo& v : it->second.versions) {
            if (v.version == version) already = true;
          }
        }
        if (already) {
          // A barrier that "failed" but still reached disk re-records a
          // version the retry also recorded: replay is idempotent there.
          ok = true;
        } else {
          // Force the counter to the recorded N so the replayed version
          // gets the exact committed name even if earlier records were
          // skipped.
          if (it != states_.end()) it->second.next_version = version;
          ok = CommitLocked(name, NowMicros()).ok();
          if (ok) ++rs.commits;
        }
      }
    }
    if (!ok) {
      ++rs.skipped;
      failed.insert(name);
      ++rs.failed_names;
    }
  }
  replaying_ = false;
  journal_->ReleaseRecovered();
  // An incomplete replay (transient EIO on a side file, abandoned lineage,
  // unparseable record) leaves the in-memory state missing things the
  // journal still holds. Compacting from that state would rewrite the
  // journal without them — turning a transient read failure into permanent
  // loss — so compaction stays blocked until a fully clean replay.
  replay_incomplete_ = rs.skipped > 0 || rs.failed_names > 0;
  return rs;
}

std::size_t UpdateManager::JournalBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return journal_ != nullptr ? journal_->bytes() : 0;
}

Result<std::vector<serve::VersionInfo>> UpdateManager::Versions(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  // `versions g@v2` is a read on g's lineage, not a mutation: resolve the
  // history through the base name.
  const std::size_t at = name.find('@');
  const std::string base = at == std::string::npos ? name : name.substr(0, at);
  Result<NameState*> state = StateLocked(base, /*reset_on_reload=*/false);
  if (!state.ok()) return state.status();
  return (*state)->versions;
}

UpdateManagerStats UpdateManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace vulnds::dyn
