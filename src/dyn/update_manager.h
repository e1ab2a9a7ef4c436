// UpdateManager: versioned dynamic updates over the serve GraphCatalog.
//
// Updates target a *base* catalog name ("g"); staged ops accumulate in a
// DynamicGraph overlay and Commit materializes them as a new immutable
// snapshot registered under "g@vN" with a monotonically increasing N.
// Versions stack: the overlay rebases onto each committed snapshot, so the
// next batch of updates builds on vN, not on the original base.
//
// Invalidation is exact by construction:
//   * every committed version is a *new* catalog entry with a fresh uid, so
//     the query engine's result cache — keyed by (name, uid, options) —
//     never serves a stale result for the new version, while results cached
//     against untouched versions (the base and every earlier vK) keep their
//     keys and keep hitting;
//   * the new entry's DetectionContext starts from the predecessor's
//     graph-independent intermediates only: bottom-k sample orders are pure
//     in (seed, budget) and carry forward bit-identically, whereas bounds
//     and candidate reductions are functions of the graph a delta just
//     touched and are dropped (recomputed on first use).
//
// Durability. When constructed with a DeltaJournal the manager records the
// write path as it happens: an `open` record the first time a lineage is
// touched (capturing the base's on-disk source and the version counter),
// one `add`/`set`/`del` record per accepted op, and a `commit` record —
// followed by an fsync — per materialized version. ReplayJournal() runs the
// recovered records back through the same staging/commit code at startup,
// reconstructing every committed name@vN and the staged-but-uncommitted
// tail after a crash (the journal tolerates a torn final record).
//
// IO failures never leave memory and disk disagreeing about what was
// promised. A journal append that still fails after 3 immediate retries
// rolls the just-staged op back out of the overlay and returns IOError (the
// client's `err` line is the truth: the op neither serves nor survives). A
// commit whose journal record or fsync fails after retries is unwound — the
// fresh snapshot is evicted, the staged ops stay in the overlay, and the
// caller gets IOError and may retry; the in-memory version list only
// advances after the durability barrier holds. (One ambiguity is inherent
// to fsync: a failed barrier may still reach disk, so replay tolerates a
// version it already has.) Failures are counted in stats().journal_errors
// and, when BindObservability was called, in
// vulnds_store_io_errors_total{site,outcome}.
//
// Compaction. The journal otherwise grows without bound; when a compaction
// threshold is set (SetJournalCompactThreshold, `serve
// journal_compact_bytes=N`) a commit that leaves the journal above the
// threshold rewrites it as: one `open` per live lineage, one `version`
// record per committed version naming a binary snapshot side file
// (`<journal>.v.<name>.vg2` beside the journal, written crash-safely), and
// the staged-but-uncommitted ops re-synthesized from the overlay. A record
// names its side file relative to the journal's directory, so the journal
// does not grow with the length of its path and moves with its side files;
// replay still accepts the paths older journals recorded in full. The swap is a single
// rename() — a crash at any step of compaction leaves either the complete
// old journal or the complete new one, never a mix.
//
// Version names are immutable: update verbs addressed to a name containing
// '@' are rejected. All methods are thread-safe.

#ifndef VULNDS_DYN_UPDATE_MANAGER_H_
#define VULNDS_DYN_UPDATE_MANAGER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "dyn/dynamic_graph.h"
#include "dyn/journal.h"
#include "obs/metrics.h"
#include "obs/query_trace.h"
#include "serve/graph_catalog.h"
#include "serve/update_backend.h"

namespace vulnds::dyn {

/// Aggregate counters across all names and commits.
struct UpdateManagerStats {
  std::size_t staged_ops = 0;        ///< accepted addedge/deledge/setprob
  std::size_t rejected_ops = 0;      ///< validation failures
  std::size_t commits = 0;
  std::size_t contexts_carried = 0;  ///< sample orders carried forward
  std::size_t contexts_dropped = 0;  ///< bounds/reductions invalidated
  std::size_t journal_errors = 0;    ///< appends/fsyncs failed after retries
  std::size_t journal_rollbacks = 0;   ///< staged ops rolled back (unjournaled)
  std::size_t journal_compactions = 0; ///< successful journal rewrites
  std::size_t compactions_refused = 0; ///< rewrites blocked by a damaged replay
};

/// What ReplayJournal reconstructed (or had to give up on).
struct JournalReplayStats {
  std::size_t records = 0;       ///< journal records processed
  std::size_t opens = 0;         ///< lineages (re)opened
  std::size_t ops = 0;           ///< staged ops re-applied
  std::size_t commits = 0;       ///< versions re-materialized
  std::size_t skipped = 0;       ///< records dropped (failed lineage/parse)
  std::size_t failed_names = 0;  ///< lineages abandoned mid-replay
  std::size_t dropped_tail_bytes = 0;  ///< torn tail truncated at Open()
};

class UpdateManager : public serve::UpdateBackend {
 public:
  /// Creates a manager registering committed versions in `catalog` (not
  /// owned; must outlive the manager). `clock` overrides the wall-clock
  /// micros source behind CommitInfo::seconds (null = steady clock); tests
  /// inject a fixed clock to make the commit `time=` token deterministic.
  explicit UpdateManager(serve::GraphCatalog* catalog,
                         obs::ClockMicros clock = nullptr);

  /// As above, additionally journaling every staged op and commit to
  /// `journal` (not owned; may be null = no durability; must outlive the
  /// manager). Call ReplayJournal() once, before serving traffic, to
  /// restore the state DeltaJournal::Open recovered.
  UpdateManager(serve::GraphCatalog* catalog, DeltaJournal* journal,
                obs::ClockMicros clock = nullptr);

  Result<serve::UpdateAck> AddEdge(const std::string& name, NodeId src,
                                   NodeId dst, double prob) override;
  Result<serve::UpdateAck> DeleteEdge(const std::string& name, NodeId src,
                                      NodeId dst) override;
  Result<serve::UpdateAck> SetProb(const std::string& name, NodeId src,
                                   NodeId dst, double prob) override;
  Result<serve::CommitInfo> Commit(const std::string& name) override;
  Result<std::vector<serve::VersionInfo>> Versions(
      const std::string& name) override;
  std::size_t JournalBytes() const override;

  /// Replays the records DeltaJournal::Open recovered, re-staging and
  /// re-committing them through the normal code path (with journaling
  /// suppressed — the records are already on disk). A lineage whose base
  /// cannot be restored (source gone, "<memory>" Put) or whose replay hits
  /// a validation error is abandoned and its remaining records skipped, so
  /// one bad lineage never poisons the others. Consumes the recovered
  /// buffer; call once, before serving traffic.
  Result<JournalReplayStats> ReplayJournal();

  /// Compacts the journal once it exceeds `bytes` after a commit (0 = never,
  /// the default). See the class comment for the rewrite's shape.
  void SetJournalCompactThreshold(std::size_t bytes);

  /// Rewrites the journal now regardless of the threshold (tests and
  /// operator tooling). No-op OK when there is no journal.
  Status CompactJournal();

  /// Routes IO-failure counters (vulnds_store_io_errors_total) through
  /// `registry` (not owned; may be null to unbind). Call before traffic.
  void BindObservability(obs::MetricRegistry* registry);

  UpdateManagerStats stats() const;

 private:
  // Per-base-name mutable state. Graph references are held only while ops
  // are staged (base_entry/overlay are released once the log is clean), so
  // an idle manager never blocks catalog eviction from reclaiming memory —
  // the lineage is re-resolved from the catalog on the next touch. The pin
  // keeps the staged-against snapshot from being SPILLED mid-lineage
  // (holders of the shared_ptr are safe either way; the pin just avoids a
  // pointless disk round trip for a graph with a dirty overlay).
  struct NameState {
    uint64_t next_version = 1;
    // uid the plain catalog name had when this state was (re)opened; a
    // different uid on a later touch means the operator reloaded the base.
    uint64_t root_uid = 0;
    // Source the root snapshot was loaded from; written into the journal's
    // `open` record so replay can restore the base after a restart.
    std::string root_source;
    // True once this lineage's `open` record is in the journal; reset when
    // a reload restarts the lineage (the next op re-opens it).
    bool journal_opened = false;
    // Entry the overlay builds on — the root at first, then the latest
    // committed version. Null whenever no ops are staged.
    std::shared_ptr<serve::CatalogEntry> base_entry;
    serve::ScopedEntryPin base_pin;
    std::unique_ptr<DynamicGraph> overlay;
    std::vector<serve::VersionInfo> versions;  // base (v0) first
  };

  // Returns the state for `name`, opening it from the catalog on first
  // touch (paging the snapshot back in if it was spilled). When the catalog
  // entry behind `name` was reloaded and `reset_on_reload` is set (the
  // mutation paths), the lineage restarts from the new snapshot — rejecting
  // with a notice if staged ops had to be discarded. Read paths pass false
  // so they never mutate state or consume the notice.
  Result<NameState*> StateLocked(const std::string& name,
                                 bool reset_on_reload);

  // Resolves the lineage tip from the catalog (paging it back in if it was
  // spilled) and attaches an overlay to it; no-op when one is already
  // attached.
  Status EnsureOverlayLocked(const std::string& name, NameState* state);

  // Stages one op; `record` is its journal payload (replay grammar line).
  template <typename Fn>
  Result<serve::UpdateAck> StageLocked(const std::string& name,
                                       const std::string& record, Fn&& op);

  template <typename Fn>
  Result<serve::UpdateAck> Stage(const std::string& name,
                                 const std::string& record, Fn&& op);

  // The shared commit body; Commit() and replay both land here.
  Result<serve::CommitInfo> CommitLocked(const std::string& name,
                                         int64_t start_micros);

  // Appends to the journal with up to 3 immediate attempts; counts the
  // failure (stats + metrics) when all attempts fail.
  Status JournalAppendRetryLocked(const std::string& payload);
  // fsync with the same bounded-retry discipline.
  Status JournalSyncRetryLocked();

  // Rebuilds the overlay without its most recent record — the undo path
  // when that record could not be journaled. The surviving records were
  // validated at staging time, so the rebuild cannot fail.
  void RollbackLastStagedLocked(NameState* state);

  // Runs compaction when a threshold is set and the journal is above it;
  // failures are counted and swallowed (the journal just stays long).
  void MaybeCompactLocked();
  Status CompactNowLocked();

  // Replay handler for one `open` record; returns false when the lineage
  // could not be restored (caller abandons the name).
  bool ReplayOpenLocked(const std::string& name, uint64_t next_version,
                        const std::string& source);

  // Replay handler for one compaction `version` record: restores the
  // committed name@vN from its snapshot side file.
  bool ReplayVersionLocked(const std::string& name, uint64_t version,
                           uint64_t ops, const std::string& path);

  int64_t NowMicros() const {
    return clock_ ? clock_() : obs::SteadyNowMicros();
  }

  serve::GraphCatalog* catalog_;
  DeltaJournal* journal_ = nullptr;
  obs::ClockMicros clock_;
  obs::MetricRegistry* registry_ = nullptr;
  std::size_t compact_threshold_bytes_ = 0;
  mutable std::mutex mu_;
  std::map<std::string, NameState> states_;
  UpdateManagerStats stats_;
  // True while ReplayJournal runs records back through Stage/Commit:
  // suppresses journaling (the records are already on disk).
  bool replaying_ = false;
  // True when ReplayJournal could not reconstruct every record (unreadable
  // side file, abandoned lineage, unparseable record). Compaction rewrites
  // the journal from in-memory state, so rewriting from an incomplete
  // replay would permanently destroy the records replay failed on — every
  // compaction is refused until a fully clean replay clears the flag.
  bool replay_incomplete_ = false;
};

}  // namespace vulnds::dyn

#endif  // VULNDS_DYN_UPDATE_MANAGER_H_
