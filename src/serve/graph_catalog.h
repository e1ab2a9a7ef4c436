// GraphCatalog: named, immutable uncertain-graph snapshots for serving.
//
// The batch CLI re-reads and re-parses the graph on every invocation; the
// catalog instead loads a snapshot once (text or binary, auto-detected) and
// hands out shared references, so a query only pays graph I/O the first time
// a name is touched. Each entry carries the per-graph DetectionContext the
// query engine warms across requests (bounds, candidate reductions, bottom-k
// sample orders); evicting or reloading a name drops that derived state with
// the graph, which keeps the invariant "context belongs to exactly one
// graph" trivially true.
//
// Locking. One mutex guards one name map, one LRU list, the byte
// accounting and the counters. A Get holds it for a map lookup and a list
// splice; snapshot parsing, spill writes and page-in reads all happen
// outside it, so the lock is never held across I/O. Governor shedding
// walks the LRU list from its cold end.
//
// Byte governance and disk spill. The catalog has no budget of its own;
// it can charge through a store::MemoryGovernor, which is then the only
// bound on residency: every resident graph is charged under
// ChargeClass::kSnapshot and its warm DetectionContext under
// ChargeClass::kContext (the query engine recharges the context's
// ApproxBytes after each cold detect). When the governor's GLOBAL budget is
// exceeded it sheds through the catalog's registered shedders: coldest
// contexts are dropped first (pure recompute, no correctness cost), then —
// when a spill directory is configured — the coldest UNPINNED snapshots
// are written to disk in the binary v2 format and paged back on demand
// inside GetOrLoad. A spilled entry keeps its uid across the round trip,
// so result-cache lines keyed on (name, uid, options) stay valid and
// answers after page-back are bit-identical to the always-resident run.
// Queries pin entries (ScopedEntryPin) for their in-flight duration;
// pinned snapshots are never spilled or shed.
//
// Spill integrity and crash consistency. Spill files carry a CRC-32 over
// the serialized snapshot, verified on page-in: a corrupted page is never
// deserialized into a servable graph — the catalog falls back to reloading
// the entry's original on-disk source (fresh uid: cached results against
// the lost snapshot are unreachable, never wrong) or surfaces an error
// while everything else keeps serving. Spill files are process-private; a
// per-process manifest (`MANIFEST.<pid>`, rewritten atomically under the
// spill lock) names the live ones, and construction reclaims any *.vg2
// debris in the spill directory that no live process' manifest references —
// before this GC, files orphaned by kill -9 persisted until path reuse.
// Spill files and the manifest are written to a sibling temp file and
// rename()d into place, so a reader or GC scan never sees a torn file, but
// they are NOT fsynced: they are scratch that dies with the process (the
// startup GC reclaims whatever a crash leaves), and durable state comes
// from the entries' sources and the journal, never from the spill
// directory. IO failures at the spill seams are retried (3 attempts, no
// sleeps) and counted in vulnds_store_io_errors_total{site,outcome}.
//
// Entries are reference-counted: Evict (or a spill) removes a graph from
// the catalog, but queries already holding the entry finish safely on the
// old snapshot. All catalog methods are thread-safe.

#ifndef VULNDS_SERVE_GRAPH_CATALOG_H_
#define VULNDS_SERVE_GRAPH_CATALOG_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "graph/uncertain_graph.h"
#include "obs/metrics.h"
#include "obs/query_trace.h"
#include "store/memory_governor.h"
#include "vulnds/detector.h"

namespace vulnds::serve {

/// One catalog entry: an immutable graph plus its mutable derived state.
struct CatalogEntry {
  std::string name;
  std::string source;     ///< file path, or "<memory>" for Put()
  UncertainGraph graph;   ///< immutable after construction

  /// Catalog-unique id, fresh on every load/reload — but PRESERVED across a
  /// spill/page-back round trip. Result caches key on it so entries cached
  /// against a replaced or evicted snapshot can never be served for the new
  /// one, while a paged-back snapshot (bit-identical by construction) keeps
  /// serving its cached results.
  uint64_t uid = 0;

  /// Approximate resident footprint of `graph` (CSR arrays + edge list),
  /// charged to the governor as a snapshot. Fixed at insert time.
  std::size_t bytes = 0;

  /// In-flight reference count (ScopedEntryPin). A pinned entry is never
  /// spilled or shed; it can still be replaced/evicted by an explicit
  /// Load/Put/Evict of its name (holders stay safe via their shared_ptr).
  std::atomic<int> pins{0};

  /// True once the entry has been removed from the catalog (evicted,
  /// replaced, or spilled). With charged_* below it closes the race between
  /// a charge in flight and a concurrent detach: whoever runs second sees
  /// the other's write and settles the governor balance (see .cc).
  std::atomic<bool> detached{false};

  /// Bytes currently charged to the governor for this entry, by class.
  /// Exchanged to 0 exactly once per discharge, so charges can never be
  /// credited back twice or left dangling.
  std::atomic<std::size_t> charged_snapshot_bytes{0};
  std::atomic<std::size_t> charged_context_bytes{0};

  /// Warm per-graph intermediates; hold `context_mu` while touching it.
  DetectionContext context;
  std::mutex context_mu;
};

/// RAII in-flight pin on a catalog entry: the snapshot-shedder skips pinned
/// entries, so the graph a query is running against is never spilled out
/// from under the name mid-flight. Movable, not copyable.
class ScopedEntryPin {
 public:
  ScopedEntryPin() = default;
  explicit ScopedEntryPin(std::shared_ptr<CatalogEntry> entry)
      : entry_(std::move(entry)) {
    if (entry_) entry_->pins.fetch_add(1, std::memory_order_relaxed);
  }
  ScopedEntryPin(ScopedEntryPin&& other) noexcept
      : entry_(std::move(other.entry_)) {
    other.entry_.reset();
  }
  ScopedEntryPin& operator=(ScopedEntryPin&& other) noexcept {
    if (this != &other) {
      Release();
      entry_ = std::move(other.entry_);
      other.entry_.reset();
    }
    return *this;
  }
  ScopedEntryPin(const ScopedEntryPin&) = delete;
  ScopedEntryPin& operator=(const ScopedEntryPin&) = delete;
  ~ScopedEntryPin() { Release(); }

  void Release() {
    if (entry_) {
      entry_->pins.fetch_sub(1, std::memory_order_relaxed);
      entry_.reset();
    }
  }

  explicit operator bool() const { return entry_ != nullptr; }
  const std::shared_ptr<CatalogEntry>& entry() const { return entry_; }

 private:
  std::shared_ptr<CatalogEntry> entry_;
};

/// Counters exposed through `stats <name>` / benches.
struct CatalogStats {
  std::size_t loads = 0;      ///< successful Load/Put calls
  std::size_t reloads = 0;    ///< loads that replaced an existing name
  std::size_t evictions = 0;  ///< explicit Evict calls that removed a graph
  std::size_t hits = 0;       ///< Get() found the name
  std::size_t misses = 0;     ///< Get() did not
  std::size_t spills = 0;     ///< snapshots written to the spill dir
  std::size_t page_ins = 0;   ///< spilled snapshots read back on demand
};

/// Catalog wiring: where snapshots spill and which governor bounds them.
struct GraphCatalogOptions {
  /// Directory cold snapshots spill to under governor pressure (created on
  /// first use; empty = spilling disabled, the snapshot class then frees
  /// nothing and the governor moves on to the next shed class).
  std::string spill_dir;
  /// Global byte governor to charge snapshot/context bytes through; may
  /// also be bound later (BindGovernor). Must outlive the catalog's use.
  store::MemoryGovernor* governor = nullptr;
};

/// Approximate bytes a resident graph occupies (dual CSR + edge list +
/// self-risks, plus the sampling kernels' lazily-built coin columns).
/// Deterministic in the graph's shape, so budget tests can
/// predict spill behavior exactly. Deliberately excludes the entry's
/// DetectionContext: its warm intermediates grow with query traffic and are
/// charged separately (ChargeClass::kContext) by the query engine; the
/// governor bounds both classes.
std::size_t EstimateGraphBytes(const UncertainGraph& graph);

class GraphCatalog {
 public:
  /// Creates a catalog with no spill directory and no governor.
  GraphCatalog() : GraphCatalog(GraphCatalogOptions{}) {}

  /// Creates a catalog with explicit spill + governor wiring.
  explicit GraphCatalog(const GraphCatalogOptions& options);

  ~GraphCatalog();

  /// Binds (or replaces) the governor and registers this catalog's context
  /// and snapshot shedders with it. The catalog must stay alive while the
  /// governor can shed. Call before concurrent traffic.
  void BindGovernor(store::MemoryGovernor* governor);

  /// Drops the governor binding (the engine unbinds an engine-owned
  /// governor before it dies). Charges already made are left to the
  /// governor's own teardown.
  void UnbindGovernor() {
    governor_.store(nullptr, std::memory_order_release);
  }

  /// Resolves the page-in and spill latency histograms
  /// (vulnds_store_page_in_micros, vulnds_store_spill_micros) in `registry`
  /// and adopts `clock` for timing them; pass nullptr/null to unbind. Call
  /// before concurrent traffic.
  void BindObservability(obs::MetricRegistry* registry, obs::ClockMicros clock);

  /// Reads `path` (text or binary snapshot) and registers it as `name`,
  /// replacing any existing entry of that name. Parsing happens outside
  /// the catalog lock, so concurrent loads overlap.
  Status Load(const std::string& name, const std::string& path);

  /// Registers an already-built graph (generators, tests) as `name`.
  Status Put(const std::string& name, UncertainGraph graph,
             const std::string& source = "<memory>");

  /// Returns the entry for `name` and marks it most-recently-used, or
  /// nullptr if the name is not RESIDENT (spilled names miss here — use
  /// GetOrLoad wherever a spilled graph must still answer).
  std::shared_ptr<CatalogEntry> Get(const std::string& name);

  /// Get, plus demand paging: a name whose snapshot was spilled to disk is
  /// read back (binary v2), re-registered under its ORIGINAL uid and
  /// returned. Ok(nullptr) means the name is neither resident nor spilled;
  /// an error means the spill file could not be read back. Page-ins are
  /// serialized (one reader does the I/O, racers get the resident entry).
  Result<std::shared_ptr<CatalogEntry>> GetOrLoad(const std::string& name);

  /// True when `name` is resident or spilled. Touches neither recency nor
  /// hit counters (existence checks must not perturb LRU order).
  bool Contains(const std::string& name) const;

  /// Removes `name` — resident or spilled (the spill file is deleted);
  /// returns whether it existed. In-flight holders of the entry keep it
  /// alive until they drop their reference.
  bool Evict(const std::string& name);

  /// Resident names, most-recently-used first, then spilled names (coldest
  /// of all, unordered).
  std::vector<std::string> Names() const;

  /// Shared references to every resident entry, in no particular order.
  /// Unlike Get this touches neither recency nor hit counters: the stats
  /// path must observe residency (e.g. summing DetectionContext bytes)
  /// without perturbing LRU order.
  std::vector<std::shared_ptr<CatalogEntry>> SnapshotEntries() const;

  std::size_t size() const;
  /// Approximate resident bytes.
  std::size_t resident_bytes() const;
  /// Bytes / count of snapshots currently parked in the spill directory.
  std::size_t spilled_bytes() const {
    return spilled_bytes_.load(std::memory_order_relaxed);
  }
  std::size_t spilled_count() const {
    return spilled_count_.load(std::memory_order_relaxed);
  }
  /// Orphaned spill files (debris of killed processes) reclaimed by this
  /// catalog's construction-time GC.
  std::size_t spill_orphans_reclaimed() const {
    return spill_orphans_reclaimed_.load(std::memory_order_relaxed);
  }
  const std::string& spill_dir() const { return options_.spill_dir; }
  store::MemoryGovernor* governor() const {
    return governor_.load(std::memory_order_acquire);
  }

  CatalogStats stats() const;

 private:
  struct Slot {
    std::shared_ptr<CatalogEntry> entry;
    std::list<std::string>::iterator lru_pos;
  };
  using SlotMap = std::unordered_map<std::string, Slot>;

  /// A snapshot parked on disk: where it is, what loaded it originally,
  /// and the identity/size it resumes on page-in.
  struct SpillRecord {
    std::string path;
    std::string source;
    uint64_t uid = 0;
    std::size_t bytes = 0;
    uint32_t crc = 0;  ///< CRC-32 of the serialized bytes on disk
  };

  // Mints a fresh uid for `entry`, then registers it (see InsertPrepared).
  void Insert(std::shared_ptr<CatalogEntry> entry);

  // Registers `entry` under its ALREADY-SET uid (replacing any same-name
  // entry and superseding any same-name spill record), then charges the
  // governor. Called with no catalog locks held (page-in calls it under
  // page_in_mu_ only).
  void InsertPrepared(std::shared_ptr<CatalogEntry> entry);

  // Removes the slot at `it`: detaches the entry, settles its governor
  // charges, and adjusts the byte accounting. Caller holds mu_ and is
  // responsible for counting the eviction/spill.
  void RemoveLocked(SlotMap::iterator it);

  // Deletes any spill record (and file) for `name`; returns whether one
  // existed. Takes spill_mu_.
  bool DropSpillRecord(const std::string& name);

  // The spill file for `entry` inside spill_dir (name sanitized, uid
  // suffix keeps distinct generations of one name distinct on disk).
  std::string SpillPathFor(const CatalogEntry& entry) const;

  // This process' spill manifest path (spill_dir/MANIFEST.<pid>).
  std::string ManifestPath() const;

  // Atomically rewrites the manifest from spilled_. Caller holds spill_mu_.
  // Failures are counted (site=spill_manifest) and swallowed: the in-memory
  // records stay authoritative for this process, the manifest only protects
  // the files from another process' startup GC.
  void RewriteManifestLocked();

  // Construction-time GC: deletes *.vg2 spill debris (and dead processes'
  // manifests) in spill_dir that no live process' manifest references,
  // counting reclaimed files in spill_orphans_reclaimed_.
  void ReclaimOrphanSpills();

  // Governor shedders (registered by BindGovernor; run under the
  // governor's shed mutex, so they only ever Discharge, never Charge).
  std::size_t ShedContexts(std::size_t want);
  std::size_t ShedSnapshots(std::size_t want);

  int64_t NowMicros() const;

  const GraphCatalogOptions options_;
  std::atomic<uint64_t> next_uid_{1};

  // Resident state. Lock order: mu_ is taken after page_in_mu_ and the
  // governor's shed mutex, before spill_mu_; governor Charge is never
  // called while it is held (Discharge is).
  mutable std::mutex mu_;
  SlotMap entries_;             // guarded by mu_
  std::list<std::string> lru_;  // front = most recent; guarded by mu_
  std::size_t bytes_ = 0;       // resident bytes; guarded by mu_
  CatalogStats stats_;          // guarded by mu_

  // Spill state. Lock order: spill_mu_ is a leaf below mu_ and the
  // governor's shed mutex; page_in_mu_ is taken before everything
  // (serializes the read-back I/O so racing queries for one spilled name
  // do the disk read once).
  mutable std::mutex spill_mu_;
  std::unordered_map<std::string, SpillRecord> spilled_;
  std::atomic<std::size_t> spilled_bytes_{0};
  std::atomic<std::size_t> spilled_count_{0};
  std::mutex page_in_mu_;
  std::atomic<bool> spill_dir_ready_{false};
  std::atomic<std::size_t> spill_orphans_reclaimed_{0};

  // Late-bound runtime (engine wires these in its constructor; atomics so
  // a binding racing early traffic is benign).
  std::atomic<store::MemoryGovernor*> governor_{nullptr};
  std::atomic<obs::Histogram*> page_in_micros_{nullptr};
  std::atomic<obs::Histogram*> spill_micros_{nullptr};
  std::atomic<obs::MetricRegistry*> registry_{nullptr};
  obs::ClockMicros obs_clock_;  // written only by BindObservability
};

}  // namespace vulnds::serve

#endif  // VULNDS_SERVE_GRAPH_CATALOG_H_
