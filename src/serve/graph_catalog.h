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
// Locking. One mutex guards one name map, one LRU list and the byte
// accounting. A Get holds it for a map lookup and a list splice; snapshot
// parsing, spill writes and page-in reads all happen outside it, so the
// lock is never held across I/O. Governor shedding walks the LRU list from
// its cold end.
//
// Metrics. The catalog creates one obs::MetricRegistry at construction and
// keeps it for its lifetime: every layer built on the catalog (query
// engines, their result caches, session fronts, the update manager) counts
// into it in place, so a spill retry or page-in counts whether or not an
// engine exists at that moment. The catalog's own counters and IO latency
// histograms are lock-free registry series resolved at construction;
// RefreshMetrics sets the gauges and the governor's shed counters, which
// are moment-in-time reads, just before a scrape renders the registry.
//
// Byte governance and disk spill. The catalog has no budget of its own;
// it charges through the store::MemoryGovernor it is built with
// (GraphCatalogOptions::governor, else one it owns that only accounts),
// which is then the only bound on residency: every resident graph is
// charged under ChargeClass::kSnapshot and its warm DetectionContext under
// ChargeClass::kContext (the query engine recharges the context's
// ApproxBytes after each cold detect). The catalog registers a shedder for
// each of the two classes for its whole lifetime. When the governor's
// GLOBAL budget is exceeded it sheds through them: coldest
// contexts are dropped first (pure recompute, no correctness cost), then —
// when a spill directory is configured — the coldest UNPINNED snapshots
// are written to disk in the binary v2 format and paged back on demand
// inside GetOrLoad. A spilled entry keeps its uid across the round trip,
// so result-cache lines keyed on (name, uid, options) stay valid and
// answers after page-back are bit-identical to the always-resident run.
// Queries pin entries (ScopedEntryPin) for their in-flight duration;
// pinned snapshots are never spilled or shed.
//
// Clean pages. A snapshot that pages back in under its uid keeps its spill
// file and record when its source is reloadable (a real snapshot file):
// the record moves from the spilled set to a kept set, its file is then a
// clean page of the resident snapshot, and the next spill of that entry
// writes nothing — it moves the record back and detaches the entry, as an
// OS evicts a clean page. So each (name, uid)
// is written at most once (CatalogStats::spill_writes). Evicting,
// reloading or replacing the name deletes its kept file, as does the
// catalog's destructor. "<memory>" and "commit:" snapshots keep no page:
// with no source to fall back to, they must never depend on a file
// written before their last page-in, so each of their spills writes anew.
//
// Reserve-first page-in. GetOrLoad reads a page straight into the graph's
// columns (ReadGraphPage: no whole-file buffer). Once the page's header
// checks out against the file length, the record's bytes are charged to
// the governor BEFORE any column is allocated, so the victim is shed
// before the new arrays exist; that reservation becomes the entry's
// charge, or is released when the page-in fails.
//
// Spill integrity and crash consistency. Spill files carry a CRC-32 over
// the encoded snapshot, verified on page-in: a corrupted page is never
// deserialized into a servable graph — the catalog falls back to reloading
// the entry's original on-disk source (same uid when the source still
// holds the spilled snapshot, else a fresh uid: cached results against the
// lost snapshot are unreachable, never wrong) or surfaces an error while
// everything else keeps serving. Spill files are process-private and
// named by their owner: `<pid>.<name>.<uid>.<serial>.vg2`, and the temps
// ReplaceFileAtomic writes them through carry the same prefix, so a file
// names its owner from its first byte. Construction reclaims every *.vg2*
// file in the spill directory whose leading pid does not parse or names no
// live process (kill(pid, 0) fails with ESRCH) — debris a kill -9 left.
// Our own pid and pids we may not signal count as alive. uids and serials
// are per catalog, so at most one catalog of a process should spill into a
// given directory: a second one's GC keeps the first's files, but their
// names could collide.
// Spill files are written through ReplaceFileAtomic (common/atomic_file.h),
// so a reader or GC scan never sees a torn file under a final name, but
// they are NOT fsynced: they are scratch that dies with the process
// (the startup GC reclaims whatever a crash leaves), and durable state
// comes from the entries' sources and the journal, never from the spill
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

/// Warm-context residency summed over resident entries (WarmContexts).
struct ContextResidency {
  std::size_t bytes = 0;  ///< ApproxBytes of the contexts that were free
  std::size_t busy = 0;   ///< contexts a query held, skipped
};

/// The catalog's counters as one value, read from their registry series
/// (each exact, the set a moment-in-time snapshot).
struct CatalogStats {
  std::size_t loads = 0;      ///< successful Load/Put calls
  std::size_t reloads = 0;    ///< loads that replaced an existing name
  std::size_t evictions = 0;  ///< explicit Evict calls that removed a graph
  std::size_t hits = 0;       ///< Get() found the name
  std::size_t misses = 0;     ///< Get() did not
  std::size_t spills = 0;     ///< snapshots detached to the spill dir
  std::size_t page_ins = 0;   ///< spilled snapshots read back on demand
  /// Spill files written. A clean re-spill (the snapshot's file is still
  /// on disk from its last spill) writes nothing, so this stays at most
  /// the number of distinct (name, uid) pairs that spilled.
  std::size_t spill_writes = 0;
};

/// Catalog wiring: where snapshots spill and which governor bounds them.
struct GraphCatalogOptions {
  /// Directory cold snapshots spill to under governor pressure (created on
  /// first use; empty = spilling disabled, the snapshot class then frees
  /// nothing and the governor moves on to the next shed class).
  std::string spill_dir;
  /// Global byte governor every pool over this catalog charges through.
  /// Must outlive the catalog. Null = the catalog owns an accounting-only
  /// governor (budget 0), so `vulnds_store_*` metrics still render.
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
  /// Creates a catalog with no spill directory and an accounting-only
  /// governor of its own.
  GraphCatalog() : GraphCatalog(GraphCatalogOptions{}) {}

  /// Creates a catalog with explicit spill + governor wiring, and registers
  /// its context and snapshot shedders with the governor for its lifetime.
  explicit GraphCatalog(const GraphCatalogOptions& options);

  ~GraphCatalog();

  /// The registry every layer over this catalog counts into; lives as long
  /// as the catalog.
  obs::MetricRegistry* registry() { return &registry_; }

  /// Sets the scrape-time gauges (residency, warm contexts, sampler
  /// scratch, spill parking, governor budget and charges) and copies the
  /// governor's shed counters into their series. Called by the `metrics`
  /// verb before rendering; one lock per structure, try_lock on contexts.
  void RefreshMetrics();

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

  /// Removes `name` — resident or spilled (its spill file or kept page is
  /// deleted); returns whether it existed. In-flight holders of the entry
  /// keep it alive until they drop their reference.
  bool Evict(const std::string& name);

  /// Resident names, most-recently-used first, then spilled names (coldest
  /// of all, unordered).
  std::vector<std::string> Names() const;

  /// Bytes of the warm DetectionContexts of resident entries, for the
  /// `stats` verb and the metrics scrape. Each context is try_locked, never
  /// waited on: a cold detect holds its context for its whole sampling run,
  /// and a monitoring probe must not stall behind it. Busy contexts are
  /// skipped and counted, so the sum is a moment-in-time lower bound.
  ContextResidency WarmContexts() const;

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
    return metrics_.orphans_reclaimed->Value();
  }
  const std::string& spill_dir() const { return options_.spill_dir; }
  /// The governor this catalog was built with; never null.
  store::MemoryGovernor* governor() const { return governor_; }

  CatalogStats stats() const;

 private:
  struct Slot {
    std::shared_ptr<CatalogEntry> entry;
    std::list<std::string>::iterator lru_pos;
  };
  using SlotMap = std::unordered_map<std::string, Slot>;

  /// A snapshot file on disk: where it is, what loaded it originally,
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

  // The page-in behind GetOrLoad: reads `name`'s spill record back and
  // publishes it. Ok(nullptr) means the name was not paged in (it became
  // resident, was superseded or dropped meanwhile): the caller looks again.
  Result<std::shared_ptr<CatalogEntry>> PageInSpilled(const std::string& name);

  // What a page-in publishes along with its entry.
  struct PageIn {
    uint64_t record_uid = 0;   // uid of the spill record that was read
    bool keep_page = false;    // keep that record's file as a clean page
    std::size_t reserved = 0;  // snapshot bytes already charged for it
  };

  // Registers `entry` under its ALREADY-SET uid, replacing any same-name
  // entry, then charges the governor; the name's spill record and file are
  // deleted. For a page-in (`page` set) the entry is published only while
  // the record it was read from is still the name's spilled record — a
  // Load, Put or Evict that raced the read superseded it, and the call then
  // changes nothing and returns false. A page-in's `keep_page` moves the
  // record to kept_ instead of deleting it, and its `reserved` bytes become
  // the entry's charge. Called with no catalog locks held (page-in calls it
  // under page_in_mu_ only).
  bool InsertPrepared(std::shared_ptr<CatalogEntry> entry,
                      const PageIn* page = nullptr);

  // Removes the slot at `it`: detaches the entry, settles its governor
  // charges, and adjusts the byte accounting. Caller holds mu_ and is
  // responsible for counting the eviction/spill.
  void RemoveLocked(SlotMap::iterator it);

  // Deletes any spill record (and file) for `name`; returns whether one
  // existed. Takes spill_mu_.
  bool DropSpillRecord(const std::string& name);

  // Erases `name`'s record from spilled_ or kept_ and returns its file's
  // path ("" when there was none) for the caller to delete. Caller holds
  // spill_mu_.
  std::string TakeSpillRecordLocked(const std::string& name);

  // Moves `name`'s record with `uid` between kept_ and spilled_ (`to_spilled`
  // picks the direction), keeping the spilled byte/count gauges in step;
  // false when the source map holds no such record. The file stays. Caller
  // holds spill_mu_.
  bool MovePageLocked(const std::string& name, uint64_t uid, bool to_spilled);

  // A fresh spill file path for `entry` inside spill_dir: our pid, the
  // sanitized name, the uid, and a per-catalog write number. No path is
  // ever used twice, so deleting a superseded page (outside spill_mu_) can
  // never remove a newer page of the same (name, uid).
  std::string SpillPathFor(const CatalogEntry& entry);

  // Construction-time GC: deletes the *.vg2* files in spill_dir whose
  // leading pid does not parse or names a dead process, counting them in
  // spill_orphans_reclaimed_.
  void ReclaimOrphanSpills();

  // Serializes `victim` to its spill file and records it as spilled;
  // false (the entry stays resident) when the write fails.
  bool WriteSpillPage(const CatalogEntry& victim);

  // Governor shedders (registered at construction; run under the
  // governor's shed mutex, so they only ever Discharge, never Charge).
  std::size_t ShedContexts(std::size_t want);
  std::size_t ShedSnapshots(std::size_t want);

  // The catalog's series in registry_, resolved once at construction.
  struct Metrics {
    explicit Metrics(obs::MetricRegistry& registry);
    obs::Counter* loads;
    obs::Counter* reloads;
    obs::Counter* evictions;
    obs::Counter* hits;
    obs::Counter* misses;
    obs::Counter* spills;
    obs::Counter* spill_writes;
    obs::Counter* page_ins;
    obs::Counter* orphans_reclaimed;
    obs::Histogram* page_in_micros;
    obs::Histogram* spill_micros;
    // Set by RefreshMetrics.
    obs::Gauge* resident_graphs;
    obs::Gauge* resident_bytes;
    obs::Gauge* context_bytes;
    obs::Gauge* context_busy;
    obs::Gauge* sampler_scratch_bytes;
    obs::Gauge* budget_bytes;
    obs::Gauge* charged_total;
    obs::Gauge* spilled_bytes;
    obs::Gauge* spilled_graphs;
    // Per store::ChargeClass.
    obs::Gauge* charged[store::kChargeClassCount];
    obs::Counter* sheds[store::kChargeClassCount];
    obs::Counter* shed_bytes[store::kChargeClassCount];
  };

  const GraphCatalogOptions options_;
  // Declared before everything that counts into it.
  obs::MetricRegistry registry_;
  const Metrics metrics_;
  std::atomic<uint64_t> next_uid_{1};

  // Resident state. Lock order: mu_ is taken after page_in_mu_ and the
  // governor's shed mutex, before spill_mu_; governor Charge is never
  // called while it is held (Discharge is).
  mutable std::mutex mu_;
  SlotMap entries_;             // guarded by mu_
  std::list<std::string> lru_;  // front = most recent; guarded by mu_
  std::size_t bytes_ = 0;       // resident bytes; guarded by mu_

  // Spill state. Lock order: spill_mu_ is a leaf below mu_ and the
  // governor's shed mutex; page_in_mu_ is taken before everything
  // (serializes the read-back I/O so racing queries for one spilled name
  // do the disk read once).
  // spilled_ holds the snapshots parked on disk, kept_ the clean pages of
  // resident ones; a name has a record in at most one of the two. Only
  // spilled_ is counted in the gauges and paged in.
  mutable std::mutex spill_mu_;
  std::unordered_map<std::string, SpillRecord> spilled_;
  std::unordered_map<std::string, SpillRecord> kept_;
  std::atomic<std::size_t> spilled_bytes_{0};
  std::atomic<std::size_t> spilled_count_{0};
  std::mutex page_in_mu_;
  std::atomic<bool> spill_dir_ready_{false};
  std::atomic<uint64_t> next_spill_file_{0};

  // The governor, fixed at construction. The shedder registrations come
  // last: they are destroyed first, before the state their shedders touch.
  std::unique_ptr<store::MemoryGovernor> owned_governor_;
  store::MemoryGovernor* const governor_;
  store::MemoryGovernor::Registration context_shedder_;
  store::MemoryGovernor::Registration snapshot_shedder_;
};

}  // namespace vulnds::serve

#endif  // VULNDS_SERVE_GRAPH_CATALOG_H_
