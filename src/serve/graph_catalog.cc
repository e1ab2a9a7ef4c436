#include "serve/graph_catalog.h"

#include <dirent.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>

#include "common/atomic_file.h"
#include "common/failpoint.h"
#include "graph/graph_io.h"
#include "obs/query_trace.h"
#include "serve/io_metrics.h"
#include "vulnds/coin_columns.h"
#include "vulnds/reverse_sampler.h"

namespace vulnds::serve {

namespace {

// IO attempts per spill/page-in seam before the failure is surfaced.
constexpr int kSpillIoAttempts = 3;

// True when `fname` names a live process in its leading "<pid>." — the
// owner every spill file and temp names. A pid we may not signal (EPERM)
// is alive; only ESRCH proves the owner gone.
bool OwnerIsAlive(const std::string& fname) {
  char* end = nullptr;
  errno = 0;
  const long pid = std::strtol(fname.c_str(), &end, 10);
  if (errno != 0 || end == fname.c_str() || *end != '.' || pid <= 0 ||
      pid > std::numeric_limits<pid_t>::max()) {
    return false;
  }
  return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno != ESRCH;
}

// True when the entry's source is a real on-disk file a degraded page-in
// can reload (as opposed to "<memory>" Puts and "commit:" materializations
// that only ever existed in RAM / the journal).
bool SourceIsReloadable(const std::string& source) {
  return !source.empty() && source != "<memory>" &&
         source.rfind("commit:", 0) != 0;
}

}  // namespace

std::size_t EstimateGraphBytes(const UncertainGraph& graph) {
  const std::size_t n = graph.num_nodes();
  const std::size_t m = graph.num_edges();
  return sizeof(UncertainGraph) + n * sizeof(double)          // self-risks
         + 2 * (n + 1) * sizeof(std::size_t)                  // dual offsets
         + 2 * m * sizeof(Arc)                                // dual arc arrays
         + m * sizeof(UncertainEdge)                          // edge list
         // The sampling kernels' coin columns live in the graph's derived
         // cache (built on the first detect, resident until eviction), so a
         // served graph's true footprint includes them; charging up front
         // keeps the estimate deterministic in the graph's shape. Sparse
         // graphs below the density gate never build columns, so they are
         // not charged for them.
         + (CoinColumns::Worthwhile(graph) ? CoinColumns::EstimateBytes(graph)
                                           : 0);
}

GraphCatalog::Metrics::Metrics(obs::MetricRegistry& registry)
    : loads(registry.GetCounter("vulnds_catalog_loads_total",
                                "Successful catalog loads")),
      reloads(registry.GetCounter(
          "vulnds_catalog_reloads_total",
          "Catalog loads that replaced a resident graph of the same name")),
      evictions(registry.GetCounter(
          "vulnds_catalog_evictions_total",
          "Graphs removed from the catalog by explicit evict")),
      hits(registry.GetCounter("vulnds_catalog_hits_total",
                               "Catalog lookups that hit")),
      misses(registry.GetCounter("vulnds_catalog_misses_total",
                                 "Catalog lookups that missed")),
      spills(registry.GetCounter("vulnds_store_spills_total",
                                 "Snapshots detached to the spill directory")),
      spill_writes(registry.GetCounter(
          "vulnds_store_spill_writes_total",
          "Spill files written (a clean re-spill writes none)")),
      page_ins(registry.GetCounter("vulnds_store_page_ins_total",
                                   "Spilled snapshots paged back in on demand")),
      orphans_reclaimed(registry.GetCounter(
          "vulnds_store_spill_orphans_reclaimed_total",
          "Orphaned spill files (debris of killed processes) reclaimed by "
          "startup GC")),
      page_in_micros(registry.GetHistogram(
          "vulnds_store_page_in_micros",
          "Latency of paging a spilled snapshot back from the spill "
          "directory, in microseconds.",
          obs::LatencyBucketsMicros())),
      spill_micros(registry.GetHistogram(
          "vulnds_store_spill_micros",
          "Latency of spilling one snapshot to the spill directory "
          "(serialize, CRC, write), in microseconds.",
          obs::LatencyBucketsMicros())),
      resident_graphs(registry.GetGauge("vulnds_catalog_resident_graphs",
                                        "Graphs resident now")),
      resident_bytes(registry.GetGauge("vulnds_catalog_resident_bytes",
                                       "Approximate bytes of resident graphs")),
      context_bytes(registry.GetGauge(
          "vulnds_catalog_context_bytes",
          "Approximate bytes of warm per-graph detection contexts")),
      context_busy(registry.GetGauge(
          "vulnds_catalog_context_busy",
          "Contexts skipped by the scrape because a query held them")),
      // BSRBK's per-pool-thread sampler state: process memory outside the
      // governor's mem_bytes budget, so the scrape shows it.
      sampler_scratch_bytes(registry.GetGauge(
          "vulnds_sampler_scratch_bytes",
          "Bytes of per-node state held by live BSRBK samplers (one per pool "
          "thread between queries)")),
      budget_bytes(registry.GetGauge(
          "vulnds_store_budget_bytes",
          "Global memory-hierarchy byte budget (0 = accounting only)")),
      charged_total(registry.GetGauge(
          "vulnds_store_resident_bytes",
          "Bytes charged against the global budget, all classes")),
      spilled_bytes(registry.GetGauge(
          "vulnds_store_spilled_bytes",
          "Bytes of snapshots parked in the spill directory")),
      spilled_graphs(registry.GetGauge(
          "vulnds_store_spilled_graphs",
          "Snapshots parked in the spill directory")) {
  RegisterIoErrorSeries(registry);
  for (std::size_t c = 0; c < store::kChargeClassCount; ++c) {
    const obs::LabelSet labels{
        {"class", store::ChargeClassName(static_cast<store::ChargeClass>(c))}};
    charged[c] = registry.GetGauge(
        "vulnds_store_charged_bytes",
        "Bytes charged against the global budget, by class", labels);
    sheds[c] = registry.GetCounter(
        "vulnds_store_sheds_total",
        "Shedder invocations that freed bytes, by class", labels);
    shed_bytes[c] = registry.GetCounter(
        "vulnds_store_shed_bytes_total", "Bytes freed by shedding, by class",
        labels);
  }
}

GraphCatalog::GraphCatalog(const GraphCatalogOptions& options)
    : options_(options),
      metrics_(registry_),
      owned_governor_(options.governor == nullptr
                          ? std::make_unique<store::MemoryGovernor>()
                          : nullptr),
      governor_(options.governor != nullptr ? options.governor
                                            : owned_governor_.get()),
      // Shed order is the governor's class order: contexts first (cheap
      // recompute), snapshots second (spill to disk, page back on demand).
      context_shedder_(governor_->RegisterShedder(
          store::ChargeClass::kContext,
          [this](std::size_t want) { return ShedContexts(want); })),
      snapshot_shedder_(governor_->RegisterShedder(
          store::ChargeClass::kSnapshot,
          [this](std::size_t want) { return ShedSnapshots(want); })) {
  if (!options_.spill_dir.empty()) ReclaimOrphanSpills();
}

GraphCatalog::~GraphCatalog() {
  // Spill files are process-private (their contents are re-derivable from
  // the entries' sources or the journal), so a clean shutdown removes
  // them; kill -9 leaves them for the next catalog's startup GC.
  {
    std::lock_guard<std::mutex> lock(spill_mu_);
    for (const auto* records : {&spilled_, &kept_}) {
      for (const auto& [name, record] : *records) {
        std::remove(record.path.c_str());
      }
    }
    spilled_.clear();
    kept_.clear();
  }
  // Settle outstanding governor charges so a governor that outlives the
  // catalog (tests, shared governors) does not account ghost bytes.
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, slot] : entries_) {
    CatalogEntry& entry = *slot.entry;
    entry.detached.store(true, std::memory_order_release);
    governor_->Discharge(store::ChargeClass::kSnapshot,
                         entry.charged_snapshot_bytes.exchange(0));
    governor_->Discharge(store::ChargeClass::kContext,
                         entry.charged_context_bytes.exchange(0));
  }
}

Status GraphCatalog::Load(const std::string& name, const std::string& path) {
  if (name.empty()) return Status::InvalidArgument("graph name must not be empty");
  // Snapshot I/O and parsing run outside the catalog lock: concurrent
  // loads overlap fully.
  Result<UncertainGraph> graph = ReadGraphFile(path);
  if (!graph.ok()) return graph.status();
  auto entry = std::make_shared<CatalogEntry>();
  entry->name = name;
  entry->source = path;
  entry->graph = graph.MoveValue();
  Insert(std::move(entry));
  return Status::OK();
}

Status GraphCatalog::Put(const std::string& name, UncertainGraph graph,
                         const std::string& source) {
  if (name.empty()) return Status::InvalidArgument("graph name must not be empty");
  auto entry = std::make_shared<CatalogEntry>();
  entry->name = name;
  entry->source = source;
  entry->graph = std::move(graph);
  Insert(std::move(entry));
  return Status::OK();
}

void GraphCatalog::Insert(std::shared_ptr<CatalogEntry> entry) {
  entry->uid = next_uid_.fetch_add(1, std::memory_order_relaxed);
  InsertPrepared(std::move(entry));
}

bool GraphCatalog::InsertPrepared(std::shared_ptr<CatalogEntry> entry,
                                  const PageIn* page) {
  entry->bytes = EstimateGraphBytes(entry->graph);
  const std::size_t bytes = entry->bytes;
  const std::string name = entry->name;
  const uint64_t uid = entry->uid;
  // Keep a reference past the move: the governor-settling tail below works
  // on the entry after it has been published to (and possibly already
  // detached from) the catalog.
  std::shared_ptr<CatalogEntry> held = entry;
  std::string superseded;  // spill file the new entry makes obsolete
  {
    // The name's spill record is settled in the critical section that
    // publishes the entry, so a shed (whose victim scan takes mu_) never
    // sees the entry with its record unsettled, and this settle never
    // undoes a re-spill. It is settled BEFORE the governor charge, so a
    // shed triggered by that charge can re-spill the new entry. Only the
    // maps change here; the file I/O follows outside both locks.
    std::lock_guard<std::mutex> lock(mu_);
    std::lock_guard<std::mutex> spill_lock(spill_mu_);
    if (page != nullptr) {
      const auto record = spilled_.find(name);
      if (record == spilled_.end() || record->second.uid != page->record_uid) {
        return false;
      }
    }
    metrics_.loads->Increment();
    const auto it = entries_.find(name);
    if (it != entries_.end()) {
      metrics_.reloads->Increment();
      RemoveLocked(it);
    }
    lru_.push_front(name);
    bytes_ += bytes;
    entries_.emplace(name, Slot{std::move(entry), lru_.begin()});
    if (page == nullptr || !page->keep_page ||
        !MovePageLocked(name, uid, /*to_spilled=*/false)) {
      superseded = TakeSpillRecordLocked(name);
    }
  }
  if (!superseded.empty()) std::remove(superseded.c_str());
  // Charge (or turn a page-in's reservation into the charge) before
  // publishing the amount, then re-check detachment: if a concurrent
  // Evict/replace removed the entry between the publish and its
  // detach-side settle, exactly one side wins the exchange and
  // discharges — the balance nets to zero in every interleaving.
  governor_->Recharge(store::ChargeClass::kSnapshot,
                      page != nullptr ? page->reserved : 0, bytes);
  held->charged_snapshot_bytes.store(bytes, std::memory_order_release);
  if (held->detached.load(std::memory_order_acquire)) {
    governor_->Discharge(store::ChargeClass::kSnapshot,
                         held->charged_snapshot_bytes.exchange(0));
  }
  return true;
}

void GraphCatalog::RemoveLocked(SlotMap::iterator it) {
  CatalogEntry& entry = *it->second.entry;
  const std::size_t bytes = entry.bytes;
  entry.detached.store(true, std::memory_order_release);
  // Discharge exactly what was charged (the exchange makes each charge
  // credited back at most once). Discharge never sheds or locks, so it is
  // safe under mu_.
  governor_->Discharge(store::ChargeClass::kSnapshot,
                       entry.charged_snapshot_bytes.exchange(0));
  governor_->Discharge(store::ChargeClass::kContext,
                       entry.charged_context_bytes.exchange(0));
  bytes_ -= bytes;
  lru_.erase(it->second.lru_pos);
  entries_.erase(it);
}

bool GraphCatalog::DropSpillRecord(const std::string& name) {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(spill_mu_);
    path = TakeSpillRecordLocked(name);
    if (path.empty()) return false;
  }
  std::remove(path.c_str());
  return true;
}

std::string GraphCatalog::TakeSpillRecordLocked(const std::string& name) {
  std::string path;
  if (const auto it = spilled_.find(name); it != spilled_.end()) {
    spilled_bytes_.fetch_sub(it->second.bytes, std::memory_order_relaxed);
    spilled_count_.fetch_sub(1, std::memory_order_relaxed);
    path = std::move(it->second.path);
    spilled_.erase(it);
  } else if (const auto kept = kept_.find(name); kept != kept_.end()) {
    path = std::move(kept->second.path);
    kept_.erase(kept);
  }
  return path;
}

bool GraphCatalog::MovePageLocked(const std::string& name, uint64_t uid,
                                  bool to_spilled) {
  auto& from = to_spilled ? kept_ : spilled_;
  auto& to = to_spilled ? spilled_ : kept_;
  const auto it = from.find(name);
  if (it == from.end() || it->second.uid != uid) return false;
  const std::size_t bytes = it->second.bytes;
  if (to_spilled) {
    spilled_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    spilled_count_.fetch_add(1, std::memory_order_relaxed);
  } else {
    spilled_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
    spilled_count_.fetch_sub(1, std::memory_order_relaxed);
  }
  to[name] = std::move(it->second);
  from.erase(it);
  return true;
}

std::string GraphCatalog::SpillPathFor(const CatalogEntry& entry) {
  const uint64_t file =
      next_spill_file_.fetch_add(1, std::memory_order_relaxed);
  return options_.spill_dir + "/" + std::to_string(::getpid()) + "." +
         SanitizeForFilename(entry.name) + "." + std::to_string(entry.uid) +
         "." + std::to_string(file) + ".vg2";
}

void GraphCatalog::ReclaimOrphanSpills() {
  DIR* dir = ::opendir(options_.spill_dir.c_str());
  if (dir == nullptr) return;  // directory not created yet: nothing to do
  // ".vg2" matches both finished spill files and the torn atomic-write
  // temps (<file>.vg2.tmp.<pid>.<serial>) a crash left behind; both begin
  // with their owner's pid.
  std::vector<std::string> orphans;
  while (dirent* ent = ::readdir(dir)) {
    const std::string fname = ent->d_name;
    if (fname.find(".vg2") != std::string::npos && !OwnerIsAlive(fname)) {
      orphans.push_back(fname);
    }
  }
  ::closedir(dir);
  for (const std::string& fname : orphans) {
    if (std::remove((options_.spill_dir + "/" + fname).c_str()) == 0) {
      metrics_.orphans_reclaimed->Increment();
    }
  }
}

std::size_t GraphCatalog::ShedContexts(std::size_t want) {
  // Coldest contexts first: gather every entry carrying a context charge,
  // walking the LRU list from its cold end. A context is a pure function of
  // (graph, query key), so dropping one costs recompute, never
  // correctness; busy contexts (a cold detect holds context_mu) are
  // skipped via try_lock rather than waited on — shedding must not block
  // behind a long detect.
  std::vector<std::shared_ptr<CatalogEntry>> warm;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      const Slot& slot = entries_.at(*it);
      if (slot.entry->charged_context_bytes.load(std::memory_order_relaxed) >
          0) {
        warm.push_back(slot.entry);
      }
    }
  }
  std::size_t freed = 0;
  for (const auto& entry : warm) {
    if (freed >= want) break;
    std::unique_lock<std::mutex> context_lock(entry->context_mu,
                                              std::try_to_lock);
    if (!context_lock.owns_lock()) continue;
    entry->context = DetectionContext{};
    const std::size_t bytes = entry->charged_context_bytes.exchange(0);
    governor_->Discharge(store::ChargeClass::kContext, bytes);
    freed += bytes;
  }
  return freed;
}

bool GraphCatalog::WriteSpillPage(const CatalogEntry& victim) {
  // Encode and write the spill file OUTSIDE the catalog lock (sheds run
  // under the governor's shed mutex only). The writer's CRC over the
  // encoded bytes travels in the spill record so page-in can prove the
  // file came back intact before assembling it; the temp+rename write
  // means no reader ever sees a truncated snapshot under the final name.
  const std::string path = SpillPathFor(victim);
  uint32_t crc = 0;
  Status written = Status::OK();
  for (int attempt = 0; attempt < kSpillIoAttempts; ++attempt) {
    // Spill pages are scratch that dies with the process (the startup GC
    // reclaims whatever a crash leaves), so they are not fsynced.
    written = ReplaceFileAtomic(
        path, AtomicFileOptions{.write_failpoint = fail::points::kSpillWrite},
        [&](ByteSink& out) { return EncodeGraphBinary(victim.graph, out); },
        &crc);
    if (written.ok()) {
      if (attempt > 0) CountIoError(&registry_, "spill_write", "retried");
      break;
    }
  }
  if (!written.ok()) {
    // Never drop a snapshot we failed to park: the entry stays resident
    // (the governor simply frees less this round) — degraded memory
    // pressure, never a lost graph.
    CountIoError(&registry_, "spill_write", "error");
    return false;
  }
  std::string stale;  // a page of an older generation of the name
  {
    std::lock_guard<std::mutex> lock(spill_mu_);
    stale = TakeSpillRecordLocked(victim.name);
    spilled_[victim.name] =
        SpillRecord{path, victim.source, victim.uid, victim.bytes, crc};
    spilled_bytes_.fetch_add(victim.bytes, std::memory_order_relaxed);
    spilled_count_.fetch_add(1, std::memory_order_relaxed);
  }
  if (!stale.empty()) std::remove(stale.c_str());
  return true;
}

std::size_t GraphCatalog::ShedSnapshots(std::size_t want) {
  // Spill the coldest UNPINNED snapshots to disk until `want`
  // bytes are freed. Without a spill directory this frees nothing —
  // snapshots may be the only copy of a committed version, so they are
  // never silently dropped under governor pressure.
  if (options_.spill_dir.empty()) return 0;
  if (!spill_dir_ready_.exchange(true, std::memory_order_relaxed)) {
    ::mkdir(options_.spill_dir.c_str(), 0777);  // best effort; write errors surface below
  }
  std::size_t freed = 0;
  while (freed < want) {
    // Coldest unpinned entry: walk the LRU list from its cold end.
    std::shared_ptr<CatalogEntry> victim;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
        const Slot& slot = entries_.at(*it);
        if (slot.entry->pins.load(std::memory_order_relaxed) == 0) {
          victim = slot.entry;
          break;
        }
      }
    }
    if (victim == nullptr) return freed;  // everything pinned or empty
    const int64_t start = obs::SteadyNowMicros();
    // A clean page — the victim paged in under this uid and its file is
    // still on disk — moves back to spilled_ instead of being written, as
    // an OS evicts a clean page. Either way the record is in spilled_
    // BEFORE the resident entry is detached: a concurrent GetOrLoad must
    // find the name in at least one of the two places.
    bool clean = false;
    {
      std::lock_guard<std::mutex> lock(spill_mu_);
      clean = MovePageLocked(victim->name, victim->uid, /*to_spilled=*/true);
    }
    if (!clean && !WriteSpillPage(*victim)) return freed;
    bool detached = false;
    bool still_resident = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!clean) metrics_.spill_writes->Increment();
      const auto it = entries_.find(victim->name);
      // The entry may have been replaced, evicted, or pinned since the
      // scan; spilling it then would park a stale (or in-use) snapshot.
      still_resident = it != entries_.end() && it->second.entry == victim;
      if (still_resident &&
          victim->pins.load(std::memory_order_relaxed) == 0) {
        metrics_.spills->Increment();
        const std::size_t context_bytes =
            victim->charged_context_bytes.load(std::memory_order_relaxed);
        RemoveLocked(it);
        freed += victim->bytes + context_bytes;
        detached = true;
      }
    }
    if (!detached) {
      // Undo: the resident entry stays authoritative. A clean page goes
      // back to kept_; a file just written (or the page of a replaced
      // entry) is deleted.
      bool restored = false;
      if (clean && still_resident) {
        std::lock_guard<std::mutex> lock(spill_mu_);
        restored = MovePageLocked(victim->name, victim->uid,
                                  /*to_spilled=*/false);
      }
      if (!restored) DropSpillRecord(victim->name);
      // The victim scan would pick the same entry again only if it is
      // still coldest AND unpinned — a pinned victim repeats forever, so
      // stop this round instead; the governor retries on later charges.
      return freed;
    }
    // Observed only for completed spills, so its count tracks `spills`.
    metrics_.spill_micros->Observe(
        static_cast<double>(obs::SteadyNowMicros() - start));
  }
  return freed;
}

std::shared_ptr<CatalogEntry> GraphCatalog::Get(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    metrics_.misses->Increment();
    return nullptr;
  }
  metrics_.hits->Increment();
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  return it->second.entry;
}

Result<std::shared_ptr<CatalogEntry>> GraphCatalog::GetOrLoad(
    const std::string& name) {
  if (auto entry = Get(name)) return entry;
  for (;;) {
    // Before answering absent, look at residency and the spill record
    // together, under mu_ then spill_mu_. A page-in or reload publishes its
    // entry and drops the record under both locks, so this look sees one or
    // the other, never the gap between them. It counts no second miss.
    {
      std::lock_guard<std::mutex> lock(mu_);
      std::lock_guard<std::mutex> spill_lock(spill_mu_);
      if (const auto it = entries_.find(name); it != entries_.end()) {
        metrics_.hits->Increment();
        lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
        return it->second.entry;
      }
      if (spilled_.find(name) == spilled_.end()) {
        return std::shared_ptr<CatalogEntry>();  // absent, not an error
      }
    }
    Result<std::shared_ptr<CatalogEntry>> paged = PageInSpilled(name);
    if (!paged.ok() || *paged != nullptr) return paged;
    // A load, Put, Evict or another page-in of the name overtook this one:
    // look again.
  }
}

Result<std::shared_ptr<CatalogEntry>> GraphCatalog::PageInSpilled(
    const std::string& name) {
  // One page-in at a time: racing queries for the same spilled name block
  // here and find the entry resident on their double-check instead of
  // each reading the file.
  std::lock_guard<std::mutex> page_lock(page_in_mu_);
  if (auto entry = Get(name)) return entry;
  SpillRecord record;
  {
    std::lock_guard<std::mutex> lock(spill_mu_);
    const auto it = spilled_.find(name);
    if (it == spilled_.end()) return std::shared_ptr<CatalogEntry>();
    record = it->second;
  }
  const int64_t start = obs::SteadyNowMicros();

  // Reserve first: once the page's header has checked out against its
  // length, its bytes are charged before any column is allocated, so the
  // governor sheds the victim before the new columns exist and the two
  // never sit in memory together. The reservation becomes the entry's
  // charge, or is released on failure.
  PageIn page{record.uid, SourceIsReloadable(record.source), 0};
  const auto reserve = [&] {
    if (page.reserved != 0) return;  // retries reserve once
    page.reserved = record.bytes;
    governor_->Charge(store::ChargeClass::kSnapshot, page.reserved);
  };
  const auto release = [&] {
    governor_->Discharge(store::ChargeClass::kSnapshot, page.reserved);
  };
  // A Load, Put or Evict of the name that raced the read superseded the
  // record and deleted its file: the failed read is then no fault, and the
  // caller looks up the name's newer state instead.
  const auto fail_page_in =
      [&](Status status) -> Result<std::shared_ptr<CatalogEntry>> {
    release();
    bool current = false;
    {
      std::lock_guard<std::mutex> lock(spill_mu_);
      const auto it = spilled_.find(name);
      current = it != spilled_.end() && it->second.uid == record.uid;
    }
    if (!current) return std::shared_ptr<CatalogEntry>();
    CountIoError(&registry_, "spill_page_in", "error");
    return status;
  };

  // Read the page straight into the graph's columns (bounded retries on
  // IO errors). The reader verifies the CRC taken at spill time BEFORE
  // assembling: a corrupted page is detected here and can never become a
  // servable — but wrong — graph.
  Result<UncertainGraph> graph = Status::IOError("spill file not read");
  for (int attempt = 0; attempt < kSpillIoAttempts; ++attempt) {
    if (const auto o = fail::Check(fail::points::kSpillPageIn);
        o != fail::Outcome::kNone) {
      graph = Status::IOError("read of " + record.path + " failed: " +
                              std::strerror(fail::InjectedErrno(o)) +
                              " (injected)");
      continue;
    }
    graph = ReadGraphPage(record.path, record.crc, reserve);
    if (graph.ok() || graph.status().code() != StatusCode::kIOError) {
      if (attempt > 0) CountIoError(&registry_, "spill_page_in", "retried");
      break;
    }
  }

  auto entry = std::make_shared<CatalogEntry>();
  entry->name = name;
  entry->source = record.source;
  // The original uid survives the round trip: result-cache lines keyed on
  // (name, uid, options) keep answering for the paged-back snapshot, which
  // is bit-identical to the spilled one by the v2 format's losslessness.
  entry->uid = record.uid;
  // A snapshot with a reloadable source keeps its file as a clean page
  // (page.keep_page), which its next spill re-activates without a write.
  // Other snapshots drop theirs: their only copy must never be a file
  // written before their last page-in.
  if (graph.ok()) {
    entry->graph = graph.MoveValue();
  } else {
    // Degraded path: the spilled copy is gone or corrupt. When the entry
    // originally came from a real snapshot file, reload that source and
    // keep serving. Entries that only ever lived in memory have nothing to
    // fall back to.
    const Status& read = graph.status();
    if (!SourceIsReloadable(record.source)) {
      return fail_page_in(Status::IOError(
          "page-in of '" + name + "' from " + record.path + " failed (" +
          read.message() +
          ") and the snapshot has no on-disk source; graph unavailable"));
    }
    Result<UncertainGraph> reloaded = ReadGraphFile(record.source);
    if (!reloaded.ok()) {
      return fail_page_in(Status::IOError(
          "page-in of '" + name + "' from " + record.path + " failed (" +
          read.message() + ") and reloading its source " + record.source +
          " failed: " + reloaded.status().message() + "; graph unavailable"));
    }
    CountIoError(&registry_, "spill_page_in", "degraded");
    entry->graph = reloaded.MoveValue();
    // Did the reload reconstruct the exact snapshot we lost? Re-encode it
    // into a checksum-only sink and compare against the CRC taken at spill
    // time: encoding is deterministic, so a match proves the source file is
    // unchanged and the reloaded graph is bit-identical to the spilled one.
    // Then the original uid survives — result-cache lines stay valid and update
    // lineages rooted on this snapshot do NOT see a base reload (which
    // would restart them and discard their committed-version listing).
    // A mismatch means the source really changed on disk: mint a fresh
    // uid so stale cached results become unreachable and lineage code can
    // apply its reload semantics.
    Crc32Sink reencoded;
    if (!EncodeGraphBinary(entry->graph, reencoded).ok() ||
        reencoded.crc() != record.crc) {
      entry->uid = next_uid_.fetch_add(1, std::memory_order_relaxed);
    }
    page.keep_page = false;  // the broken file goes with its record
  }
  std::shared_ptr<CatalogEntry> held = entry;
  // InsertPrepared keeps or drops the spill record once the entry is
  // resident, and may itself re-spill under pressure — the returned
  // reference stays valid either way.
  if (!InsertPrepared(std::move(entry), &page)) {
    release();
    return std::shared_ptr<CatalogEntry>();  // superseded while reading
  }
  metrics_.page_ins->Increment();
  metrics_.page_in_micros->Observe(
      static_cast<double>(obs::SteadyNowMicros() - start));
  return held;
}

bool GraphCatalog::Contains(const std::string& name) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (entries_.find(name) != entries_.end()) return true;
  }
  std::lock_guard<std::mutex> lock(spill_mu_);
  return spilled_.find(name) != spilled_.end();
}

bool GraphCatalog::Evict(const std::string& name) {
  bool removed = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(name);
    if (it != entries_.end()) {
      metrics_.evictions->Increment();
      RemoveLocked(it);
      removed = true;
    }
  }
  return DropSpillRecord(name) || removed;
}

std::vector<std::string> GraphCatalog::Names() const {
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(mu_);
    names.assign(lru_.begin(), lru_.end());
  }
  // Spilled names are colder than everything resident by construction.
  std::lock_guard<std::mutex> lock(spill_mu_);
  for (const auto& [name, record] : spilled_) names.push_back(name);
  return names;
}

ContextResidency GraphCatalog::WarmContexts() const {
  std::vector<std::shared_ptr<CatalogEntry>> entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries.reserve(entries_.size());
    for (const auto& [name, slot] : entries_) entries.push_back(slot.entry);
  }
  ContextResidency residency;
  for (const auto& entry : entries) {
    std::unique_lock<std::mutex> lock(entry->context_mu, std::try_to_lock);
    if (lock.owns_lock()) {
      residency.bytes += entry->context.ApproxBytes();
    } else {
      ++residency.busy;
    }
  }
  return residency;
}

std::size_t GraphCatalog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::size_t GraphCatalog::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

CatalogStats GraphCatalog::stats() const {
  CatalogStats s;
  s.loads = metrics_.loads->Value();
  s.reloads = metrics_.reloads->Value();
  s.evictions = metrics_.evictions->Value();
  s.hits = metrics_.hits->Value();
  s.misses = metrics_.misses->Value();
  s.spills = metrics_.spills->Value();
  s.page_ins = metrics_.page_ins->Value();
  s.spill_writes = metrics_.spill_writes->Value();
  return s;
}

void GraphCatalog::RefreshMetrics() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    metrics_.resident_graphs->Set(static_cast<double>(entries_.size()));
    metrics_.resident_bytes->Set(static_cast<double>(bytes_));
  }
  const ContextResidency contexts = WarmContexts();
  metrics_.context_bytes->Set(static_cast<double>(contexts.bytes));
  metrics_.context_busy->Set(static_cast<double>(contexts.busy));
  metrics_.sampler_scratch_bytes->Set(
      static_cast<double>(SamplerScratchBytes()));
  metrics_.spilled_bytes->Set(static_cast<double>(spilled_bytes()));
  metrics_.spilled_graphs->Set(static_cast<double>(spilled_count()));
  // The byte-governed memory hierarchy: one budget over snapshots,
  // contexts and cached results. The governor keeps its own shed
  // counters, so theirs are the one series copied in at scrape time.
  metrics_.budget_bytes->Set(static_cast<double>(governor_->budget()));
  metrics_.charged_total->Set(static_cast<double>(governor_->total_charged()));
  for (std::size_t c = 0; c < store::kChargeClassCount; ++c) {
    const auto cls = static_cast<store::ChargeClass>(c);
    metrics_.charged[c]->Set(static_cast<double>(governor_->charged(cls)));
    metrics_.sheds[c]->Set(governor_->sheds(cls));
    metrics_.shed_bytes[c]->Set(governor_->shed_bytes(cls));
  }
}

}  // namespace vulnds::serve
