// Disk spill + byte governance through GraphCatalog and QueryEngine:
// budget ceilings, shed ordering, pins, and the bit-identity of results
// across a spill / page-back round trip.

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstddef>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "graph/graph_io.h"
#include "obs/metrics.h"
#include "serve/graph_catalog.h"
#include "serve/query_engine.h"
#include "store/memory_governor.h"
#include "testing/snapshot_bytes.h"
#include "testing/temp_path.h"
#include "testing/test_graphs.h"
#include "vulnds/detector.h"

namespace vulnds::serve {
namespace {

using testing::TestTempDir;
using testing::TestTempPath;
using testing::WriteTempGraph;

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Every file in `dir`, as paths.
std::vector<std::string> FilesIn(const std::string& dir) {
  std::vector<std::string> files;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return files;
  while (dirent* ent = ::readdir(d)) {
    const std::string fname = ent->d_name;
    if (fname != "." && fname != "..") files.push_back(dir + "/" + fname);
  }
  ::closedir(d);
  return files;
}

// This process' spill files of `name` in `dir` (basenames start
// "<pid>.<name>.").
std::vector<std::string> SpillFilesOf(const std::string& dir,
                                      const std::string& name) {
  const std::string prefix =
      dir + "/" + std::to_string(::getpid()) + "." + name + ".";
  std::vector<std::string> files;
  for (const std::string& path : FilesIn(dir)) {
    if (path.rfind(prefix, 0) == 0) files.push_back(path);
  }
  return files;
}

// Two file-backed graphs under a budget that fits one, and a catalog over
// a fresh spill dir: loading the second spills the first.
struct TwoGraphRig {
  std::string dir;
  UncertainGraph g1, g2;
  std::string p1, p2;
  std::unique_ptr<store::MemoryGovernor> governor;
  std::unique_ptr<GraphCatalog> catalog;
};

std::unique_ptr<TwoGraphRig> MakeTwoGraphRig(const std::string& tag) {
  auto rig = std::make_unique<TwoGraphRig>();
  rig->dir = TestTempDir("spill_" + tag);
  rig->g1 = testing::RandomSmallGraph(60, 0.2, 511);
  rig->g2 = testing::RandomSmallGraph(60, 0.2, 522);
  rig->p1 = WriteTempGraph(rig->g1, tag + "_a.snap");
  rig->p2 = WriteTempGraph(rig->g2, tag + "_b.snap");
  store::MemoryGovernorOptions governor_options;
  governor_options.budget_bytes =
      std::max(EstimateGraphBytes(rig->g1), EstimateGraphBytes(rig->g2)) +
      512;
  rig->governor = std::make_unique<store::MemoryGovernor>(governor_options);
  GraphCatalogOptions options;
  options.spill_dir = rig->dir;
  options.governor = rig->governor.get();
  rig->catalog = std::make_unique<GraphCatalog>(options);
  EXPECT_TRUE(rig->catalog->Load("g1", rig->p1).ok());
  EXPECT_TRUE(rig->catalog->Load("g2", rig->p2).ok());
  EXPECT_EQ(rig->catalog->spilled_count(), 1u);
  return rig;
}

// Pages `name` in (spilling the other graph) and returns the entry.
std::shared_ptr<CatalogEntry> PageIn(GraphCatalog& catalog,
                                     const std::string& name) {
  Result<std::shared_ptr<CatalogEntry>> entry = catalog.GetOrLoad(name);
  EXPECT_TRUE(entry.ok()) << entry.status().ToString();
  return entry.ok() ? *entry : nullptr;
}

TEST(StoreSpillTest, ColdSnapshotSpillsAndPagesBackBitIdentical) {
  const UncertainGraph g1 = testing::RandomSmallGraph(60, 0.2, 11);
  const UncertainGraph g2 = testing::RandomSmallGraph(60, 0.2, 22);
  const std::string p1 = WriteTempGraph(g1, "spill_a.snap");
  const std::string p2 = WriteTempGraph(g2, "spill_b.snap");
  const std::size_t b1 = EstimateGraphBytes(g1);
  const std::size_t b2 = EstimateGraphBytes(g2);

  // Budget fits either graph alone but never both: the second load must
  // push the first (colder) one out to disk.
  store::MemoryGovernorOptions governor_options;
  governor_options.budget_bytes = std::max(b1, b2) + 512;
  store::MemoryGovernor governor(governor_options);
  GraphCatalogOptions options;
  options.spill_dir = TestTempDir("spill");
  options.governor = &governor;
  GraphCatalog catalog(options);

  ASSERT_TRUE(catalog.Load("g1", p1).ok());
  const auto before = catalog.Get("g1");
  ASSERT_NE(before, nullptr);
  const uint64_t uid_before = before->uid;

  ASSERT_TRUE(catalog.Load("g2", p2).ok());
  EXPECT_LE(governor.total_charged(), governor_options.budget_bytes);
  EXPECT_EQ(catalog.spilled_count(), 1u);
  EXPECT_GT(catalog.spilled_bytes(), 0u);
  EXPECT_EQ(catalog.Get("g1"), nullptr);  // not resident...
  EXPECT_TRUE(catalog.Contains("g1"));    // ...but not gone either
  EXPECT_EQ(catalog.stats().spills, 1u);

  // Page back on demand; identity (uid) and content must survive.
  Result<std::shared_ptr<CatalogEntry>> paged = catalog.GetOrLoad("g1");
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  ASSERT_NE(*paged, nullptr);
  EXPECT_EQ((*paged)->uid, uid_before);
  EXPECT_EQ(catalog.stats().page_ins, 1u);
  const std::string round_trip = TestTempPath("round_trip.snap");
  ASSERT_TRUE(
      WriteGraphFile((*paged)->graph, round_trip, GraphFileFormat::kBinary)
          .ok());
  EXPECT_EQ(FileBytes(round_trip), FileBytes(p1));  // bit-identical
}

TEST(StoreSpillTest, ContextsShedBeforeSnapshots) {
  const UncertainGraph g1 = testing::RandomSmallGraph(50, 0.2, 33);
  const UncertainGraph g2 = testing::RandomSmallGraph(50, 0.2, 44);
  const std::size_t total =
      EstimateGraphBytes(g1) + EstimateGraphBytes(g2);

  store::MemoryGovernorOptions governor_options;
  governor_options.budget_bytes = total + 256;
  store::MemoryGovernor governor(governor_options);
  GraphCatalogOptions options;
  options.spill_dir = TestTempDir("spill");
  options.governor = &governor;
  GraphCatalog catalog(options);
  ASSERT_TRUE(
      catalog.Load("g1", WriteTempGraph(g1, "spill_ctx_a.snap")).ok());
  ASSERT_TRUE(
      catalog.Load("g2", WriteTempGraph(g2, "spill_ctx_b.snap")).ok());

  // Charge 1000 context bytes against g1, overflowing the budget by ~744:
  // the shed loop must reclaim them from the context class and leave both
  // snapshots resident.
  const auto entry = catalog.Get("g1");
  ASSERT_NE(entry, nullptr);
  entry->charged_context_bytes.store(1000);
  governor.Charge(store::ChargeClass::kContext, 1000);

  EXPECT_LE(governor.total_charged(), governor_options.budget_bytes);
  EXPECT_EQ(governor.charged(store::ChargeClass::kContext), 0u);
  EXPECT_EQ(entry->charged_context_bytes.load(), 0u);
  EXPECT_EQ(catalog.spilled_count(), 0u);
  EXPECT_EQ(catalog.stats().spills, 0u);
  EXPECT_NE(catalog.Get("g1"), nullptr);
  EXPECT_NE(catalog.Get("g2"), nullptr);
  EXPECT_GE(governor.sheds(store::ChargeClass::kContext), 1u);
}

TEST(StoreSpillTest, PinnedSnapshotsAreNeverSpilled) {
  const UncertainGraph g1 = testing::RandomSmallGraph(60, 0.2, 55);
  const UncertainGraph g2 = testing::RandomSmallGraph(60, 0.2, 66);
  const std::size_t b1 = EstimateGraphBytes(g1);
  const std::size_t b2 = EstimateGraphBytes(g2);

  store::MemoryGovernorOptions governor_options;
  governor_options.budget_bytes = b1 + b2 + 512;  // both fit, barely
  store::MemoryGovernor governor(governor_options);
  GraphCatalogOptions options;
  options.spill_dir = TestTempDir("spill");
  options.governor = &governor;
  GraphCatalog catalog(options);

  ASSERT_TRUE(
      catalog.Load("g1", WriteTempGraph(g1, "spill_pin_a.snap")).ok());
  ASSERT_TRUE(
      catalog.Load("g2", WriteTempGraph(g2, "spill_pin_b.snap")).ok());
  ScopedEntryPin pin1(catalog.Get("g1"));
  ScopedEntryPin pin2(catalog.Get("g2"));
  ASSERT_TRUE(pin1);
  ASSERT_TRUE(pin2);

  // Synthetic pressure with every snapshot pinned: the budget is a target,
  // not a fence — the shed loop must give up cleanly, spilling nothing.
  governor.Charge(store::ChargeClass::kSnapshot, 1024);
  EXPECT_EQ(catalog.spilled_count(), 0u);
  EXPECT_EQ(catalog.stats().spills, 0u);
  EXPECT_NE(catalog.Get("g1"), nullptr);
  EXPECT_NE(catalog.Get("g2"), nullptr);
  EXPECT_GT(governor.total_charged(), governor_options.budget_bytes);

  // Releasing one pin gives the shedder a victim: exactly the unpinned
  // snapshot goes; the still-pinned one stays resident.
  pin1.Release();
  governor.MaybeShed();
  EXPECT_LE(governor.total_charged(), governor_options.budget_bytes);
  EXPECT_EQ(catalog.spilled_count(), 1u);
  EXPECT_EQ(catalog.Get("g1"), nullptr);
  EXPECT_TRUE(catalog.Contains("g1"));
  EXPECT_NE(catalog.Get("g2"), nullptr);
  governor.Discharge(store::ChargeClass::kSnapshot, 1024);
}

TEST(StoreSpillTest, DetectIsBitIdenticalAndStaysCachedAcrossSpill) {
  const UncertainGraph g1 = testing::RandomSmallGraph(40, 0.15, 77);
  const UncertainGraph g2 = testing::RandomSmallGraph(40, 0.15, 88);
  const std::string p1 = WriteTempGraph(g1, "spill_eng_a.snap");
  const std::string p2 = WriteTempGraph(g2, "spill_eng_b.snap");

  store::MemoryGovernorOptions governor_options;
  // Room for one graph plus its warm context and cached results, never two
  // graphs — loading the second must spill the first.
  governor_options.budget_bytes =
      std::max(EstimateGraphBytes(g1), EstimateGraphBytes(g2)) +
      EstimateGraphBytes(g1) / 2;
  store::MemoryGovernor governor(governor_options);
  GraphCatalogOptions catalog_options;
  catalog_options.spill_dir = TestTempDir("spill");
  catalog_options.governor = &governor;
  GraphCatalog catalog(catalog_options);
  QueryEngine engine(&catalog);

  ASSERT_TRUE(catalog.Load("g1", p1).ok());
  DetectorOptions options;
  options.k = 3;
  Result<DetectResponse> first = engine.Detect("g1", options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->from_cache);

  ASSERT_TRUE(catalog.Load("g2", p2).ok());
  ASSERT_TRUE(engine.Detect("g2", options).ok());
  governor.MaybeShed();
  EXPECT_EQ(catalog.Get("g1"), nullptr) << "g1 should have been spilled";

  // The uid survives the round trip, so this both pages the snapshot back
  // AND hits the result cache; the answer is the cached (hence bit-equal)
  // original.
  Result<DetectResponse> second = engine.Detect("g1", options);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second->from_cache);
  EXPECT_EQ(first->result.topk, second->result.topk);
  ASSERT_EQ(first->result.scores.size(), second->result.scores.size());
  for (std::size_t i = 0; i < first->result.scores.size(); ++i) {
    EXPECT_EQ(first->result.scores[i], second->result.scores[i]);
  }
  EXPECT_GE(catalog.stats().page_ins, 1u);
}

// Budget ceiling property through the full catalog stack: random touches
// over more graphs than fit keep paging in and spilling out; after every
// operation the governor's books balance under the budget (everything is
// unpinned, so the shed loop can always make room).
TEST(StoreSpillTest, ChargedBytesStayUnderBudgetAcrossRandomTraffic) {
  store::MemoryGovernorOptions governor_options;
  GraphCatalogOptions options;
  options.spill_dir = TestTempDir("spill");

  std::vector<std::string> names;
  std::vector<std::string> paths;
  std::size_t max_bytes = 0;
  for (int i = 0; i < 6; ++i) {
    const UncertainGraph g =
        testing::RandomSmallGraph(40 + 5 * i, 0.2, 100 + i);
    max_bytes = std::max(max_bytes, EstimateGraphBytes(g));
    names.push_back("g" + std::to_string(i));
    paths.push_back(
        WriteTempGraph(g, "spill_rand_" + std::to_string(i) + ".snap"));
  }
  // Roughly two graphs fit at a time.
  governor_options.budget_bytes = 2 * max_bytes + 1024;
  store::MemoryGovernor governor(governor_options);
  options.governor = &governor;
  GraphCatalog catalog(options);
  for (std::size_t i = 0; i < names.size(); ++i) {
    ASSERT_TRUE(catalog.Load(names[i], paths[i]).ok());
    ASSERT_LE(governor.total_charged(), governor_options.budget_bytes);
  }

  Rng rng(7);
  for (int step = 0; step < 300; ++step) {
    const std::string& name = names[rng.NextBounded(names.size())];
    Result<std::shared_ptr<CatalogEntry>> entry = catalog.GetOrLoad(name);
    ASSERT_TRUE(entry.ok()) << entry.status().ToString();
    ASSERT_NE(*entry, nullptr) << name << " vanished at step " << step;
    ASSERT_LE(governor.total_charged(), governor_options.budget_bytes)
        << "step " << step;
  }
  // Every name is still reachable (resident or spilled) — shedding parks
  // graphs, it never loses them.
  for (const std::string& name : names) EXPECT_TRUE(catalog.Contains(name));
}

// The store latency histograms observe each completed spill and page-in
// exactly once, so a scrape can attribute both halves of the cycle.
TEST(StoreSpillTest, SpillAndPageInHistogramsCountEveryCycle) {
  std::vector<std::string> names;
  std::vector<std::string> paths;
  std::size_t max_bytes = 0;
  for (int i = 0; i < 3; ++i) {
    const UncertainGraph g = testing::RandomSmallGraph(50, 0.2, 300 + i);
    max_bytes = std::max(max_bytes, EstimateGraphBytes(g));
    names.push_back("h" + std::to_string(i));
    paths.push_back(
        WriteTempGraph(g, "spill_hist_" + std::to_string(i) + ".snap"));
  }
  // One graph fits at a time: every touch of a spilled name spills another.
  store::MemoryGovernorOptions governor_options;
  governor_options.budget_bytes = max_bytes + 512;
  store::MemoryGovernor governor(governor_options);
  GraphCatalogOptions options;
  options.spill_dir = TestTempDir("spill");
  options.governor = &governor;
  GraphCatalog catalog(options);
  obs::MetricRegistry& registry = *catalog.registry();

  for (std::size_t i = 0; i < names.size(); ++i) {
    ASSERT_TRUE(catalog.Load(names[i], paths[i]).ok());
  }
  for (int step = 0; step < 9; ++step) {
    Result<std::shared_ptr<CatalogEntry>> entry =
        catalog.GetOrLoad(names[step % names.size()]);
    ASSERT_TRUE(entry.ok()) << entry.status().ToString();
    ASSERT_NE(*entry, nullptr);
  }

  const CatalogStats stats = catalog.stats();
  ASSERT_GT(stats.spills, 0u);
  ASSERT_GT(stats.page_ins, 0u);
  const auto* spill = registry.GetHistogram("vulnds_store_spill_micros", "",
                                            obs::LatencyBucketsMicros());
  const auto* page_in = registry.GetHistogram("vulnds_store_page_in_micros",
                                              "", obs::LatencyBucketsMicros());
  EXPECT_EQ(spill->Count(), stats.spills);
  EXPECT_EQ(page_in->Count(), stats.page_ins);
  EXPECT_NE(registry.RenderPrometheus().find(
                "vulnds_store_spill_micros_count " +
                std::to_string(stats.spills) + "\n"),
            std::string::npos);
}

// The catalog's registry outlives the engines built over it: a page-in
// after the last engine is gone still lands in vulnds_store_page_in_micros,
// next to the requests that engine counted.
TEST(StoreSpillTest, PageInAfterTheEngineIsDestroyedIsStillObserved) {
  std::unique_ptr<TwoGraphRig> rig = MakeTwoGraphRig("after_engine");
  GraphCatalog& catalog = *rig->catalog;
  {
    QueryEngine engine(&catalog);
    DetectorOptions options;
    options.k = 3;
    ASSERT_TRUE(engine.Detect("g2", options).ok());
  }
  ASSERT_NE(PageIn(catalog, "g1"), nullptr);  // g1 was spilled by the rig

  obs::MetricRegistry& registry = *catalog.registry();
  const auto* page_in = registry.GetHistogram("vulnds_store_page_in_micros",
                                              "", obs::LatencyBucketsMicros());
  EXPECT_EQ(catalog.stats().page_ins, 1u);
  EXPECT_EQ(page_in->Count(), 1u);
  EXPECT_EQ(registry
                .GetCounter("vulnds_engine_requests_total", "",
                            {{"verb", "detect"}})
                ->Value(),
            1u);
}

// Races spill/page-back against concurrent readers; run under TSan this
// checks the catalog/governor locking discipline.
TEST(StoreSpillTest, ConcurrentGetOrLoadUnderPressureIsSafe) {
  const UncertainGraph g1 = testing::RandomSmallGraph(50, 0.2, 201);
  const UncertainGraph g2 = testing::RandomSmallGraph(50, 0.2, 202);
  const UncertainGraph g3 = testing::RandomSmallGraph(50, 0.2, 203);
  store::MemoryGovernorOptions governor_options;
  governor_options.budget_bytes = EstimateGraphBytes(g1) +
                                  EstimateGraphBytes(g2) / 2;  // ~1.5 graphs
  store::MemoryGovernor governor(governor_options);
  GraphCatalogOptions options;
  options.spill_dir = TestTempDir("spill");
  options.governor = &governor;
  GraphCatalog catalog(options);
  ASSERT_TRUE(catalog.Load("c1", WriteTempGraph(g1, "spill_mt_a.snap")).ok());
  ASSERT_TRUE(catalog.Load("c2", WriteTempGraph(g2, "spill_mt_b.snap")).ok());
  ASSERT_TRUE(catalog.Load("c3", WriteTempGraph(g3, "spill_mt_c.snap")).ok());

  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      const std::string mine = "c" + std::to_string(1 + t % 3);
      for (int i = 0; i < 50; ++i) {
        Result<std::shared_ptr<CatalogEntry>> entry = catalog.GetOrLoad(mine);
        ASSERT_TRUE(entry.ok());
        ASSERT_NE(*entry, nullptr);
        ScopedEntryPin pin(*entry);
        // Touch the graph while pinned; a spill must never yank it.
        ASSERT_GT((*entry)->graph.num_edges(), 0u);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_TRUE(catalog.Contains("c1"));
  EXPECT_TRUE(catalog.Contains("c2"));
  EXPECT_TRUE(catalog.Contains("c3"));
}

// A snapshot that pages back in under its uid keeps its spill file as a
// clean page: re-spilling it detaches the entry without writing, so each
// (name, uid) is written once however often it cycles, the file is never
// replaced, and every answer stays bit-identical.
TEST(StoreSpillTest, CleanPagesAreWrittenOncePerNameAndUid) {
  auto rig = MakeTwoGraphRig("clean_once");
  GraphCatalog& catalog = *rig->catalog;
  DetectorOptions options;
  options.k = 3;
  options.method = Method::kBsrbk;
  const Result<DetectionResult> want1 = DetectTopK(rig->g1, options);
  const Result<DetectionResult> want2 = DetectTopK(rig->g2, options);
  ASSERT_TRUE(want1.ok() && want2.ok());

  const std::vector<std::string> g1_files = SpillFilesOf(rig->dir, "g1");
  ASSERT_EQ(g1_files.size(), 1u);
  struct stat first{};
  ASSERT_EQ(::stat(g1_files[0].c_str(), &first), 0);
  const CatalogStats before = catalog.stats();
  EXPECT_EQ(before.spill_writes, 1u);

  constexpr std::size_t kCycles = 8;
  for (std::size_t i = 0; i < kCycles; ++i) {
    const bool one = i % 2 == 0;
    const auto entry = PageIn(catalog, one ? "g1" : "g2");
    ASSERT_NE(entry, nullptr);
    const Result<DetectionResult> got = DetectTopK(entry->graph, options);
    ASSERT_TRUE(got.ok());
    const DetectionResult& want = one ? *want1 : *want2;
    EXPECT_EQ(got->topk, want.topk) << "cycle " << i;
    EXPECT_EQ(got->scores, want.scores) << "cycle " << i;
    // Both names now hold exactly one file on disk, never rewritten.
    EXPECT_EQ(SpillFilesOf(rig->dir, "g1").size(), 1u);
    EXPECT_LE(SpillFilesOf(rig->dir, "g2").size(), 1u);
    struct stat now{};
    ASSERT_EQ(::stat(g1_files[0].c_str(), &now), 0);
    EXPECT_EQ(now.st_ino, first.st_ino) << "cycle " << i;
  }
  const CatalogStats after = catalog.stats();
  EXPECT_EQ(after.spills - before.spills, kCycles);
  EXPECT_EQ(after.page_ins - before.page_ins, kCycles);
  EXPECT_EQ(after.spill_writes, 2u);  // (g1, uid) and (g2, uid), once each
  // Only the spilled name (g1, after an even number of cycles) counts as
  // spilled; the resident one's clean page is not.
  EXPECT_EQ(catalog.spilled_count(), 1u);
  EXPECT_EQ(catalog.spilled_bytes(), EstimateGraphBytes(rig->g1));
  EXPECT_EQ(catalog.Names().size(), 2u);
}

// The kept page of a resident name is deleted whenever the name stops
// being that snapshot: Evict, a reload from disk, a Put, or a commit's Put.
TEST(StoreSpillTest, KeptPageIsDeletedWhenTheNameChanges) {
  const std::vector<std::string> actions = {"evict", "reload", "put",
                                            "commit"};
  for (const std::string& action : actions) {
    SCOPED_TRACE(action);
    auto rig = MakeTwoGraphRig("kept_drop_" + action);
    GraphCatalog& catalog = *rig->catalog;
    ASSERT_NE(PageIn(catalog, "g1"), nullptr);  // g1 resident, page kept
    const std::vector<std::string> kept = SpillFilesOf(rig->dir, "g1");
    ASSERT_EQ(kept.size(), 1u);

    if (action == "evict") {
      EXPECT_TRUE(catalog.Evict("g1"));
    } else if (action == "reload") {
      ASSERT_TRUE(catalog.Load("g1", rig->p1).ok());
    } else if (action == "put") {
      ASSERT_TRUE(catalog.Put("g1", rig->g1).ok());
    } else {
      ASSERT_TRUE(catalog.Put("g1", rig->g1, "commit:g1@v1").ok());
    }
    EXPECT_TRUE(SpillFilesOf(rig->dir, "g1").empty());
  }
}

// Kept pages are live files: they carry our pid from the page-in on,
// across clean re-spills, so another catalog's startup GC leaves them
// alone; a catalog that never spilled leaves them in place when it goes;
// and the owning catalog's destructor removes them, leaving the directory
// empty.
TEST(StoreSpillTest, KeptPagesSurviveForeignGcAndDieWithTheCatalog) {
  auto rig = MakeTwoGraphRig("kept_gc");
  ASSERT_NE(PageIn(*rig->catalog, "g1"), nullptr);  // g1 kept, g2 spilled
  const std::vector<std::string> g1_files = SpillFilesOf(rig->dir, "g1");
  const std::vector<std::string> g2_files = SpillFilesOf(rig->dir, "g2");
  ASSERT_EQ(g1_files.size(), 1u);
  ASSERT_EQ(g2_files.size(), 1u);
  const auto expect_gc_keeps_both = [&] {
    {
      GraphCatalogOptions options;
      options.spill_dir = rig->dir;
      GraphCatalog other(options);
      EXPECT_EQ(other.spill_orphans_reclaimed(), 0u);
    }
    EXPECT_EQ(SpillFilesOf(rig->dir, "g1"), g1_files);
    EXPECT_EQ(SpillFilesOf(rig->dir, "g2"), g2_files);
  };
  expect_gc_keeps_both();
  // Clean re-spills and page-ins in both directions keep both files live.
  ASSERT_NE(PageIn(*rig->catalog, "g2"), nullptr);
  expect_gc_keeps_both();
  ASSERT_NE(PageIn(*rig->catalog, "g1"), nullptr);
  expect_gc_keeps_both();
  EXPECT_EQ(rig->catalog->stats().spill_writes, 2u);

  const std::string dir = rig->dir;
  rig->catalog.reset();
  EXPECT_TRUE(FilesIn(dir).empty());
}

// Races page-ins (and the clean re-spills they trigger) against reloads
// and Puts of the same names. Run under TSan this sees every order in
// which the catalog takes its locks on those paths. Every lookup answers,
// and when the traffic stops each name is either resident or spilled,
// never both and never lost.
TEST(StoreSpillTest, GetOrLoadRacesReloadsAndPutsOfTheSameNames) {
  const std::vector<UncertainGraph> graphs = {
      testing::RandomSmallGraph(50, 0.2, 231),
      testing::RandomSmallGraph(50, 0.2, 232),
      testing::RandomSmallGraph(50, 0.2, 233)};
  std::vector<std::string> names, paths;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    names.push_back("r" + std::to_string(i));
    paths.push_back(
        WriteTempGraph(graphs[i], "spill_race_" + std::to_string(i) + ".snap"));
  }
  store::MemoryGovernorOptions governor_options;
  governor_options.budget_bytes = EstimateGraphBytes(graphs[0]) +
                                  EstimateGraphBytes(graphs[1]) / 2;
  store::MemoryGovernor governor(governor_options);
  GraphCatalogOptions options;
  options.spill_dir = TestTempDir("spill");
  options.governor = &governor;
  GraphCatalog catalog(options);
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    ASSERT_TRUE(catalog.Load(names[i], paths[i]).ok());
  }

  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(900 + t);
      for (int i = 0; i < 60; ++i) {
        const std::size_t pick = rng.NextBounded(graphs.size());
        Result<std::shared_ptr<CatalogEntry>> entry =
            catalog.GetOrLoad(names[pick]);
        ASSERT_TRUE(entry.ok()) << entry.status().ToString();
        // Every name always exists, resident or spilled: a page-in or
        // reload racing the lookup must never make it answer absent.
        ASSERT_NE(*entry, nullptr) << names[pick];
        ScopedEntryPin pin(*entry);
        ASSERT_EQ((*entry)->graph.num_edges(), graphs[pick].num_edges());
      }
    });
  }
  workers.emplace_back([&] {
    Rng rng(990);
    for (int i = 0; i < 30; ++i) {
      const std::size_t pick = rng.NextBounded(graphs.size());
      if (i % 2 == 0) {
        ASSERT_TRUE(catalog.Load(names[pick], paths[pick]).ok());
      } else {
        ASSERT_TRUE(catalog.Put(names[pick], graphs[pick]).ok());
      }
    }
  });
  for (std::thread& w : workers) w.join();

  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    EXPECT_TRUE(catalog.Contains(name));
  }
  EXPECT_EQ(catalog.size() + catalog.spilled_count(), names.size());
  EXPECT_EQ(catalog.Names().size(), names.size());
}

}  // namespace
}  // namespace vulnds::serve
