// perfbench: runs one workload of the repository benchmark and prints
// its result as the last stdout line (see README.md in this directory).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    --cli PATH --work-dir DIR [--source DIGEST]
//
// Exit code 0 when every oracle and guard held, 1 otherwise, 2 on usage.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "simd/dispatch.h"
#include "support.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload hot_cached|zipf_mixed|update_requery|"
               "fig6_grid --seed N --seconds S --trace 0|1 --cli PATH --work-dir DIR "
               "[--source DIGEST]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench refuses to time a build without NDEBUG (Debug)\n");
  return 2;
#endif
  perfbench::Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--cli") {
      o.cli = value;
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else if (flag == "--source") {
      o.source_digest = value;
    } else {
      return Usage();
    }
  }
  if (o.workload.empty() || o.cli.empty() || o.work_dir.empty() || o.seconds <= 0) {
    return Usage();
  }
  if (!perfbench::MakeDirs(o.work_dir)) {
    std::fprintf(stderr, "cannot create %s\n", o.work_dir.c_str());
    return 2;
  }
  perfbench::PrintProvenance(
      o, vulnds::simd::SimdTierName(vulnds::simd::DefaultTier()));
  perfbench::Outcome outcome;
  if (o.workload == "hot_cached") {
    outcome = perfbench::RunHotCached(o);
  } else if (o.workload == "zipf_mixed") {
    outcome = perfbench::RunZipfMixed(o);
  } else if (o.workload == "update_requery") {
    outcome = perfbench::RunUpdateRequery(o);
  } else if (o.workload == "fig6_grid") {
    outcome = perfbench::RunFig6Grid(o);
  } else {
    return Usage();
  }
  if (outcome.attempted() == 0) outcome.Fail("no op was attempted");
  std::printf("%s\n", outcome.ResultJson().c_str());
  return outcome.correct() ? 0 : 1;
}
