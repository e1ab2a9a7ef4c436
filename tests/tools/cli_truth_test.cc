// The batch CLI run as a process: `truth` must reject a k outside [1, n]
// with detect's message instead of printing an empty or truncated table,
// and `detect` / `serve` must reject out-of-range or removed arguments
// before doing any work.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <string>

#include "graph/graph_io.h"
#include "testing/temp_path.h"
#include "testing/test_graphs.h"

#ifndef VULNDS_CLI_PATH
#error "VULNDS_CLI_PATH must name the vulnds_cli binary"
#endif

namespace vulnds {
namespace {

struct CliRun {
  int exit_code = -1;
  std::string output;  // stdout and stderr, interleaved
};

CliRun RunCli(const std::string& args) {
  CliRun run;
  const std::string command =
      std::string(VULNDS_CLI_PATH) + " " + args + " 2>&1 </dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    run.output.append(buf, got);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  return run;
}

TEST(CliTruthTest, RejectsKOutsideOneToN) {
  const std::string path = testing::TestTempPath("graph.snap");
  ASSERT_TRUE(WriteGraphFile(testing::RandomSmallGraph(20, 0.2, 9), path,
                             GraphFileFormat::kBinary)
                  .ok());

  const CliRun zero = RunCli("truth " + path + " 0 100");
  EXPECT_EQ(zero.exit_code, 1) << zero.output;
  EXPECT_NE(zero.output.find("k must be in [1, n], got 0"), std::string::npos)
      << zero.output;

  const CliRun over = RunCli("truth " + path + " 21 100");
  EXPECT_EQ(over.exit_code, 1) << over.output;
  EXPECT_NE(over.output.find("k must be in [1, n], got 21"), std::string::npos)
      << over.output;

  // Detect's batch path reports the same message for the same k.
  const CliRun detect = RunCli("detect " + path + " 21");
  EXPECT_EQ(detect.exit_code, 1) << detect.output;
  EXPECT_NE(detect.output.find("k must be in [1, n], got 21"),
            std::string::npos)
      << detect.output;

  const CliRun full = RunCli("truth " + path + " 20 100");
  EXPECT_EQ(full.exit_code, 0) << full.output;
  EXPECT_NE(full.output.find("(100 sampled worlds)"), std::string::npos)
      << full.output;
}

TEST(CliDetectTest, RejectsOutOfRangeAndRemovedArguments) {
  const std::string path = testing::TestTempPath("graph.snap");
  ASSERT_TRUE(WriteGraphFile(testing::RandomSmallGraph(131, 0.05, 3), path,
                             GraphFileFormat::kBinary)
                  .ok());
  // Equation 3 sizes past 2^32 - 1 worlds fail validation before sampling.
  for (const char* flags : {"BSRBK eps=1e-9", "BSRBK eps=0.00001",
                            "SN eps=0.000000001"}) {
    const CliRun run = RunCli("detect " + path + " 3 " + flags);
    EXPECT_EQ(run.exit_code, 1) << flags << ": " << run.output;
    EXPECT_NE(run.output.find("detect failed: Invalid argument: eps and delta "
                              "need more than 4294967295 samples"),
              std::string::npos)
        << flags << ": " << run.output;
  }
  // wave= is not a detect flag and catalog_bytes= not a serve argument.
  const CliRun wave = RunCli("detect " + path + " 3 BSRBK wave=fixed");
  EXPECT_EQ(wave.exit_code, 2) << wave.output;
  EXPECT_NE(wave.output.find("unknown detect flag 'wave'"), std::string::npos)
      << wave.output;
  const CliRun budget = RunCli("serve catalog_bytes=1");
  EXPECT_EQ(budget.exit_code, 2) << budget.output;
  EXPECT_NE(budget.output.find("usage:"), std::string::npos) << budget.output;
}

TEST(CliDetectTest, ThreadsArgumentSizesThePoolWithinItsCap) {
  const std::string path = testing::TestTempPath("graph.snap");
  ASSERT_TRUE(WriteGraphFile(testing::RandomSmallGraph(30, 0.15, 5), path,
                             GraphFileFormat::kBinary)
                  .ok());
  // threads= is the one-shot command's own argument: any width up to the
  // cap runs, and every width prints the same ranking.
  const CliRun serial = RunCli("detect " + path + " 3 BSRBK threads=1");
  EXPECT_EQ(serial.exit_code, 0) << serial.output;
  const CliRun four = RunCli("detect " + path + " 3 BSRBK threads=4 seed=42");
  EXPECT_EQ(four.exit_code, 0) << four.output;
  const auto table = [](const std::string& output) {
    return output.substr(0, output.find("method="));
  };
  EXPECT_EQ(table(four.output), table(serial.output));
  EXPECT_NE(four.output.find("rank"), std::string::npos) << four.output;
  // Past kMaxDetectThreads the command refuses before doing any work.
  const CliRun over = RunCli("detect " + path + " 3 BSRBK threads=65");
  EXPECT_EQ(over.exit_code, 2) << over.output;
  EXPECT_NE(over.output.find("threads must be <= 64"), std::string::npos)
      << over.output;
  const CliRun bad = RunCli("detect " + path + " 3 threads=four");
  EXPECT_EQ(bad.exit_code, 2) << bad.output;
}

}  // namespace
}  // namespace vulnds
