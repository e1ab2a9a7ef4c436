// Per-test temp file and directory names. ctest runs every gtest case in its
// own process and runs those processes in parallel, so a fixed name under
// ::testing::TempDir() is shared by every case that uses it: one case can
// overwrite or truncate another's file between its write and its read.

#ifndef VULNDS_TESTS_TESTING_TEMP_PATH_H_
#define VULNDS_TESTS_TESTING_TEMP_PATH_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace vulnds::testing {

/// `name` in the test temp dir, prefixed with a hash of the running test's
/// suite and test name and with the pid, so no other test case or
/// concurrent run writes the same file. The prefix has a fixed length, so a
/// Unix socket path stays well under sun_path's 108 bytes and paths that a
/// test writes into its files (journal side-file records) do not grow with
/// the test's name. The file is left in place when the test process exits:
/// for output a person reads after a failure.
inline std::string TestKeptPath(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string test = info == nullptr
                               ? std::string("no_test")
                               : std::string(info->test_suite_name()) + "." +
                                     info->name();
  char stem[16];
  std::snprintf(stem, sizeof(stem), "t%08x",
                static_cast<unsigned>(std::hash<std::string>{}(test)));
  return ::testing::TempDir() + "/" + stem + "." +
         std::to_string(::getpid()) + "." + name;
}

/// TestKeptPath(name), but the file (or directory tree) is removed when the
/// test process exits: with the pid in the name, every run would otherwise
/// leave its own copies behind.
inline std::string TestTempPath(const std::string& name) {
  static struct Created {
    std::mutex mu;
    std::vector<std::string> paths;
    ~Created() {
      std::error_code ignored;
      for (const std::string& path : paths) {
        std::filesystem::remove_all(path, ignored);
      }
    }
  } created;
  std::string path = TestKeptPath(name);
  const std::lock_guard<std::mutex> lock(created.mu);
  created.paths.push_back(path);
  return path;
}

/// A fresh, empty directory named like TestTempPath(name), removed with
/// everything in it when the test process exits.
inline std::string TestTempDir(const std::string& name) {
  const std::string path = TestTempPath(name);
  std::error_code ignored;
  std::filesystem::remove_all(path, ignored);
  std::filesystem::create_directories(path, ignored);
  return path;
}

}  // namespace vulnds::testing

#endif  // VULNDS_TESTS_TESTING_TEMP_PATH_H_
