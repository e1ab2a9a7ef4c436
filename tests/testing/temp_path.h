// Per-test temp file names. ctest runs every gtest case in its own process
// and runs those processes in parallel, so a fixed name under
// ::testing::TempDir() is shared by every case that uses it: one case can
// overwrite or truncate another's file between its write and its read.

#ifndef VULNDS_TESTS_TESTING_TEMP_PATH_H_
#define VULNDS_TESTS_TESTING_TEMP_PATH_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace vulnds::testing {

/// `name` in the test temp dir, prefixed with the running test's suite, test
/// name and pid, so no other test case or concurrent run writes the same
/// file. The file is removed when the test process exits: with the pid in
/// the name, every run would otherwise leave its own copies behind.
inline std::string TestTempPath(const std::string& name) {
  static struct Created {
    std::mutex mu;
    std::vector<std::string> paths;
    ~Created() {
      for (const std::string& path : paths) std::remove(path.c_str());
    }
  } created;
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string stem = info == nullptr ? std::string("no_test")
                                     : std::string(info->test_suite_name()) +
                                           "." + info->name();
  // Parameterized and typed test names carry '/'.
  for (char& c : stem) {
    if (c == '/') c = '_';
  }
  std::string path = ::testing::TempDir() + "/" + stem + "." +
                     std::to_string(::getpid()) + "." + name;
  const std::lock_guard<std::mutex> lock(created.mu);
  created.paths.push_back(path);
  return path;
}

}  // namespace vulnds::testing

#endif  // VULNDS_TESTS_TESTING_TEMP_PATH_H_
