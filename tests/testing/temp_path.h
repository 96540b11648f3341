// Per-test scratch file paths.
//
// ctest runs every case in its own process, several at once under -j.
// A fixed file name under ::testing::TempDir() lets one case truncate
// or rewrite a file that another case still has mapped, which kills the
// reader with SIGBUS. TestTempPath names the file after the running
// test (or test suite, from SetUpTestSuite) and the process id, so no
// two concurrent cases share a path. When the test process exits, every
// file whose name starts with a path handed out is removed (writers such
// as the streaming generator treat the path as a prefix).

#ifndef OCA_TESTS_TESTING_TEMP_PATH_H_
#define OCA_TESTS_TESTING_TEMP_PATH_H_

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace oca::testing {

namespace temp_path_internal {

struct Registry {
  ~Registry() {
    namespace fs = std::filesystem;
    std::error_code ec;
    for (const fs::directory_entry& entry :
         fs::directory_iterator(::testing::TempDir(), ec)) {
      const std::string name = entry.path().filename().string();
      for (const std::string& prefix : prefixes) {
        if (name.rfind(prefix, 0) == 0) {
          fs::remove(entry.path(), ec);
          break;
        }
      }
    }
  }
  std::vector<std::string> prefixes;  // file names, without the directory
};

inline Registry& Paths() {
  static Registry registry;
  return registry;
}

}  // namespace temp_path_internal

/// A path under ::testing::TempDir() unique to this test and process,
/// ending in `leaf`.
inline std::string TestTempPath(const std::string& leaf) {
  const ::testing::UnitTest* unit = ::testing::UnitTest::GetInstance();
  std::string owner = "global";
  if (const ::testing::TestInfo* info = unit->current_test_info()) {
    owner = std::string(info->test_suite_name()) + "." + info->name();
  } else if (const ::testing::TestSuite* suite = unit->current_test_suite()) {
    owner = suite->name();
  }
  // Parameterized names carry '/' ("Prefix/Suite.Case/3").
  std::replace(owner.begin(), owner.end(), '/', '_');
  std::string name =
      "oca_" + owner + "_" + std::to_string(::getpid()) + "_" + leaf;
  temp_path_internal::Paths().prefixes.push_back(name);
  return ::testing::TempDir() + "/" + name;
}

}  // namespace oca::testing

#endif  // OCA_TESTS_TESTING_TEMP_PATH_H_
