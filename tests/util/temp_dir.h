// Per-test scratch directories for tests that write files.
//
// ctest runs every gtest case as its own process, and `ctest -j` runs them
// side by side, so a fixed file name under ::testing::TempDir() is shared by
// every concurrent test that uses it. test_temp_path() instead places files
// in a directory private to the running test — named after the process id
// and the full test name — which is removed with its contents when the test
// ends, pass or fail.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace quickdrop::test_util {

/// <TempDir>/qd_<pid>_<Suite>.<Test>, with characters outside
/// [A-Za-z0-9._-] (e.g. the '/' of parameterized names) replaced by '_'.
inline std::filesystem::path test_temp_dir_for(const ::testing::TestInfo& info) {
  std::string name = std::string(info.test_suite_name()) + "." + info.name();
  for (char& c : name) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
                      c == '.' || c == '_' || c == '-';
    if (!keep) c = '_';
  }
  return std::filesystem::path(::testing::TempDir()) /
         ("qd_" + std::to_string(::getpid()) + "_" + name);
}

/// Removes the directory of each test as the test ends.
class TempDirRemover : public ::testing::EmptyTestEventListener {
  void OnTestEnd(const ::testing::TestInfo& info) override {
    std::error_code ec;
    std::filesystem::remove_all(test_temp_dir_for(info), ec);
  }
};

/// Path of file `name` inside the running test's private directory, which is
/// created on first use and removed when the test ends.
inline std::string test_temp_path(const std::string& name) {
  static const bool registered = [] {
    ::testing::UnitTest::GetInstance()->listeners().Append(new TempDirRemover);
    return true;
  }();
  (void)registered;
  const auto dir = test_temp_dir_for(*::testing::UnitTest::GetInstance()->current_test_info());
  std::filesystem::create_directories(dir);
  return (dir / name).string();
}

}  // namespace quickdrop::test_util
