// util::write_file_atomically: the one tmp-and-rename writer behind the
// Prometheus snapshot and the collapsed-stack profile.
#include "util/atomic_file.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace cbma::util {
namespace {

namespace fs = std::filesystem;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(AtomicFile, ReplacesTheWholeFileAndLeavesNoTmp) {
  const auto path = ::testing::TempDir() + "cbma_atomic_file_test.txt";
  fs::remove(path);
  ASSERT_TRUE(write_file_atomically(path, "a longer first version\n", "test"));
  ASSERT_TRUE(write_file_atomically(path, "second\n", "test"));
  EXPECT_EQ(read_file(path), "second\n");
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  fs::remove(path);
}

TEST(AtomicFile, FailedWriteReturnsFalseAndLeavesNoTmp) {
  // A missing directory fails at the open.
  const auto missing_dir = ::testing::TempDir() + "cbma_atomic_missing";
  fs::remove_all(missing_dir);
  const auto missing = missing_dir + "/out.txt";
  EXPECT_FALSE(write_file_atomically(missing, "x", "test"));
  EXPECT_FALSE(fs::exists(missing + ".tmp"));
  EXPECT_FALSE(fs::exists(missing_dir));

  // A directory in the target's place fails at the rename, after the
  // temporary file was written: it must be removed again.
  const auto dir_target = ::testing::TempDir() + "cbma_atomic_dir_target";
  fs::remove_all(dir_target);
  fs::create_directories(dir_target + "/occupied");
  EXPECT_FALSE(write_file_atomically(dir_target, "x", "test"));
  EXPECT_FALSE(fs::exists(dir_target + ".tmp"));
  EXPECT_TRUE(fs::is_directory(dir_target));
  fs::remove_all(dir_target);
}

}  // namespace
}  // namespace cbma::util
