#include "common/file_util.h"

#include <filesystem>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "test_util.h"

namespace tardis {
namespace {

namespace fs = std::filesystem;

// Each case gets its own directory: ctest runs the cases as separate
// processes, possibly in parallel.
class FileUtilTest : public ::testing::Test {
 protected:
  ScopedTempDir tmp_;
  const fs::path dir_{tmp_.path()};
};

TEST_F(FileUtilTest, RoundTrip) {
  const std::string path = (dir_ / "a.bin").string();
  const std::string payload("\x00\x01\xff payload", 12);
  ASSERT_OK(WriteFileAtomic(path, payload));
  ASSERT_OK_AND_ASSIGN(std::string back, ReadFileToString(path));
  EXPECT_EQ(back, payload);
}

TEST_F(FileUtilTest, OverwriteReplacesContentAndLeavesNoTemp) {
  const std::string path = (dir_ / "meta.bin").string();
  ASSERT_OK(WriteFileAtomic(path, "old"));
  ASSERT_OK(WriteFileAtomic(path, "new-and-longer"));
  ASSERT_OK_AND_ASSIGN(std::string back, ReadFileToString(path));
  EXPECT_EQ(back, "new-and-longer");
  // The write discipline's whole point: nothing but the final file remains.
  size_t n = 0;
  for (const auto& e : fs::directory_iterator(dir_)) {
    ++n;
    EXPECT_EQ(e.path().filename(), "meta.bin");
  }
  EXPECT_EQ(n, 1u);
}

TEST_F(FileUtilTest, WriteIntoMissingDirectoryFails) {
  const std::string path = (dir_ / "no" / "such" / "dir" / "x.bin").string();
  const Status s = WriteFileAtomic(path, "bytes");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  // A failed write must not leave a stray temp file at the target path.
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST_F(FileUtilTest, ReadMissingFileFails) {
  const auto r = ReadFileToString((dir_ / "absent.bin").string());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST_F(FileUtilTest, FourDurableStepsPerWrite) {
  // The crash-recovery sweep (tests/cli/crash_recovery_test.sh) enumerates
  // durable steps by index, so the per-write step count is part of the
  // durability contract: pre-fsync, pre-rename, post-rename, post-dirsync.
  FaultInjector& injector = FaultInjector::Global();
  injector.SetCrashPoint(1 << 20);  // counting enabled, far from firing
  injector.ResetDurableSteps();
  ASSERT_OK(WriteFileAtomic((dir_ / "steps.bin").string(), "payload"));
  EXPECT_EQ(injector.durable_steps(), 4u);
  injector.SetCrashPoint(-1);
  injector.ResetDurableSteps();
}

TEST_F(FileUtilTest, EmptyPayload) {
  const std::string path = (dir_ / "empty.bin").string();
  ASSERT_OK(WriteFileAtomic(path, ""));
  ASSERT_OK_AND_ASSIGN(std::string back, ReadFileToString(path));
  EXPECT_TRUE(back.empty());
}

}  // namespace
}  // namespace tardis
