// Atomic artifact writes: the destination either keeps its old content
// or holds the complete new content — never a truncated hybrid — and no
// stray .tmp survives a successful write. Under Durability::kFsync the
// swap also survives power loss: the tmp is fsynced before the rename
// and the parent directory after it, and a failed fsync aborts the swap
// with the old content intact.
#include "util/atomic_file.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "util/faulty_io.h"
#include "temp_path.h"

namespace sbst::util {
namespace {

using testfs::temp_path;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool exists(const std::string& path) {
  return static_cast<bool>(std::ifstream(path));
}

TEST(AtomicFile, WritesNewFile) {
  const std::string path = temp_path("atomic_new.bin");
  const std::string content("binary\0payload\xff", 15);
  write_file_atomic(path, content);
  EXPECT_EQ(slurp(path), content);
  EXPECT_FALSE(exists(path + ".tmp")) << "tmp file must not survive";
}

TEST(AtomicFile, ReplacesExistingContentCompletely) {
  const std::string path = temp_path("atomic_replace.txt");
  write_file_atomic(path, std::string(4096, 'A'));
  write_file_atomic(path, "short");
  EXPECT_EQ(slurp(path), "short") << "no stale tail from the longer file";
  EXPECT_FALSE(exists(path + ".tmp"));
}

TEST(AtomicFile, EmptyContentProducesEmptyFile) {
  const std::string path = temp_path("atomic_empty.txt");
  write_file_atomic(path, "");
  EXPECT_TRUE(exists(path));
  EXPECT_EQ(slurp(path), "");
}

TEST(AtomicFile, FailureLeavesDestinationUntouched) {
  const std::string dir = temp_path("no_such_dir_atomic/");
  EXPECT_THROW(write_file_atomic(dir + "x.txt", "data"), std::runtime_error);

  // A write that cannot even open its tmp must not clobber the target.
  const std::string path = temp_path("atomic_keep.txt");
  write_file_atomic(path, "original");
  EXPECT_THROW(write_file_atomic(dir + "y.txt", "data"), std::runtime_error);
  EXPECT_EQ(slurp(path), "original");
}

TEST(AtomicFile, EveryDurabilityLevelWritesTheContent) {
  for (Durability d :
       {Durability::kNone, Durability::kFlush, Durability::kFsync}) {
    const std::string path =
        temp_path((std::string("atomic_dur_") + durability_name(d)).c_str());
    write_file_atomic(path, "payload", d);
    EXPECT_EQ(slurp(path), "payload") << durability_name(d);
    EXPECT_FALSE(exists(path + ".tmp")) << durability_name(d);
  }
}

TEST(AtomicFile, DurabilityNamesRoundTripAndUnknownThrows) {
  for (Durability d :
       {Durability::kNone, Durability::kFlush, Durability::kFsync}) {
    EXPECT_EQ(parse_durability(durability_name(d)), d);
  }
  EXPECT_THROW(parse_durability("paranoid"), std::runtime_error);
  EXPECT_THROW(parse_durability(""), std::runtime_error);
}

TEST(AtomicFile, FsyncParentDirHandlesPlainAndRelativePaths) {
  // Smoke only — the syscall effect is not observable from userspace —
  // but it must not throw for the path shapes callers actually pass.
  const std::string path = temp_path("atomic_dirsync.txt");
  write_file_atomic(path, "x", Durability::kFsync);
  fsync_parent_dir(path);
  fsync_parent_dir("bare_filename_no_slash");
}

TEST(AtomicFile, FailedDurabilityAckAbortsTheSwap) {
  // A dying disk that accepts bytes but fails the durability ack must
  // not let the swap happen: promoting unacknowledged content over the
  // good old file is exactly the torn state kFsync exists to prevent.
  const std::string path = temp_path("atomic_fsyncfail.txt");
  write_file_atomic(path, "original", Durability::kFsync);
  arm_io_faults({IoFailure::kFsyncFail, 0});
  EXPECT_THROW(write_file_atomic(path, "replacement", Durability::kFsync),
               std::runtime_error);
  disarm_io_faults();
  EXPECT_EQ(slurp(path), "original");
  EXPECT_FALSE(exists(path + ".tmp")) << "aborted swap must clean its tmp";
}

}  // namespace
}  // namespace sbst::util
