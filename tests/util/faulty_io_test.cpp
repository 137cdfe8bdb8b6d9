// Contract of the I/O fault-injection harness itself: each failure kind
// triggers at the armed byte offset, stays tripped afterwards, and the
// byte accounting matches what actually reached the file.
#include "util/faulty_io.h"
#include "temp_path.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

namespace sbst::util {
namespace {

using testfs::temp_path;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class FaultyIoTest : public ::testing::Test {
 protected:
  void TearDown() override { disarm_io_faults(); }
};

TEST_F(FaultyIoTest, DisarmedIsAPassThrough) {
  const std::string path = temp_path("fio_plain.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(checked_fwrite(f, "hello", 5), 5u);
  EXPECT_EQ(checked_fflush(f), 0);
  std::fclose(f);
  EXPECT_EQ(slurp(path), "hello");
  EXPECT_FALSE(io_fault_tripped());
  EXPECT_EQ(io_bytes_written(), 0u);
}

TEST_F(FaultyIoTest, ShortWriteStopsAtTheBoundaryAndStaysTripped) {
  const std::string path = temp_path("fio_short.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  arm_io_faults({IoFailure::kShortWrite, 7});
  EXPECT_EQ(checked_fwrite(f, "0123456789", 10), 7u);
  EXPECT_TRUE(io_fault_tripped());
  // A "healed" retry must not succeed: short writes model a stuck file.
  EXPECT_EQ(checked_fwrite(f, "abc", 3), 0u);
  std::fclose(f);
  EXPECT_EQ(slurp(path), "0123456");
  EXPECT_EQ(io_bytes_written(), 7u);
}

TEST_F(FaultyIoTest, EnospcSetsErrnoAndKeepsFailing) {
  const std::string path = temp_path("fio_enospc.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  arm_io_faults({IoFailure::kEnospc, 4});
  errno = 0;
  EXPECT_EQ(checked_fwrite(f, "0123456789", 10), 4u);
  EXPECT_EQ(errno, ENOSPC);
  errno = 0;
  EXPECT_EQ(checked_fwrite(f, "abc", 3), 0u);
  EXPECT_EQ(errno, ENOSPC);
  std::fclose(f);
  EXPECT_EQ(slurp(path), "0123");
}

TEST_F(FaultyIoTest, FsyncFailureLeavesBytesButFailsTheFlush) {
  const std::string path = temp_path("fio_fsync.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  arm_io_faults({IoFailure::kFsyncFail, 4});
  // Below the boundary the flush still succeeds.
  EXPECT_EQ(checked_fwrite(f, "0123", 4), 4u);
  EXPECT_EQ(checked_fflush(f), 0);
  // Past it, writes are accepted but the durability ack fails.
  EXPECT_EQ(checked_fwrite(f, "4567", 4), 4u);
  errno = 0;
  EXPECT_EQ(checked_fflush(f), EOF);
  EXPECT_EQ(errno, EIO);
  EXPECT_TRUE(io_fault_tripped());
  EXPECT_EQ(checked_fflush(f), EOF);  // stays broken
  std::fclose(f);
  EXPECT_EQ(slurp(path), "01234567");
}

TEST_F(FaultyIoTest, KillThrowsAfterExactlyTheArmedBytes) {
  const std::string path = temp_path("fio_kill.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  arm_io_faults({IoFailure::kKill, 6});
  EXPECT_EQ(checked_fwrite(f, "0123", 4), 4u);
  EXPECT_THROW(checked_fwrite(f, "456789", 6), IoKilled);
  std::fclose(f);
  // Exactly fail_at_byte bytes became durable, like a real SIGKILL
  // between two write(2) calls.
  EXPECT_EQ(slurp(path), "012345");
  EXPECT_EQ(io_bytes_written(), 6u);
}

TEST_F(FaultyIoTest, ZeroBoundaryFailsTheFirstWrite) {
  const std::string path = temp_path("fio_zero.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  arm_io_faults({IoFailure::kShortWrite, 0});
  EXPECT_EQ(checked_fwrite(f, "abc", 3), 0u);
  std::fclose(f);
  EXPECT_EQ(slurp(path), "");
}

TEST_F(FaultyIoTest, FsyncInjectionFailsWithEioAtTheBoundary) {
  const std::string path = temp_path("fio_fsyncfd.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  arm_io_faults({IoFailure::kFsyncFail, 4});
  EXPECT_EQ(checked_fwrite(f, "0123", 4), 4u);
  EXPECT_EQ(checked_fsync(fileno(f)), 0) << "at the boundary, still healthy";
  EXPECT_EQ(checked_fwrite(f, "45", 2), 2u);
  errno = 0;
  EXPECT_EQ(checked_fsync(fileno(f)), -1);
  EXPECT_EQ(errno, EIO);
  EXPECT_TRUE(io_fault_tripped());
  EXPECT_EQ(checked_fsync(fileno(f)), -1) << "a dying disk stays dead";
  std::fclose(f);
}

void spit(const std::string& path, const std::string& data) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << data;
}

TEST_F(FaultyIoTest, DamagePlansAreDeterministicAndCoverEveryKind) {
  std::set<int> kinds;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    const DamagePlan a = damage_plan_from_seed(seed, 36, 1000);
    const DamagePlan b = damage_plan_from_seed(seed, 36, 1000);
    EXPECT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind));
    EXPECT_EQ(a.offset, b.offset);
    EXPECT_EQ(a.length, b.length);
    EXPECT_GE(a.offset, 36u) << "damage must stay past min_offset";
    EXPECT_LT(a.offset, 1000u);
    kinds.insert(static_cast<int>(a.kind));
  }
  EXPECT_EQ(kinds.size(), 3u) << "16 seeds must hit all three damage kinds";
}

TEST_F(FaultyIoTest, BitFlipDamageFlipsExactlyOneBit) {
  const std::string path = temp_path("fio_dmg_flip.bin");
  const std::string original = "0123456789";
  spit(path, original);
  apply_file_damage(path, {DamageKind::kBitFlip, 4, 10});  // bit 10 % 8 = 2
  const std::string damaged = slurp(path);
  ASSERT_EQ(damaged.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    if (i == 4) {
      EXPECT_EQ(damaged[i], static_cast<char>(original[i] ^ 0x04));
    } else {
      EXPECT_EQ(damaged[i], original[i]) << "byte " << i;
    }
  }
}

TEST_F(FaultyIoTest, ZeroPageDamageZeroesTheSpanClampedToEof) {
  const std::string path = temp_path("fio_dmg_zero.bin");
  spit(path, "0123456789");
  apply_file_damage(path, {DamageKind::kZeroPage, 6, 100});
  EXPECT_EQ(slurp(path), std::string("012345") + std::string(4, '\0'));
}

TEST_F(FaultyIoTest, TruncateInteriorSplicesTheSpanOut) {
  const std::string path = temp_path("fio_dmg_cut.bin");
  spit(path, "0123456789");
  apply_file_damage(path, {DamageKind::kTruncateInterior, 3, 4});
  EXPECT_EQ(slurp(path), "012789");
}

TEST_F(FaultyIoTest, DamagePastEofIsANoOp) {
  const std::string path = temp_path("fio_dmg_eof.bin");
  spit(path, "abc");
  apply_file_damage(path, {DamageKind::kZeroPage, 3, 8});
  EXPECT_EQ(slurp(path), "abc");
  apply_file_damage(path, {DamageKind::kBitFlip, 100, 1});
  EXPECT_EQ(slurp(path), "abc");
}

TEST_F(FaultyIoTest, DamagingAMissingFileThrows) {
  EXPECT_THROW(
      apply_file_damage(temp_path("fio_dmg_missing.bin"), DamagePlan{}),
      std::runtime_error);
}

TEST_F(FaultyIoTest, SeededPlansAreDeterministicAndCoverEveryKind) {
  std::set<int> kinds;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    const IoFaultPlan a = io_plan_from_seed(seed, 1000);
    const IoFaultPlan b = io_plan_from_seed(seed, 1000);
    EXPECT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind));
    EXPECT_EQ(a.fail_at_byte, b.fail_at_byte);
    EXPECT_NE(a.kind, IoFailure::kNone);
    EXPECT_LT(a.fail_at_byte, 1000u);
    kinds.insert(static_cast<int>(a.kind));
  }
  EXPECT_EQ(kinds.size(), 4u) << "16 seeds must hit all four failure kinds";
}

}  // namespace
}  // namespace sbst::util
