// Adversarial-input fuzzing of the journal decoder. The salvage loader
// and payload codec parse bytes that may have been damaged by anything
// from a crash to bad RAM, so the contract under arbitrary input is:
// return a structured result (false / damage accounting) or throw
// std::runtime_error — never crash, never read out of bounds, never
// allocate proportionally to an attacker-controlled length field. The
// same holds for the record frames an --isolate worker's pipe delivers
// to read_record_frame. Runs under the same ASan/UBSan CI leg as the
// rest of the suite, which is what turns "didn't crash" into a real
// memory-safety check.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "campaign/journal.h"

namespace sbst::campaign {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

void spit(const std::string& path, const std::string& data) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << data;
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97f4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

fault::GroupRecord make_record(std::uint64_t group, std::uint32_t count) {
  fault::GroupRecord r;
  r.group = group;
  r.count = count;
  r.detected_mask =
      (group * 0x9E3779B9u) & ((std::uint64_t{1} << count) - 1);
  r.cycles = 1000 + group;
  r.detect_cycle.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    r.detect_cycle[i] = ((r.detected_mask >> i) & 1)
                            ? static_cast<std::int64_t>(group * 10 + i)
                            : -1;
  }
  r.gates_evaluated = group * 100003 + count;
  r.sim_cycles = group * 977 + 1;
  r.engine_used = fault::GroupEngine::kEvent;
  return r;
}

const JournalMeta kMeta{0xfeedfacecafef00dull, 8, 504};
constexpr std::size_t kHeaderBytes = 36;

/// Every byte of a loaded journal's file, accounted: the header and the
/// intact frames, plus what salvage skipped or dropped.
std::size_t accounted_bytes(const JournalLoad& loaded) {
  std::size_t n = kHeaderBytes + loaded.stats.skipped_bytes +
                  loaded.dropped_bytes;
  for (const fault::GroupRecord& rec : loaded.records) {
    n += encode_record_frame(rec).size();
  }
  return n;
}

/// Feeds `bytes` through a pipe (write end closed) and reads record
/// frames until the reader fails; returns how many frames it read.
std::size_t frames_read_from_pipe(const std::string& bytes) {
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  EXPECT_EQ(::write(fds[1], bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  ::close(fds[1]);
  std::size_t n = 0;
  fault::GroupRecord rec;
  while (read_record_frame(fds[0], &rec)) ++n;
  ::close(fds[0]);
  return n;
}

TEST(JournalFuzz, DecodeRandomPayloadsNeverCrashes) {
  std::uint64_t state = 0x5eed0001;
  for (int iter = 0; iter < 20000; ++iter) {
    const std::size_t len = splitmix64(state) % 700;  // past kMaxPayload
    std::string payload(len, '\0');
    for (char& c : payload) {
      c = static_cast<char>(splitmix64(state) & 0xff);
    }
    fault::GroupRecord rec;
    if (decode_record_payload(payload, &rec)) {
      // Acceptance implies the structural invariants the campaign
      // relies on; random bytes that pass must still be coherent.
      EXPECT_LE(rec.count, 63u);
      EXPECT_EQ(rec.detect_cycle.size(), rec.count);
      EXPECT_LE(static_cast<int>(rec.engine_used),
                static_cast<int>(fault::GroupEngine::kSweep));
    }
  }
}

TEST(JournalFuzz, MutatedRealPayloadsNeverCrash) {
  // Random mutations of *valid* payloads explore the decoder's deep
  // branches (flags combinations, section lengths) far better than
  // uniform noise, which rarely survives the first size check.
  std::uint64_t state = 0x5eed0002;
  for (int iter = 0; iter < 20000; ++iter) {
    fault::GroupRecord seed_rec =
        make_record(splitmix64(state) % 8, splitmix64(state) % 64);
    if (splitmix64(state) % 3 == 0) {
      seed_rec.quarantined = true;
      seed_rec.error.term_signal = static_cast<int>(splitmix64(state) % 32);
    }
    std::string payload = encode_record_payload(seed_rec);
    const int mutations = 1 + static_cast<int>(splitmix64(state) % 4);
    for (int m = 0; m < mutations; ++m) {
      switch (splitmix64(state) % 3) {
        case 0:  // flip a bit
          payload[splitmix64(state) % payload.size()] ^=
              static_cast<char>(1u << (splitmix64(state) % 8));
          break;
        case 1:  // truncate
          payload.resize(payload.size() -
                         std::min(payload.size() - 1,
                                  splitmix64(state) % 16 + 1));
          break;
        default:  // extend with junk
          payload.push_back(static_cast<char>(splitmix64(state) & 0xff));
          break;
      }
    }
    fault::GroupRecord rec;
    if (decode_record_payload(payload, &rec)) {
      EXPECT_LE(rec.count, 63u);
      EXPECT_EQ(rec.detect_cycle.size(), rec.count);
    }
  }
}

TEST(JournalFuzz, RandomFilesLoadOrThrowStructuredErrors) {
  const std::string path = temp_path("journal_fuzz_randfile.sbstj");
  std::uint64_t state = 0x5eed0003;
  for (int iter = 0; iter < 500; ++iter) {
    const std::size_t len = splitmix64(state) % 512;
    std::string data(len, '\0');
    for (char& c : data) c = static_cast<char>(splitmix64(state) & 0xff);
    // Half the time, start from the real magic so the parse gets past
    // the front gate and into header/record territory.
    if (splitmix64(state) % 2 == 0 && data.size() >= 8) {
      std::memcpy(data.data(), "SBSTJRN1", 8);
    }
    spit(path, data);
    try {
      const auto loaded = load_journal_raw(path);
      ASSERT_TRUE(loaded);  // the file exists; nullopt would be a lie
      EXPECT_EQ(loaded->file_bytes, data.size());
      EXPECT_EQ(accounted_bytes(*loaded), data.size());
    } catch (const std::runtime_error&) {
      // Structured rejection (bad magic / header CRC) is a valid outcome.
    }
  }
}

TEST(JournalFuzz, BitFlippedJournalsSalvageAllUndamagedRecords) {
  const std::string ref_path = temp_path("journal_fuzz_ref.sbstj");
  constexpr std::uint64_t kGroups = 8;
  std::unordered_map<std::uint64_t, fault::GroupRecord> originals;
  {
    JournalWriter w = JournalWriter::create(ref_path, kMeta);
    for (std::uint64_t g = 0; g < kGroups; ++g) {
      const fault::GroupRecord rec = make_record(g, g == 7 ? 9u : 63u);
      originals[g] = rec;
      w.add(rec);
    }
  }
  std::string reference;
  {
    std::ifstream in(ref_path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    reference = ss.str();
  }

  const std::string path = temp_path("journal_fuzz_flip.sbstj");
  std::uint64_t state = 0x5eed0004;
  for (int iter = 0; iter < 400; ++iter) {
    std::string data = reference;
    // One flipped bit past the header: at most one frame's damage, so
    // at least kGroups - 1 records must survive (resync may only lose
    // the frame the flip landed in).
    const std::size_t pos =
        kHeaderBytes + splitmix64(state) % (data.size() - kHeaderBytes);
    data[pos] ^= static_cast<char>(1u << (splitmix64(state) % 8));
    spit(path, data);
    const auto loaded = load_journal(path, kMeta);
    ASSERT_TRUE(loaded);
    EXPECT_GE(loaded->records.size(), kGroups - 1)
        << "iter " << iter << " flip at " << pos;
    EXPECT_EQ(accounted_bytes(*loaded), data.size())
        << "iter " << iter << " flip at " << pos;
    for (const fault::GroupRecord& rec : loaded->records) {
      // Anything salvaged must be bit-exact: the CRC frame makes a
      // silently-altered record impossible, flipped bit or not.
      const auto it = originals.find(rec.group);
      ASSERT_NE(it, originals.end());
      EXPECT_EQ(rec.detected_mask, it->second.detected_mask);
      EXPECT_EQ(rec.cycles, it->second.cycles);
      EXPECT_EQ(rec.detect_cycle, it->second.detect_cycle);
    }
  }
}

TEST(JournalFuzz, HostileLengthFieldsAreDamageNotAllocation) {
  // Frames whose length fields claim absurd sizes (up to UINT32_MAX)
  // must be treated as damage — not trusted, not allocated — by the
  // file loader and by the pipe reader alike.
  const std::string path = temp_path("journal_fuzz_len.sbstj");
  std::string base;
  {
    JournalWriter w = JournalWriter::create(path, kMeta);
    w.add(make_record(0, 63));
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    base = ss.str();
  }
  for (std::uint32_t hostile :
       {std::numeric_limits<std::uint32_t>::max(),
        std::numeric_limits<std::uint32_t>::max() - 7, 0x80000000u, 601u}) {
    std::string data = base;
    char lenbuf[4];
    std::memcpy(lenbuf, &hostile, 4);
    data.append(lenbuf, 4);            // hostile frame: len
    data.append("\xde\xad\xbe\xef", 4);  // crc
    data.append("short", 5);           // nowhere near `len` bytes follow
    spit(path, data);
    const auto loaded = load_journal(path, kMeta);
    ASSERT_TRUE(loaded);
    EXPECT_TRUE(loaded->truncated);
    EXPECT_EQ(loaded->records.size(), 1u);
    EXPECT_EQ(loaded->dropped_bytes, 13u);
    EXPECT_EQ(frames_read_from_pipe(data.substr(kHeaderBytes)), 1u)
        << "hostile length " << hostile;
  }
}

TEST(JournalFuzz, RandomPipeStreamsReadOrFailCleanly) {
  // Random bytes, and real frames with random bytes spliced in, on a
  // worker's result pipe: the reader returns whole valid frames or
  // false, and never reads a frame from garbage.
  const std::string good = encode_record_frame(make_record(5, 63));
  std::uint64_t state = 0x5eed0006;
  for (int iter = 0; iter < 300; ++iter) {
    std::string noise(splitmix64(state) % 700, '\0');
    for (char& c : noise) c = static_cast<char>(splitmix64(state) & 0xff);
    EXPECT_EQ(frames_read_from_pipe(noise), 0u) << "iter " << iter;
    EXPECT_EQ(frames_read_from_pipe(good + noise), 1u) << "iter " << iter;
  }
}

TEST(JournalFuzz, EveryTruncationPointLoadsOrThrows) {
  const std::string full_path = temp_path("journal_fuzz_truncfull.sbstj");
  {
    JournalWriter w = JournalWriter::create(full_path, kMeta);
    for (std::uint64_t g : {0u, 1u, 2u}) w.add(make_record(g, 63));
  }
  std::string full;
  {
    std::ifstream in(full_path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    full = ss.str();
  }
  const std::string path = temp_path("journal_fuzz_trunc.sbstj");
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    spit(path, full.substr(0, cut));
    try {
      const auto loaded = load_journal(path, kMeta);
      ASSERT_TRUE(loaded);
      if (cut == 0) {
        EXPECT_TRUE(loaded->empty_file);
      } else {
        EXPECT_EQ(accounted_bytes(*loaded), cut);
      }
    } catch (const std::runtime_error&) {
      EXPECT_LT(cut, kHeaderBytes)
          << "only a partial header may throw; past it, salvage";
    }
  }
}

}  // namespace
}  // namespace sbst::campaign
