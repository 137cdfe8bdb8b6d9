// Crash-safety contract of the campaign journal: every intact record
// loads — including records *after* mid-file damage, which the loader
// salvages by resynchronizing on the [len][crc][payload] framing; a
// torn or corrupt tail is detected and dropped; opening a damaged
// journal for a campaign first rewrites it to its winning records so
// garbage never resurfaces; compaction and repair (both a merge of one
// journal) rewrite journals atomically in the same format; a journal
// can never be spliced into a campaign it does not belong to; and the
// record frame read off a worker's pipe is the frame on disk.
#include "campaign/journal.h"
#include "temp_path.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

namespace sbst::campaign {
namespace {

using testfs::temp_path;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void spit(const std::string& path, const std::string& data) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << data;
}

fault::GroupRecord make_record(std::uint64_t group, std::uint32_t count) {
  fault::GroupRecord r;
  r.group = group;
  r.count = count;
  r.detected_mask = (group * 0x9E3779B9u) & ((std::uint64_t{1} << count) - 1);
  r.cycles = 1000 + group;
  r.timed_out = group % 3 == 0;
  r.detect_cycle.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    r.detect_cycle[i] = ((r.detected_mask >> i) & 1)
                            ? static_cast<std::int64_t>(group * 10 + i)
                            : -1;
  }
  r.gates_evaluated = group * 100003 + count;
  r.sim_cycles = group * 977 + 1;
  r.engine_used =
      group % 2 == 0 ? fault::GroupEngine::kEvent : fault::GroupEngine::kSweep;
  for (std::size_t i = 0; i < r.evals_by_kind.size(); ++i) {
    r.evals_by_kind[i] = group * 31 + i * 7;
  }
  return r;
}

void expect_equal(const fault::GroupRecord& a, const fault::GroupRecord& b) {
  EXPECT_EQ(a.group, b.group);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.timed_out, b.timed_out);
  EXPECT_EQ(a.detected_mask, b.detected_mask);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.detect_cycle, b.detect_cycle);
  EXPECT_EQ(a.gates_evaluated, b.gates_evaluated);
  EXPECT_EQ(a.sim_cycles, b.sim_cycles);
  EXPECT_EQ(a.engine_used, b.engine_used);
  EXPECT_EQ(a.evals_by_kind, b.evals_by_kind);
}

const JournalMeta kMeta{0x1234abcd5678ef01ull, 10, 630};

constexpr std::size_t kHeaderBytes = 36;

/// Bytes of the header and of every record `loaded` holds, framed: with
/// the skipped spans and the dropped tail, the whole file.
std::size_t intact_frame_bytes(const JournalLoad& loaded) {
  std::size_t n = kHeaderBytes;
  for (const fault::GroupRecord& rec : loaded.records) {
    n += encode_record_frame(rec).size();
  }
  return n;
}

/// Byte range [begin, end) of record `i`'s frame, walked via the length
/// fields — only valid on an intact journal.
std::pair<std::size_t, std::size_t> frame_range(const std::string& data,
                                                std::size_t i) {
  std::size_t off = kHeaderBytes;
  for (;;) {
    std::uint32_t len = 0;
    std::memcpy(&len, data.data() + off, 4);
    const std::size_t end = off + 8 + len;
    if (i == 0) return {off, end};
    --i;
    off = end;
  }
}

TEST(Journal, MissingFileLoadsAsNullopt) {
  EXPECT_FALSE(load_journal(temp_path("journal_missing.sbstj"), kMeta));
}

TEST(Journal, RoundTripsRecordsInCompletionOrder) {
  const std::string path = temp_path("journal_roundtrip.sbstj");
  {
    JournalWriter w = JournalWriter::create(path, kMeta);
    // Out-of-order group completion, as under several worker threads.
    for (std::uint64_t g : {3u, 0u, 7u, 1u}) w.add(make_record(g, 63));
    w.add(make_record(9, 5));  // final ragged group
  }
  const auto loaded = load_journal(path, kMeta);
  ASSERT_TRUE(loaded);
  EXPECT_FALSE(loaded->truncated);
  EXPECT_EQ(loaded->dropped_bytes, 0u);
  ASSERT_EQ(loaded->records.size(), 5u);
  const std::uint64_t expect_groups[] = {3, 0, 7, 1, 9};
  for (std::size_t i = 0; i < 5; ++i) {
    expect_equal(loaded->records[i],
                 make_record(expect_groups[i],
                             expect_groups[i] == 9 ? 5u : 63u));
  }
}

TEST(Journal, CreateReplacesPreviousJournal) {
  const std::string path = temp_path("journal_replace.sbstj");
  { JournalWriter::create(path, kMeta).add(make_record(1, 63)); }
  { JournalWriter::create(path, kMeta); }
  const auto loaded = load_journal(path, kMeta);
  ASSERT_TRUE(loaded);
  EXPECT_TRUE(loaded->records.empty());
}

TEST(Journal, TornFinalRecordIsDropped) {
  const std::string path = temp_path("journal_torn.sbstj");
  {
    JournalWriter w = JournalWriter::create(path, kMeta);
    w.add(make_record(0, 63));
    w.add(make_record(1, 63));
  }
  const std::string intact = slurp(path);
  // Chop bytes off the last frame: the classic crash-mid-write shape.
  for (std::size_t cut : {1u, 7u, 100u}) {
    spit(path, intact.substr(0, intact.size() - cut));
    const auto loaded = load_journal(path, kMeta);
    ASSERT_TRUE(loaded);
    EXPECT_TRUE(loaded->truncated) << "cut " << cut;
    ASSERT_EQ(loaded->records.size(), 1u) << "cut " << cut;
    expect_equal(loaded->records[0], make_record(0, 63));
    EXPECT_EQ(loaded->file_bytes, intact.size() - cut);
    EXPECT_EQ(intact_frame_bytes(*loaded) + loaded->dropped_bytes,
              loaded->file_bytes)
        << "intact bytes + dropped tail must account for the whole file";
  }
}

TEST(Journal, CorruptPayloadByteIsDropped) {
  const std::string path = temp_path("journal_bitrot.sbstj");
  {
    JournalWriter w = JournalWriter::create(path, kMeta);
    w.add(make_record(0, 63));
    w.add(make_record(1, 63));
  }
  std::string data = slurp(path);
  data[data.size() - 3] ^= 0x40;  // flip a bit inside the last payload
  spit(path, data);
  const auto loaded = load_journal(path, kMeta);
  ASSERT_TRUE(loaded);
  EXPECT_TRUE(loaded->truncated);
  ASSERT_EQ(loaded->records.size(), 1u);
}

TEST(Journal, AppendAfterTornLoadCutsTheTail) {
  const std::string path = temp_path("journal_heal.sbstj");
  {
    JournalWriter w = JournalWriter::create(path, kMeta);
    w.add(make_record(0, 63));
    w.add(make_record(1, 63));
  }
  std::string data = slurp(path);
  spit(path, data.substr(0, data.size() - 9) + "garbage");
  JournalSession session = open_journal_session(path, kMeta, false);
  EXPECT_TRUE(session.truncated);
  session.writer->add(make_record(2, 63));
  session.writer.reset();
  const auto healed = load_journal(path, kMeta);
  ASSERT_TRUE(healed);
  EXPECT_FALSE(healed->truncated);
  ASSERT_EQ(healed->records.size(), 2u);
  expect_equal(healed->records[0], make_record(0, 63));
  expect_equal(healed->records[1], make_record(2, 63));
}

TEST(Journal, RejectsForeignCampaign) {
  const std::string path = temp_path("journal_foreign.sbstj");
  { JournalWriter::create(path, kMeta).add(make_record(0, 63)); }
  JournalMeta other = kMeta;
  other.fingerprint ^= 1;  // program/netlist/sampling changed
  EXPECT_THROW(load_journal(path, other), std::runtime_error);
  other = kMeta;
  other.num_groups += 1;
  EXPECT_THROW(load_journal(path, other), std::runtime_error);
}

TEST(Journal, RejectsNonJournalFile) {
  const std::string path = temp_path("journal_bogus.sbstj");
  spit(path, "this is not a journal at all");
  EXPECT_THROW(load_journal(path, kMeta), std::runtime_error);
  // A short file that is a valid header prefix is still not a journal.
  spit(path, std::string("SBSTJRN1\x01", 9));
  EXPECT_THROW(load_journal(path, kMeta), std::runtime_error);
}

TEST(Journal, ZeroLengthFileIsEmptyJournalNotCorruption) {
  // A crash between fopen and the header write (or touch(1)) leaves a
  // zero-length file; that is an empty journal and a fresh start, not an
  // error to throw on.
  const std::string path = temp_path("journal_zerolen.sbstj");
  spit(path, "");
  const auto loaded = load_journal(path, kMeta);
  ASSERT_TRUE(loaded);
  EXPECT_TRUE(loaded->empty_file);
  EXPECT_TRUE(loaded->records.empty());
  EXPECT_FALSE(loaded->truncated);

  // open_journal_session turns it into a writable fresh journal and
  // reports the file as having held no records.
  JournalSession session = open_journal_session(path, kMeta, false);
  ASSERT_TRUE(session.writer);
  EXPECT_TRUE(session.was_empty);
  EXPECT_TRUE(session.seeds.empty());
  session.writer->add(make_record(1, 63));
  session.writer.reset();
  const auto reloaded = load_journal(path, kMeta);
  ASSERT_TRUE(reloaded);
  EXPECT_FALSE(reloaded->empty_file);
  ASSERT_EQ(reloaded->records.size(), 1u);
}

TEST(Journal, HeaderOnlyFileLoadsWithNoRecords) {
  const std::string path = temp_path("journal_headeronly.sbstj");
  { JournalWriter::create(path, kMeta); }
  const auto loaded = load_journal(path, kMeta);
  ASSERT_TRUE(loaded);
  EXPECT_FALSE(loaded->empty_file);
  EXPECT_TRUE(loaded->records.empty());
  EXPECT_FALSE(loaded->truncated);
  JournalSession session = open_journal_session(path, kMeta, false);
  EXPECT_TRUE(session.was_empty);
  EXPECT_TRUE(session.seeds.empty());
}

TEST(Journal, QuarantinedRecordRoundTrips) {
  const std::string path = temp_path("journal_quarantine.sbstj");
  fault::GroupRecord rec = make_record(4, 63);
  rec.quarantined = true;
  rec.detected_mask = 0;
  std::fill(rec.detect_cycle.begin(), rec.detect_cycle.end(),
            std::int64_t{-1});
  rec.error.term_signal = SIGABRT;
  rec.error.exit_code = 0;
  rec.error.attempts = 3;
  rec.error.max_rss_kb = 51200;
  rec.error.cpu_ms = 1234;
  // Group 5: an inconclusive record superseded by a conclusive retry.
  // Group 7: a conclusive record superseded by a quarantine.
  fault::GroupRecord inconclusive = make_record(5, 63);
  inconclusive.timed_out = true;
  fault::GroupRecord conclusive = make_record(5, 63);
  conclusive.cycles = 5555;
  fault::GroupRecord healed = make_record(7, 63);
  fault::GroupRecord relapsed = make_record(7, 63);
  relapsed.quarantined = true;
  {
    JournalWriter w = JournalWriter::create(path, kMeta);
    w.add(make_record(1, 63));
    w.add(rec);
    w.add(inconclusive);
    w.add(healed);
    w.add(conclusive);
    w.add(relapsed);
  }
  const auto loaded = load_journal(path, kMeta);
  ASSERT_TRUE(loaded);
  ASSERT_EQ(loaded->records.size(), 6u);
  const fault::GroupRecord& got = loaded->records[1];
  EXPECT_TRUE(got.quarantined);
  EXPECT_EQ(got.error.term_signal, SIGABRT);
  EXPECT_EQ(got.error.exit_code, 0);
  EXPECT_EQ(got.error.attempts, 3u);
  EXPECT_EQ(got.error.max_rss_kb, 51200u);
  EXPECT_EQ(got.error.cpu_ms, 1234u);
  expect_equal(loaded->records[0], make_record(1, 63));

  // Seeds follow each group's winning (latest) record; retry_inconclusive
  // drops an inconclusive winner, quarantined like timed-out, whatever
  // came before it.
  JournalSession keep = open_journal_session(path, kMeta, false);
  EXPECT_EQ(keep.seeds.size(), 4u);
  EXPECT_EQ(keep.seeds.count(4), 1u);
  EXPECT_EQ(keep.seeds.at(5).cycles, 5555u);
  EXPECT_FALSE(keep.seeds.at(5).timed_out);
  EXPECT_TRUE(keep.seeds.at(7).quarantined);
  keep.writer.reset();
  JournalSession retry = open_journal_session(path, kMeta, true);
  EXPECT_EQ(retry.seeds.size(), 2u);
  EXPECT_EQ(retry.seeds.count(4), 0u);
  EXPECT_EQ(retry.seeds.count(1), 1u);
  EXPECT_EQ(retry.seeds.at(5).cycles, 5555u);
  EXPECT_EQ(retry.seeds.count(7), 0u);
}

TEST(Journal, WorkCountersRoundTripThroughPayloadCodec) {
  // The payload codec doubles as the supervisor's wire format, so the
  // work counters must survive encode/decode exactly — this is the
  // dropped-counter bug: records used to lose gates_evaluated/sim_cycles
  // at every serialization boundary.
  for (std::uint64_t g : {0u, 1u, 9u}) {
    fault::GroupRecord rec = make_record(g, g == 9 ? 5u : 63u);
    fault::GroupRecord back;
    ASSERT_TRUE(decode_record_payload(encode_record_payload(rec), &back));
    expect_equal(rec, back);
  }
  // Quarantined records carry both the error section and the work
  // section; order in the payload must not confuse the decoder.
  fault::GroupRecord rec = make_record(4, 63);
  rec.quarantined = true;
  rec.error.term_signal = SIGSEGV;
  rec.error.attempts = 3;
  fault::GroupRecord back;
  ASSERT_TRUE(decode_record_payload(encode_record_payload(rec), &back));
  expect_equal(rec, back);
  EXPECT_EQ(back.error.term_signal, SIGSEGV);
  EXPECT_EQ(back.error.attempts, 3u);
}

TEST(Journal, LegacyPayloadWithoutWorkSectionDecodesWithZeroCounters) {
  // Journals written before work accounting existed have neither the
  // bit2 work section (17 bytes) nor the bit3 per-kind section (32
  // bytes). Re-encode a record the old way (strip both flag bits and
  // the tail) and require it to decode — with honest zero counters.
  const fault::GroupRecord rec = make_record(2, 63);
  std::string payload = encode_record_payload(rec);
  payload.resize(payload.size() - (8 + 8 + 1) - 4 * 8);
  payload[8 + 4] &= static_cast<char>(~(4 | 8));
  fault::GroupRecord back;
  ASSERT_TRUE(decode_record_payload(payload, &back));
  EXPECT_EQ(back.group, rec.group);
  EXPECT_EQ(back.detected_mask, rec.detected_mask);
  EXPECT_EQ(back.detect_cycle, rec.detect_cycle);
  EXPECT_EQ(back.gates_evaluated, 0u);
  EXPECT_EQ(back.sim_cycles, 0u);
  EXPECT_EQ(back.engine_used, fault::GroupEngine::kNone);
  for (std::uint64_t k : back.evals_by_kind) EXPECT_EQ(k, 0u);

  // A journal with the work section but not the per-kind tallies (the
  // intermediate format) still round-trips the work counters.
  std::string mid = encode_record_payload(rec);
  mid.resize(mid.size() - 4 * 8);
  mid[8 + 4] &= static_cast<char>(~8);
  ASSERT_TRUE(decode_record_payload(mid, &back));
  EXPECT_EQ(back.gates_evaluated, rec.gates_evaluated);
  EXPECT_EQ(back.engine_used, rec.engine_used);
  for (std::uint64_t k : back.evals_by_kind) EXPECT_EQ(k, 0u);

  // A work section with an engine byte from the future is corruption,
  // not silently accepted. The engine byte sits just ahead of the four
  // per-kind tallies.
  std::string bogus = encode_record_payload(rec);
  bogus[bogus.size() - 4 * 8 - 1] = 7;
  EXPECT_FALSE(decode_record_payload(bogus, &back));
}

TEST(Journal, MidFileBitFlipSalvagesLaterRecords) {
  const std::string path = temp_path("journal_midflip.sbstj");
  {
    JournalWriter w = JournalWriter::create(path, kMeta);
    for (std::uint64_t g : {0u, 1u, 2u, 3u}) w.add(make_record(g, 63));
  }
  std::string data = slurp(path);
  const auto [begin, end] = frame_range(data, 1);
  data[begin + 8 + 3] ^= 0x10;  // flip a payload bit of record 1
  spit(path, data);
  const auto loaded = load_journal(path, kMeta);
  ASSERT_TRUE(loaded);
  EXPECT_FALSE(loaded->truncated) << "damage is interior, not a torn tail";
  EXPECT_TRUE(loaded->damaged());
  EXPECT_EQ(loaded->stats.skipped_records, 1u);
  EXPECT_EQ(loaded->stats.skipped_bytes, end - begin);
  EXPECT_EQ(loaded->stats.salvaged, 3u);
  ASSERT_EQ(loaded->records.size(), 3u);
  expect_equal(loaded->records[0], make_record(0, 63));
  expect_equal(loaded->records[1], make_record(2, 63));
  expect_equal(loaded->records[2], make_record(3, 63));
  EXPECT_EQ(loaded->file_bytes, data.size());
  EXPECT_EQ(intact_frame_bytes(*loaded) + loaded->stats.skipped_bytes +
                loaded->dropped_bytes,
            loaded->file_bytes)
      << "every file byte must be accounted intact, skipped or dropped";
}

TEST(Journal, ZeroedSpanAcrossTwoRecordsSalvagesTheRest) {
  const std::string path = temp_path("journal_zerospan.sbstj");
  {
    JournalWriter w = JournalWriter::create(path, kMeta);
    for (std::uint64_t g : {0u, 1u, 2u, 3u, 4u}) w.add(make_record(g, 63));
  }
  std::string data = slurp(path);
  // Zero from inside record 1 into record 2's frame header: both die,
  // one contiguous damaged span.
  const auto f1 = frame_range(data, 1);
  const auto f2 = frame_range(data, 2);
  std::fill(data.begin() + static_cast<std::ptrdiff_t>(f1.first + 10),
            data.begin() + static_cast<std::ptrdiff_t>(f2.first + 10), '\0');
  spit(path, data);
  const auto loaded = load_journal(path, kMeta);
  ASSERT_TRUE(loaded);
  EXPECT_FALSE(loaded->truncated);
  EXPECT_EQ(loaded->stats.skipped_records, 1u)
      << "one contiguous span, even though it destroyed two records";
  EXPECT_EQ(loaded->stats.skipped_bytes, f2.second - f1.first);
  ASSERT_EQ(loaded->records.size(), 3u);
  expect_equal(loaded->records[0], make_record(0, 63));
  expect_equal(loaded->records[1], make_record(3, 63));
  expect_equal(loaded->records[2], make_record(4, 63));
}

TEST(Journal, InteriorTruncationResynchronizes) {
  const std::string path = temp_path("journal_cutout.sbstj");
  {
    JournalWriter w = JournalWriter::create(path, kMeta);
    for (std::uint64_t g : {0u, 1u, 2u, 3u}) w.add(make_record(g, 63));
  }
  std::string data = slurp(path);
  // Tear 17 bytes out of the middle of record 1 — everything after
  // shifts, so the loader must find record 2 at an unaligned offset.
  const auto f1 = frame_range(data, 1);
  data.erase(f1.first + 12, 17);
  spit(path, data);
  const auto loaded = load_journal(path, kMeta);
  ASSERT_TRUE(loaded);
  EXPECT_FALSE(loaded->truncated);
  EXPECT_EQ(loaded->stats.skipped_records, 1u);
  ASSERT_EQ(loaded->records.size(), 3u);
  expect_equal(loaded->records[0], make_record(0, 63));
  expect_equal(loaded->records[1], make_record(2, 63));
  expect_equal(loaded->records[2], make_record(3, 63));
}

TEST(Journal, AppendAfterMidFileDamageHealsTheFile) {
  const std::string path = temp_path("journal_midheal.sbstj");
  {
    JournalWriter w = JournalWriter::create(path, kMeta);
    for (std::uint64_t g : {0u, 1u, 2u}) w.add(make_record(g, 63));
  }
  std::string data = slurp(path);
  data[frame_range(data, 1).first + 9] ^= 0x01;
  spit(path, data);
  ASSERT_TRUE(load_journal(path, kMeta)->damaged());
  {
    JournalSession session = open_journal_session(path, kMeta, false);
    session.writer->add(make_record(1, 63));  // re-simulated lost group
  }
  const auto healed = load_journal(path, kMeta);
  ASSERT_TRUE(healed);
  EXPECT_FALSE(healed->damaged());
  EXPECT_EQ(healed->stats.skipped_records, 0u);
  ASSERT_EQ(healed->records.size(), 3u);
  expect_equal(healed->records[0], make_record(0, 63));
  expect_equal(healed->records[1], make_record(2, 63));
  expect_equal(healed->records[2], make_record(1, 63));
}

TEST(Journal, WinningRecordsKeepsLatestPerGroupSortedByGroup) {
  std::vector<fault::GroupRecord> records;
  records.push_back(make_record(3, 63));
  records.push_back(make_record(1, 63));
  fault::GroupRecord retry = make_record(3, 63);
  retry.timed_out = false;
  retry.cycles = 99999;
  records.push_back(retry);
  records.push_back(make_record(0, 63));
  const auto winners = winning_records(records);
  ASSERT_EQ(winners.size(), 3u);
  EXPECT_EQ(winners[0].group, 0u);
  EXPECT_EQ(winners[1].group, 1u);
  EXPECT_EQ(winners[2].group, 3u);
  EXPECT_EQ(winners[2].cycles, 99999u) << "the later record must win";
  EXPECT_FALSE(winners[2].timed_out);
}

TEST(Journal, CompactKeepsWinnersAndShrinksTheFile) {
  const std::string path = temp_path("journal_compact.sbstj");
  {
    JournalWriter w = JournalWriter::create(path, kMeta);
    for (int attempt = 0; attempt < 3; ++attempt) {
      for (std::uint64_t g : {2u, 0u, 1u}) {
        fault::GroupRecord rec = make_record(g, 63);
        rec.cycles = 1000 * static_cast<std::uint64_t>(attempt + 1) + g;
        w.add(rec);
      }
    }
  }
  const std::size_t before = slurp(path).size();
  // Compaction is a merge of the one journal into itself.
  const MergeStats stats = merge_journals({path}, path);
  EXPECT_EQ(stats.records_in, 9u);
  EXPECT_EQ(stats.records_out, 3u);
  EXPECT_EQ(stats.bytes_in, before);
  EXPECT_LT(stats.bytes_out, before);
  EXPECT_EQ(slurp(path).size(), stats.bytes_out);
  const auto loaded = load_journal(path, kMeta);
  ASSERT_TRUE(loaded);
  EXPECT_FALSE(loaded->damaged());
  ASSERT_EQ(loaded->records.size(), 3u);
  for (std::uint64_t g : {0u, 1u, 2u}) {
    EXPECT_EQ(loaded->records[g].group, g) << "compaction sorts by group";
    EXPECT_EQ(loaded->records[g].cycles, 3000 + g) << "latest attempt wins";
  }
}

TEST(Journal, CompactToSeparateOutputLeavesSourceUntouched) {
  const std::string path = temp_path("journal_compact_src.sbstj");
  const std::string out = temp_path("journal_compact_dst.sbstj");
  {
    JournalWriter w = JournalWriter::create(path, kMeta);
    w.add(make_record(0, 63));
    w.add(make_record(0, 63));
    w.add(make_record(5, 63));
  }
  const std::string original = slurp(path);
  const MergeStats stats = merge_journals({path}, out);
  EXPECT_EQ(stats.records_out, 2u);
  EXPECT_EQ(slurp(path), original);
  const auto loaded = load_journal(out, kMeta);
  ASSERT_TRUE(loaded);
  ASSERT_EQ(loaded->records.size(), 2u);
}

TEST(Journal, RepairDropsDamageAndOutputVerifiesClean) {
  const std::string path = temp_path("journal_repair.sbstj");
  const std::string out = temp_path("journal_repaired.sbstj");
  {
    JournalWriter w = JournalWriter::create(path, kMeta);
    for (std::uint64_t g : {0u, 1u, 2u, 3u}) w.add(make_record(g, 63));
  }
  std::string data = slurp(path);
  // Interior damage in record 1 (record 2 stays as a resync target) plus
  // a torn tail eating into record 3.
  data[frame_range(data, 1).first + 11] ^= 0x80;
  data.resize(data.size() - 5);
  spit(path, data);

  // Repair is a merge of the one journal, like compaction.
  const MergeStats r = merge_journals({path}, out);
  ASSERT_EQ(r.inputs.size(), 1u);
  EXPECT_TRUE(r.inputs[0].damaged);
  EXPECT_EQ(r.inputs[0].skipped_spans, 1u);
  EXPECT_EQ(r.records_out, 2u);
  EXPECT_EQ(r.bytes_in, data.size());
  EXPECT_LT(r.bytes_out, r.bytes_in);
  EXPECT_EQ(slurp(out).size(), r.bytes_out);
  EXPECT_EQ(slurp(path), data) << "repair into OUT must not touch the source";

  const auto repaired = load_journal(out, kMeta);
  ASSERT_TRUE(repaired);
  EXPECT_FALSE(repaired->damaged());
  ASSERT_EQ(repaired->records.size(), 2u);
  expect_equal(repaired->records[0], make_record(0, 63));
  expect_equal(repaired->records[1], make_record(2, 63));

  // Repairing an intact, already compact journal rewrites the same bytes.
  const std::string repaired_bytes = slurp(out);
  const MergeStats clean = merge_journals({out}, out);
  EXPECT_FALSE(clean.inputs[0].damaged);
  EXPECT_EQ(clean.records_out, 2u);
  EXPECT_EQ(slurp(out), repaired_bytes);
}

TEST(Journal, RepairAndCompactThrowOnEmptyOrMissingFiles) {
  const std::string missing = temp_path("journal_not_there.sbstj");
  const std::string out = temp_path("journal_repair_out.sbstj");
  EXPECT_THROW(merge_journals({missing}, missing), std::runtime_error);
  EXPECT_THROW(merge_journals({missing}, out), std::runtime_error);
  const std::string empty = temp_path("journal_repair_empty.sbstj");
  spit(empty, "");
  EXPECT_THROW(merge_journals({empty}, empty), std::runtime_error);
  EXPECT_EQ(slurp(empty), "") << "a refused input is left as it was";
}

TEST(Journal, SessionSeedsOnlySalvagedGroupsAfterMidFileDamage) {
  const std::string path = temp_path("journal_session_salvage.sbstj");
  {
    JournalWriter w = JournalWriter::create(path, kMeta);
    for (std::uint64_t g : {0u, 1u, 2u, 3u}) w.add(make_record(g, 63));
  }
  std::string data = slurp(path);
  data[frame_range(data, 1).first + 13] ^= 0x04;
  spit(path, data);
  JournalSession session = open_journal_session(path, kMeta, false);
  ASSERT_TRUE(session.writer);
  EXPECT_EQ(session.stats.skipped_records, 1u);
  EXPECT_EQ(session.stats.salvaged, 3u);
  EXPECT_EQ(session.seeds.size(), 3u);
  EXPECT_EQ(session.seeds.count(1), 0u)
      << "the damaged group must re-simulate";
  for (std::uint64_t g : {0u, 2u, 3u}) EXPECT_EQ(session.seeds.count(g), 1u);
  session.writer->add(make_record(1, 63));
  session.writer.reset();
  const auto healed = load_journal(path, kMeta);
  ASSERT_TRUE(healed);
  EXPECT_FALSE(healed->damaged()) << "opening a session heals the file";
  EXPECT_EQ(healed->records.size(), 4u);
}

TEST(Journal, SessionHealOfDamagedJournalKeepsOneRecordPerGroup) {
  // Group 1 is superseded by a later record, and group 2's frame is
  // damaged. Opening the journal rewrites it to the winners: one record
  // per surviving group, and the same seeds a raw load's winners give.
  const std::string path = temp_path("journal_session_heal_dead.sbstj");
  {
    JournalWriter w = JournalWriter::create(path, kMeta);
    for (std::uint64_t g : {0u, 1u, 2u, 3u}) w.add(make_record(g, 63));
    fault::GroupRecord retry = make_record(1, 63);
    retry.cycles = 55555;
    w.add(retry);
  }
  std::string data = slurp(path);
  data[frame_range(data, 2).first + 13] ^= 0x04;
  spit(path, data);
  const auto damaged = load_journal(path, kMeta);
  ASSERT_TRUE(damaged);
  ASSERT_TRUE(damaged->damaged());
  const std::vector<fault::GroupRecord> winners =
      winning_records(damaged->records);
  ASSERT_EQ(winners.size(), 3u);

  JournalSession session = open_journal_session(path, kMeta, false);
  EXPECT_FALSE(session.compacted) << "1 dead record is below the threshold";
  ASSERT_EQ(session.seeds.size(), winners.size());
  for (const fault::GroupRecord& w : winners) {
    ASSERT_EQ(session.seeds.count(w.group), 1u);
    expect_equal(session.seeds.at(w.group), w);
  }
  session.writer.reset();

  const auto healed = load_journal(path, kMeta);
  ASSERT_TRUE(healed);
  EXPECT_FALSE(healed->damaged());
  ASSERT_EQ(healed->records.size(), winners.size())
      << "exactly one record per group";
  for (std::size_t i = 0; i < winners.size(); ++i) {
    expect_equal(healed->records[i], winners[i]);
  }
  EXPECT_EQ(healed->records[1].cycles, 55555u);

  // The healed file seeds exactly what the damaged one did.
  JournalSession resumed = open_journal_session(path, kMeta, false);
  EXPECT_EQ(resumed.stats.skipped_records, 0u);
  ASSERT_EQ(resumed.seeds.size(), session.seeds.size());
  for (const auto& [group, rec] : session.seeds) {
    expect_equal(resumed.seeds.at(group), rec);
  }
}

TEST(Journal, SessionAutoCompactsWhenDeadRecordsDominate) {
  const std::string path = temp_path("journal_autocompact.sbstj");
  {
    JournalWriter w = JournalWriter::create(path, kMeta);
    // 2 live groups, 8 records: dead (6) > kCompactDeadFactor (2) x live.
    for (int attempt = 0; attempt < 4; ++attempt) {
      for (std::uint64_t g : {0u, 1u}) {
        fault::GroupRecord rec = make_record(g, 63);
        rec.cycles = 100 * static_cast<std::uint64_t>(attempt + 1) + g;
        w.add(rec);
      }
    }
  }
  const std::size_t before = slurp(path).size();
  JournalSession session = open_journal_session(path, kMeta, false);
  EXPECT_TRUE(session.compacted);
  EXPECT_EQ(session.seeds.size(), 2u);
  EXPECT_EQ(session.seeds.at(0).cycles, 400u) << "latest attempt seeds";
  EXPECT_EQ(session.seeds.at(1).cycles, 401u);
  session.writer.reset();
  EXPECT_LT(slurp(path).size(), before);
  const auto loaded = load_journal(path, kMeta);
  ASSERT_TRUE(loaded);
  EXPECT_FALSE(loaded->damaged());
  EXPECT_EQ(loaded->records.size(), 2u);

  // At or below the threshold (dead == 2 x live) nothing is rewritten.
  JournalSession again = open_journal_session(path, kMeta, false);
  EXPECT_FALSE(again.compacted);
}

TEST(Journal, RawLoadTrustsTheHeaderItFinds) {
  const std::string path = temp_path("journal_rawload.sbstj");
  {
    JournalWriter w = JournalWriter::create(path, kMeta);
    w.add(make_record(7, 63));
  }
  const auto loaded = load_journal_raw(path);
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->meta.fingerprint, kMeta.fingerprint);
  EXPECT_EQ(loaded->meta.num_groups, kMeta.num_groups);
  EXPECT_EQ(loaded->meta.num_faults, kMeta.num_faults);
  ASSERT_EQ(loaded->records.size(), 1u);
  expect_equal(loaded->records[0], make_record(7, 63));
  EXPECT_FALSE(load_journal_raw(temp_path("journal_rawload_nope.sbstj")));
}

TEST(Journal, RejectsCorruptHeader) {
  const std::string path = temp_path("journal_badheader.sbstj");
  { JournalWriter::create(path, kMeta); }
  std::string data = slurp(path);
  data[10] ^= 0x01;  // flip a fingerprint bit, CRC now mismatches
  spit(path, data);
  EXPECT_THROW(load_journal(path, kMeta), std::runtime_error);
}

// --- Record frames over a pipe: the --isolate worker's result stream ---

struct Pipe {
  int fds[2] = {-1, -1};
  Pipe() { EXPECT_EQ(::pipe(fds), 0); }
  ~Pipe() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }
  int r() const { return fds[0]; }
  int w() const { return fds[1]; }
  void put(const std::string& bytes) const {
    ASSERT_EQ(::write(fds[1], bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
  }
  void close_write() {
    ::close(fds[1]);
    fds[1] = -1;
  }
};

std::string frame_header(std::uint32_t len, std::uint32_t crc) {
  std::string out(8, '\0');
  std::memcpy(out.data(), &len, 4);
  std::memcpy(out.data() + 4, &crc, 4);
  return out;
}

TEST(JournalFrame, RoundTripsOverAPipe) {
  fault::GroupRecord quarantined = make_record(4, 63);
  quarantined.quarantined = true;
  quarantined.error.term_signal = SIGKILL;
  quarantined.error.attempts = 3;
  quarantined.error.max_rss_kb = 4096;
  const fault::GroupRecord sent[] = {make_record(7, 63), make_record(9, 5),
                                     quarantined};
  Pipe p;
  for (const fault::GroupRecord& rec : sent) p.put(encode_record_frame(rec));
  for (const fault::GroupRecord& rec : sent) {
    fault::GroupRecord got;
    ASSERT_TRUE(read_record_frame(p.r(), &got));
    expect_equal(got, rec);
    EXPECT_EQ(got.quarantined, rec.quarantined);
    EXPECT_EQ(got.error.term_signal, rec.error.term_signal);
    EXPECT_EQ(got.error.attempts, rec.error.attempts);
    EXPECT_EQ(got.error.max_rss_kb, rec.error.max_rss_kb);
  }
}

TEST(JournalFrame, EofBetweenFramesFailsCleanly) {
  Pipe p;
  p.put(encode_record_frame(make_record(1, 63)));
  p.close_write();
  fault::GroupRecord got;
  ASSERT_TRUE(read_record_frame(p.r(), &got));
  EXPECT_FALSE(read_record_frame(p.r(), &got))
      << "EOF must read as failure, not hang";
}

TEST(JournalFrame, EofInsideAFrameFailsCleanly) {
  // A worker's single write of a frame is atomic, but a reader can still
  // see a frame cut short — inside the header or inside the payload.
  const std::string frame = encode_record_frame(make_record(2, 63));
  for (std::size_t cut : {std::size_t{3}, std::size_t{8}, frame.size() - 1}) {
    Pipe p;
    p.put(frame.substr(0, cut));
    p.close_write();
    fault::GroupRecord got;
    EXPECT_FALSE(read_record_frame(p.r(), &got)) << "cut at " << cut;
  }
}

TEST(JournalFrame, OversizedLengthIsRejectedWithoutReadingIt) {
  // The length is checked before a payload byte is read: the bytes behind
  // the header stay in the pipe. A reader that trusted the length would
  // consume them (the read end is non-blocking, so it cannot hang).
  // A quarantined 63-fault record carries every optional section: the
  // largest valid payload.
  fault::GroupRecord largest = make_record(0, 63);
  largest.quarantined = true;
  const auto max_payload =
      static_cast<std::uint32_t>(encode_record_frame(largest).size() - 8);
  for (std::uint32_t len : {0xffffffffu, 0x80000000u, max_payload + 1}) {
    Pipe p;
    ASSERT_EQ(::fcntl(p.r(), F_SETFL, O_NONBLOCK), 0);
    p.put(frame_header(len, 0xdeadbeef) + "tail");
    fault::GroupRecord got;
    EXPECT_FALSE(read_record_frame(p.r(), &got)) << "len " << len;
    char rest[8] = {};
    EXPECT_EQ(::read(p.r(), rest, sizeof(rest)), 4) << "len " << len;
    EXPECT_EQ(std::string(rest, 4), "tail") << "len " << len;
  }
}

TEST(JournalFrame, FlippedPayloadBitFailsTheCrc) {
  const std::string frame = encode_record_frame(make_record(3, 63));
  // A flip in the detect-cycle table still decodes as a payload, so only
  // the CRC can catch it.
  std::string bad = frame;
  bad[8 + 40] ^= 0x01;
  fault::GroupRecord decoded;
  ASSERT_TRUE(decode_record_payload(bad.substr(8), &decoded));
  Pipe p;
  p.put(bad);
  p.put(frame);
  fault::GroupRecord got;
  EXPECT_FALSE(read_record_frame(p.r(), &got));
}

TEST(JournalFrame, PipeBytesEqualTheJournalWritersFrame) {
  const std::string path = temp_path("journal_frame_file.sbstj");
  fault::GroupRecord rec = make_record(6, 63);
  { JournalWriter::create(path, kMeta).add(rec); }
  const std::string file = slurp(path);
  Pipe p;
  p.put(encode_record_frame(rec));
  p.close_write();
  std::string wire;
  char buf[256];
  ssize_t n;
  while ((n = ::read(p.r(), buf, sizeof(buf))) > 0) wire.append(buf, n);
  EXPECT_EQ(wire, file.substr(kHeaderBytes))
      << "one record frame on disk and on the wire";

  // And the fd reader reads the journal file itself.
  const int fd = ::open(path.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::lseek(fd, static_cast<off_t>(kHeaderBytes), SEEK_SET),
            static_cast<off_t>(kHeaderBytes));
  fault::GroupRecord got;
  EXPECT_TRUE(read_record_frame(fd, &got));
  expect_equal(got, rec);
  EXPECT_FALSE(read_record_frame(fd, &got)) << "EOF after the last frame";
  ::close(fd);
}

}  // namespace
}  // namespace sbst::campaign
