// Conflict contract of journal merge: merging shard journals resolves a
// group present in several inputs exactly the way in-journal compaction
// resolves duplicate appends — the latest record wins, with later
// inputs playing the role of later appends. Identity is checked before
// any record moves: inputs from a different campaign are refused, and
// damaged inputs degrade to "their lost groups re-simulate on resume",
// never to wrong records.
#include "campaign/journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace sbst::campaign {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

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

/// Deterministic record whose payload depends on (group, salt) so two
/// records for the same group are distinguishable after a merge.
fault::GroupRecord make_record(std::uint64_t group, std::uint32_t salt) {
  fault::GroupRecord r;
  r.group = group;
  r.count = 63;
  r.detected_mask = (group * 0x9E3779B9u + salt) & 0x7fffffffffffffffull;
  r.cycles = 1000 + group * 10 + salt;
  r.detect_cycle.resize(r.count);
  for (std::uint32_t i = 0; i < r.count; ++i) {
    r.detect_cycle[i] = ((r.detected_mask >> i) & 1)
                            ? static_cast<std::int64_t>(group * 100 + i)
                            : -1;
  }
  r.gates_evaluated = group * 100003 + salt;
  r.sim_cycles = group * 977 + salt + 1;
  r.engine_used = fault::GroupEngine::kSweep;
  return r;
}

fault::GroupRecord make_quarantined(std::uint64_t group) {
  fault::GroupRecord r;
  r.group = group;
  r.count = 63;
  r.quarantined = true;
  r.detect_cycle.assign(r.count, -1);
  r.error.term_signal = 11;
  r.error.attempts = 3;
  return r;
}

void expect_equal(const fault::GroupRecord& a, const fault::GroupRecord& b) {
  EXPECT_EQ(a.group, b.group);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.timed_out, b.timed_out);
  EXPECT_EQ(a.quarantined, b.quarantined);
  EXPECT_EQ(a.detected_mask, b.detected_mask);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.detect_cycle, b.detect_cycle);
  EXPECT_EQ(a.gates_evaluated, b.gates_evaluated);
  EXPECT_EQ(a.sim_cycles, b.sim_cycles);
  EXPECT_EQ(a.engine_used, b.engine_used);
}

const JournalMeta kMeta{0xabcdef0123456789ull, 8, 504};

std::string write_journal(const char* name,
                          const std::vector<fault::GroupRecord>& records,
                          const JournalMeta& meta = kMeta) {
  const std::string path = temp_path(name);
  JournalWriter w = JournalWriter::create(path, meta);
  for (const fault::GroupRecord& r : records) w.add(r);
  return path;
}

// The same group in three journals — a quarantined first attempt, a
// healed re-run, and a re-dispatched runner's copy — must resolve to
// exactly the record that appending all inputs into ONE journal and
// compacting it would keep.
TEST(JournalMerge, ConflictResolutionMatchesCompaction) {
  const std::vector<fault::GroupRecord> a = {
      make_record(0, 1), make_quarantined(2), make_record(4, 1)};
  const std::vector<fault::GroupRecord> b = {
      make_record(1, 2), make_record(3, 2), make_record(2, 2)};
  const std::vector<fault::GroupRecord> c = {make_record(2, 3)};
  const std::string pa = write_journal("merge_a.sbstj", a);
  const std::string pb = write_journal("merge_b.sbstj", b);
  const std::string pc = write_journal("merge_c.sbstj", c);

  const std::string merged = temp_path("merge_out.sbstj");
  const MergeStats ms = merge_journals({pa, pb, pc}, merged);
  EXPECT_EQ(ms.meta.fingerprint, kMeta.fingerprint);
  EXPECT_EQ(ms.records_in, 7u);
  EXPECT_EQ(ms.records_out, 5u);  // groups 0..4

  // Reference, built without merge: one journal holding the same
  // records in append order, reduced to its winners and re-encoded.
  std::vector<fault::GroupRecord> all = a;
  all.insert(all.end(), b.begin(), b.end());
  all.insert(all.end(), c.begin(), c.end());
  const auto appended =
      load_journal_raw(write_journal("merge_ref.sbstj", all));
  ASSERT_TRUE(appended);
  EXPECT_EQ(slurp(merged),
            encode_journal(kMeta, winning_records(appended->records)));

  const auto mload = load_journal(merged, kMeta);
  ASSERT_TRUE(mload);
  ASSERT_EQ(mload->records.size(), 5u);
  // The healed group carries the last input's record, not the
  // quarantined one.
  expect_equal(mload->records[2], make_record(2, 3));

  // Per-input contribution accounting: the quarantined and first healed
  // copies of group 2 lost to the later input.
  ASSERT_EQ(ms.inputs.size(), 3u);
  EXPECT_EQ(ms.inputs[0].records, 3u);
  EXPECT_EQ(ms.inputs[0].winners, 2u);
  EXPECT_EQ(ms.inputs[1].records, 3u);
  EXPECT_EQ(ms.inputs[1].winners, 2u);
  EXPECT_EQ(ms.inputs[2].records, 1u);
  EXPECT_EQ(ms.inputs[2].winners, 1u);
  EXPECT_FALSE(ms.inputs[0].damaged);
}

TEST(JournalMerge, ForeignCampaignRefused) {
  const std::string pa = write_journal("merge_fp_a.sbstj", {make_record(0, 1)});
  JournalMeta other = kMeta;
  other.fingerprint ^= 1;
  const std::string pb =
      write_journal("merge_fp_b.sbstj", {make_record(1, 1)}, other);
  const std::string out = temp_path("merge_fp_out.sbstj");
  EXPECT_THROW(merge_journals({pa, pb}, out), std::runtime_error);

  // A different group universe is a different campaign too.
  JournalMeta wider = kMeta;
  wider.num_groups += 1;
  const std::string pc =
      write_journal("merge_fp_c.sbstj", {make_record(1, 1)}, wider);
  EXPECT_THROW(merge_journals({pa, pc}, out), std::runtime_error);
  // The refused merge must not have produced an output file.
  EXPECT_FALSE(load_journal_raw(out));
}

TEST(JournalMerge, MissingEmptyOrNoInputsRefused) {
  const std::string out = temp_path("merge_bad_out.sbstj");
  EXPECT_THROW(merge_journals({}, out), std::runtime_error);
  EXPECT_THROW(merge_journals({temp_path("merge_nonexistent.sbstj")}, out),
               std::runtime_error);
  const std::string empty = temp_path("merge_empty.sbstj");
  spit(empty, "");
  EXPECT_THROW(merge_journals({empty}, out), std::runtime_error);
}

// A shard journal with a torn tail (runner killed mid-append) merges:
// the torn record is dropped, the input is flagged damaged, and the
// missing group simply stays absent — resume re-simulates it.
TEST(JournalMerge, DamagedInputSalvagedAndFlagged) {
  const std::string pa = write_journal(
      "merge_dmg_a.sbstj", {make_record(0, 1), make_record(2, 1)});
  const std::string pb = write_journal(
      "merge_dmg_b.sbstj", {make_record(1, 1), make_record(3, 1)});
  std::string data = slurp(pb);
  data.resize(data.size() - 9);  // tear the final frame
  spit(pb, data);

  const std::string out = temp_path("merge_dmg_out.sbstj");
  const MergeStats ms = merge_journals({pa, pb}, out);
  ASSERT_EQ(ms.inputs.size(), 2u);
  EXPECT_FALSE(ms.inputs[0].damaged);
  EXPECT_TRUE(ms.inputs[1].damaged);
  EXPECT_EQ(ms.inputs[1].records, 1u);
  EXPECT_EQ(ms.records_out, 3u);  // groups 0, 1, 2 — group 3 was torn

  const auto loaded = load_journal(out, kMeta);
  ASSERT_TRUE(loaded);
  EXPECT_FALSE(loaded->damaged()) << "merged output must be clean";
  ASSERT_EQ(loaded->records.size(), 3u);
  EXPECT_EQ(loaded->records[0].group, 0u);
  EXPECT_EQ(loaded->records[1].group, 1u);
  EXPECT_EQ(loaded->records[2].group, 2u);
}

// Merge output is itself a journal: merging merges (e.g. two machines'
// partial merges) behaves like one big merge.
TEST(JournalMerge, MergeOfMergesIsStable) {
  const std::string pa = write_journal("merge_m_a.sbstj", {make_record(0, 1)});
  const std::string pb = write_journal("merge_m_b.sbstj", {make_record(1, 1)});
  const std::string pc = write_journal("merge_m_c.sbstj", {make_record(2, 1)});
  const std::string m1 = temp_path("merge_m_ab.sbstj");
  merge_journals({pa, pb}, m1);
  const std::string m2 = temp_path("merge_m_abc.sbstj");
  const MergeStats ms = merge_journals({m1, pc}, m2);
  EXPECT_EQ(ms.records_out, 3u);

  const std::string flat = temp_path("merge_m_flat.sbstj");
  merge_journals({pa, pb, pc}, flat);
  EXPECT_EQ(slurp(m2), slurp(flat)) << "merge must be associative here";
}

}  // namespace
}  // namespace sbst::campaign
