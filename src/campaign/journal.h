// Append-only, CRC32-framed journal of per-group fault-simulation
// results — the durability layer of a grading campaign.
//
// Layout (all integers host-endian, written/read with memcpy):
//
//   header   "SBSTJRN1" | fingerprint u64 | num_groups u64 |
//            num_faults u64 | crc32(previous 24 bytes) u32
//   record*  payload_len u32 | crc32(payload) u32 | payload
//   payload  group u64 | count u32 | flags u8 (bit0 = timed_out,
//            bit1 = quarantined, bit2 = has work section) |
//            detected_mask u64 | cycles u64 |
//            count x detect_cycle i64
//            [iff quarantined: term_signal i32 | exit_code i32 |
//             attempts u32 | max_rss_kb u64 | cpu_ms u64]
//            [iff bit2: gates_evaluated u64 | sim_cycles u64 |
//             engine_used u8 — written by every run since work
//             accounting; older journals decode with zero counters]
//
// Records are appended (and made durable per JournalWriter's
// Durability policy) as fault groups finish, in completion order —
// group indices are NOT sorted. The record frame is also the wire
// format of an --isolate worker's results (read_record_frame), so disk
// and pipe share one encoding and one validation.
//
// Self-healing: each frame carries its own length and CRC, so damage is
// contained to the records it touches. load_journal() *salvages*: on a
// corrupt frame it scans forward for the next frame whose CRC and
// payload validate, skips the damaged span, and keeps going — a flipped
// bit, a zeroed page or a torn-out chunk in the middle of a multi-hour
// campaign's journal loses only the records it damaged, and resume
// re-simulates exactly those groups. A torn *tail* (crash mid-append)
// is the degenerate case: nothing to resync onto, the tail is dropped.
// Retries and quarantine-heals append superseding records, so a
// long-lived journal accumulates dead records. Every reader resolves a
// group to its latest record (winning_records): merge, compaction and
// repair (both a merge of one journal), resume seeding and
// `sbst stats --journal`. So every rewrite writes those winners and
// nothing else: opening a damaged or dead-heavy journal for a campaign,
// and the offline merge.
//
// The fingerprint in the header ties the journal to one exact campaign
// (netlist + fault list + program + sampling + cycle bound); resuming
// with a different campaign is an error, not silent corruption.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "fault/faultsim.h"
#include "util/atomic_file.h"

namespace sbst::campaign {

struct JournalMeta {
  std::uint64_t fingerprint = 0;
  std::uint64_t num_groups = 0;
  std::uint64_t num_faults = 0;
};

/// What the salvaging loader recovered and what it had to give up.
struct JournalLoadStats {
  /// Intact records recovered (including any after damaged spans).
  std::size_t salvaged = 0;
  /// Damaged interior spans skipped by resynchronization. Each span
  /// covers at least one destroyed record (exact record counts are
  /// unknowable — the length fields inside the span are untrusted).
  std::size_t skipped_records = 0;
  /// Bytes inside those interior spans (the torn tail is counted
  /// separately in JournalLoad::dropped_bytes).
  std::size_t skipped_bytes = 0;
};

struct JournalLoad {
  JournalMeta meta;
  /// Records in file (= completion) order. A group may appear more than
  /// once — e.g. a timed-out group re-simulated on a retry run — and
  /// the later record supersedes the earlier one.
  std::vector<fault::GroupRecord> records;
  /// Salvage accounting: how many records survived, how many damaged
  /// spans were skipped and how many bytes they held.
  JournalLoadStats stats;
  /// True when a torn/corrupt tail was detected and dropped (no later
  /// frame to resynchronize onto).
  bool truncated = false;
  std::size_t dropped_bytes = 0;
  /// Size of the file, damaged spans and torn tail included.
  std::size_t file_bytes = 0;
  /// True when the file existed but was zero-length — e.g. created by a
  /// crash before the header landed, or touch(1)'d. Not an error: the
  /// campaign starts fresh ("empty journal"), it is not a corrupt tail.
  bool empty_file = false;

  bool damaged() const { return truncated || stats.skipped_records != 0; }
};

/// Parses the journal at `path`, salvaging around damaged records.
/// Returns nullopt when the file does not exist (a fresh campaign); a
/// zero-length file loads with `empty_file` set and no records (also a
/// fresh start, reported as such rather than as corruption). Throws
/// std::runtime_error when the header is unreadable/corrupt or does not
/// match `expect` — a journal from a different campaign must never be
/// spliced into this one.
std::optional<JournalLoad> load_journal(const std::string& path,
                                        const JournalMeta& expect);

/// Same salvaging load, but trusts the header it finds instead of
/// checking it against an expected campaign — the basis of the offline
/// `sbst journal` tools, which operate on a journal without being able
/// to reconstruct its campaign. Header corruption still throws: with
/// the fingerprint gone the records cannot be attributed to any
/// campaign, so there is nothing safe to salvage them into.
std::optional<JournalLoad> load_journal_raw(const std::string& path);

/// Append-only record writer. Every add() writes one complete frame and
/// makes it durable per the configured policy, so a killed process
/// loses at most the record being written — which the next load
/// detects and drops.
class JournalWriter {
 public:
  /// Creates `path` (replacing any previous content) with a fresh header.
  static JournalWriter create(const std::string& path, const JournalMeta& meta,
                              util::Durability durability =
                                  util::Durability::kFlush);

  /// Opens an existing, undamaged journal for appending. A damaged one
  /// must be rewritten first (open_journal_session does), or new records
  /// would land after garbage.
  static JournalWriter append(const std::string& path,
                              util::Durability durability =
                                  util::Durability::kFlush);

  JournalWriter(JournalWriter&& other) noexcept;
  JournalWriter& operator=(JournalWriter&& other) noexcept;
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;
  ~JournalWriter();

  /// Appends one framed, checksummed record and applies the durability
  /// policy (kFlush: fflush; kFsync: fflush + fsync). Throws
  /// std::runtime_error on I/O failure.
  void add(const fault::GroupRecord& rec);

 private:
  explicit JournalWriter(std::FILE* f, std::string path,
                         util::Durability durability);

  std::FILE* f_ = nullptr;
  std::string path_;
  util::Durability durability_ = util::Durability::kFlush;
};

/// Serializes one record payload (without the length/CRC frame) —
/// exposed for tests that need to build corrupt journals.
std::string encode_record_payload(const fault::GroupRecord& rec);

/// Inverse of encode_record_payload. Returns false on any malformed
/// payload (bad sizes, count > 63) without touching `rec`'s validity
/// guarantees.
bool decode_record_payload(std::string_view payload, fault::GroupRecord* rec);

/// One framed record, `len u32 | crc32 u32 | payload`: the only byte
/// encoding of a GroupRecord, on disk and on a worker's result pipe. At
/// most a few hundred bytes, far below PIPE_BUF, so one write(2) of it
/// to a pipe is atomic.
std::string encode_record_frame(const fault::GroupRecord& rec);

/// Blocking read of one record frame from a pipe or file descriptor.
/// Returns false on EOF before or inside the frame, on a read error, on
/// a length above the largest valid payload (rejected before reading
/// or allocating it), on a CRC mismatch and on a malformed payload.
bool read_record_frame(int fd, fault::GroupRecord* rec);

/// Serializes a complete journal: header + one frame per record, in
/// order. Every journal rewrite writes its winning records this way
/// (SBSTJRN1 throughout, so old readers load the output unchanged).
std::string encode_journal(const JournalMeta& meta,
                           const std::vector<fault::GroupRecord>& records);

/// Collapses `records` (file order) to the winning — latest — record
/// per group, returned sorted by group for deterministic output.
std::vector<fault::GroupRecord> winning_records(
    const std::vector<fault::GroupRecord>& records);

/// Per-input accounting of a multi-journal load: what each input
/// brought and how much of it survived conflict resolution.
struct MergeInputStats {
  std::string path;
  std::size_t records = 0;  // intact records contributed (file order)
  std::size_t winners = 0;  // of those, records that won their group
  std::size_t bytes = 0;    // JournalLoad::file_bytes
  std::size_t skipped_spans = 0;  // damaged interior spans salvage skipped
  std::size_t dropped_bytes = 0;  // torn tail salvage dropped
  bool damaged = false;     // salvage dropped spans/tail from this input
};

/// Several journals of one campaign, loaded as one. Records are
/// concatenated in input order, so a later input supersedes an earlier
/// one the way a later append does within one file.
struct JournalSet {
  JournalMeta meta;  // the first input's header, shared by every input
  std::vector<fault::GroupRecord> records;
  std::vector<std::size_t> source;  // records[i] came from inputs[source[i]]
  std::vector<MergeInputStats> inputs;  // `winners` left at zero
};

/// Salvages every input like load_journal_raw. Throws on no input, a
/// missing, empty or corrupt-header file, and on an input whose
/// fingerprint, num_groups or num_faults differ from the first one's —
/// folding foreign campaigns together would be silent corruption.
JournalSet load_journals(const std::vector<std::string>& paths);

struct MergeStats {
  JournalMeta meta;
  std::vector<MergeInputStats> inputs;
  std::size_t records_in = 0;   // sum of intact input records
  std::size_t records_out = 0;  // distinct groups in the merged journal
  std::size_t bytes_in = 0;     // sum of input file sizes
  std::size_t bytes_out = 0;    // size of the merged journal
};

/// Writes the winning records of load_journals(inputs) to `out`,
/// atomically. A group present in several shards (re-dispatch races, a
/// quarantined copy later healed) resolves to the record appending all
/// inputs into one file would have kept; lost records of damaged inputs
/// re-simulate on resume. With one input this is compaction, and
/// repair: the output is undamaged and always passes a verify sweep.
MergeStats merge_journals(const std::vector<std::string>& inputs,
                          const std::string& out,
                          util::Durability durability =
                              util::Durability::kFsync);

/// One campaign's journal, opened for seeding + appending — the shared
/// storage half of both campaign execution modes (in-process threads and
/// the process-isolation supervisor).
struct JournalSession {
  /// Engaged iff a journal path was configured.
  std::optional<JournalWriter> writer;
  /// Winning record per group from previous runs (winning_records);
  /// groups present here are seeded instead of simulated.
  std::unordered_map<std::uint64_t, fault::GroupRecord> seeds;
  /// Salvage accounting from the load (skipped spans re-simulate).
  JournalLoadStats stats;
  bool truncated = false;   // a torn tail was dropped on load
  bool was_empty = false;   // file existed but held no records
  bool compacted = false;   // dead records exceeded the auto-compaction
                            // threshold (the file was rewritten)
};

/// Auto-compaction trigger: a journal whose dead (superseded) records
/// outnumber live ones by more than this factor is rewritten at open.
constexpr std::size_t kCompactDeadFactor = 2;

/// Loads (or creates) the journal at `path` for the campaign identified
/// by `meta` and seeds from its winning records. When
/// `retry_inconclusive` is set, timed-out and quarantined winners are
/// left out of the seeds so those groups re-simulate (their superseding
/// records win on the next load). A damaged journal, or one whose dead
/// records exceed kCompactDeadFactor x live ones, is rewritten once to
/// those same winners before appending, so a rewrite never changes what
/// a resume sees. Empty `path` returns a session with no writer and no
/// seeds.
JournalSession open_journal_session(const std::string& path,
                                    const JournalMeta& meta,
                                    bool retry_inconclusive,
                                    util::Durability durability =
                                        util::Durability::kFlush);

}  // namespace sbst::campaign
