#include "campaign/journal.h"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/atomic_file.h"
#include "util/child.h"
#include "util/crc32.h"
#include "util/faulty_io.h"

namespace sbst::campaign {

namespace {

constexpr char kMagic[8] = {'S', 'B', 'S', 'T', 'J', 'R', 'N', '1'};
constexpr std::size_t kHeaderBytes = 8 + 3 * 8 + 4;
// term_signal + exit_code + attempts + max_rss_kb + cpu_ms, present only
// on quarantined records (flags bit1).
constexpr std::size_t kErrorBytes = 4 + 4 + 4 + 8 + 8;
// gates_evaluated + sim_cycles + engine_used, present when flags bit2 is
// set (every record written since work accounting; absent in journals
// from older runs, which decode with zero counters).
constexpr std::size_t kWorkBytes = 8 + 8 + 1;
// Four per-base-op evaluation tallies, present when flags bit3 is set
// (every record written since per-kind accounting; older journals
// decode with zero tallies).
constexpr std::size_t kKindBytes = 4 * 8;
// group + count + flags + detected_mask + cycles + 63 detect cycles
// + optional quarantine error + optional work/kind sections.
constexpr std::size_t kMaxPayload =
    8 + 4 + 1 + 8 + 8 + 63 * 8 + kErrorBytes + kWorkBytes + kKindBytes;
// Smallest well-formed frame: len + crc + a zero-fault legacy payload.
// Resynchronization never needs to look for anything shorter.
constexpr std::size_t kMinFrame = 4 + 4 + (8 + 4 + 1 + 8 + 8);

template <typename T>
void put(std::string& out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out.append(buf, sizeof(T));
}

template <typename T>
bool get(std::string_view in, std::size_t& off, T* v) {
  if (in.size() - off < sizeof(T)) return false;
  std::memcpy(v, in.data() + off, sizeof(T));
  off += sizeof(T);
  return true;
}

std::string encode_header(const JournalMeta& meta) {
  std::string out(kMagic, sizeof(kMagic));
  put(out, meta.fingerprint);
  put(out, meta.num_groups);
  put(out, meta.num_faults);
  put(out, util::crc32(out.data() + sizeof(kMagic), 3 * 8));
  return out;
}

/// Checks a frame's payload against the frame's CRC, then decodes it:
/// the validation shared by the file loader and the pipe reader.
bool decode_frame_payload(std::uint32_t crc, std::string_view payload,
                          fault::GroupRecord* rec) {
  return util::crc32(payload.data(), payload.size()) == crc &&
         decode_record_payload(payload, rec);
}

/// Parses one framed record starting at `off`. Returns true and advances
/// `off` past the frame on success; false on any torn/corrupt frame
/// (leaving `off` at the frame start).
bool parse_record(const std::string& data, std::size_t& off,
                  fault::GroupRecord* rec) {
  std::size_t p = off;
  std::uint32_t len = 0, crc = 0;
  if (!get(data, p, &len) || !get(data, p, &crc)) return false;
  if (len > kMaxPayload || data.size() - p < len) return false;
  if (!decode_frame_payload(crc, std::string_view(data).substr(p, len), rec)) {
    return false;
  }
  off = p + len;
  return true;
}

/// Scans forward from `from` for the next offset where a complete frame
/// validates (length sane, CRC matches, payload decodes). Returns
/// std::string::npos when no later frame exists — the damage runs to
/// the end of the file. A false resync needs a 32-bit CRC collision
/// *and* a structurally valid payload at a random offset, so in
/// practice the first hit is a real frame boundary.
std::size_t find_resync(const std::string& data, std::size_t from) {
  fault::GroupRecord scratch;
  for (std::size_t cand = from; cand + kMinFrame <= data.size(); ++cand) {
    std::size_t p = cand;
    if (parse_record(data, p, &scratch)) return cand;
  }
  return std::string::npos;
}

/// The salvaging load shared by the campaign path (expect != nullptr:
/// the header must match this campaign) and the offline tools
/// (expect == nullptr: trust the header found).
std::optional<JournalLoad> load_impl(const std::string& path,
                                     const JournalMeta* expect) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string data = ss.str();

  if (data.empty()) {
    // Zero-length file: a crash before the header landed, or a touched
    // placeholder. Nothing was recorded, so this is an empty journal and
    // a fresh start — not corruption.
    JournalLoad out;
    if (expect != nullptr) out.meta = *expect;
    out.empty_file = true;
    return out;
  }
  if (data.size() < kHeaderBytes ||
      std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error(path + " is not a campaign journal");
  }
  JournalLoad out;
  out.file_bytes = data.size();
  std::size_t off = sizeof(kMagic);
  std::uint32_t hcrc = 0;
  get(data, off, &out.meta.fingerprint);
  get(data, off, &out.meta.num_groups);
  get(data, off, &out.meta.num_faults);
  get(data, off, &hcrc);
  if (util::crc32(data.data() + sizeof(kMagic), 3 * 8) != hcrc) {
    throw std::runtime_error(path + ": journal header checksum mismatch");
  }
  if (expect != nullptr &&
      (out.meta.fingerprint != expect->fingerprint ||
       out.meta.num_groups != expect->num_groups ||
       out.meta.num_faults != expect->num_faults)) {
    throw std::runtime_error(
        path +
        " records a different campaign (program, netlist, sampling or "
        "cycle budget changed); delete it or pass a fresh --journal path");
  }

  fault::GroupRecord rec;
  while (off < data.size()) {
    const std::size_t frame_start = off;
    if (parse_record(data, off, &rec)) {
      out.records.push_back(std::move(rec));
      continue;
    }
    // Damaged frame. Resynchronize on the next validating frame and
    // count what the damage destroyed; with no later frame the damage
    // is a torn tail and the loop ends.
    const std::size_t next = find_resync(data, frame_start + 1);
    if (next == std::string::npos) break;
    ++out.stats.skipped_records;
    out.stats.skipped_bytes += next - frame_start;
    off = next;
  }
  out.truncated = off < data.size();
  out.dropped_bytes = data.size() - off;
  out.stats.salvaged = out.records.size();
  return out;
}

}  // namespace

std::string encode_record_payload(const fault::GroupRecord& rec) {
  std::string out;
  put(out, rec.group);
  put(out, rec.count);
  put(out, static_cast<std::uint8_t>((rec.timed_out ? 1 : 0) |
                                     (rec.quarantined ? 2 : 0) | 4 | 8));
  put(out, rec.detected_mask);
  put(out, rec.cycles);
  for (std::int64_t c : rec.detect_cycle) put(out, c);
  if (rec.quarantined) {
    put(out, rec.error.term_signal);
    put(out, rec.error.exit_code);
    put(out, rec.error.attempts);
    put(out, rec.error.max_rss_kb);
    put(out, rec.error.cpu_ms);
  }
  // Work section (flags bit2, always written since work accounting):
  // keeps campaign-wide gate/cycle aggregates exact across --isolate
  // wire transfers and journal resumes.
  put(out, rec.gates_evaluated);
  put(out, rec.sim_cycles);
  put(out, static_cast<std::uint8_t>(rec.engine_used));
  // Per-kind section (flags bit3): base-op evaluation tallies.
  for (std::uint64_t k : rec.evals_by_kind) put(out, k);
  return out;
}

bool decode_record_payload(std::string_view payload, fault::GroupRecord* rec) {
  std::size_t q = 0;
  std::uint8_t flags = 0;
  fault::GroupRecord r;
  if (!get(payload, q, &r.group) || !get(payload, q, &r.count) ||
      !get(payload, q, &flags) || !get(payload, q, &r.detected_mask) ||
      !get(payload, q, &r.cycles)) {
    return false;
  }
  r.timed_out = (flags & 1) != 0;
  r.quarantined = (flags & 2) != 0;
  // bit2: record carries a work-counter section. Journals written before
  // work accounting existed lack it; their records decode with zero
  // counters (honest: that work was never measured).
  const bool has_work = (flags & 4) != 0;
  // bit3: record carries per-base-op evaluation tallies (zero when
  // decoded from journals that predate them).
  const bool has_kinds = (flags & 8) != 0;
  const std::size_t tail = r.count * sizeof(std::int64_t) +
                           (r.quarantined ? kErrorBytes : 0) +
                           (has_work ? kWorkBytes : 0) +
                           (has_kinds ? kKindBytes : 0);
  if (r.count > 63 || payload.size() - q != tail) return false;
  r.detect_cycle.resize(r.count);
  for (std::uint32_t i = 0; i < r.count; ++i) {
    get(payload, q, &r.detect_cycle[i]);
  }
  if (r.quarantined) {
    get(payload, q, &r.error.term_signal);
    get(payload, q, &r.error.exit_code);
    get(payload, q, &r.error.attempts);
    get(payload, q, &r.error.max_rss_kb);
    get(payload, q, &r.error.cpu_ms);
  }
  if (has_work) {
    std::uint8_t engine = 0;
    get(payload, q, &r.gates_evaluated);
    get(payload, q, &r.sim_cycles);
    get(payload, q, &engine);
    if (engine > static_cast<std::uint8_t>(fault::GroupEngine::kSweep)) {
      return false;
    }
    r.engine_used = static_cast<fault::GroupEngine>(engine);
  }
  if (has_kinds) {
    for (std::uint64_t& k : r.evals_by_kind) get(payload, q, &k);
  }
  *rec = std::move(r);
  return true;
}

std::string encode_record_frame(const fault::GroupRecord& rec) {
  const std::string payload = encode_record_payload(rec);
  std::string frame;
  frame.reserve(8 + payload.size());
  put(frame, static_cast<std::uint32_t>(payload.size()));
  put(frame, util::crc32(payload.data(), payload.size()));
  frame += payload;
  return frame;
}

bool read_record_frame(int fd, fault::GroupRecord* rec) {
  std::uint32_t head[2] = {0, 0};  // len, crc
  if (!util::read_full(fd, head, sizeof(head)) || head[0] > kMaxPayload) {
    return false;
  }
  char payload[kMaxPayload] = {};
  return util::read_full(fd, payload, head[0]) &&
         decode_frame_payload(head[1], std::string_view(payload, head[0]),
                              rec);
}

std::string encode_journal(const JournalMeta& meta,
                           const std::vector<fault::GroupRecord>& records) {
  std::string out = encode_header(meta);
  for (const fault::GroupRecord& rec : records) {
    out += encode_record_frame(rec);
  }
  return out;
}

namespace {

/// The one journal rewrite: `records` (the winners) under `meta`'s
/// header, swapped in atomically. Returns the bytes written.
std::size_t write_journal(const std::string& path, const JournalMeta& meta,
                          const std::vector<fault::GroupRecord>& records,
                          util::Durability durability) {
  const std::string data = encode_journal(meta, records);
  util::write_file_atomic(path, data, durability);
  return data.size();
}

/// Positions in `records` of the winning record per group, in group
/// order: a later file position supersedes an earlier one.
std::vector<std::size_t> winner_positions(
    const std::vector<fault::GroupRecord>& records) {
  std::unordered_map<std::uint64_t, std::size_t> latest;
  for (std::size_t i = 0; i < records.size(); ++i) {
    latest[records[i].group] = i;
  }
  std::vector<std::size_t> winners;
  winners.reserve(latest.size());
  for (const auto& [group, idx] : latest) winners.push_back(idx);
  std::sort(winners.begin(), winners.end(),
            [&records](std::size_t a, std::size_t b) {
              return records[a].group < records[b].group;
            });
  return winners;
}

}  // namespace

std::vector<fault::GroupRecord> winning_records(
    const std::vector<fault::GroupRecord>& records) {
  std::vector<fault::GroupRecord> winners;
  for (std::size_t idx : winner_positions(records)) {
    winners.push_back(records[idx]);
  }
  return winners;
}

std::optional<JournalLoad> load_journal(const std::string& path,
                                        const JournalMeta& expect) {
  return load_impl(path, &expect);
}

std::optional<JournalLoad> load_journal_raw(const std::string& path) {
  return load_impl(path, nullptr);
}

JournalWriter::JournalWriter(std::FILE* f, std::string path,
                             util::Durability durability)
    : f_(f), path_(std::move(path)), durability_(durability) {}

JournalWriter::JournalWriter(JournalWriter&& other) noexcept
    : f_(other.f_),
      path_(std::move(other.path_)),
      durability_(other.durability_) {
  other.f_ = nullptr;
}

JournalWriter& JournalWriter::operator=(JournalWriter&& other) noexcept {
  if (this != &other) {
    if (f_) std::fclose(f_);
    f_ = other.f_;
    path_ = std::move(other.path_);
    durability_ = other.durability_;
    other.f_ = nullptr;
  }
  return *this;
}

JournalWriter::~JournalWriter() {
  if (f_) std::fclose(f_);
}

JournalWriter JournalWriter::create(const std::string& path,
                                    const JournalMeta& meta,
                                    util::Durability durability) {
  // The header is written atomically so a crash during creation leaves
  // either no journal or a complete empty one.
  write_journal(path, meta, {}, durability);
  return append(path, durability);
}

JournalWriter JournalWriter::append(const std::string& path,
                                    util::Durability durability) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (!f) throw std::runtime_error("cannot open journal " + path);
  return JournalWriter(f, path, durability);
}

void JournalWriter::add(const fault::GroupRecord& rec) {
  const std::string frame = encode_record_frame(rec);
  if (util::checked_fwrite(f_, frame.data(), frame.size()) != frame.size()) {
    throw std::runtime_error("cannot append to journal " + path_);
  }
  if (durability_ != util::Durability::kNone &&
      util::checked_fflush(f_) != 0) {
    throw std::runtime_error("cannot append to journal " + path_);
  }
  if (durability_ == util::Durability::kFsync &&
      util::checked_fsync(::fileno(f_)) != 0) {
    throw std::runtime_error("cannot fsync journal " + path_);
  }
}

JournalSet load_journals(const std::vector<std::string>& paths) {
  if (paths.empty()) {
    throw std::runtime_error("no journal to load");
  }
  JournalSet set;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    std::optional<JournalLoad> loaded = load_journal_raw(paths[i]);
    if (!loaded) throw std::runtime_error("cannot open " + paths[i]);
    if (loaded->empty_file) {
      throw std::runtime_error(paths[i] +
                               " is an empty journal (no header yet)");
    }
    if (i == 0) {
      set.meta = loaded->meta;
    } else if (loaded->meta.fingerprint != set.meta.fingerprint ||
               loaded->meta.num_groups != set.meta.num_groups ||
               loaded->meta.num_faults != set.meta.num_faults) {
      throw std::runtime_error(
          paths[i] + " records a different campaign than " + paths[0] +
          " (fingerprint, group universe or fault count differ); combining "
          "them would corrupt the result");
    }
    MergeInputStats in;
    in.path = paths[i];
    in.records = loaded->records.size();
    in.bytes = loaded->file_bytes;
    in.skipped_spans = loaded->stats.skipped_records;
    in.dropped_bytes = loaded->dropped_bytes;
    in.damaged = loaded->damaged();
    set.inputs.push_back(std::move(in));
    for (fault::GroupRecord& rec : loaded->records) {
      set.records.push_back(std::move(rec));
      set.source.push_back(i);
    }
  }
  return set;
}

MergeStats merge_journals(const std::vector<std::string>& inputs,
                          const std::string& out,
                          util::Durability durability) {
  JournalSet set = load_journals(inputs);
  MergeStats stats;
  stats.meta = set.meta;
  stats.inputs = std::move(set.inputs);
  stats.records_in = set.records.size();
  for (const MergeInputStats& in : stats.inputs) stats.bytes_in += in.bytes;
  std::vector<fault::GroupRecord> winners;
  for (std::size_t idx : winner_positions(set.records)) {
    winners.push_back(std::move(set.records[idx]));
    ++stats.inputs[set.source[idx]].winners;
  }
  stats.records_out = winners.size();
  stats.bytes_out = write_journal(out, stats.meta, winners, durability);
  return stats;
}

JournalSession open_journal_session(const std::string& path,
                                    const JournalMeta& meta,
                                    bool retry_inconclusive,
                                    util::Durability durability) {
  JournalSession s;
  if (path.empty()) return s;
  std::optional<JournalLoad> loaded = load_journal(path, meta);
  if (loaded && !loaded->empty_file) {
    s.truncated = loaded->truncated;
    s.stats = loaded->stats;
    s.was_empty = loaded->records.empty();
    const std::vector<fault::GroupRecord> winners =
        winning_records(loaded->records);
    for (const fault::GroupRecord& rec : winners) {
      // Under retry an inconclusive winner gets a fresh chance; the new
      // record supersedes it in file order on the next load.
      if (retry_inconclusive && (rec.timed_out || rec.quarantined)) continue;
      s.seeds.emplace(rec.group, rec);
    }

    // Two reasons to rewrite the file down to the winners the seeds came
    // from, so a rewrite never changes what a resume sees. Damage: new
    // records appended after a torn tail or a damaged span would be
    // skipped or dropped by the next load. Dead-record pressure:
    // retries, quarantine heals and resume churn append superseding
    // records without ever reclaiming the old ones.
    const std::size_t dead = loaded->records.size() - winners.size();
    s.compacted = dead > kCompactDeadFactor * winners.size();
    if (s.compacted || loaded->damaged()) {
      write_journal(path, loaded->meta, winners, durability);
    }
    s.writer = JournalWriter::append(path, durability);
  } else {
    s.was_empty = loaded.has_value();  // existed, zero-length
    s.writer = JournalWriter::create(path, meta, durability);
  }
  return s;
}

}  // namespace sbst::campaign
