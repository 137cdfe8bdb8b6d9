// Per-group campaign telemetry: the `sbst grade --metrics` NDJSON
// stream and the `--status` heartbeat file.
//
// Every resolved 63-fault group — simulated this run or seeded from the
// journal — becomes one GroupMetric, serialized as one JSON object per
// line:
//
//   {"group":17,"faults":63,"detected":61,"engine":"event",
//    "seeded":false,"timed_out":false,"quarantined":false,
//    "cycles":2101,"gates_evaluated":184223,"sim_cycles":9120,
//    "evals_and":120034,"evals_or":40011,"evals_xor":24178,
//    "evals_mux":0,"attempts":1,"duration_ms":12.413,
//    "eval_ns_per_gate":67.381,"max_rss_kb":0,"cpu_ms":0}
//
// The fields split into two classes:
//
//   * counter fields (group, faults, detected, engine, verdict flags,
//     cycles, gates_evaluated, sim_cycles, evals_and/or/xor/mux) are a
//     pure function of the group's GroupRecord — bit-stable across
//     thread counts, --isolate and journal resumes for a fixed engine.
//     CI diffs these.
//   * run-local fields (seeded, attempts, duration_ms, eval_ns_per_gate,
//     max_rss_kb, cpu_ms) describe what *this* run spent on the group:
//     wall clock, per-evaluation cost, worker attempts consumed, and
//     (isolated mode) the rusage of worker attempts that died on it.
//     Humans read these as latency percentiles via `sbst stats`.
//
// Both sinks are written with util::write_file_atomic, so a reader —
// a dashboard tailing the status file, `sbst stats` mid-campaign —
// always sees a complete, parseable file, never a torn line. The
// metrics file is rewritten in full every `rewrite_every` records and
// at finish (campaigns are a few hundred to a few thousand groups;
// the quadratic rewrite cost is dwarfed by simulation); the status
// file is one JSON object, written when the campaign starts, rewritten
// by a heartbeat thread every period and stamped with the terminal
// state at finish. It names the runner's pid and campaign fingerprint,
// so its mtime doubles as the liveness lease `sbst dispatch` reads.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "telemetry/stats.h"
#include "util/atomic_file.h"

namespace sbst::telemetry {

/// One resolved fault group, in telemetry terms. Decoupled from
/// fault::GroupRecord so the NDJSON schema can outlive engine
/// internals; campaign code translates (campaign::to_group_metric).
struct GroupMetric {
  std::uint64_t group = 0;
  std::uint32_t faults = 0;    // faults in the group, <= 63
  std::uint32_t detected = 0;  // of `faults`, detected
  std::string engine = "none";  // "event" | "sweep" | "none"
  bool seeded = false;          // replayed from the journal, not simulated
  bool timed_out = false;
  bool quarantined = false;
  std::uint64_t cycles = 0;  // good-machine cycles the group ran
  std::uint64_t gates_evaluated = 0;
  std::uint64_t sim_cycles = 0;
  /// Gate evaluations split by compiled base-op class (AND/OR/XOR/MUX —
  /// see nl::CompiledOp; NAND folds into AND, etc.). Counter fields:
  /// pure functions of the group's record. Zero on records that predate
  /// per-kind accounting.
  std::uint64_t evals_and = 0;
  std::uint64_t evals_or = 0;
  std::uint64_t evals_xor = 0;
  std::uint64_t evals_mux = 0;
  /// Worker attempts this group consumed (isolated mode; 1 elsewhere).
  std::uint32_t attempts = 1;
  /// Wall clock this run spent resolving the group (~0 when seeded). A
  /// sweep worker simulates up to eight groups side by side, one per
  /// lane, and each of its passes is charged in equal shares to the
  /// groups busy in it; so for a sweep group this is its share of its
  /// worker's time, and the durations of a run sum to at most workers x
  /// its wall clock.
  double duration_ms = 0.0;
  /// Run-local like duration_ms: wall nanoseconds per gate evaluation
  /// this run achieved on the group (duration_ms / gates_evaluated,
  /// scaled; 0 when seeded or when no gate was evaluated).
  double eval_ns_per_gate = 0.0;
  /// Isolated mode: peak RSS and summed user+sys CPU of worker attempts
  /// that *died* on this group (rusage at reap) — a surviving worker's
  /// rusage is unknowable while it lives. 0 in threaded mode.
  std::uint64_t max_rss_kb = 0;
  std::uint64_t cpu_ms = 0;
};

/// Serializes one metric as a single NDJSON line (no trailing newline),
/// fields in the fixed order documented above.
std::string metric_to_json(const GroupMetric& m);

/// Parses one NDJSON line. Unknown keys are ignored (forward
/// compatibility); missing keys keep their defaults. Returns false on
/// malformed JSON or type-mismatched known fields.
bool metric_from_json(std::string_view line, GroupMetric* out);

/// Remaining-time estimate for a (possibly resumed) campaign. The rate
/// comes from the groups *this run* simulated (`done - seeded`):
/// journal-seeded groups replay in ~zero time against an elapsed clock
/// that started at this process's t0, so counting them makes a resumed
/// campaign's ETA wildly optimistic. Returns a negative value when no
/// estimate is possible — fewer than two groups simulated this run, or
/// inconsistent inputs (done > total).
double eta_seconds(std::size_t done, std::size_t seeded, std::size_t total,
                   double elapsed_s);

struct TelemetryOptions {
  /// NDJSON metrics stream; empty disables.
  std::string metrics_path;
  /// Heartbeat status JSON (single object); empty disables.
  std::string status_path;
  /// Rewrite the metrics file after this many new records (always at
  /// finish). 0 = only at finish.
  std::size_t rewrite_every = 256;
  /// Seconds between the heartbeat thread's status rewrites; 0 = no
  /// thread, so the status is written only at start and at finish.
  double heartbeat_period_s = 1.0;
  /// Durability of both sinks' atomic rewrites. The campaign forwards
  /// its own policy here so "--durability fsync" makes the heartbeat
  /// and the metrics stream power-loss-safe along with the journal.
  util::Durability durability = util::Durability::kFlush;
  /// Shard identity of this runner (campaign layer fills these from
  /// FaultSimOptions). When shard_count > 1 the status heartbeat gains
  /// "shard"/"shard_count" fields and groups_total is shard-local, so a
  /// dispatcher can roll several shard heartbeats into one view.
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 0;  // 0 or 1 = unsharded
};

/// Thread-safe telemetry sink for one campaign run. record() is called
/// once per resolved group (from engine worker threads, under the
/// engine's hook mutex, or from the single-threaded supervisor loop);
/// finish() flushes everything and stamps the terminal state. If the
/// campaign unwinds without reaching finish(), the destructor flushes
/// with state "interrupted" so a crash-adjacent run still leaves
/// complete files behind. The status file is written only by the
/// constructor, the heartbeat thread (started when status_path is set)
/// and finish(); nothing is written after finish().
class CampaignTelemetry {
 public:
  /// `fingerprint` is the campaign identity the status file reports.
  CampaignTelemetry(TelemetryOptions options, std::string mode,
                    std::size_t groups_total, std::uint64_t fingerprint);
  ~CampaignTelemetry();
  CampaignTelemetry(const CampaignTelemetry&) = delete;
  CampaignTelemetry& operator=(const CampaignTelemetry&) = delete;

  void record(const GroupMetric& m);

  /// Writes all buffered metrics and the final status ("done", or
  /// "interrupted" for a drained campaign). Idempotent; record() must
  /// not be called after.
  void finish(bool interrupted);

  std::size_t records() const;

 private:
  void flush_metrics_locked();
  std::string status_json_locked(const char* state) const;
  void write_status_locked(const char* state);

  TelemetryOptions opt_;    // paths cleared when a sink fails (disable)
  const std::string mode_;  // "threads" | "isolate"
  const std::size_t groups_total_;
  const std::uint64_t fingerprint_;
  const std::chrono::steady_clock::time_point t0_;

  mutable std::mutex mu_;
  std::condition_variable finished_cv_;  // wakes the heartbeat to exit
  std::string lines_;  // every NDJSON line so far, '\n'-terminated
  MetricsSummary totals_;  // the `sbst stats` counter fold, per record
  std::size_t unflushed_ = 0;
  bool finished_ = false;
  std::thread heartbeat_;
};

}  // namespace sbst::telemetry
