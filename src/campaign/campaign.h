// Durable, resumable fault-grading campaigns.
//
// A campaign is one fault-simulation run plus operability guarantees
// for the long-running, full-fault-list workloads behind the paper's
// Table 5:
//
//   * durability — every finished 63-fault group is appended to a
//     CRC-framed journal (journal.h) the moment it completes, from any
//     worker thread;
//   * resume — a rerun with the same journal seeds the engine's
//     per-group skip hook from the stored records and simulates only
//     the remaining groups, yielding a FaultSimResult bit-identical to
//     an uninterrupted run at any thread count;
//   * graceful drain — SIGINT/SIGTERM (util/signals.h) stops the group
//     scheduler between groups; in-flight groups finish, their records
//     are flushed, and the caller can report "resumable, N/M done";
//   * bounded time — per-group wall-clock timeouts and a campaign time
//     budget record hung or unscheduled groups as timed out (a third
//     verdict state), so coverage is reported as an explicit lower
//     bound instead of silently counting them undetected.
//
// The engine stays oblivious to storage. run_campaign opens the journal,
// installs the drain handlers, builds telemetry and fills the
// seed_group/on_group/cancel hooks of FaultSimOptions once, then hands
// the run to one of two executors of the same fault::GroupDriver:
// fault::run_fault_sim (worker threads) or run_fault_sim_isolated
// (supervisor.h, worker processes). Seeding, deadlines, record folding
// and progress live in the driver, so both executors resolve a campaign
// identically.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/journal.h"
#include "fault/faultsim.h"
#include "netlist/fault.h"
#include "telemetry/metrics.h"
#include "util/atomic_file.h"

namespace sbst::campaign {

/// Process-isolation knobs (CampaignOptions::isolate). The supervisor
/// (supervisor.h) forks sandboxed worker processes and contains the
/// blast radius of a pathological fault group to that group.
struct IsolateOptions {
  /// Worker processes; 0 = one per hardware thread.
  unsigned workers = 0;
  /// Retries a failed group gets on a fresh worker before it is
  /// quarantined (so max_group_retries + 1 attempts total, plus one solo
  /// attempt when its last failure was shared with a second lane).
  unsigned max_group_retries = 2;
  /// RLIMIT_AS per worker in MiB (0 = unlimited): a leaking or
  /// runaway-allocating group OOMs its own worker, not the campaign.
  std::size_t worker_mem_mb = 0;
  /// Test hook (the crash analogue of verify::inject_alu_carry_bug): a
  /// worker asked to simulate this group calls abort() while the
  /// attempt number is < crash_attempts. -1 disables.
  std::int64_t crash_group = -1;
  /// How many attempts of crash_group abort. UINT32_MAX = every attempt
  /// (quarantine path); 1 = first attempt only (retry-then-success).
  std::uint32_t crash_attempts = 0xffffffffu;
};

struct CampaignOptions {
  /// Journal path; empty runs the campaign without durability (the
  /// drain/timeout behaviour still applies).
  std::string journal;
  /// Re-simulate journaled groups whose record is timed_out or
  /// quarantined instead of seeding them (e.g. resume on a faster
  /// machine, with a larger group timeout, or with more worker memory).
  bool retry_timed_out = false;
  /// Install SIGINT/SIGTERM drain handlers and wire them to the engine's
  /// cancel flag. Leave false when the caller manages options.sim.cancel
  /// itself (tests, embedding).
  bool handle_signals = false;
  /// Run fault groups in forked, rlimit-sandboxed worker processes
  /// (supervisor.h) instead of in-process threads. A worker that
  /// segfaults, OOMs or hangs is reaped and respawned; a group that
  /// fails every retry is quarantined instead of killing the campaign.
  /// Results are bit-identical to the in-process mode for all
  /// non-quarantined groups. sim.threads is ignored in this mode.
  bool isolate = false;
  IsolateOptions iso;
  /// Telemetry sinks (per-group metrics NDJSON + heartbeat status JSON,
  /// telemetry/metrics.h). Both paths empty = telemetry off. Written
  /// for every resolved group, seeded ones included, in both execution
  /// modes.
  telemetry::TelemetryOptions telemetry;
  /// How hard every durable artifact of the campaign — journal appends,
  /// journal heals/compactions, telemetry rewrites — pushes toward
  /// stable storage. kFlush (default) survives any process death;
  /// kFsync additionally survives power loss at a per-record fsync
  /// cost; kNone is fastest and still crash-consistent on load (the
  /// salvaging reader drops whatever never landed).
  util::Durability durability = util::Durability::kFlush;
  /// Engine options (threads, sample, max_cycles, group_timeout_ms,
  /// time_budget_ms, shards, progress), passed to the group driver of
  /// either executor. run_campaign overwrites the on_group hook, the
  /// seed_group hook when a journal is open, and — when handle_signals
  /// is set — the cancel flag.
  fault::FaultSimOptions sim;
};

/// One quarantined group and why its workers kept dying.
struct QuarantinedGroup {
  std::uint64_t group = 0;
  fault::GroupError error;
};

struct CampaignResult {
  fault::FaultSimResult result;
  std::size_t groups_total = 0;
  std::size_t groups_done = 0;    // seeded + newly resolved (this shard's)
  std::size_t seeded_groups = 0;  // skipped thanks to the journal
  /// Sharded runs (sim.shard_count > 1): the groups this run was
  /// responsible for — its residue class of the campaign universe.
  /// Equal to groups_total when unsharded. groups_done counts against
  /// this total; the journal header always records the full universe.
  std::size_t shard_groups_total = 0;
  /// Uncollapsed-fault counts for the exit summary.
  std::size_t faults_timed_out = 0;
  std::size_t faults_quarantined = 0;
  /// Quarantined groups (this run's and seeded ones), sorted by group.
  std::vector<QuarantinedGroup> quarantined_groups;
  /// Isolated mode: worker processes that died (crash, OOM, hard kill)
  /// and were respawned.
  std::size_t worker_restarts = 0;
  bool resumed = false;            // at least one group was seeded
  bool journal_truncated = false;  // a torn record was dropped on load
  bool journal_empty = false;      // journal existed but held no records
  /// Salvage accounting from the journal load: interior damage skipped
  /// by the resynchronizing reader (those groups re-simulate).
  JournalLoadStats journal_salvage;
  /// Dead records exceeded the auto-compaction threshold and the
  /// journal was rewritten at open.
  bool journal_compacted = false;
  bool interrupted = false;        // drained; rerun to resume
  int signal = 0;                  // signal that triggered the drain
};

/// Campaign identity: journals are only interchangeable between runs
/// with equal fingerprints. Chain from fingerprint_init() through the
/// program image, sampling parameters and cycle budget (FNV-1a 64).
std::uint64_t fingerprint_init();
std::uint64_t fingerprint_bytes(std::uint64_t h, const void* data,
                                std::size_t len);
std::uint64_t fingerprint_u64(std::uint64_t h, std::uint64_t v);

/// Groups in this run's shard residue class: |{g < total_groups :
/// g % shard_count == shard_index}|. total_groups when unsharded.
std::size_t shard_groups(std::size_t total_groups,
                         const fault::FaultSimOptions& sim);

/// Translates one engine GroupRecord into the telemetry schema: verdict
/// counts from the detection mask, engine attribution, the work counters
/// the record carried, and the attempt/rusage accounting in rec.error
/// (filled by the isolated executor; defaults elsewhere).
telemetry::GroupMetric to_group_metric(const fault::GroupRecord& rec,
                                       bool seeded, double duration_ms);

/// Runs (or resumes) a campaign. Throws std::runtime_error when the
/// journal exists but belongs to a different campaign or is corrupt
/// beyond its tail.
CampaignResult run_campaign(const nl::Netlist& netlist,
                            const nl::FaultList& faults,
                            const fault::EnvFactory& make_env,
                            std::uint64_t fingerprint,
                            const CampaignOptions& options);

}  // namespace sbst::campaign
