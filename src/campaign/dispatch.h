// Lease-based shard dispatcher: elastic, failure-tolerant fan-out of
// one campaign across N runner processes.
//
// A campaign's 63-fault groups partition into N residue classes
// (FaultSimOptions::shard_count/shard_index); each class is a *shard*
// with its own journal in a shared directory. The dispatcher spawns one
// runner process per shard and supervises it through the runner's own
// `--status` heartbeat, which is the shard's lease:
//
//   heartbeat    = shard-<i>-of-<N>.status.json, the runner's campaign
//                  status (state, pid, campaign fingerprint, progress),
//                  rewritten ~every second by its telemetry thread so
//                  the file's mtime is a monotonic heartbeat;
//   liveness     = a shard is healthy while its child is running and
//                  its status mtime (or spawn time, until the child's
//                  first heartbeat lands) is younger than stale_after_s;
//   revocation   = a stale heartbeat or an abnormal child exit kills the
//                  runner (SIGKILL for stale; every signal goes to the
//                  runner's own process group, so its descendants, such
//                  as --isolate workers, die with it) and re-dispatches the
//                  shard under capped exponential backoff with
//                  deterministic jitter, up to max_shard_retries;
//   exclusion    = a status that says "running", is fresh and names a
//                  live pid that is not the dispatcher's child blocks
//                  dispatch of that shard (two holders would race the
//                  same journal), and one with a different fingerprint
//                  marks a directory collision. A finished, stale,
//                  dead-pid or unreadable status holds nothing.
//
// Every failure mode degrades to "the shard's journal is missing some
// groups and a re-dispatch (or later resume) re-simulates them" — the
// journal's append-only later-record-wins semantics make duplicated
// work (re-dispatch races, quarantined groups healed on a later resume)
// harmless, never wrong. A drain spawns nothing new, and every shard
// whose runner then stops short of completion — drained, or killed by
// the forwarded signal before it could drain — is resumable.
// merge_journals (journal.h) reconciles the shard journals into one
// that resumes bit-identically to an unsharded run.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "util/atomic_file.h"

namespace sbst::campaign {

/// Canonical per-shard file names inside the dispatch journal
/// directory, shared by dispatcher, runners and the merge recipe
/// (shard-<i>-of-<N>.sbstj / .status.json).
std::string shard_journal_path(const std::string& dir, unsigned shard,
                               unsigned shard_count);
std::string shard_status_path(const std::string& dir, unsigned shard,
                              unsigned shard_count);

struct DispatchOptions {
  /// Number of shards (= residue classes = runner processes).
  unsigned shards = 1;
  /// Directory for shard journals and status files. Must exist.
  std::string journal_dir;
  /// Re-dispatches a shard gets after an abnormal death or stale
  /// heartbeat before it is declared failed (so max_shard_retries + 1
  /// attempts).
  unsigned max_shard_retries = 3;
  /// A running shard whose status mtime (or spawn, before the first
  /// heartbeat) is older than this is declared dead and re-dispatched.
  double stale_after_s = 10.0;
  /// Supervision loop wake period.
  double poll_period_s = 0.2;
  /// Backoff before re-dispatch attempt k: min(cap, initial * 2^(k-1)),
  /// scaled by a deterministic jitter in [0.75, 1.25) hashed from
  /// (shard, attempt) so simultaneous deaths don't re-dispatch in
  /// lockstep yet tests stay reproducible.
  double backoff_initial_s = 0.5;
  double backoff_cap_s = 30.0;
  /// Campaign fingerprint, checked against a live runner's status.
  std::uint64_t fingerprint = 0;
  /// Builds the runner argv for one shard (argv[0] = executable path)
  /// from the canonical journal/status paths the dispatcher owns. The
  /// runner must keep its status heartbeat at `status`.
  std::function<std::vector<std::string>(unsigned shard,
                                         const std::string& journal,
                                         const std::string& status)>
      make_runner_argv;
  /// Dispatcher roll-up heartbeat ("sbst-dispatch-status-v1"): per-shard
  /// state plus groups_done/groups_total folded in from the runners'
  /// own --status files. Empty disables.
  std::string status_path;
  double heartbeat_period_s = 1.0;
  util::Durability durability = util::Durability::kFlush;
  /// Drain flag (usually util::drain_requested()): when set, running
  /// shards get one SIGTERM (they drain and exit resumable) and nothing
  /// new is dispatched.
  const std::atomic<bool>* cancel = nullptr;
  /// Supervision log (re-dispatch, staleness, backoff). nullptr = stderr.
  std::FILE* log = nullptr;
};

struct ShardOutcome {
  unsigned shard = 0;
  /// Runner processes spawned for this shard (1 = clean first try).
  unsigned attempts = 0;
  /// Re-dispatches after abnormal death or stale heartbeat.
  unsigned redispatches = 0;
  /// Of those, re-dispatches triggered by a stale heartbeat.
  unsigned stale_leases = 0;
  bool completed = false;  // a runner finished the whole shard (exit 0)
  /// Stopped by a drain before completing: the shard journal resumes
  /// where it left.
  bool resumable = false;
  /// Retries exhausted, shard held by a foreign runner, or spawn
  /// failure.
  bool failed = false;
  std::string journal;
  std::string error;  // human-readable failure reason when failed
};

struct DispatchResult {
  std::vector<ShardOutcome> shards;
  bool interrupted = false;  // drain requested mid-dispatch

  bool all_completed() const {
    for (const ShardOutcome& s : shards) {
      if (!s.completed) return false;
    }
    return !shards.empty();
  }
  bool any_failed() const {
    for (const ShardOutcome& s : shards) {
      if (s.failed) return true;
    }
    return false;
  }
};

/// Runs the dispatch loop until every shard completes, fails, or a
/// drain is requested. Throws std::runtime_error on unusable options
/// (no shards, no argv factory, missing journal_dir). Runners get
/// SIGTERM, and so drain, when the calling thread dies before them: the
/// dispatcher's process killed outright, or the thread itself ended.
DispatchResult run_dispatch(const DispatchOptions& options);

}  // namespace sbst::campaign
