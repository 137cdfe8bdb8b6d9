// Process-isolated campaign execution: the --isolate executor, which
// simulates a run's 63-fault groups in forked, rlimit-sandboxed worker
// processes.
//
// The in-process threaded executor shares one address space, so a
// single pathological fault group — a simulation bug that segfaults, a
// kernel allocation the OOM killer answers, an infinite loop —
// takes the whole campaign (and its journal writer) down with it. This
// executor contains that blast radius to one worker process:
//
//   * the run itself — plan, shard schedule, seeding, deadlines, the
//     compiled netlist and good-run recording, record folding and hooks —
//     is the same fault::GroupDriver that run_fault_sim's threads use; the
//     supervisor only takes slices from it and hands them back;
//   * the supervisor records the good run before any worker exists, and
//     workers are forked from a pristine GroupSimulator built after it,
//     so children inherit the compiled netlist and the recording
//     copy-on-write and never run the environment;
//   * workers run under RLIMIT_AS (IsolateOptions::worker_mem_mb) and,
//     when the campaign has a time budget, a coarse RLIMIT_CPU backstop;
//   * a group request travels down the worker's pipe as a fixed 12-byte
//     (group u64, attempt u32), from which the worker builds its slice
//     (GroupSimulator::slice); the result comes back as one journal
//     record frame (journal.h), CRC included. EOF is the only failure
//     signal: a dead worker's pipe reads EOF, a dead supervisor's pipe
//     turns worker writes into EPIPE;
//   * a worker keeps GroupSimulator::lanes() groups in flight (two under
//     the compiled sweep);
//   * a worker that crashes, OOMs, or blows its hang deadline is reaped
//     (with rusage) and re-forked; every group it held is charged an
//     attempt and retried alone on a fresh worker, and a group that fails
//     alone with its max_group_retries retries spent is quarantined — a
//     structured GroupError verdict instead of a dead campaign.
//
// Results are bit-identical to the threaded executor for every
// non-quarantined group: both run the same GroupDriver and the same
// GroupSimulator.
#pragma once

#include "campaign/campaign.h"
#include "netlist/fault.h"

namespace sbst::campaign {

/// The --isolate executor of run_campaign: run_fault_sim with worker
/// processes instead of threads (options.threads is ignored). Adds the
/// number of workers that died and were re-forked to *worker_restarts.
fault::FaultSimResult run_fault_sim_isolated(
    const nl::Netlist& netlist, const nl::FaultList& faults,
    const fault::EnvFactory& make_env, const fault::FaultSimOptions& options,
    const IsolateOptions& iso, std::size_t* worker_restarts);

}  // namespace sbst::campaign
