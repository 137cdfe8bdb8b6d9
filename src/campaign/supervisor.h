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
//   * the supervisor records the good run on its one thread while the
//     workers already simulate: the recording lives in a shared mapping
//     created before the first fork (fault/good_trace.h), and after each
//     64-cycle block it publishes, the recorder runs one non-blocking
//     pass of the supervisor loop (hand out requests, read records, reap
//     dead workers), so workers are forked from the first block on and
//     every fork happens on a single-threaded process. Workers are forked
//     from a pristine GroupSimulator built before the recording starts,
//     so children inherit the compiled netlist and the driver
//     copy-on-write, read the recording through the mapping and never
//     run the environment;
//   * a worker's slice that reaches the watermark of the recording still
//     being written sleeps on it (a futex in the mapping) and resumes in
//     place; nothing is parked or sent back unfinished. When the run
//     gives the recording up (a drain, the run deadline), the supervisor
//     hands every group in flight back unsimulated, as the threaded
//     executor does, and kills the workers, which may be asleep;
//   * workers run under RLIMIT_AS (IsolateOptions::worker_mem_mb) and,
//     when the campaign has a time budget, a coarse RLIMIT_CPU backstop;
//   * a group request travels down the worker's pipe as a fixed 12-byte
//     (group u64, attempt u32), from which the worker builds its slice
//     with the driver it inherited (GroupDriver::slice): the run's one
//     group-timeout rule, counted from when the worker reads the request,
//     or from the end of the recording for a request read while it
//     streams, so every attempt of a retried group gets a fresh bound.
//     Only the supervisor's main thread locks the driver, and it forks
//     outside that lock. The result comes back as one journal record frame
//     (journal.h), CRC included. EOF is the only failure signal: a dead
//     worker's pipe reads EOF, a dead supervisor's pipe turns worker
//     writes into EPIPE;
//   * a worker keeps GroupSimulator::lanes() groups in flight (eight
//     under the compiled sweep);
//   * a worker that crashes, OOMs, or blows its hang deadline (counted
//     from the later of the request's dispatch and the end of the
//     recording, so a long recording never kills a waiting worker) is reaped
//     (with rusage) and re-forked; every group it held is charged an
//     attempt and retried alone on a fresh worker, carrying the dead
//     attempts' peak RSS and CPU into its record; a group that fails
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
