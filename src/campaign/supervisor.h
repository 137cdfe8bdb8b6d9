// Process-isolated campaign execution: a supervisor that schedules
// 63-fault groups onto forked, rlimit-sandboxed worker processes.
//
// The in-process threaded engine shares one address space, so a single
// pathological fault group — a simulation bug that segfaults, an
// environment that leaks until the OOM killer fires, an infinite loop —
// takes the whole campaign (and its journal writer) down with it. The
// supervisor contains that blast radius to one worker process:
//
//   * each worker is forked from the supervisor after the GroupPlan and
//     a pristine GroupSimulator are built, so children inherit the
//     levelized netlist copy-on-write instead of re-levelizing;
//   * workers run under RLIMIT_AS (IsolateOptions::worker_mem_mb) and,
//     when the campaign has a time budget, a coarse RLIMIT_CPU backstop;
//   * groups travel over the pipe protocol in ipc.h; results come back
//     in the journal's own payload encoding and are journaled by the
//     supervisor exactly as the threaded mode journals them;
//   * a worker keeps GroupSimulator::lanes() groups in flight (two under
//     the compiled sweep);
//   * a worker that crashes, OOMs, or blows its hang deadline is reaped
//     (with rusage) and respawned; every group it held is charged an
//     attempt and retried alone on a fresh worker, and a group that fails
//     alone with its max_group_retries retries spent is quarantined — a
//     structured GroupError verdict instead of a dead campaign.
//
// Results are bit-identical to the in-process mode for every
// non-quarantined group: both modes run the same GroupSimulator on the
// same GroupPlan.
#pragma once

#include "campaign/campaign.h"
#include "netlist/fault.h"

namespace sbst::campaign {

/// The --isolate execution path of run_campaign (which owns the option
/// validation and mode dispatch — call run_campaign, not this, unless
/// you are run_campaign).
CampaignResult run_campaign_isolated(const nl::Netlist& netlist,
                                     const nl::FaultList& faults,
                                     const fault::EnvFactory& make_env,
                                     std::uint64_t fingerprint,
                                     const CampaignOptions& options);

/// Shared tail of both execution modes (defined in campaign.cpp):
/// records the drain signal, folds per-fault timed_out/quarantined
/// counts, and sorts quarantined_groups.
void finish_campaign_result(const nl::FaultList& faults,
                            const CampaignOptions& options,
                            CampaignResult* out);

}  // namespace sbst::campaign
