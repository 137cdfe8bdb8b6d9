#include "campaign/campaign.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <optional>
#include <utility>

#include "campaign/journal.h"
#include "campaign/supervisor.h"
#include "util/signals.h"

namespace sbst::campaign {

std::uint64_t fingerprint_init() { return 0xcbf29ce484222325ull; }

std::uint64_t fingerprint_bytes(std::uint64_t h, const void* data,
                                std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t fingerprint_u64(std::uint64_t h, std::uint64_t v) {
  unsigned char buf[8];
  std::memcpy(buf, &v, sizeof(buf));
  return fingerprint_bytes(h, buf, sizeof(buf));
}

std::size_t shard_groups(std::size_t total_groups,
                         const fault::FaultSimOptions& sim) {
  if (sim.shard_count <= 1) return total_groups;
  if (total_groups <= sim.shard_index) return 0;
  return (total_groups - sim.shard_index + sim.shard_count - 1) /
         sim.shard_count;
}

telemetry::GroupMetric to_group_metric(const fault::GroupRecord& rec,
                                       bool seeded, double duration_ms) {
  telemetry::GroupMetric m;
  m.group = rec.group;
  m.faults = rec.count;
  const std::uint64_t live =
      rec.count >= 64 ? ~0ull : ((1ull << rec.count) - 1);
  m.detected =
      static_cast<std::uint32_t>(std::popcount(rec.detected_mask & live));
  switch (rec.engine_used) {
    case fault::GroupEngine::kEvent: m.engine = "event"; break;
    case fault::GroupEngine::kSweep: m.engine = "sweep"; break;
    case fault::GroupEngine::kNone: m.engine = "none"; break;
  }
  m.seeded = seeded;
  m.timed_out = rec.timed_out;
  m.quarantined = rec.quarantined;
  m.cycles = rec.cycles;
  m.gates_evaluated = rec.gates_evaluated;
  m.sim_cycles = rec.sim_cycles;
  m.evals_and = rec.evals_by_kind[0];
  m.evals_or = rec.evals_by_kind[1];
  m.evals_xor = rec.evals_by_kind[2];
  m.evals_mux = rec.evals_by_kind[3];
  m.duration_ms = duration_ms;
  if (!seeded && rec.gates_evaluated != 0) {
    m.eval_ns_per_gate = duration_ms * 1e6 /
                         static_cast<double>(rec.gates_evaluated);
  }
  if (rec.error.attempts != 0) m.attempts = rec.error.attempts;
  m.max_rss_kb = rec.error.max_rss_kb;
  m.cpu_ms = rec.error.cpu_ms;
  return m;
}

namespace {

/// Records the drain signal, counts timed-out/quarantined faults and
/// sorts quarantined_groups.
void finish_campaign_result(const nl::FaultList& faults,
                            const CampaignOptions& options,
                            CampaignResult* out) {
  out->signal = options.handle_signals ? util::drain_signal() : 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (out->result.timed_out[i]) ++out->faults_timed_out;
    if (i < out->result.quarantined.size() && out->result.quarantined[i]) {
      ++out->faults_quarantined;
    }
  }
  std::sort(out->quarantined_groups.begin(), out->quarantined_groups.end(),
            [](const QuarantinedGroup& a, const QuarantinedGroup& b) {
              return a.group < b.group;
            });
}

}  // namespace

CampaignResult run_campaign(const nl::Netlist& netlist,
                            const nl::FaultList& faults,
                            const fault::EnvFactory& make_env,
                            std::uint64_t fingerprint,
                            const CampaignOptions& options) {
  CampaignResult out;
  out.groups_total = fault::GroupPlan(faults, options.sim).num_groups();
  out.shard_groups_total = shard_groups(out.groups_total, options.sim);

  fault::FaultSimOptions sim = options.sim;
  if (options.handle_signals) {
    util::install_drain_handlers();
    sim.cancel = &util::drain_requested();
  }

  // Journal setup: load what previous runs resolved, then append what
  // this run resolves. The executor's driver replays the seeds up front.
  const JournalMeta meta{fingerprint, out.groups_total, faults.size()};
  JournalSession journal = open_journal_session(
      options.journal, meta, options.retry_timed_out, options.durability);
  out.journal_truncated = journal.truncated;
  out.journal_empty = journal.was_empty;
  out.journal_salvage = journal.stats;
  out.journal_compacted = journal.compacted;
  if (journal.writer) {
    sim.seed_group = [&journal](std::uint64_t group, fault::GroupRecord* rec) {
      const auto it = journal.seeds.find(group);
      if (it == journal.seeds.end()) return false;
      *rec = it->second;
      return true;
    };
  }

  std::optional<telemetry::CampaignTelemetry> tele;
  if (!options.telemetry.metrics_path.empty() ||
      !options.telemetry.status_path.empty()) {
    telemetry::TelemetryOptions topt = options.telemetry;
    topt.shard_index = options.sim.shard_index;
    topt.shard_count = options.sim.shard_count;
    // Shard-local total: the heartbeat's groups_total/ETA describe what
    // this runner is responsible for, not the whole campaign.
    tele.emplace(topt, options.isolate ? "isolate" : "threads",
                 out.shard_groups_total, fingerprint);
  }

  // Every group the run resolves passes through this one hook (under the
  // driver's lock), seeded ones included: fresh records are journaled,
  // all of them feed telemetry and the quarantine list.
  sim.on_group = [&](const fault::GroupRecord& rec, bool seeded,
                     double duration_ms) {
    if (seeded) {
      ++out.seeded_groups;
    } else if (journal.writer) {
      journal.writer->add(rec);
    }
    if (rec.quarantined) {
      out.quarantined_groups.push_back({rec.group, rec.error});
    }
    if (tele) tele->record(to_group_metric(rec, seeded, duration_ms));
  };

  out.result = options.isolate
                   ? run_fault_sim_isolated(netlist, faults, make_env, sim,
                                            options.iso, &out.worker_restarts)
                   : fault::run_fault_sim(netlist, faults, make_env, sim);
  out.groups_done = out.result.groups_done;
  out.resumed = out.seeded_groups != 0;
  out.interrupted = out.result.cancelled;
  if (tele) tele->finish(out.interrupted);
  finish_campaign_result(faults, options, &out);
  return out;
}

}  // namespace sbst::campaign
