// Campaign durability overhead: grades the same Plasma Phase A+B
// sample nine ways — bare engine, campaign without a journal, campaign
// with the NDJSON telemetry stream (--metrics), campaign with
// per-group journalling at each durability level (none / flush /
// fsync), a fully seeded resume, campaign with process-isolated
// workers (--isolate), and the campaign split into two shards whose
// journals are merged and resumed — and reports the wall-clock cost of
// the observability, crash-safety, blast-radius and distribution layers
// in BENCH_campaign_overhead.json.
//
// The default journal policy is flush-per-record, so that leg bounds
// what a user pays for resumability on a real Table-5 run; the none and
// fsync legs bracket it from both sides of the durability ladder. It
// also re-verifies the seeding contract: a second journaled run must
// skip every group and still reproduce the result bit-identically.
//
// Usage: bench_campaign_overhead [--full] [--out FILE.json]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>

#include "campaign/campaign.h"
#include "fault/faultsim.h"
#include "netlist/fault.h"
#include "plasma/testbench.h"
#include "util/parallel.h"

#include "bench_common.h"

using namespace sbst;

namespace {

double time_seconds(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

bool identical(const fault::FaultSimResult& a, const fault::FaultSimResult& b) {
  return a.detected == b.detected && a.detect_cycle == b.detect_cycle &&
         a.simulated == b.simulated && a.timed_out == b.timed_out &&
         a.good_cycles == b.good_cycles;
}

}  // namespace

int main(int argc, char** argv) {
  bool full = false;
  std::string out_path = "BENCH_campaign_overhead.json";
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--full")) full = true;
    if (!std::strcmp(argv[i], "--out") && i + 1 < argc) out_path = argv[i + 1];
  }

  bench::header("Campaign", "Durability overhead of journaled fault grading");
  bench::Context ctx;
  const nl::FaultList faults = nl::enumerate_faults(ctx.cpu.netlist);
  const core::SelfTestProgram pab = core::build_phase_ab(ctx.classified);

  fault::FaultSimOptions sim;
  sim.max_cycles = 100000;
  sim.threads = util::hardware_threads();
  if (!full) sim.sample = 6300;
  const std::size_t groups = fault::GroupPlan(faults, sim).num_groups();
  std::printf("grading %s (%zu groups, %u threads)\n", pab.name.c_str(),
              groups, sim.threads);

  const fault::EnvFactory env =
      plasma::make_cpu_env_factory(ctx.cpu, pab.image);

  std::uint64_t fp = campaign::fingerprint_init();
  fp = campaign::fingerprint_bytes(
      fp, pab.image.words.data(),
      pab.image.words.size() * sizeof(pab.image.words[0]));
  fp = campaign::fingerprint_u64(fp, sim.sample);
  fp = campaign::fingerprint_u64(fp, sim.max_cycles);

  // 1. Bare engine — the baseline the campaign layer wraps.
  fault::FaultSimResult bare;
  const double t_bare = time_seconds([&] {
    bare = fault::run_fault_sim(ctx.cpu.netlist, faults, env, sim);
  });
  std::printf("  engine only          %7.2fs\n", t_bare);

  // 2. Campaign, no journal — hook plumbing + drain checks only.
  campaign::CampaignOptions copt;
  copt.sim = sim;
  campaign::CampaignResult nojournal;
  const double t_nojournal = time_seconds([&] {
    nojournal = campaign::run_campaign(ctx.cpu.netlist, faults, env, fp, copt);
  });
  std::printf("  campaign, no journal %7.2fs\n", t_nojournal);

  // 3. Campaign with telemetry — NDJSON metrics stream + heartbeat
  // status file, no journal. Isolates the price of --metrics, which
  // must stay within noise of leg 2.
  campaign::CampaignOptions mopt;
  mopt.sim = sim;
  mopt.telemetry.metrics_path = "bench_campaign_overhead.ndjson";
  mopt.telemetry.status_path = "bench_campaign_overhead_status.json";
  campaign::CampaignResult metered;
  const double t_metrics = time_seconds([&] {
    metered = campaign::run_campaign(ctx.cpu.netlist, faults, env, fp, mopt);
  });
  std::printf("  campaign + metrics   %7.2fs\n", t_metrics);
  std::remove(mopt.telemetry.metrics_path.c_str());
  std::remove(mopt.telemetry.status_path.c_str());

  // 4. Campaign with journalling — flush one record per finished group.
  copt.journal = "bench_campaign_overhead.sbstj";
  std::remove(copt.journal.c_str());
  campaign::CampaignResult journaled;
  const double t_journal = time_seconds([&] {
    journaled = campaign::run_campaign(ctx.cpu.netlist, faults, env, fp, copt);
  });
  std::printf("  campaign + journal   %7.2fs\n", t_journal);

  // 5. Fully seeded resume — every group read back, none simulated.
  campaign::CampaignResult resumed;
  const double t_resume = time_seconds([&] {
    resumed = campaign::run_campaign(ctx.cpu.netlist, faults, env, fp, copt);
  });
  std::printf("  resume (all seeded)  %7.2fs  (%zu/%zu groups seeded)\n",
              t_resume, resumed.seeded_groups, resumed.groups_total);
  std::remove(copt.journal.c_str());

  // 5b/5c. Durability ladder — the same journaled campaign buffered
  // (none) and power-loss-safe (per-record fsync), bracketing the
  // default flush-per-record leg above from both sides.
  campaign::CampaignResult dur_none;
  copt.durability = util::Durability::kNone;
  const double t_dur_none = time_seconds([&] {
    dur_none = campaign::run_campaign(ctx.cpu.netlist, faults, env, fp, copt);
  });
  std::printf("  journal (none)       %7.2fs\n", t_dur_none);
  std::remove(copt.journal.c_str());
  campaign::CampaignResult dur_fsync;
  copt.durability = util::Durability::kFsync;
  const double t_dur_fsync = time_seconds([&] {
    dur_fsync = campaign::run_campaign(ctx.cpu.netlist, faults, env, fp, copt);
  });
  std::printf("  journal (fsync)      %7.2fs\n", t_dur_fsync);
  std::remove(copt.journal.c_str());
  copt.durability = util::Durability::kFlush;

  // 6. Process-isolated workers — fork per worker, groups over pipes.
  // This is the price of containing a crashing/hanging group to one
  // worker process instead of the whole campaign.
  campaign::CampaignOptions iopt;
  iopt.sim = sim;
  iopt.isolate = true;
  iopt.iso.workers = sim.threads;
  campaign::CampaignResult isolated;
  const double t_isolate = time_seconds([&] {
    isolated = campaign::run_campaign(ctx.cpu.netlist, faults, env, fp, iopt);
  });
  std::printf("  campaign --isolate   %7.2fs\n", t_isolate);

  // 7. Sharded execution — the campaign split into two in-process
  // shards (the residue-class restriction the dispatcher gives each
  // runner), their journals merged, and the merged journal resumed.
  // The cost of "run it on two machines" over one run is the merge plus
  // the seeded resume; the result must stay bit-identical.
  const std::string shard_a = "bench_campaign_shard0.sbstj";
  const std::string shard_b = "bench_campaign_shard1.sbstj";
  const std::string shard_merged = "bench_campaign_merged.sbstj";
  std::remove(shard_a.c_str());
  std::remove(shard_b.c_str());
  campaign::CampaignResult sharded;
  const double t_sharded = time_seconds([&] {
    for (std::uint32_t i = 0; i < 2; ++i) {
      campaign::CampaignOptions sopt;
      sopt.sim = sim;
      sopt.sim.shard_count = 2;
      sopt.sim.shard_index = i;
      sopt.journal = i == 0 ? shard_a : shard_b;
      campaign::run_campaign(ctx.cpu.netlist, faults, env, fp, sopt);
    }
    campaign::merge_journals({shard_a, shard_b}, shard_merged);
    campaign::CampaignOptions ropt;
    ropt.sim = sim;
    ropt.journal = shard_merged;
    sharded = campaign::run_campaign(ctx.cpu.netlist, faults, env, fp, ropt);
  });
  std::printf("  sharded x2 + merge   %7.2fs  (%zu/%zu groups seeded)\n",
              t_sharded, sharded.seeded_groups, sharded.groups_total);
  std::remove(shard_a.c_str());
  std::remove(shard_b.c_str());
  std::remove(shard_merged.c_str());

  const bool correct = identical(bare, nojournal.result) &&
                       identical(bare, metered.result) &&
                       identical(bare, journaled.result) &&
                       identical(bare, resumed.result) &&
                       identical(bare, dur_none.result) &&
                       identical(bare, dur_fsync.result) &&
                       identical(bare, isolated.result) &&
                       identical(bare, sharded.result) &&
                       sharded.seeded_groups == groups &&
                       resumed.seeded_groups == groups;
  const double overhead_pct =
      t_bare > 0.0 ? 100.0 * (t_journal - t_bare) / t_bare : 0.0;
  const double metrics_pct =
      t_nojournal > 0.0 ? 100.0 * (t_metrics - t_nojournal) / t_nojournal
                        : 0.0;
  const double isolate_pct =
      t_bare > 0.0 ? 100.0 * (t_isolate - t_bare) / t_bare : 0.0;
  std::printf("journalling overhead %.2f%%, metrics overhead %.2f%%, "
              "isolation overhead %.2f%%; results %s\n",
              overhead_pct, metrics_pct, isolate_pct,
              correct ? "bit-identical" : "MISMATCH");

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"campaign_overhead\",\n"
               "  \"program\": \"%s\",\n"
               "  \"fault_groups\": %zu,\n"
               "  \"threads\": %u,\n"
               "  \"sampled\": %s,\n"
               "  \"seconds_engine\": %.4f,\n"
               "  \"seconds_campaign_nojournal\": %.4f,\n"
               "  \"seconds_campaign_metrics\": %.4f,\n"
               "  \"seconds_campaign_journal\": %.4f,\n"
               "  \"seconds_campaign_journal_none\": %.4f,\n"
               "  \"seconds_campaign_journal_fsync\": %.4f,\n"
               "  \"seconds_resume_seeded\": %.4f,\n"
               "  \"seconds_campaign_isolate\": %.4f,\n"
               "  \"seconds_campaign_sharded\": %.4f,\n"
               "  \"journal_overhead_percent\": %.3f,\n"
               "  \"metrics_overhead_percent\": %.3f,\n"
               "  \"isolate_overhead_percent\": %.3f,\n"
               "  \"worker_restarts\": %zu,\n"
               "  \"bit_identical\": %s\n"
               "}\n",
               pab.name.c_str(), groups, sim.threads,
               full ? "false" : "true", t_bare, t_nojournal, t_metrics,
               t_journal, t_dur_none, t_dur_fsync, t_resume, t_isolate,
               t_sharded, overhead_pct, metrics_pct, isolate_pct,
               isolated.worker_restarts, correct ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return correct ? 0 : 1;
}
