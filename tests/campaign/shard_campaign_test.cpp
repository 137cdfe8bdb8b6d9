// Sharding contract of the campaign layer: restricting a run to one
// residue class of the group universe (FaultSimOptions::shard_count /
// shard_index) changes only *which* groups it simulates, never their
// results; the shard journals share the campaign fingerprint and merge
// (merge_journals) into a journal whose resume is bit-identical to a
// clean unsharded run at any thread count and under process isolation.
#include "campaign/campaign.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "campaign/journal.h"
#include "netlist/fault.h"
#include "parwan/sbst.h"
#include "parwan/testbench.h"

namespace sbst::campaign {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

void expect_identical(const fault::FaultSimResult& a,
                      const fault::FaultSimResult& b, const char* what) {
  EXPECT_EQ(a.detected, b.detected) << what;
  EXPECT_EQ(a.simulated, b.simulated) << what;
  EXPECT_EQ(a.detect_cycle, b.detect_cycle) << what;
  EXPECT_EQ(a.timed_out, b.timed_out) << what;
  EXPECT_EQ(a.quarantined, b.quarantined) << what;
  EXPECT_EQ(a.good_cycles, b.good_cycles) << what;
}

struct ParwanCampaign {
  parwan::ParwanCpu cpu = parwan::build_parwan_cpu();
  parwan::ParwanSelfTest st = parwan::build_parwan_selftest();
  nl::FaultList faults = nl::enumerate_faults(cpu.netlist);

  fault::EnvFactory env() const {
    return parwan::make_parwan_env_factory(cpu, st.image);
  }

  static CampaignOptions base_options(unsigned threads) {
    CampaignOptions o;
    o.sim.max_cycles = 10000;
    o.sim.sample = 630;  // 10 groups
    o.sim.threads = threads;
    return o;
  }
};

const ParwanCampaign& fixture() {
  static const auto* f = new ParwanCampaign;
  return *f;
}

constexpr std::uint64_t kFp = 0x5eed5eed5eed5eedull;

TEST(ShardCampaign, ShardGroupsPartitionsUniverse) {
  for (std::size_t total : {std::size_t{0}, std::size_t{1}, std::size_t{10},
                            std::size_t{63}, std::size_t{631}}) {
    for (std::uint32_t n : {2u, 3u, 4u, 7u}) {
      std::size_t sum = 0;
      for (std::uint32_t i = 0; i < n; ++i) {
        fault::FaultSimOptions sim;
        sim.shard_count = n;
        sim.shard_index = i;
        sum += shard_groups(total, sim);
      }
      EXPECT_EQ(sum, total) << total << " groups over " << n << " shards";
    }
  }
  // Unsharded (0 or 1) is the whole universe.
  fault::FaultSimOptions sim;
  EXPECT_EQ(shard_groups(10, sim), 10u);
  sim.shard_count = 1;
  EXPECT_EQ(shard_groups(10, sim), 10u);
}

TEST(ShardCampaign, OutOfRangeShardIndexThrows) {
  const auto& fx = fixture();
  CampaignOptions opt = ParwanCampaign::base_options(1);
  opt.sim.shard_count = 2;
  opt.sim.shard_index = 2;
  EXPECT_THROW(run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, opt),
               std::runtime_error);
}

// The tentpole contract: shard the campaign two ways, merge the shard
// journals, and the merged journal seeds a resume whose result is
// bit-identical to a clean unsharded run — at 1/2/4 threads.
TEST(ShardCampaign, ShardedRunsMergeToBitIdenticalResume) {
  const auto& fx = fixture();
  CampaignOptions ref_opt = ParwanCampaign::base_options(1);
  const fault::FaultSimResult reference =
      fault::run_fault_sim(fx.cpu.netlist, fx.faults, fx.env(), ref_opt.sim);

  const std::size_t universe =
      fault::GroupPlan(fx.faults, ref_opt.sim).num_groups();
  std::vector<std::string> shard_journals;
  for (std::uint32_t i = 0; i < 2; ++i) {
    CampaignOptions opt = ParwanCampaign::base_options(2);
    opt.sim.shard_count = 2;
    opt.sim.shard_index = i;
    opt.journal = temp_path(i == 0 ? "shard0of2.sbstj" : "shard1of2.sbstj");
    std::remove(opt.journal.c_str());
    shard_journals.push_back(opt.journal);

    const CampaignResult part =
        run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, opt);
    EXPECT_FALSE(part.interrupted);
    // The journal header records the full universe; progress counts
    // against the shard-local total.
    EXPECT_EQ(part.groups_total, universe);
    EXPECT_EQ(part.shard_groups_total, (universe + 1 - i) / 2);
    EXPECT_EQ(part.groups_done, part.shard_groups_total);
    EXPECT_EQ(part.result.groups_scheduled, part.shard_groups_total);

    const auto loaded = load_journal(
        opt.journal, {kFp, universe, fx.faults.size()});
    ASSERT_TRUE(loaded);
    EXPECT_EQ(loaded->records.size(), part.shard_groups_total);
    for (const fault::GroupRecord& r : loaded->records) {
      EXPECT_EQ(r.group % 2, i) << "record outside the shard residue class";
    }
  }

  const std::string merged = temp_path("shard_merged.sbstj");
  const MergeStats ms = merge_journals(shard_journals, merged);
  EXPECT_EQ(ms.records_in, universe);
  EXPECT_EQ(ms.records_out, universe);
  ASSERT_EQ(ms.inputs.size(), 2u);
  EXPECT_EQ(ms.inputs[0].winners + ms.inputs[1].winners, universe);

  for (unsigned threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(threads);
    CampaignOptions resume = ParwanCampaign::base_options(threads);
    resume.journal = merged;
    const CampaignResult full =
        run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, resume);
    EXPECT_TRUE(full.resumed);
    EXPECT_EQ(full.seeded_groups, universe) << "merge must seed everything";
    EXPECT_EQ(full.groups_done, full.groups_total);
    expect_identical(reference, full.result, "merged resume vs unsharded");
  }
}

// A shard interrupted mid-run leaves a journal that resumes within the
// same residue class: the rerun simulates only the missing shard groups
// and the finished shard merges cleanly with the others.
TEST(ShardCampaign, InterruptedShardResumesWithinResidueClass) {
  const auto& fx = fixture();
  CampaignOptions ref_opt = ParwanCampaign::base_options(1);
  const fault::FaultSimResult reference =
      fault::run_fault_sim(fx.cpu.netlist, fx.faults, fx.env(), ref_opt.sim);
  const std::size_t universe =
      fault::GroupPlan(fx.faults, ref_opt.sim).num_groups();

  const std::string j0 = temp_path("shard_drain0.sbstj");
  const std::string j1 = temp_path("shard_drain1.sbstj");
  std::remove(j0.c_str());
  std::remove(j1.c_str());

  // Shard 1 runs to completion.
  CampaignOptions s1 = ParwanCampaign::base_options(1);
  s1.sim.shard_count = 2;
  s1.sim.shard_index = 1;
  s1.journal = j1;
  run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, s1);

  // Shard 0 drains after two groups, as a SIGTERM would stop it.
  CampaignOptions s0 = ParwanCampaign::base_options(1);
  s0.sim.shard_count = 2;
  s0.sim.shard_index = 0;
  s0.journal = j0;
  std::atomic<bool> cancel{false};
  s0.sim.cancel = &cancel;
  s0.sim.progress = [&cancel](const fault::Progress& p) {
    if (p.done >= 2) cancel.store(true);
  };
  const CampaignResult part =
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, s0);
  ASSERT_TRUE(part.interrupted);
  ASSERT_LT(part.groups_done, part.shard_groups_total);

  // Resume the shard: only its missing residue-class groups re-run.
  CampaignOptions s0r = ParwanCampaign::base_options(1);
  s0r.sim.shard_count = 2;
  s0r.sim.shard_index = 0;
  s0r.journal = j0;
  const CampaignResult full =
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, s0r);
  EXPECT_TRUE(full.resumed);
  EXPECT_FALSE(full.interrupted);
  EXPECT_EQ(full.groups_done, full.shard_groups_total);

  const std::string merged = temp_path("shard_drain_merged.sbstj");
  merge_journals({j0, j1}, merged);
  CampaignOptions resume = ParwanCampaign::base_options(2);
  resume.journal = merged;
  const CampaignResult whole =
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, resume);
  EXPECT_EQ(whole.seeded_groups, universe);
  expect_identical(reference, whole.result, "drained shard merge");
}

// Named outside the TSan suite regex on purpose: --isolate forks
// worker processes, which TSan instrumentation does not tolerate.
TEST(ShardIsolate, MergedResumeBitIdenticalUnderIsolation) {
  const auto& fx = fixture();
  CampaignOptions ref_opt = ParwanCampaign::base_options(1);
  const fault::FaultSimResult reference =
      fault::run_fault_sim(fx.cpu.netlist, fx.faults, fx.env(), ref_opt.sim);
  const std::size_t universe =
      fault::GroupPlan(fx.faults, ref_opt.sim).num_groups();

  std::vector<std::string> shard_journals;
  for (std::uint32_t i = 0; i < 2; ++i) {
    CampaignOptions opt = ParwanCampaign::base_options(1);
    opt.sim.shard_count = 2;
    opt.sim.shard_index = i;
    opt.journal = temp_path(i == 0 ? "shard_iso0.sbstj" : "shard_iso1.sbstj");
    std::remove(opt.journal.c_str());
    shard_journals.push_back(opt.journal);
    run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, opt);
  }
  const std::string merged = temp_path("shard_iso_merged.sbstj");
  merge_journals(shard_journals, merged);

  CampaignOptions resume = ParwanCampaign::base_options(1);
  resume.journal = merged;
  resume.isolate = true;
  resume.iso.workers = 2;
  const CampaignResult full =
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, resume);
  EXPECT_EQ(full.seeded_groups, universe);
  EXPECT_EQ(full.groups_done, full.groups_total);
  expect_identical(reference, full.result, "merged resume under --isolate");
}

}  // namespace
}  // namespace sbst::campaign
