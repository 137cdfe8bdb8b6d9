// Durability contract of the campaign layer: kill-and-resume must be
// invisible in the results. A campaign interrupted at an arbitrary point
// (graceful drain, torn final journal record, garbage tail) and resumed
// at any thread count yields a FaultSimResult bit-identical to an
// uninterrupted run. Timed-out groups surface as the distinct
// `timed_out` verdict — never as silent undetected faults.
#include "campaign/campaign.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/journal.h"
#include "netlist/fault.h"
#include "parwan/sbst.h"
#include "parwan/testbench.h"
#include "temp_path.h"

namespace sbst::campaign {
namespace {

using testfs::temp_path;

void expect_identical(const fault::FaultSimResult& a,
                      const fault::FaultSimResult& b, const char* what) {
  EXPECT_EQ(a.detected, b.detected) << what;
  EXPECT_EQ(a.simulated, b.simulated) << what;
  EXPECT_EQ(a.detect_cycle, b.detect_cycle) << what;
  EXPECT_EQ(a.timed_out, b.timed_out) << what;
  EXPECT_EQ(a.quarantined, b.quarantined) << what;
  EXPECT_EQ(a.good_cycles, b.good_cycles) << what;
}

/// Shared Parwan fixture: building the CPU and measuring the self-test
/// once keeps the repeated campaigns cheap.
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
    o.sim.sample = 630;  // 10 groups, matches FaultSimParallel timing
    o.sim.threads = threads;
    return o;
  }
};

const ParwanCampaign& fixture() {
  static const auto* f = new ParwanCampaign;
  return *f;
}

constexpr std::uint64_t kFp = 0xfeedface12345678ull;

TEST(Campaign, UninterruptedRunMatchesEngineAndJournalsEveryGroup) {
  const auto& fx = fixture();
  CampaignOptions opt = ParwanCampaign::base_options(1);
  const fault::FaultSimResult plain =
      fault::run_fault_sim(fx.cpu.netlist, fx.faults, fx.env(), opt.sim);

  opt.journal = temp_path("campaign_plain.sbstj");
  std::remove(opt.journal.c_str());
  const CampaignResult cres =
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, opt);
  expect_identical(plain, cres.result, "journaled vs engine");
  EXPECT_FALSE(cres.resumed);
  EXPECT_FALSE(cres.interrupted);
  EXPECT_EQ(cres.groups_done, cres.groups_total);
  EXPECT_EQ(cres.groups_total,
            fault::GroupPlan(fx.faults, opt.sim).num_groups());

  const auto loaded = load_journal(
      opt.journal, {kFp, cres.groups_total, fx.faults.size()});
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->records.size(), cres.groups_total);
}

// The acceptance criterion: drain mid-campaign, mangle the journal tail
// the way a crash would, resume at 1/2/4 threads — bit-identical.
TEST(Campaign, KillAndResumeBitIdenticalAtEveryThreadCount) {
  const auto& fx = fixture();
  CampaignOptions ref_opt = ParwanCampaign::base_options(1);
  const fault::FaultSimResult reference =
      fault::run_fault_sim(fx.cpu.netlist, fx.faults, fx.env(), ref_opt.sim);

  for (unsigned threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(threads);
    const std::string path = temp_path("campaign_resume.sbstj");
    std::remove(path.c_str());

    // Phase 1: drain after a few groups, as a SIGTERM would.
    CampaignOptions opt = ParwanCampaign::base_options(threads);
    opt.journal = path;
    std::atomic<bool> cancel{false};
    opt.sim.cancel = &cancel;
    opt.sim.progress = [&cancel](const fault::Progress& p) {
      if (p.done >= 3) cancel.store(true);
    };
    const CampaignResult part =
        run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, opt);
    ASSERT_TRUE(part.interrupted);
    ASSERT_LT(part.groups_done, part.groups_total);
    ASSERT_GE(part.groups_done, 3u);

    // Phase 2: tear the journal mid-stream — drop half the final record
    // and put crash garbage behind it.
    {
      std::ifstream in(path, std::ios::binary);
      std::ostringstream ss;
      ss << in.rdbuf();
      std::string data = ss.str();
      data.resize(data.size() - 11);
      data += "\x7f crash!";
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      os << data;
    }

    // Phase 3: resume to completion.
    CampaignOptions resume = ParwanCampaign::base_options(threads);
    resume.journal = path;
    const CampaignResult full =
        run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, resume);
    EXPECT_TRUE(full.resumed);
    EXPECT_TRUE(full.journal_truncated);
    EXPECT_GE(full.seeded_groups, 2u);  // one record was torn off
    EXPECT_LT(full.seeded_groups, full.groups_total);
    EXPECT_FALSE(full.interrupted);
    EXPECT_EQ(full.groups_done, full.groups_total);
    expect_identical(reference, full.result, "resumed vs uninterrupted");

    // A second resume seeds everything and re-simulates nothing.
    const CampaignResult again =
        run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, resume);
    EXPECT_EQ(again.seeded_groups, again.groups_total);
    expect_identical(reference, again.result, "fully seeded vs reference");
  }
}

TEST(Campaign, MismatchedFingerprintRefusesToResume) {
  const auto& fx = fixture();
  CampaignOptions opt = ParwanCampaign::base_options(1);
  opt.journal = temp_path("campaign_fp.sbstj");
  std::remove(opt.journal.c_str());
  run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, opt);
  EXPECT_THROW(run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp ^ 1, opt),
               std::runtime_error);
  // A different sample size changes the group universe: same refusal.
  CampaignOptions other = opt;
  other.sim.sample = 315;
  EXPECT_THROW(run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, other),
               std::runtime_error);
}

/// Runs `opt` threaded and isolated (two workers) and returns each mode's
/// std::runtime_error message, empty when the mode did not throw one.
std::vector<std::string> run_error_in_both_modes(const ParwanCampaign& fx,
                                                 CampaignOptions opt) {
  std::vector<std::string> what;
  for (bool isolate : {false, true}) {
    opt.isolate = isolate;
    opt.iso.workers = 2;
    try {
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, opt);
      what.emplace_back();
    } catch (const std::runtime_error& e) {
      what.emplace_back(e.what());
    }
  }
  return what;
}

// A CRC-valid journal record whose shape does not fit its group's slot
// of the plan must be refused before anything is simulated, in both
// modes alike — splicing it would write past the group's faults.
TEST(Campaign, MismatchedSeedRecordRejectedInBothModes) {
  const auto& fx = fixture();
  CampaignOptions opt = ParwanCampaign::base_options(2);
  opt.sim.sample = 600;  // 10 groups; the last holds 600 - 9 * 63 = 33
  const fault::GroupPlan plan(fx.faults, opt.sim);
  ASSERT_EQ(plan.num_groups(), 10u);
  ASSERT_EQ(plan.group_count(9), 33u);

  opt.journal = temp_path("campaign_bad_seed.sbstj");
  {
    JournalWriter w = JournalWriter::create(
        opt.journal, {kFp, plan.num_groups(), fx.faults.size()});
    fault::GroupRecord rec;
    rec.group = 9;
    rec.count = 63;
    rec.detect_cycle.assign(63, -1);
    w.add(rec);
  }
  const std::vector<std::string> what = run_error_in_both_modes(fx, opt);
  EXPECT_NE(what[0].find("does not match group 9"), std::string::npos)
      << what[0];
  EXPECT_EQ(what[1], what[0]) << "isolated mode must reject it the same way";
}

// A drained (cancel already set) resume still replays every journaled
// group, in both modes, and counts as interrupted only while groups are
// left — a fully journaled campaign is complete.
TEST(Campaign, DrainedResumeReplaysEveryJournaledGroup) {
  const auto& fx = fixture();
  const std::string full_path = temp_path("campaign_drain_full.sbstj");
  const std::string part_path = temp_path("campaign_drain_part.sbstj");
  {
    CampaignOptions opt = ParwanCampaign::base_options(1);
    opt.journal = full_path;
    std::remove(full_path.c_str());
    run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, opt);

    opt.journal = part_path;
    std::remove(part_path.c_str());
    std::atomic<bool> cancel{false};
    opt.sim.cancel = &cancel;
    opt.sim.progress = [&cancel](const fault::Progress& p) {
      if (p.done >= 3) cancel.store(true);
    };
    ASSERT_TRUE(
        run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, opt)
            .interrupted);
  }

  for (const std::string& path : {full_path, part_path}) {
    CampaignOptions opt = ParwanCampaign::base_options(2);
    const std::size_t groups =
        fault::GroupPlan(fx.faults, opt.sim).num_groups();
    const auto loaded = load_journal(path, {kFp, groups, fx.faults.size()});
    ASSERT_TRUE(loaded);
    const std::size_t journaled = loaded->records.size();
    ASSERT_GT(journaled, 0u);
    for (bool isolate : {false, true}) {
      SCOPED_TRACE(path + (isolate ? " isolated" : " threaded"));
      opt.journal = path;
      opt.isolate = isolate;
      opt.iso.workers = 2;
      const std::atomic<bool> cancel{true};
      opt.sim.cancel = &cancel;
      const CampaignResult res =
          run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, opt);
      EXPECT_EQ(res.seeded_groups, journaled);
      EXPECT_EQ(res.groups_done, res.seeded_groups);
      EXPECT_EQ(res.resumed, res.seeded_groups != 0);
      EXPECT_EQ(res.interrupted, res.groups_done < res.groups_total);
    }
  }
}

// The environment runs once per campaign, on the run's own thread, to
// record the good run that every group replays: whatever the engine,
// thread count or executor, a campaign with groups to simulate builds
// exactly one, and a campaign fully seeded from its journal builds none.
TEST(Campaign, EnvironmentBuiltOncePerCampaign) {
  const auto& fx = fixture();
  std::atomic<int> built{0};
  const fault::EnvFactory counting = [&built, env = fx.env()] {
    built.fetch_add(1);
    return env();
  };
  const std::string path = temp_path("campaign_env_once.sbstj");
  for (const fault::Engine engine :
       {fault::Engine::kSweep, fault::Engine::kEvent}) {
    for (const int executor : {1, 4, -2}) {  // threads, or -workers
      CampaignOptions opt = ParwanCampaign::base_options(
          executor > 0 ? static_cast<unsigned>(executor) : 1u);
      opt.sim.engine = engine;
      opt.isolate = executor < 0;
      opt.iso.workers = executor < 0 ? 2u : 0u;
      opt.journal = path;
      const std::string mode =
          std::string(engine == fault::Engine::kSweep ? "sweep" : "event") +
          (opt.isolate ? " isolated" : " threads " + std::to_string(executor));
      std::remove(path.c_str());

      built.store(0);
      const CampaignResult fresh =
          run_campaign(fx.cpu.netlist, fx.faults, counting, kFp, opt);
      EXPECT_EQ(fresh.groups_done, fresh.groups_total) << mode;
      EXPECT_EQ(built.load(), 1) << mode;

      built.store(0);
      const CampaignResult seeded =
          run_campaign(fx.cpu.netlist, fx.faults, counting, kFp, opt);
      EXPECT_EQ(seeded.seeded_groups, seeded.groups_total) << mode;
      EXPECT_EQ(built.load(), 0) << mode;
      expect_identical(fresh.result, seeded.result, mode.c_str());
    }
  }
  std::remove(path.c_str());
}

/// Minimal never-halting environment whose clock can be made arbitrarily
/// slow. The environment only runs while the good run is recorded, so a
/// slow one stretches the recording, not the groups.
class SlowEnv final : public fault::Environment {
 public:
  explicit SlowEnv(std::chrono::microseconds per_cycle)
      : per_cycle_(per_cycle) {}
  void drive(sim::LogicSim&, std::uint64_t) override {
    if (per_cycle_.count() != 0) std::this_thread::sleep_for(per_cycle_);
  }
  bool observe(const sim::LogicSim&, std::uint64_t) override { return true; }

 private:
  std::chrono::microseconds per_cycle_;
};

/// XOR/AND mesh over 8 inputs; 40 gates give two fault groups.
nl::Netlist make_mesh_netlist(std::size_t gates = 40) {
  nl::Netlist n;
  const auto& in = n.add_input("in", 8);
  std::vector<nl::GateId> nets(in.bits.begin(), in.bits.end());
  std::vector<nl::GateId> outs;
  for (std::size_t i = 0; i < gates; ++i) {
    const nl::GateId g =
        n.add_gate(i % 2 ? nl::GateKind::kAnd2 : nl::GateKind::kXor2,
                   nets[(i * 5 + 1) % nets.size()],
                   nets[(i * 11 + 3) % nets.size()]);
    nets.push_back(g);
    if (i % 2 == 0) outs.push_back(g);
  }
  n.add_output("o", outs);
  return n;
}

TEST(Campaign, GroupTimeoutRecordsInconclusiveNotUndetected) {
  const nl::Netlist n = make_mesh_netlist();
  const nl::FaultList faults = nl::enumerate_faults(n);
  ASSERT_GT(faults.size(), 63u) << "need at least two groups";

  CampaignOptions opt;
  opt.sim.threads = 1;
  // Inputs never change, so no fault on this netlist is detectable and
  // without a bound every group would burn the full 1M cycles. The
  // instant environment records that run up front; the groups then
  // replay it, and the engine's amortized watchdog (every 1024 cycles)
  // trips the 20ms group timeout long before their last cycle. The
  // sweep engine keeps it a pure group-timeout test: the event engine
  // skips the quiet cycles of an unexcited group and could reach the
  // last cycle first. The same bound holds in a worker process, which
  // gets it from the driver it inherited.
  opt.sim.max_cycles = 1'000'000;
  opt.sim.group_timeout_ms = 20;
  opt.sim.engine = fault::Engine::kSweep;
  opt.iso.workers = 1;
  const auto env = []() {
    return std::make_unique<SlowEnv>(std::chrono::microseconds(0));
  };
  for (const bool isolate : {false, true}) {
    SCOPED_TRACE(isolate ? "isolated" : "threaded");
    opt.isolate = isolate;
    const CampaignResult cres = run_campaign(n, faults, env, kFp, opt);

    EXPECT_EQ(cres.groups_done, cres.groups_total);
    EXPECT_FALSE(cres.interrupted);
    EXPECT_EQ(cres.worker_restarts, 0u);
    // With constant inputs some faults flip a PO at cycle 0 (detected
    // before the timeout) but the rest can never get a verdict: every
    // one of those must surface as timed_out, none as silently
    // undetected, and none as quarantined.
    EXPECT_GT(cres.faults_timed_out, 0u);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      EXPECT_EQ(cres.result.simulated[i], 1);
      EXPECT_EQ(cres.result.detected[i] + cres.result.timed_out[i], 1)
          << "fault " << i << " must be exactly one of detected/inconclusive";
    }
    const fault::Coverage cov = fault::overall_coverage(faults, cres.result);
    EXPECT_TRUE(cov.is_lower_bound());
    EXPECT_EQ(cov.timed_out + cov.detected, cov.total);
  }
}

TEST(Campaign, TimeBudgetExpiresUnstartedGroupsAsTimedOut) {
  // Fifteen groups: eight that fill the serial worker's sweep lanes,
  // seven left unstarted.
  const nl::Netlist n = make_mesh_netlist(200);
  const nl::FaultList faults = nl::enumerate_faults(n);
  constexpr std::size_t kLanes = 8;
  constexpr std::size_t kLaneFaults = kLanes * 63;  // a group per lane
  ASSERT_GT(faults.size(), kLaneFaults + 63);

  CampaignOptions opt;
  opt.journal = temp_path("campaign_budget.sbstj");
  opt.sim.threads = 1;
  opt.sim.max_cycles = 1'000'000;
  opt.iso.workers = 1;
  const auto slow_env = []() {
    return std::make_unique<SlowEnv>(std::chrono::microseconds(100));
  };
  const auto fast_env = []() {
    return std::make_unique<SlowEnv>(std::chrono::microseconds(0));
  };
  const auto mode_of = [](const CampaignOptions& o) {
    return std::string(o.sim.engine == fault::Engine::kSweep ? "sweep"
                                                             : "event") +
           (o.isolate ? " isolated" : " threaded");
  };
  const auto expect_all_unstarted = [&faults](const CampaignResult& r,
                                              const std::string& mode) {
    EXPECT_EQ(r.groups_done, r.groups_total) << mode;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      EXPECT_EQ(r.result.timed_out[i], 1) << mode << " fault " << i;
      EXPECT_EQ(r.result.detected[i], 0) << mode << " fault " << i;
    }
    EXPECT_EQ(r.result.sim_cycles, 0u) << mode;
    EXPECT_EQ(r.result.good_cycles, 0u) << mode;
  };

  // Under a slow environment the budget expires while the good run is
  // recorded (the recorder next checks the deadline at cycle 1024, at
  // least 102 ms in). A cut recording is no sweep fallback: every group, group
  // 0 included, expires unstarted and is journaled as timed out, under
  // either engine and in either executor. The sweep threaded run's
  // journal seeds the retry below.
  for (const fault::Engine engine :
       {fault::Engine::kEvent, fault::Engine::kSweep}) {
    for (const bool isolate : {true, false}) {
      CampaignOptions o = opt;
      o.sim.engine = engine;
      o.sim.time_budget_ms = 30;
      o.isolate = isolate;
      std::remove(o.journal.c_str());
      const CampaignResult r = run_campaign(n, faults, slow_env, kFp, o);
      const std::string mode = mode_of(o);
      expect_all_unstarted(r, mode);
      EXPECT_FALSE(r.result.trace_fallback) << mode;
      EXPECT_EQ(r.result.trace_bytes, 0u) << mode;
      const auto loaded =
          load_journal(o.journal, {kFp, r.groups_total, faults.size()});
      ASSERT_TRUE(loaded) << mode;
      EXPECT_EQ(loaded->records.size(), r.groups_total) << mode;
    }
  }

  // A group running when the budget expires stops like a group timeout.
  // With an instant environment the good run records quickly, and a
  // sweep group replaying its 100k cycles runs several times longer (the
  // event engine would skip an unexcited group's quiet cycles and could
  // finish first), so a budget just past the recording expires while
  // groups 0 to 7 run in the worker's lanes: the watchdog cuts them at
  // a 1024-cycle check, so each of their faults is detected or
  // inconclusive. Groups 1 to 7 are claimed right after group 0, but a
  // slow start (a fork under --isolate) can push a claim past the
  // deadline, so each is either cut like group 0 or expires unstarted.
  // Later groups wait for a free lane, are unstarted at the deadline,
  // and so are inconclusive in full, even the faults a run without a
  // budget would have detected. How long the recording takes depends on
  // the machine, so the budget doubles from 1 ms until the recording and
  // the first claims fit in it; a tighter budget leaves every group
  // unstarted, as above.
  for (const bool isolate : {false, true}) {
    CampaignOptions o = opt;
    o.journal = temp_path("campaign_budget_mid.sbstj");
    o.sim.max_cycles = 100'000;
    o.sim.engine = fault::Engine::kSweep;
    o.isolate = isolate;
    for (o.sim.time_budget_ms = 1;; o.sim.time_budget_ms *= 2) {
      ASSERT_LE(o.sim.time_budget_ms, 8192u) << "no budget fits the recording";
      std::remove(o.journal.c_str());
      const CampaignResult r = run_campaign(n, faults, fast_env, kFp, o);
      const std::string mode =
          mode_of(o) + " budget " + std::to_string(o.sim.time_budget_ms);
      if (r.result.sim_cycles == 0) {
        expect_all_unstarted(r, mode);
        continue;
      }
      EXPECT_EQ(r.groups_done, r.groups_total) << mode;
      const auto loaded =
          load_journal(o.journal, {kFp, r.groups_total, faults.size()});
      ASSERT_TRUE(loaded) << mode;
      ASSERT_EQ(loaded->records.size(), r.groups_total) << mode;
      for (const fault::GroupRecord& rec : loaded->records) {
        EXPECT_TRUE(rec.timed_out) << mode << " group " << rec.group;
        if (rec.group == 0 || (rec.group < kLanes && rec.cycles != 0)) {
          EXPECT_EQ(rec.cycles % 1024, 1023u) << mode << " group " << rec.group;
          EXPECT_LT(rec.cycles, o.sim.max_cycles) << mode;
        } else {
          EXPECT_EQ(rec.cycles, 0u) << mode << " group " << rec.group;
        }
      }
      for (std::size_t i = 0; i < kLaneFaults; ++i) {
        EXPECT_EQ(r.result.detected[i] + r.result.timed_out[i], 1)
            << mode << " fault " << i;
      }
      for (std::size_t i = kLaneFaults; i < faults.size(); ++i) {
        EXPECT_EQ(r.result.timed_out[i], 1) << mode << " fault " << i;
        EXPECT_EQ(r.result.detected[i], 0) << mode << " fault " << i;
      }
      std::remove(o.journal.c_str());
      break;
    }
  }

  // A retry run with no budget and an instant environment resolves the
  // inconclusive groups to the clean result.
  CampaignOptions retry = opt;
  retry.sim.engine = fault::Engine::kEvent;
  retry.sim.time_budget_ms = 0;
  retry.retry_timed_out = true;
  // Bound the rerun: with constant inputs nothing is ever detected, so
  // cap cycles to keep the test quick while staying deterministic.
  retry.sim.max_cycles = 2048;
  const CampaignResult resolved =
      run_campaign(n, faults, fast_env, kFp, retry);
  EXPECT_EQ(resolved.seeded_groups, 0u) << "timed-out records must re-run";

  fault::FaultSimOptions clean = retry.sim;
  clean.seed_group = nullptr;
  clean.on_group = nullptr;
  const fault::FaultSimResult reference =
      fault::run_fault_sim(n, faults, fast_env, clean);
  expect_identical(reference, resolved.result, "retry vs clean");

  // The retry appended superseding (non-timed-out) records, and those
  // win over the stale timed-out ones on the next load — so a further
  // run seeds everything even with retry_timed_out still set.
  const CampaignResult reload = run_campaign(n, faults, fast_env, kFp, retry);
  EXPECT_EQ(reload.seeded_groups, reload.groups_total);
  expect_identical(reference, reload.result, "superseding records win");
}

TEST(Campaign, DrainDuringTraceRecordingSimulatesNothing) {
  // A drain that lands while the good run is recorded (the recorder next
  // checks the cancel flag at cycle 1024, at least 102 ms in) cuts the
  // recording. That is no sweep fallback: no group is claimed, so
  // nothing is simulated, under either engine and in either executor.
  const nl::Netlist n = make_mesh_netlist();
  const nl::FaultList faults = nl::enumerate_faults(n);
  const auto env = []() {
    return std::make_unique<SlowEnv>(std::chrono::microseconds(100));
  };
  for (const fault::Engine engine :
       {fault::Engine::kEvent, fault::Engine::kSweep}) {
    for (const bool isolate : {false, true}) {
      std::atomic<bool> cancel{false};
      CampaignOptions opt;
      opt.sim.threads = 1;
      opt.sim.max_cycles = 4096;
      opt.sim.engine = engine;
      opt.sim.cancel = &cancel;
      opt.isolate = isolate;
      opt.iso.workers = 1;
      std::thread drain([&cancel] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        cancel.store(true);
      });
      const CampaignResult r = run_campaign(n, faults, env, kFp, opt);
      drain.join();
      const std::string mode =
          std::string(engine == fault::Engine::kSweep ? "sweep" : "event") +
          (isolate ? " isolated" : " threaded");
      EXPECT_TRUE(r.result.cancelled) << mode;
      EXPECT_TRUE(r.interrupted) << mode;
      EXPECT_EQ(r.groups_done, 0u) << mode;
      EXPECT_EQ(r.result.sim_cycles, 0u) << mode;
      EXPECT_FALSE(r.result.trace_fallback) << mode;
      EXPECT_EQ(r.result.trace_bytes, 0u) << mode;
    }
  }
}

}  // namespace
}  // namespace sbst::campaign
