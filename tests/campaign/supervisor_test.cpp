// Process-isolation contract of the campaign supervisor: results are
// bit-identical to the in-process engine, a worker crash costs retries
// and then quarantines exactly one group (with the fatal signal in the
// structured error record) while every other group stays bit-identical,
// a transient crash is healed by a retry, and a drained isolated
// campaign resumes — even in the other execution mode.
#include "campaign/supervisor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "campaign/campaign.h"
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

struct ParwanIsolated {
  parwan::ParwanCpu cpu = parwan::build_parwan_cpu();
  parwan::ParwanSelfTest st = parwan::build_parwan_selftest();
  nl::FaultList faults = nl::enumerate_faults(cpu.netlist);

  fault::EnvFactory env() const {
    return parwan::make_parwan_env_factory(cpu, st.image);
  }

  static CampaignOptions base_options() {
    CampaignOptions o;
    o.sim.max_cycles = 10000;
    o.sim.sample = 630;  // 10 groups, same shape as campaign_test
    o.sim.threads = 1;
    return o;
  }
};

const ParwanIsolated& fixture() {
  static const auto* f = new ParwanIsolated;
  return *f;
}

constexpr std::uint64_t kFp = 0x150a7edbeef0001ull;

TEST(Supervisor, IsolatedRunIsBitIdenticalToInProcess) {
  const auto& fx = fixture();
  CampaignOptions opt = ParwanIsolated::base_options();
  const CampaignResult inproc =
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, opt);

  CampaignOptions iso = ParwanIsolated::base_options();
  iso.isolate = true;
  iso.iso.workers = 3;
  iso.journal = temp_path("sup_identical.sbstj");
  std::remove(iso.journal.c_str());
  const CampaignResult isolated =
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, iso);

  expect_identical(inproc.result, isolated.result, "isolated vs in-process");
  EXPECT_EQ(isolated.groups_done, isolated.groups_total);
  EXPECT_EQ(isolated.worker_restarts, 0u);
  EXPECT_TRUE(isolated.quarantined_groups.empty());
  EXPECT_FALSE(isolated.interrupted);

  // The journal an isolated run writes is a plain campaign journal: the
  // in-process mode can seed every group from it.
  CampaignOptions reread = ParwanIsolated::base_options();
  reread.journal = iso.journal;
  const CampaignResult seeded =
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, reread);
  EXPECT_EQ(seeded.seeded_groups, seeded.groups_total);
  expect_identical(inproc.result, seeded.result, "journal crosses modes");
}

// The ISSUE acceptance scenario: a worker that abort()s on one
// designated group, every attempt. After max_group_retries + 1 attempts
// the group is quarantined with SIGABRT in the error record; every
// other group matches the clean run bit-for-bit; coverage turns into an
// explicit lower bound.
TEST(Supervisor, PoisonGroupIsQuarantinedAfterRetriesWithSignalRecorded) {
  const auto& fx = fixture();
  CampaignOptions clean_opt = ParwanIsolated::base_options();
  const CampaignResult clean =
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, clean_opt);

  constexpr std::uint64_t kPoison = 4;
  CampaignOptions opt = ParwanIsolated::base_options();
  opt.isolate = true;
  opt.iso.workers = 2;
  opt.iso.max_group_retries = 2;
  opt.iso.crash_group = kPoison;  // crashes on every attempt
  opt.journal = temp_path("sup_poison.sbstj");
  std::remove(opt.journal.c_str());
  const CampaignResult res =
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, opt);

  // The campaign survives and finishes every group.
  EXPECT_EQ(res.groups_done, res.groups_total);
  EXPECT_FALSE(res.interrupted);
  ASSERT_EQ(res.quarantined_groups.size(), 1u);
  const QuarantinedGroup& q = res.quarantined_groups[0];
  EXPECT_EQ(q.group, kPoison);
  EXPECT_EQ(q.error.term_signal, SIGABRT);
  EXPECT_EQ(q.error.attempts, opt.iso.max_group_retries + 1);
  EXPECT_EQ(res.worker_restarts, opt.iso.max_group_retries + 1);
  EXPECT_EQ(res.faults_quarantined, 63u);

  // Slot-exact verdicts: the poison group's faults are quarantined (not
  // undetected, not detected); every other fault matches the clean run.
  std::size_t quarantined_slots = 0;
  for (std::size_t i = 0; i < fx.faults.size(); ++i) {
    if (i < res.result.quarantined.size() && res.result.quarantined[i]) {
      ++quarantined_slots;
      EXPECT_EQ(res.result.detected[i], 0);
      EXPECT_EQ(res.result.detect_cycle[i], -1);
      EXPECT_EQ(res.result.simulated[i], 1);
    } else {
      EXPECT_EQ(res.result.detected[i], clean.result.detected[i]) << i;
      EXPECT_EQ(res.result.detect_cycle[i], clean.result.detect_cycle[i])
          << i;
      EXPECT_EQ(res.result.simulated[i], clean.result.simulated[i]) << i;
    }
  }
  EXPECT_EQ(quarantined_slots, 63u);

  // Coverage is now an explicit lower bound.
  const fault::Coverage cov = fault::overall_coverage(fx.faults, res.result);
  EXPECT_TRUE(cov.is_lower_bound());
  EXPECT_GT(cov.quarantined, 0u);

  // The quarantine record is durable: a resumed campaign seeds it (and
  // everything else) without touching a worker.
  const CampaignResult reread =
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, opt);
  EXPECT_EQ(reread.seeded_groups, reread.groups_total);
  ASSERT_EQ(reread.quarantined_groups.size(), 1u);
  EXPECT_EQ(reread.quarantined_groups[0].error.term_signal, SIGABRT);
  EXPECT_EQ(reread.worker_restarts, 0u);

  // retry_timed_out gives the quarantined group a fresh chance; without
  // the crash hook it now succeeds and the full result matches clean.
  CampaignOptions heal = opt;
  heal.iso.crash_group = -1;
  heal.retry_timed_out = true;
  const CampaignResult healed =
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, heal);
  EXPECT_EQ(healed.seeded_groups, healed.groups_total - 1);
  EXPECT_TRUE(healed.quarantined_groups.empty());
  expect_identical(clean.result, healed.result, "healed vs clean");
}

TEST(Supervisor, TransientCrashIsHealedByARetry) {
  const auto& fx = fixture();
  CampaignOptions clean_opt = ParwanIsolated::base_options();
  const CampaignResult clean =
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, clean_opt);

  CampaignOptions opt = ParwanIsolated::base_options();
  opt.isolate = true;
  opt.iso.workers = 2;
  opt.iso.max_group_retries = 2;
  opt.iso.crash_group = 6;
  opt.iso.crash_attempts = 1;  // first attempt dies, the retry succeeds
  const CampaignResult res =
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, opt);

  EXPECT_EQ(res.worker_restarts, 1u);
  EXPECT_TRUE(res.quarantined_groups.empty());
  EXPECT_EQ(res.faults_quarantined, 0u);
  EXPECT_EQ(res.groups_done, res.groups_total);
  expect_identical(clean.result, res.result, "retried vs clean");
}

TEST(Supervisor, DrainStopsDispatchAndResumesBitIdentical) {
  const auto& fx = fixture();
  CampaignOptions clean_opt = ParwanIsolated::base_options();
  const CampaignResult clean =
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, clean_opt);

  const std::string path = temp_path("sup_drain.sbstj");
  std::remove(path.c_str());

  CampaignOptions opt = ParwanIsolated::base_options();
  opt.isolate = true;
  opt.iso.workers = 2;
  opt.journal = path;
  std::atomic<bool> cancel{false};
  opt.sim.cancel = &cancel;
  opt.sim.progress = [&cancel](const fault::Progress& p) {
    if (p.done >= 3) cancel.store(true);
  };
  const CampaignResult part =
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, opt);
  ASSERT_TRUE(part.interrupted);
  ASSERT_GE(part.groups_done, 3u);
  ASSERT_LT(part.groups_done, part.groups_total);

  // Resume in isolated mode...
  CampaignOptions resume = ParwanIsolated::base_options();
  resume.isolate = true;
  resume.iso.workers = 2;
  resume.journal = path;
  const CampaignResult full =
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, resume);
  EXPECT_TRUE(full.resumed);
  EXPECT_EQ(full.groups_done, full.groups_total);
  expect_identical(clean.result, full.result, "isolated resume");
}

// Under the sweep engine a worker simulates eight groups at once, so a
// crash is charged to every group it holds. The seeded crash hook fires
// on group 1, which the single worker accepts while group 0 is still in
// another lane.
CampaignOptions paired_options() {
  CampaignOptions o = ParwanIsolated::base_options();
  o.sim.engine = fault::Engine::kSweep;
  o.isolate = true;
  o.iso.workers = 1;
  o.iso.crash_group = 1;
  return o;
}

TEST(Supervisor, SweepLaneWorkersAreBitIdenticalToInProcess) {
  const auto& fx = fixture();
  CampaignOptions inproc_opt = ParwanIsolated::base_options();
  inproc_opt.sim.engine = fault::Engine::kSweep;
  const CampaignResult inproc =
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, inproc_opt);
  for (unsigned workers : {1u, 2u}) {
    CampaignOptions opt = paired_options();
    opt.iso.crash_group = -1;
    opt.iso.workers = workers;
    const CampaignResult iso =
        run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, opt);
    expect_identical(inproc.result, iso.result, "sweep lane workers");
    EXPECT_EQ(iso.result.gates_evaluated, inproc.result.gates_evaluated);
    EXPECT_EQ(iso.worker_restarts, 0u);
  }
}

TEST(Supervisor, InnocentPartnerOfPoisonGroupIsNeverQuarantined) {
  const auto& fx = fixture();
  CampaignOptions clean_opt = ParwanIsolated::base_options();
  clean_opt.sim.engine = fault::Engine::kSweep;
  const CampaignResult clean =
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, clean_opt);

  // No retries at all: the partner's only failure was shared, so it
  // still gets a solo attempt; the poison group fails that solo attempt
  // too and only then is quarantined.
  CampaignOptions opt = paired_options();
  opt.iso.max_group_retries = 0;
  const CampaignResult res =
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, opt);
  EXPECT_EQ(res.groups_done, res.groups_total);
  ASSERT_EQ(res.quarantined_groups.size(), 1u);
  EXPECT_EQ(res.quarantined_groups[0].group, 1u);
  EXPECT_EQ(res.quarantined_groups[0].error.term_signal, SIGABRT);
  EXPECT_EQ(res.quarantined_groups[0].error.attempts, 2u);
  EXPECT_EQ(res.worker_restarts, 2u);
  EXPECT_EQ(res.faults_quarantined, 63u);
  for (std::size_t i = 0; i < fx.faults.size(); ++i) {
    if (res.result.quarantined[i]) continue;
    EXPECT_EQ(res.result.detected[i], clean.result.detected[i]) << i;
    EXPECT_EQ(res.result.detect_cycle[i], clean.result.detect_cycle[i]) << i;
  }
}

TEST(Supervisor, SharedCrashWithNoRetriesStillGetsASoloAttempt) {
  const auto& fx = fixture();
  CampaignOptions clean_opt = ParwanIsolated::base_options();
  clean_opt.sim.engine = fault::Engine::kSweep;
  const CampaignResult clean =
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, clean_opt);

  CampaignOptions opt = paired_options();
  opt.iso.max_group_retries = 0;
  opt.iso.crash_attempts = 1;  // only the shared first attempt dies
  const CampaignResult res =
      run_campaign(fx.cpu.netlist, fx.faults, fx.env(), kFp, opt);
  EXPECT_EQ(res.worker_restarts, 1u);
  EXPECT_TRUE(res.quarantined_groups.empty());
  EXPECT_EQ(res.groups_done, res.groups_total);
  expect_identical(clean.result, res.result, "solo retry vs clean");
}

/// Deterministic no-op environment: inputs never change.
class ConstEnv final : public fault::Environment {
 public:
  void drive(sim::LogicSim&, std::uint64_t) override {}
  bool observe(const sim::LogicSim&, std::uint64_t) override { return true; }
};

/// A netlist too wide for a small worker: `gates` two-input gates in one
/// level over 8 inputs, the last 8 of them observed. A worker's kernel
/// state holds at least 8 bytes per gate (the event kernel's value word;
/// 64 under the sweep, one word per lane), allocated when its first
/// group starts.
nl::Netlist make_wide_netlist(std::size_t gates) {
  nl::Netlist n;
  const auto& in = n.add_input("in", 8);
  std::vector<nl::GateId> outs;
  for (std::size_t i = 0; i < gates; ++i) {
    const nl::GateId g =
        n.add_gate(i % 2 ? nl::GateKind::kAnd2 : nl::GateKind::kXor2,
                   in.bits[i % 8], in.bits[(i / 8 + 1 + i) % 8]);
    if (i + 8 >= gates) outs.push_back(g);
  }
  n.add_output("o", outs);
  return n;
}

/// Half a million gates need at least 4 MiB of kernel state in every
/// worker, which can never be granted under a 4 MiB RLIMIT_AS: under either
/// engine, every attempt on every group OOMs its own worker. Returns
/// one line per failed check, so an empty string means the campaign
/// terminated with every group quarantined rather than crashing,
/// hanging, or taking the test runner down — that containment is the
/// entire point of process isolation.
std::string oom_campaign_failures() {
  const nl::Netlist n = make_wide_netlist(std::size_t{1} << 19);
  // Two groups of stem faults.
  nl::FaultList faults;
  for (std::size_t i = 0; i < 2 * 63; ++i) {
    faults.faults.push_back({static_cast<nl::GateId>(n.size() - 1 - i), 0,
                             static_cast<std::uint8_t>(i % 2)});
    faults.class_size.push_back(1);
  }
  faults.total_uncollapsed = faults.size();
  const auto env = []() { return std::make_unique<ConstEnv>(); };

  std::string failures;
  const auto check = [&failures](bool ok, fault::Engine engine,
                                 const std::string& what) {
    if (ok) return;
    failures += engine == fault::Engine::kSweep ? "sweep: " : "event: ";
    failures += what + "\n";
  };
  for (const fault::Engine engine :
       {fault::Engine::kSweep, fault::Engine::kEvent}) {
    CampaignOptions opt;
    opt.sim.max_cycles = 8;
    opt.sim.engine = engine;
    opt.isolate = true;
    opt.iso.workers = 1;
    opt.iso.max_group_retries = 0;
    opt.iso.worker_mem_mb = 4;
    const CampaignResult res = run_campaign(n, faults, env, kFp ^ 0x99, opt);

    const std::string counts = " (" + std::to_string(res.groups_done) +
                               " done, " +
                               std::to_string(res.quarantined_groups.size()) +
                               " quarantined, " +
                               std::to_string(res.worker_restarts) +
                               " restarts, of " +
                               std::to_string(res.groups_total) + " groups)";
    check(res.groups_done == res.groups_total, engine,
          "not every group resolved" + counts);
    check(res.quarantined_groups.size() == res.groups_total, engine,
          "not every group quarantined" + counts);
    check(res.worker_restarts >= res.groups_total, engine,
          "fewer restarts than groups" + counts);
    for (const QuarantinedGroup& q : res.quarantined_groups) {
      // Death by rlimit shows up as SIGABRT (uncaught bad_alloc) or
      // SIGSEGV/SIGKILL — never as a clean exit 0.
      check(q.error.term_signal != 0 || q.error.exit_code != 0, engine,
            "group " + std::to_string(q.group) + " exited cleanly");
    }
  }
  return failures;
}

TEST(Supervisor, WorkerMemoryLimitTurnsOomIntoQuarantineNotCampaignDeath) {
  // A forked worker inherits its supervisor's free heap, and malloc
  // serves the worker from it without asking for address space, so
  // RLIMIT_AS bites only if that heap is small. Suites that ran earlier
  // in this process can leave it large, so the campaign runs in a
  // freshly exec'd copy of this binary (a "threadsafe" death test),
  // whose heap holds nothing but this test's own allocations.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        const std::string failures = oom_campaign_failures();
        std::fputs(failures.c_str(), stderr);
        std::_Exit(failures.empty() ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace sbst::campaign
