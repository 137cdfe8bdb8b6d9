// Bit-identity contract of the event-driven differential kernel
// (Engine::kEvent): for every netlist, environment, injection kind
// (combinational pin, PI/constant output, DFF D-pin, DFF Q-output),
// sampling, thread count and isolation mode, it must produce
// FaultSimResults bit-identical to the full-sweep kernel
// (Engine::kSweep) — including detect cycles and per-group cycle
// counts, which is what lets journals mix records from both engines.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "campaign/campaign.h"
#include "core/classify.h"
#include "core/program.h"
#include "fault/comb_faultsim.h"
#include "fault/faultsim.h"
#include "fault/good_trace.h"
#include "netlist/fault.h"
#include "parwan/sbst.h"
#include "parwan/testbench.h"
#include "plasma/cpu.h"
#include "plasma/testbench.h"

#include "temp_path.h"
#include "testutil.h"

namespace sbst::fault {
namespace {

void expect_identical(const FaultSimResult& a, const FaultSimResult& b,
                      const char* what) {
  EXPECT_EQ(a.detected, b.detected) << what;
  EXPECT_EQ(a.simulated, b.simulated) << what;
  EXPECT_EQ(a.detect_cycle, b.detect_cycle) << what;
  EXPECT_EQ(a.timed_out, b.timed_out) << what;
  EXPECT_EQ(a.quarantined, b.quarantined) << what;
  EXPECT_EQ(a.good_cycles, b.good_cycles) << what;
}

using testutil::make_comb_netlist;
using testutil::make_seq_netlist;
using testutil::pattern_env;

using testfs::temp_path;

TEST(EventKernel, CombinationalIdenticalToSweep) {
  const nl::Netlist n = make_comb_netlist();
  const nl::FaultList fl = nl::enumerate_faults(n);
  ASSERT_GT(fl.size(), 63u) << "need more than one fault group";
  VectorSet vs;
  for (unsigned v = 0; v < 24; ++v) vs.push_back({{"in", v * 0x0AD7u}});

  FaultSimOptions opt;
  opt.threads = 1;
  opt.engine = Engine::kSweep;
  const FaultSimResult sweep = grade_vectors(n, fl, vs, opt);
  opt.engine = Engine::kEvent;
  for (unsigned threads : {1u, 2u, 4u}) {
    opt.threads = threads;
    const FaultSimResult event = grade_vectors(n, fl, vs, opt);
    expect_identical(sweep, event, "comb");
    EXPECT_FALSE(event.trace_fallback);
    EXPECT_GT(event.trace_bytes, 0u);
  }
}

TEST(EventKernel, SequentialDffInjectionsIdenticalToSweep) {
  const nl::Netlist n = make_seq_netlist();
  const nl::FaultList fl = nl::enumerate_faults(n);
  ASSERT_GT(fl.size(), 63u) << "need more than one fault group";
  bool has_dff_d = false;
  bool has_dff_q = false;
  for (const nl::Fault& f : fl.faults) {
    if (n.gate(f.gate).kind == nl::GateKind::kDff) {
      (f.pin == 0 ? has_dff_q : has_dff_d) = true;
    }
  }
  ASSERT_TRUE(has_dff_d) << "fault list must include DFF D-pin faults";
  ASSERT_TRUE(has_dff_q) << "fault list must include DFF Q-output faults";

  FaultSimOptions opt;
  opt.max_cycles = 4096;
  opt.threads = 1;
  opt.engine = Engine::kSweep;
  const FaultSimResult sweep = run_fault_sim(n, fl, pattern_env(500), opt);
  opt.engine = Engine::kEvent;
  for (unsigned threads : {1u, 2u, 4u}) {
    opt.threads = threads;
    const FaultSimResult event = run_fault_sim(n, fl, pattern_env(500), opt);
    expect_identical(sweep, event, "sequential");
  }
}

TEST(EventKernel, SampledRunIdenticalToSweep) {
  const nl::Netlist n = make_seq_netlist();
  const nl::FaultList fl = nl::enumerate_faults(n);
  FaultSimOptions opt;
  opt.max_cycles = 4096;
  opt.sample = fl.size() / 2;
  opt.threads = 1;
  opt.engine = Engine::kSweep;
  const FaultSimResult sweep = run_fault_sim(n, fl, pattern_env(300), opt);
  opt.engine = Engine::kEvent;
  const FaultSimResult event = run_fault_sim(n, fl, pattern_env(300), opt);
  expect_identical(sweep, event, "sampled");
}

TEST(EventKernel, ParwanSelfTestIdenticalToSweep) {
  const parwan::ParwanCpu cpu = parwan::build_parwan_cpu();
  const parwan::ParwanSelfTest st = parwan::build_parwan_selftest();
  ASSERT_TRUE(st.halted);
  const nl::FaultList faults = nl::enumerate_faults(cpu.netlist);
  FaultSimOptions opt;
  opt.max_cycles = 10000;
  opt.sample = 630;
  opt.threads = 1;
  opt.engine = Engine::kSweep;
  const FaultSimResult sweep = run_fault_sim(
      cpu.netlist, faults, parwan::make_parwan_env_factory(cpu, st.image),
      opt);
  opt.engine = Engine::kEvent;
  for (unsigned threads : {1u, 2u, 4u}) {
    opt.threads = threads;
    const FaultSimResult event = run_fault_sim(
        cpu.netlist, faults, parwan::make_parwan_env_factory(cpu, st.image),
        opt);
    expect_identical(sweep, event, "parwan sbst");
  }
}

TEST(EventKernel, PlasmaPhaseABSampledIdenticalToSweep) {
  const plasma::PlasmaCpu cpu = plasma::build_plasma_cpu();
  const core::SelfTestProgram p =
      core::build_phase_ab(core::classify_plasma(cpu));
  ASSERT_TRUE(p.halted);
  const nl::FaultList faults = nl::enumerate_faults(cpu.netlist);
  FaultSimOptions opt;
  opt.max_cycles = 1'000'000;
  opt.sample = 315;  // 5 groups keeps the sweep reference affordable
  opt.threads = 1;
  opt.engine = Engine::kSweep;
  const FaultSimResult sweep = run_fault_sim(
      cpu.netlist, faults, plasma::make_cpu_env_factory(cpu, p.image), opt);
  opt.engine = Engine::kEvent;
  for (unsigned threads : {1u, 2u}) {
    opt.threads = threads;
    const FaultSimResult event = run_fault_sim(
        cpu.netlist, faults, plasma::make_cpu_env_factory(cpu, p.image), opt);
    expect_identical(sweep, event, "plasma phase ab");
    EXPECT_FALSE(event.trace_fallback);
  }
  // The entire point of the differential kernel: far fewer gate
  // evaluations for the same bit-identical verdicts. The committed
  // benchmark (BENCH_event_driven.json) tracks the precise factor; this
  // guards against regressions that quietly destroy the sparsity.
  opt.threads = 1;
  const FaultSimResult event = run_fault_sim(
      cpu.netlist, faults, plasma::make_cpu_env_factory(cpu, p.image), opt);
  ASSERT_GT(event.gates_evaluated, 0u);
  EXPECT_GE(sweep.gates_evaluated, 5 * event.gates_evaluated)
      << "event kernel lost its >=5x activity reduction";
}

TEST(EventKernel, GroupTimeoutBoundsIdenticalWhenNothingTimesOut) {
  // Clock bounds enabled (watchdog active) but generous enough that
  // nothing actually trips: results must stay bit-identical, with no
  // sweep fallback.
  const nl::Netlist n = make_seq_netlist();
  const nl::FaultList fl = nl::enumerate_faults(n);
  FaultSimOptions opt;
  opt.max_cycles = 4096;
  opt.threads = 1;
  opt.group_timeout_ms = 60'000;
  opt.engine = Engine::kSweep;
  const FaultSimResult sweep = run_fault_sim(n, fl, pattern_env(400), opt);
  opt.engine = Engine::kEvent;
  const FaultSimResult event = run_fault_sim(n, fl, pattern_env(400), opt);
  expect_identical(sweep, event, "timeout bounds");
  EXPECT_FALSE(event.trace_fallback);
}

TEST(EventKernel, TraceMemoryCapRebuildsBlocksFromRows) {
  const nl::Netlist n = make_seq_netlist();
  const nl::FaultList fl = nl::enumerate_faults(n);
  const std::shared_ptr<const nl::CompiledNetlist> cn = nl::compile(n);

  // Unit level: within the cap a block's planes are cached, past it they
  // are built into the reader's scratch, and both equal the uncapped
  // recording's word for word — every block, the partial last one (300 =
  // 4 * 64 + 44 cycles) included. One scratch block serves every build,
  // in reverse order, as a kernel reuses its own.
  const auto uncapped = record_good_trace(n, pattern_env(300), 4096, 0);
  ASSERT_NE(uncapped, nullptr);
  const std::size_t words = n.size() + 1;
  const std::size_t block_bytes = words * sizeof(sim::Word);
  const std::uint64_t blocks = (uncapped->cycles() + 63) / 64;
  ASSERT_EQ(uncapped->cycles(), 300u);
  EXPECT_EQ(uncapped->memory_bytes(), blocks * block_bytes);
  std::vector<sim::Word> unused;
  // No block fits in 8 bytes; two fit in 2.5 blocks' worth.
  for (const std::size_t cap : {std::size_t{8}, block_bytes * 5 / 2}) {
    SCOPED_TRACE(cap);
    const std::uint64_t cached = cap / block_bytes;
    const auto capped = record_good_trace(n, pattern_env(300), 4096, cap);
    ASSERT_NE(capped, nullptr);
    EXPECT_TRUE(capped->has_planes());
    EXPECT_TRUE(capped->watermark().complete);
    EXPECT_EQ(capped->cycles(), uncapped->cycles());
    EXPECT_EQ(capped->memory_bytes(), cached * block_bytes);
    std::vector<sim::Word> scratch;
    for (std::uint64_t b = blocks; b-- > 0;) {
      const sim::Word* want = uncapped->block(*cn, b, &unused);
      const sim::Word* got = capped->block(*cn, b, &scratch);
      EXPECT_EQ(got == scratch.data(), b >= cached) << b;
      EXPECT_EQ(std::vector<sim::Word>(got, got + words),
                std::vector<sim::Word>(want, want + words))
          << "block " << b << (b < cached ? " cached" : " in scratch");
    }
    EXPECT_TRUE(unused.empty()) << "an uncapped block built in scratch";

    // Kernel level: every group's record, work counters included, is the
    // uncapped one's, on the event kernel.
    FaultSimOptions opt;
    opt.max_cycles = 4096;
    const GroupPlan plan(fl, opt);
    GroupSimulator event(n, fl, plan, uncapped, cn);
    GroupSimulator rebuilt(n, fl, plan, capped, cn);
    EXPECT_EQ(rebuilt.lanes(), 1u);
    for (std::size_t g = 0; g < plan.num_groups(); ++g) {
      const GroupRecord want = event.simulate(g);
      const GroupRecord got = rebuilt.simulate(g);
      EXPECT_EQ(got.detected_mask, want.detected_mask) << g;
      EXPECT_EQ(got.detect_cycle, want.detect_cycle) << g;
      EXPECT_EQ(got.cycles, want.cycles) << g;
      EXPECT_EQ(got.gates_evaluated, want.gates_evaluated) << g;
      EXPECT_EQ(got.sim_cycles, want.sim_cycles) << g;
      EXPECT_EQ(got.evals_by_kind, want.evals_by_kind) << g;
      EXPECT_EQ(got.engine_used, GroupEngine::kEvent) << g;
    }
  }

  // Only a cut — a passed deadline or a drain — returns null.
  const std::atomic<bool> drained{true};
  EXPECT_EQ(record_good_trace(n, pattern_env(100), 4096, 8, true,
                              std::chrono::steady_clock::now()),
            nullptr);
  EXPECT_EQ(record_good_trace(n, pattern_env(100), 4096, 0, false,
                              std::chrono::steady_clock::time_point::max(),
                              &drained),
            nullptr);

  // Engine level: a run whose planes exceed trace_mem_mb stays on the
  // event kernel, with the uncapped run's results and work counters and
  // at most the cap of cached planes. One bit per gate per cycle: 8 Mi
  // gate-cycles fill the 1 MiB cap in any plane layout, and one more
  // block crosses it.
  const std::uint64_t cycles = (std::size_t{1} << 23) / n.size() + 64;
  FaultSimOptions opt;
  opt.max_cycles = cycles + 64;
  opt.engine = Engine::kEvent;
  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    opt.threads = threads;
    opt.trace_mem_mb = 0;
    opt.on_group = {};
    const FaultSimResult want = run_fault_sim(n, fl, pattern_env(cycles), opt);
    EXPECT_GT(want.trace_bytes, std::size_t{1} << 20);
    opt.trace_mem_mb = 1;
    std::atomic<std::size_t> sweep_records{0};
    opt.on_group = [&](const GroupRecord& rec, bool, double) {
      if (rec.engine_used != GroupEngine::kEvent) ++sweep_records;
    };
    const FaultSimResult got = run_fault_sim(n, fl, pattern_env(cycles), opt);
    expect_identical(want, got, "mem cap");
    EXPECT_EQ(got.gates_evaluated, want.gates_evaluated);
    EXPECT_EQ(got.sim_cycles, want.sim_cycles);
    EXPECT_EQ(sweep_records.load(), 0u);
    EXPECT_FALSE(got.trace_fallback);
    EXPECT_GT(got.trace_bytes, 0u);
    EXPECT_LE(got.trace_bytes, std::size_t{1} << 20);
  }
}

TEST(EventKernel, IsolatedCampaignIdenticalAcrossEngines) {
  const parwan::ParwanCpu cpu = parwan::build_parwan_cpu();
  const parwan::ParwanSelfTest st = parwan::build_parwan_selftest();
  const nl::FaultList faults = nl::enumerate_faults(cpu.netlist);
  const auto env = parwan::make_parwan_env_factory(cpu, st.image);
  constexpr std::uint64_t kFp = 0xe4e47dead0001ull;

  campaign::CampaignOptions base;
  base.sim.max_cycles = 10000;
  base.sim.sample = 630;
  base.sim.threads = 1;

  campaign::CampaignOptions sweep_opt = base;
  sweep_opt.sim.engine = Engine::kSweep;
  const campaign::CampaignResult sweep =
      campaign::run_campaign(cpu.netlist, faults, env, kFp, sweep_opt);

  campaign::CampaignOptions iso_opt = base;
  iso_opt.sim.engine = Engine::kEvent;
  iso_opt.isolate = true;
  iso_opt.iso.workers = 2;
  const campaign::CampaignResult iso =
      campaign::run_campaign(cpu.netlist, faults, env, kFp, iso_opt);
  expect_identical(sweep.result, iso.result, "isolated event campaign");
  EXPECT_EQ(iso.result.groups_done, iso.result.groups_total);
}

TEST(EventKernel, JournalResumeMixesEngines) {
  // Records journaled by one engine must seed a resume under the other:
  // start a campaign on the sweep kernel, drain it early, resume on the
  // event kernel — final result bit-identical to an uninterrupted run.
  const parwan::ParwanCpu cpu = parwan::build_parwan_cpu();
  const parwan::ParwanSelfTest st = parwan::build_parwan_selftest();
  const nl::FaultList faults = nl::enumerate_faults(cpu.netlist);
  const auto env = parwan::make_parwan_env_factory(cpu, st.image);
  constexpr std::uint64_t kFp = 0xe4e47dead0002ull;

  campaign::CampaignOptions base;
  base.sim.max_cycles = 10000;
  base.sim.sample = 630;
  base.sim.threads = 1;

  campaign::CampaignOptions full = base;
  full.sim.engine = Engine::kEvent;
  const campaign::CampaignResult uninterrupted =
      campaign::run_campaign(cpu.netlist, faults, env, kFp, full);

  const std::string journal = temp_path("event_mixed_resume.sbstj");
  std::remove(journal.c_str());

  std::atomic<bool> stop{false};
  campaign::CampaignOptions first = base;
  first.journal = journal;
  first.sim.engine = Engine::kSweep;
  first.sim.cancel = &stop;
  first.sim.progress = [&stop](const fault::Progress& p) {
    if (p.done >= 3) stop.store(true);
  };
  const campaign::CampaignResult partial =
      campaign::run_campaign(cpu.netlist, faults, env, kFp, first);
  ASSERT_TRUE(partial.interrupted);
  ASSERT_LT(partial.groups_done, partial.groups_total);
  ASSERT_GE(partial.groups_done, 3u);

  campaign::CampaignOptions second = base;
  second.journal = journal;
  second.sim.engine = Engine::kEvent;
  const campaign::CampaignResult resumed =
      campaign::run_campaign(cpu.netlist, faults, env, kFp, second);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.groups_done, resumed.groups_total);
  expect_identical(uninterrupted.result, resumed.result,
                   "sweep-journal resumed under event engine");

  // And the reverse direction: event-journaled records seed a sweep run.
  campaign::CampaignOptions third = base;
  third.journal = journal;
  third.sim.engine = Engine::kSweep;
  const campaign::CampaignResult reread =
      campaign::run_campaign(cpu.netlist, faults, env, kFp, third);
  EXPECT_TRUE(reread.resumed);
  EXPECT_EQ(reread.seeded_groups, reread.groups_total);
  expect_identical(uninterrupted.result, reread.result,
                   "event-journal reread under sweep engine");
  std::remove(journal.c_str());
}

TEST(EventKernel, FullySeededResumeRecordsNoTrace) {
  // A campaign whose journal already resolves every group must not pay
  // for good-trace recording.
  const nl::Netlist n = make_seq_netlist();
  const nl::FaultList fl = nl::enumerate_faults(n);
  std::vector<GroupRecord> records;
  FaultSimOptions opt;
  opt.max_cycles = 4096;
  opt.threads = 1;
  opt.engine = Engine::kEvent;
  opt.on_group = [&records](const GroupRecord& rec, bool, double) {
    records.push_back(rec);
  };
  const FaultSimResult first = run_fault_sim(n, fl, pattern_env(300), opt);
  EXPECT_GT(first.trace_bytes, 0u);

  FaultSimOptions seeded = opt;
  seeded.on_group = nullptr;
  seeded.seed_group = [&records](std::uint64_t group, GroupRecord* out) {
    *out = records.at(group);
    return true;
  };
  const FaultSimResult second =
      run_fault_sim(n, fl, pattern_env(300), seeded);
  expect_identical(first, second, "fully seeded");
  EXPECT_EQ(second.trace_bytes, 0u) << "no group simulated => no recording";
}

}  // namespace
}  // namespace sbst::fault
