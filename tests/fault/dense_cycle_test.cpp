// The event kernel's dense cycles (compiled_event_kernel.h): an active
// cycle run as one compiled sweep of every node, with the group's
// injections re-forced level by level, in place of the wavefront.
//
// Whichever active cycles run dense — none, all of them, or those the
// default policy picks after a wide wavefront — every group record must
// match the eight-lane sweep's bit for bit. A group that parks in the
// middle of a dense stretch must resume it with the same work counted
// as a group simulated in one go, at any thread count.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/classify.h"
#include "core/program.h"
#include "fault/compiled_event_kernel.h"
#include "fault/faultsim.h"
#include "fault/good_trace.h"
#include "fault/injection.h"
#include "netlist/compiled.h"
#include "netlist/fault.h"
#include "parwan/sbst.h"
#include "parwan/testbench.h"
#include "plasma/cpu.h"
#include "plasma/testbench.h"

#include "testutil.h"

namespace sbst::fault {
namespace {

using testutil::Records;

constexpr DenseCycles kPolicies[] = {DenseCycles::kNever,
                                     DenseCycles::kAlways,
                                     DenseCycles::kAdaptive};

const char* policy_name(DenseCycles d) {
  switch (d) {
    case DenseCycles::kNever:
      return "never dense";
    case DenseCycles::kAlways:
      return "always dense";
    default:
      return "adaptive";
  }
}

/// The sweep engine's records of the campaign.
Records sweep_records(const nl::Netlist& n, const nl::FaultList& fl,
                      const EnvFactory& env, FaultSimOptions opt) {
  Records recs;
  opt.engine = Engine::kSweep;
  opt.threads = 1;
  opt.on_group = [&recs](const GroupRecord& r, bool, double) {
    recs[r.group] = r;
  };
  run_fault_sim(n, fl, env, opt);
  return recs;
}

void expect_same_verdicts(const Records& want, const Records& got,
                          const char* what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (const auto& [g, a] : want) {
    const GroupRecord& b = got.at(g);
    EXPECT_EQ(a.detected_mask, b.detected_mask) << what << " group " << g;
    EXPECT_EQ(a.detect_cycle, b.detect_cycle) << what << " group " << g;
    EXPECT_EQ(a.cycles, b.cycles) << what << " group " << g;
    EXPECT_EQ(a.timed_out, b.timed_out) << what << " group " << g;
  }
}

void expect_same_work(const Records& want, const Records& got,
                      const char* what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (const auto& [g, a] : want) {
    const GroupRecord& b = got.at(g);
    EXPECT_EQ(a.gates_evaluated, b.gates_evaluated) << what << " group " << g;
    EXPECT_EQ(a.sim_cycles, b.sim_cycles) << what << " group " << g;
    EXPECT_EQ(a.evals_by_kind, b.evals_by_kind) << what << " group " << g;
  }
}

std::uint64_t total_evals(const Records& recs) {
  std::uint64_t sum = 0;
  for (const auto& [g, r] : recs) sum += r.gates_evaluated;
  return sum;
}

/// Grades the campaign under every policy and checks each against the
/// sweep. Returns the total evaluations per policy, in kPolicies order.
std::vector<std::uint64_t> expect_policies_match_sweep(
    const nl::Netlist& n, const nl::FaultList& fl, const EnvFactory& env,
    FaultSimOptions opt) {
  const Records want = sweep_records(n, fl, env, opt);
  opt.engine = Engine::kEvent;
  const std::shared_ptr<const GoodTrace> trace =
      testutil::good_run(n, env, opt);
  std::vector<std::uint64_t> evals;
  for (DenseCycles d : kPolicies) {
    const Records got = testutil::event_kernel_records(n, fl, opt, trace, d);
    expect_same_verdicts(want, got, policy_name(d));
    evals.push_back(total_evals(got));
  }
  return evals;
}

TEST(DenseCycle, SyntheticNetlistsMatchSweep) {
  // Every injection kind: PI and constant stems, combinational stems and
  // branches (duplicated MUX pins included), DFF D pins and Q outputs,
  // and the shapes the select filter and the guards act on.
  FaultSimOptions opt;
  opt.max_cycles = 4096;
  for (const nl::Netlist& n :
       {testutil::make_comb_netlist(), testutil::make_seq_netlist(),
        testutil::make_guard_netlist().n}) {
    const std::vector<std::uint64_t> evals = expect_policies_match_sweep(
        n, nl::enumerate_faults(n), testutil::pattern_env(300), opt);
    EXPECT_NE(evals[0], evals[1]) << "no dense cycle ran";
  }
}

TEST(DenseCycle, ParwanFullListMatchesSweep) {
  const parwan::ParwanCpu cpu = parwan::build_parwan_cpu();
  const parwan::ParwanSelfTest st = parwan::build_parwan_selftest();
  ASSERT_TRUE(st.halted);
  FaultSimOptions opt;
  opt.max_cycles = 100'000;
  expect_policies_match_sweep(cpu.netlist, nl::enumerate_faults(cpu.netlist),
                              parwan::make_parwan_env_factory(cpu, st.image),
                              opt);
}

TEST(DenseCycle, PlasmaSampleMatchesSweep) {
  const plasma::PlasmaCpu cpu = plasma::build_plasma_cpu();
  const core::SelfTestProgram p =
      core::build_phase_ab(core::classify_plasma(cpu));
  ASSERT_TRUE(p.halted);
  FaultSimOptions opt;
  opt.max_cycles = 1'000'000;
  opt.sample = 630;
  const std::vector<std::uint64_t> evals = expect_policies_match_sweep(
      cpu.netlist, nl::enumerate_faults(cpu.netlist),
      plasma::make_cpu_env_factory(cpu, p.image), opt);
  // The default policy ran some cycles dense, and not all of them.
  EXPECT_NE(evals[2], evals[0]);
  EXPECT_NE(evals[2], evals[1]);
}

TEST(DenseCycle, GroupsParkedMidStretchMatchOneGo) {
  const plasma::PlasmaCpu cpu = plasma::build_plasma_cpu();
  const core::SelfTestProgram p =
      core::build_phase_ab(core::classify_plasma(cpu));
  ASSERT_TRUE(p.halted);
  const nl::Netlist& n = cpu.netlist;
  const nl::FaultList fl = nl::enumerate_faults(n);
  const EnvFactory env = plasma::make_cpu_env_factory(cpu, p.image);
  FaultSimOptions opt;
  opt.max_cycles = 1'000'000;
  opt.sample = 630;
  opt.engine = Engine::kEvent;
  const GroupPlan plan(fl, opt);
  const std::shared_ptr<const nl::CompiledNetlist> cn = nl::compile(n);

  // Lock-step streaming on one thread: each time the recorder publishes
  // a block, every unfinished group runs to the new watermark and parks.
  const auto live = std::make_shared<GoodTrace>(n, true, 0);
  CompiledEventKernel kernel(n, *cn, testutil::po_bits(n), live);
  detail::InjectionTable inj(n.size());
  std::vector<GroupSlice> slices(plan.num_groups());
  std::vector<bool> done(plan.num_groups(), false);
  for (std::size_t g = 0; g < slices.size(); ++g) {
    slices[g].rec = plan.unstarted_record(g);
  }
  std::size_t mid_stretch = 0;
  const auto advance = [&] {
    for (std::size_t g = 0; g < slices.size(); ++g) {
      if (done[g]) continue;
      testutil::load_group(n, fl, plan, g, &inj);
      done[g] = kernel.simulate(inj, &slices[g]);
      if (!done[g] && slices[g].dense_left != 0) ++mid_stretch;
    }
  };
  const std::shared_ptr<const GoodTrace> trace = record_good_trace(
      live, n, env, opt.max_cycles,
      std::chrono::steady_clock::time_point::max(), nullptr, advance, cn);
  ASSERT_EQ(trace, live);
  advance();
  Records parked;
  for (std::size_t g = 0; g < slices.size(); ++g) {
    ASSERT_TRUE(done[g]) << "group " << g;
    parked[g] = slices[g].rec;
  }
  EXPECT_GT(mid_stretch, 0u) << "no group parked inside a dense stretch";

  const Records one_go = testutil::event_kernel_records(
      n, fl, opt, trace, DenseCycles::kAdaptive);
  expect_same_verdicts(one_go, parked, "parked");
  expect_same_work(one_go, parked, "parked");

  // The threaded executor streams the recording the same way: two
  // threads park groups wherever the watermark happens to be, and must
  // count exactly what one thread does.
  Records by_threads[2];
  for (unsigned threads : {1u, 2u}) {
    Records& recs = by_threads[threads - 1];
    opt.threads = threads;
    opt.on_group = [&recs](const GroupRecord& r, bool, double) {
      recs[r.group] = r;
    };
    run_fault_sim(n, fl, env, opt);
  }
  expect_same_verdicts(one_go, by_threads[0], "1 thread");
  expect_same_work(one_go, by_threads[0], "1 thread");
  expect_same_verdicts(by_threads[0], by_threads[1], "2 threads");
  expect_same_work(by_threads[0], by_threads[1], "2 threads");
}

}  // namespace
}  // namespace sbst::fault
