// Determinism contract of the multi-threaded fault-simulation engine:
// fault groups are independent (fresh LogicSim + Environment per group,
// disjoint result indices), so the FaultSimResult must be bit-identical
// for every thread count. Verified on a small combinational netlist, on
// a sequential netlist with sampling, and end-to-end on the Parwan SBST
// self-test run.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <vector>

#include "fault/comb_faultsim.h"
#include "fault/faultsim.h"
#include "netlist/fault.h"
#include "netlist/levelize.h"
#include "parwan/sbst.h"
#include "parwan/testbench.h"

namespace sbst::fault {
namespace {

void expect_identical(const FaultSimResult& a, const FaultSimResult& b,
                      const char* what) {
  EXPECT_EQ(a.detected, b.detected) << what;
  EXPECT_EQ(a.simulated, b.simulated) << what;
  EXPECT_EQ(a.detect_cycle, b.detect_cycle) << what;
  EXPECT_EQ(a.good_cycles, b.good_cycles) << what;
}

// A small multi-group combinational netlist: a mixed XOR/AND/OR mesh
// with heavy fanout yields several 63-fault groups after collapsing.
nl::Netlist make_comb_netlist() {
  nl::Netlist n;
  const auto& in = n.add_input("in", 16);
  std::vector<nl::GateId> nets(in.bits.begin(), in.bits.end());
  constexpr nl::GateKind kKinds[] = {nl::GateKind::kXor2, nl::GateKind::kAnd2,
                                     nl::GateKind::kOr2, nl::GateKind::kNand2};
  std::vector<nl::GateId> outs;
  for (std::size_t i = 0; i < 96; ++i) {
    const nl::GateId a = nets[(i * 7 + 3) % nets.size()];
    const nl::GateId b = nets[(i * 13 + 5) % nets.size()];
    const nl::GateId g = n.add_gate(kKinds[i % 4], a, b);
    nets.push_back(g);
    if (i % 3 == 0) outs.push_back(g);
  }
  n.add_output("o", outs);
  return n;
}

TEST(FaultSimParallel, CombinationalBitIdenticalAcrossThreadCounts) {
  const nl::Netlist n = make_comb_netlist();
  const nl::FaultList fl = nl::enumerate_faults(n);
  ASSERT_GT(fl.size(), 63u) << "need more than one fault group";
  VectorSet vs;
  for (unsigned v = 0; v < 16; ++v) {
    vs.push_back({{"in", v * 0x1111u}});
  }
  FaultSimOptions opt;
  opt.threads = 1;
  const FaultSimResult serial = grade_vectors(n, fl, vs, opt);
  for (unsigned threads : {2u, 4u}) {
    opt.threads = threads;
    const FaultSimResult par = grade_vectors(n, fl, vs, opt);
    expect_identical(serial, par, "combinational");
  }
}

TEST(FaultSimParallel, SampledRunBitIdenticalAcrossThreadCounts) {
  const nl::Netlist n = make_comb_netlist();
  const nl::FaultList fl = nl::enumerate_faults(n);
  VectorSet vs = {{{"in", 0x0000}}, {{"in", 0xFFFF}}, {{"in", 0x5A5A}}};
  FaultSimOptions opt;
  opt.sample = fl.size() / 2;
  opt.threads = 1;
  const FaultSimResult serial = grade_vectors(n, fl, vs, opt);
  for (unsigned threads : {2u, 4u}) {
    opt.threads = threads;
    const FaultSimResult par = grade_vectors(n, fl, vs, opt);
    expect_identical(serial, par, "sampled");
  }
}

TEST(FaultSimParallel, ParwanSelfTestBitIdenticalAcrossThreadCounts) {
  const parwan::ParwanCpu cpu = parwan::build_parwan_cpu();
  const parwan::ParwanSelfTest st = parwan::build_parwan_selftest();
  ASSERT_TRUE(st.halted);
  const nl::FaultList faults = nl::enumerate_faults(cpu.netlist);
  FaultSimOptions opt;
  opt.max_cycles = 10000;
  opt.sample = 630;  // 10 groups: keeps the 3x repetition fast
  opt.threads = 1;
  const FaultSimResult serial = run_fault_sim(
      cpu.netlist, faults, parwan::make_parwan_env_factory(cpu, st.image),
      opt);
  for (unsigned threads : {2u, 4u}) {
    opt.threads = threads;
    const FaultSimResult par = run_fault_sim(
        cpu.netlist, faults, parwan::make_parwan_env_factory(cpu, st.image),
        opt);
    expect_identical(serial, par, "parwan sbst");
  }
}

TEST(FaultSimParallel, CompiledKernelBitIdenticalAcrossThreadCounts) {
  // Pin the sweep engine at one thread and require both engines to
  // match it bit for bit at every thread count (shared compiled program,
  // one COW copy of the SoA arrays across workers).
  const nl::Netlist n = make_comb_netlist();
  const nl::FaultList fl = nl::enumerate_faults(n);
  VectorSet vs;
  for (unsigned v = 0; v < 16; ++v) {
    vs.push_back({{"in", v * 0x1111u}});
  }
  FaultSimOptions opt;
  opt.threads = 1;
  opt.engine = Engine::kSweep;
  const FaultSimResult sweep = grade_vectors(n, fl, vs, opt);
  // Work-counter contract: the sweep counts every combinational gate
  // once per evaluated cycle, so its counters are a pure function of
  // netlist and cycles, whatever the thread count. Event-engine counters
  // report the work actually done; only its verdicts must agree.
  EXPECT_EQ(sweep.gates_evaluated,
            sweep.sim_cycles * nl::levelize(n).comb_order.size());
  for (Engine engine : {Engine::kSweep, Engine::kEvent}) {
    opt.engine = engine;
    for (unsigned threads : {1u, 2u, 4u}) {
      opt.threads = threads;
      const FaultSimResult got = grade_vectors(n, fl, vs, opt);
      expect_identical(sweep, got, "compiled kernels");
      if (engine == Engine::kSweep) {
        EXPECT_EQ(sweep.gates_evaluated, got.gates_evaluated);
        EXPECT_EQ(sweep.sim_cycles, got.sim_cycles);
      }
    }
  }
}

TEST(FaultSimParallel, CompiledKernelParwanIdenticalAcrossThreadCounts) {
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
    expect_identical(sweep, event, "parwan event vs sweep");
  }
}

TEST(FaultSimParallel, HardwareDefaultMatchesSerial) {
  const nl::Netlist n = make_comb_netlist();
  const nl::FaultList fl = nl::enumerate_faults(n);
  VectorSet vs = {{{"in", 0xFFFF}}, {{"in", 0x0000}}};
  FaultSimOptions opt;
  opt.threads = 1;
  const FaultSimResult serial = grade_vectors(n, fl, vs, opt);
  opt.threads = 0;  // one worker per hardware thread
  const FaultSimResult hw = grade_vectors(n, fl, vs, opt);
  expect_identical(serial, hw, "threads=0");
}

TEST(FaultSimParallel, ProgressReportsEveryGroupMonotonically) {
  const nl::Netlist n = make_comb_netlist();
  const nl::FaultList fl = nl::enumerate_faults(n);
  VectorSet vs = {{{"in", 0xFFFF}}, {{"in", 0x0000}}};
  const std::size_t groups = (fl.size() + 62) / 63;
  for (unsigned threads : {1u, 4u}) {
    FaultSimOptions opt;
    opt.threads = threads;
    std::size_t calls = 0;
    std::size_t last_done = 0;
    bool monotonic = true;
    // The engine serializes progress invocations under a mutex, so plain
    // variables captured here need no further locking.
    opt.progress = [&](const Progress& p) {
      ++calls;
      if (p.done <= last_done || p.done > p.total) monotonic = false;
      if (p.seeded > p.done) monotonic = false;
      last_done = p.done;
      EXPECT_EQ(p.total, groups);
    };
    grade_vectors(n, fl, vs, opt);
    EXPECT_EQ(calls, groups) << threads << " threads";
    EXPECT_EQ(last_done, groups) << threads << " threads";
    EXPECT_TRUE(monotonic) << threads << " threads";
  }
}

}  // namespace
}  // namespace sbst::fault
