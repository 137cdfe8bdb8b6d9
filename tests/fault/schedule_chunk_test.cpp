// Chunk boundaries of the compiled event kernel's excitation schedule.
//
// The compiled event kernel fills its excitation schedule a fixed
// 64-cycle chunk at a time, as the cycle loop enters each chunk. Every
// boundary effect — detection on a chunk's first or last cycle, a D-pin
// force excited on a chunk's last cycle, flip-flop divergence carried
// across a boundary, lanes retiring mid-chunk, a short final chunk, a
// timeout that cuts a filled chunk short — must leave GroupRecords
// identical to the sweep engine, and verdicts identical to the
// interpreted single-fault reference (verify/fault_oracle.h).
// The last test pins the compiled event kernel's work counters on two
// reference campaigns: the schedule decides only *when* the wavefront
// runs, so any change to it must reproduce these numbers exactly. They
// count the evaluations left after the select filter and the
// observability guards (DESIGN.md §5, "Unobservable work"), once for a
// kernel that never runs a cycle dense and once under the default
// dense-cycle policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/classify.h"
#include "core/program.h"
#include "fault/faultsim.h"
#include "fault/good_trace.h"
#include "netlist/fault.h"
#include "parwan/sbst.h"
#include "parwan/testbench.h"
#include "plasma/cpu.h"
#include "plasma/testbench.h"
#include "verify/fault_oracle.h"

#include "testutil.h"

namespace sbst::fault {
namespace {

using testutil::expect_oracle_verdicts;
using testutil::Records;

constexpr std::uint64_t kChunk = 64;

void expect_same_verdicts(const Records& want, const Records& got,
                          const char* what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (const auto& [group, a] : want) {
    const auto it = got.find(group);
    ASSERT_NE(it, got.end()) << what << ": group " << group << " missing";
    const GroupRecord& b = it->second;
    EXPECT_EQ(a.detected_mask, b.detected_mask) << what << " group " << group;
    EXPECT_EQ(a.detect_cycle, b.detect_cycle) << what << " group " << group;
    EXPECT_EQ(a.cycles, b.cycles) << what << " group " << group;
    EXPECT_EQ(a.timed_out, b.timed_out) << what << " group " << group;
  }
}

/// Pulse cycles of the boundary netlist's probe inputs: chunk firsts and
/// lasts, the cycle before a last, and the trace's final cycle. A pulse
/// at or past the trace end never fires.
std::vector<std::uint64_t> probe_pulses(std::uint64_t T) {
  return {0, kChunk - 2, kChunk - 1, kChunk, 2 * kChunk - 1, 2 * kChunk,
          T - 1};
}
constexpr std::uint64_t kMidPulse = 70;   // bank faults: mid-chunk
constexpr std::uint64_t kLatePulse = 100;  // the straggler lane

/// Netlist whose every fault of interest is excited on exactly one
/// chosen cycle. Inputs: "p" (one pulse bit per probe), "m" (the bank's
/// mid-chunk pulse, the straggler's late pulse, the observe strobe) and
/// "en" (held at 1). Per probe j, with pulse cycle c:
///   comb[j]   = AND(p_j, en)                 out s-a-0 detected at c
///   dff[j]    = DFF(p_j), out AND(dff, en)   D s-a-0 detected at c + 1
///   shift[j]  = DFF(DFF(p_j)), out           D s-a-0 detected at c + 2
///   stick[j]  = DFF(OR(stick, p_j)),         OR / Q s-a-0 diverge from
///               out AND(stick, strobe)       c + 1 on, seen at T - 1
/// plus a bank of AND(mid, en) gates and one AND(late, en) straggler.
struct PulseNet {
  nl::Netlist n;
  std::vector<nl::GateId> comb, dff, shift_head, stick, stick_or, bank;
  nl::GateId straggler = nl::kNoGate;
  nl::GateId en = nl::kNoGate;
};

PulseNet make_pulse_netlist(std::size_t probes, std::size_t bank) {
  PulseNet pn;
  nl::Netlist& n = pn.n;
  const nl::Port p = n.add_input("p", static_cast<int>(probes));
  const nl::Port m = n.add_input("m", 3);
  pn.en = n.add_input("en", 1).bits[0];
  const nl::GateId mid = m.bits[0], late = m.bits[1], strobe = m.bits[2];
  std::vector<nl::GateId> outs;
  for (std::size_t j = 0; j < probes; ++j) {
    const nl::GateId pj = p.bits[j];
    pn.comb.push_back(n.add_gate(nl::GateKind::kAnd2, pj, pn.en));
    outs.push_back(pn.comb.back());
    pn.dff.push_back(n.add_dff(pj, false));
    outs.push_back(n.add_gate(nl::GateKind::kAnd2, pn.dff.back(), pn.en));
    pn.shift_head.push_back(n.add_dff(pj, false));
    outs.push_back(n.add_dff(pn.shift_head.back(), false));
    const nl::GateId s = n.add_dff(pj, false);
    const nl::GateId o = n.add_gate(nl::GateKind::kOr2, s, pj);
    n.set_gate_input(s, 0, o);
    pn.stick.push_back(s);
    pn.stick_or.push_back(o);
    outs.push_back(n.add_gate(nl::GateKind::kAnd2, s, strobe));
  }
  for (std::size_t i = 0; i < bank; ++i) {
    pn.bank.push_back(n.add_gate(nl::GateKind::kAnd2, mid, pn.en));
    outs.push_back(pn.bank.back());
  }
  pn.straggler = n.add_gate(nl::GateKind::kAnd2, late, pn.en);
  outs.push_back(pn.straggler);
  n.add_output("o", outs);
  return pn;
}

class PulseEnv : public Environment {
 public:
  PulseEnv(std::uint64_t cycles, std::vector<std::uint64_t> pulses,
           std::uint64_t late = kLatePulse)
      : cycles_(cycles), pulses_(std::move(pulses)), late_(late) {}
  void drive(sim::LogicSim& sim, std::uint64_t cycle) override {
    std::uint64_t p = 0;
    for (std::size_t j = 0; j < pulses_.size(); ++j) {
      if (pulses_[j] == cycle) p |= std::uint64_t{1} << j;
    }
    const nl::Netlist& n = sim.netlist();
    sim.set_input(n.input("p"), p);
    sim.set_input(n.input("m"), (cycle == kMidPulse ? 1u : 0u) |
                                    (cycle == late_ ? 2u : 0u) |
                                    (cycle + 1 == cycles_ ? 4u : 0u));
    sim.set_input(n.input("en"), 1);
  }
  bool observe(const sim::LogicSim&, std::uint64_t cycle) override {
    return cycle + 1 < cycles_;
  }

 private:
  std::uint64_t cycles_;
  std::vector<std::uint64_t> pulses_;
  std::uint64_t late_;
};

EnvFactory pulse_env(std::uint64_t cycles) {
  return [cycles] {
    return std::make_unique<PulseEnv>(cycles, probe_pulses(cycles));
  };
}

void add_fault(nl::FaultList* fl, nl::GateId g, std::uint8_t pin,
               std::uint8_t stuck) {
  fl->faults.push_back({g, pin, stuck});
  fl->class_size.push_back(1);
  ++fl->total_uncollapsed;
}

/// Group 0: 62 bank faults excited mid-chunk plus one straggler, so all
/// lanes but one retire at kMidPulse. Group 1: per probe, the comb,
/// D-pin, shift, sticky-OR and sticky-Q faults, then source faults on
/// the enable input (excited every cycle).
nl::FaultList pulse_faults(const PulseNet& pn) {
  nl::FaultList fl;
  for (nl::GateId g : pn.bank) add_fault(&fl, g, 0, 0);
  add_fault(&fl, pn.straggler, 0, 0);
  for (std::size_t j = 0; j < pn.comb.size(); ++j) {
    add_fault(&fl, pn.comb[j], 0, 0);
    add_fault(&fl, pn.dff[j], 1, 0);
    add_fault(&fl, pn.shift_head[j], 1, 0);
    add_fault(&fl, pn.stick_or[j], 0, 0);
    add_fault(&fl, pn.stick[j], 0, 0);
  }
  add_fault(&fl, pn.en, 0, 0);
  return fl;
}

struct EngineCase {
  Engine engine;
  const char* name;
};
constexpr EngineCase kEngines[] = {
    {Engine::kSweep, "sweep"},
    {Engine::kEvent, "event"},
};

/// Runs both engines over the same campaign and checks the event
/// engine against the sweep (and the longest group's cycle count against
/// `want_cycles`, unless 0). Returns the event engine's records.
Records grade_all(const nl::Netlist& n, const nl::FaultList& fl,
                  const EnvFactory& env, FaultSimOptions opt,
                  std::uint64_t want_cycles) {
  Records sweep, event;
  for (const EngineCase& e : kEngines) {
    Records recs;
    opt.engine = e.engine;
    opt.on_group = [&recs](const GroupRecord& r, bool, double) {
      recs[r.group] = r;
    };
    const FaultSimResult res = run_fault_sim(n, fl, env, opt);
    if (want_cycles != 0) {
      EXPECT_EQ(res.good_cycles, want_cycles) << e.name;
    }
    EXPECT_FALSE(res.trace_fallback) << e.name;
    if (e.engine == Engine::kSweep) {
      sweep = recs;
    } else {
      expect_same_verdicts(sweep, recs, e.name);
      event = recs;
    }
  }
  return event;
}

TEST(EventKernel, ScheduleChunkBoundariesMatchSweepAndInterp) {
  constexpr std::size_t kProbes = 7;
  const PulseNet pn = make_pulse_netlist(kProbes, 62);
  const nl::FaultList fl = pulse_faults(pn);
  ASSERT_EQ(fl.size(), 63u + kProbes * 5 + 1);
  FaultSimOptions opt;
  opt.max_cycles = 4096;
  opt.threads = 1;
  for (std::uint64_t T : {1u, 63u, 64u, 65u, 127u, 128u, 129u}) {
    SCOPED_TRACE(testing::Message() << "trace length " << T);
    const Records recs = grade_all(pn.n, fl, pulse_env(T), opt, T);
    ASSERT_EQ(recs.size(), 2u);
    expect_oracle_verdicts(pn.n, fl, pulse_env(T), opt.max_cycles, recs);

    // Group 0: the bank retires mid-chunk, leaving one live lane.
    const GroupRecord& g0 = recs.at(0);
    const auto at = [T](std::uint64_t c) -> std::int64_t {
      return c < T ? static_cast<std::int64_t>(c) : -1;
    };
    for (std::size_t i = 0; i < 62; ++i) {
      EXPECT_EQ(g0.detect_cycle[i], at(kMidPulse)) << "bank " << i;
    }
    EXPECT_EQ(g0.detect_cycle[62], at(kLatePulse)) << "straggler";
    EXPECT_EQ(g0.cycles, std::min(T, kLatePulse));

    // Group 1: each fault at its analytically known cycle — on a
    // chunk's first or last cycle, a D-pin force excited on cycle 63
    // diverging cycle 64's state, flip-flop divergence carried across
    // one or two boundaries. Its last-cycle D-pin fault keeps it alive
    // to the trace end.
    const GroupRecord& g1 = recs.at(1);
    EXPECT_EQ(g1.cycles, T);
    const std::vector<std::uint64_t> pulses = probe_pulses(T);
    for (std::size_t j = 0; j < kProbes; ++j) {
      const std::uint64_t c = pulses[j];
      const std::int64_t seen = c + 1 < T ? at(T - 1) : -1;
      EXPECT_EQ(g1.detect_cycle[5 * j + 0], at(c)) << "comb " << c;
      EXPECT_EQ(g1.detect_cycle[5 * j + 1], at(c + 1)) << "D pin " << c;
      EXPECT_EQ(g1.detect_cycle[5 * j + 2], at(c + 2)) << "shift " << c;
      EXPECT_EQ(g1.detect_cycle[5 * j + 3], seen) << "sticky OR " << c;
      EXPECT_EQ(g1.detect_cycle[5 * j + 4], seen) << "sticky Q " << c;
    }
  }
}

TEST(EventKernel, ScheduleChunkSingleFaultGroups) {
  // The schedule ORs every site of a group together, so one site's
  // excitation can keep a cycle active for another. Graded alone, each
  // fault has only its own source/Q/D-pin schedule to go by — and must
  // still reach the verdict it gets inside the full group.
  const PulseNet pn = make_pulse_netlist(7, 62);
  const nl::FaultList fl = pulse_faults(pn);
  FaultSimOptions opt;
  opt.max_cycles = 4096;
  opt.threads = 1;
  for (std::uint64_t T : {64u, 129u}) {
    const Records full = grade_all(pn.n, fl, pulse_env(T), opt, T);
    for (std::size_t i = 0; i < fl.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "T " << T << " fault " << i);
      nl::FaultList one;
      add_fault(&one, fl.faults[i].gate, fl.faults[i].pin,
                fl.faults[i].stuck);
      const Records solo = grade_all(pn.n, one, pulse_env(T), opt, 0);
      EXPECT_EQ(solo.at(0).detect_cycle[0],
                full.at(i / 63).detect_cycle[i % 63]);
    }
  }
}

TEST(EventKernel, ScheduleChunkPlasmaSampledMatchesSweepAndInterp) {
  // T = 4,145 = 64 * 64 + 49: the final chunk is short.
  const plasma::PlasmaCpu cpu = plasma::build_plasma_cpu();
  const core::SelfTestProgram p =
      core::build_phase_ab(core::classify_plasma(cpu));
  ASSERT_TRUE(p.halted);
  const nl::FaultList faults = nl::enumerate_faults(cpu.netlist);
  FaultSimOptions opt;
  opt.max_cycles = 1'000'000;
  opt.sample = 315;
  opt.sample_seed = 13;
  opt.threads = 2;
  const EnvFactory env = plasma::make_cpu_env_factory(cpu, p.image);
  const Records recs = grade_all(cpu.netlist, faults, env, opt, 4145);
  EXPECT_EQ(recs.size(), 5u);
  // Every 16th sampled fault against the single-fault reference.
  const GroupPlan plan(faults, opt);
  for (std::size_t k = 0; k < plan.active().size(); k += 16) {
    EXPECT_EQ(recs.at(k / 63).detect_cycle.at(k % 63),
              verify::reference_detect_cycle(
                  cpu.netlist, faults.faults[plan.active()[k]], env,
                  opt.max_cycles))
        << "sampled fault " << k;
  }
}

TEST(EventKernel, ScheduleChunkTimeoutCutsAFilledChunk) {
  // An already-expired bound on each slice trips the watchdog at its
  // first check (cycle 1023), after the chunk [960, 1024) was filled but
  // before its last cycle ran. Every kernel must stop at the same cycle
  // with the same partial verdicts. The straggler never fires, so group
  // 0 runs one live lane from cycle 70 until the cut.
  const PulseNet pn = make_pulse_netlist(7, 62);
  const nl::FaultList fl = pulse_faults(pn);
  const std::uint64_t T = 1100;
  const EnvFactory env = [T] {
    return std::make_unique<PulseEnv>(
        T, std::vector<std::uint64_t>{0, 62, 63, 64, 127, 128, 5000},
        5000);
  };
  FaultSimOptions opt;
  opt.max_cycles = 4096;
  const GroupPlan plan(fl, opt);
  std::map<std::string, std::vector<GroupRecord>> by_engine;
  for (const EngineCase& e : kEngines) {
    opt.engine = e.engine;
    GroupSimulator sim(pn.n, fl, plan,
                       record_good_trace(pn.n, env, opt.max_cycles, 0,
                                         e.engine == Engine::kEvent));
    for (std::size_t g = 0; g < plan.num_groups(); ++g) {
      std::optional<GroupSlice> bounded = sim.slice(g);
      bounded->deadline = std::chrono::steady_clock::now();
      sim.run([&](bool) { return std::exchange(bounded, std::nullopt); },
              [&](GroupSlice&& s, bool finished) {
                EXPECT_TRUE(finished);
                by_engine[e.name].push_back(std::move(s.rec));
              });
    }
  }
  const std::vector<GroupRecord>& want = by_engine["sweep"];
  ASSERT_EQ(want.size(), 2u);
  for (const GroupRecord& r : want) {
    EXPECT_TRUE(r.timed_out);
    EXPECT_EQ(r.cycles, 1023u);
  }
  // The bank retired mid-chunk; the sticky faults never got their
  // strobe.
  EXPECT_EQ(want[0].detect_cycle[0], static_cast<std::int64_t>(kMidPulse));
  EXPECT_EQ(want[0].detect_cycle[62], -1);
  EXPECT_EQ(want[1].detect_cycle[5 * 0 + 3], -1);
  const std::vector<GroupRecord>& got = by_engine["event"];
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t g = 0; g < want.size(); ++g) {
    EXPECT_EQ(got[g].detected_mask, want[g].detected_mask) << g;
    EXPECT_EQ(got[g].detect_cycle, want[g].detect_cycle) << g;
    EXPECT_EQ(got[g].cycles, want[g].cycles) << g;
    EXPECT_EQ(got[g].timed_out, want[g].timed_out) << g;
    EXPECT_EQ(got[g].engine_used, GroupEngine::kEvent) << g;
  }
}

/// Work counters of one event-engine campaign, summed over its group
/// records.
struct Work {
  std::uint64_t gates_evaluated = 0;
  std::uint64_t sim_cycles = 0;
  std::array<std::uint64_t, nl::kNumCompiledOps> by_kind = {0, 0, 0, 0};
  bool operator==(const Work&) const = default;
};

Work add(Work w, const GroupRecord& r) {
  EXPECT_EQ(r.engine_used, GroupEngine::kEvent);
  w.gates_evaluated += r.gates_evaluated;
  w.sim_cycles += r.sim_cycles;
  for (std::size_t i = 0; i < w.by_kind.size(); ++i) {
    w.by_kind[i] += r.evals_by_kind[i];
  }
  return w;
}

/// The work of a kernel that runs its active cycles dense as `dense`
/// says, each group in one go.
Work kernel_work(const nl::Netlist& n, const nl::FaultList& fl,
                 const EnvFactory& env, FaultSimOptions opt,
                 DenseCycles dense) {
  opt.engine = Engine::kEvent;
  Work w;
  for (const auto& [g, r] : testutil::event_kernel_records(
           n, fl, opt, testutil::good_run(n, env, opt), dense)) {
    w = add(w, r);
  }
  return w;
}

/// The work of a two-thread event-engine campaign, whose groups park
/// and resume.
Work event_work(const nl::Netlist& n, const nl::FaultList& fl,
                const EnvFactory& env, FaultSimOptions opt) {
  Work w;
  opt.engine = Engine::kEvent;
  opt.threads = 2;
  opt.on_group = [&w](const GroupRecord& r, bool, double) { w = add(w, r); };
  const FaultSimResult res = run_fault_sim(n, fl, env, opt);
  EXPECT_EQ(w.gates_evaluated, res.gates_evaluated);
  EXPECT_EQ(w.sim_cycles, res.sim_cycles);
  return w;
}

// Without dense cycles the wavefront alone does the work; the default
// policy runs wide cycles dense, each counted as one full sweep.
TEST(EventKernel, CompiledWorkCountersPinned) {
  {
    const plasma::PlasmaCpu cpu = plasma::build_plasma_cpu();
    const core::SelfTestProgram p =
        core::build_phase_ab(core::classify_plasma(cpu));
    ASSERT_TRUE(p.halted);
    FaultSimOptions opt;
    opt.max_cycles = 1'000'000;
    opt.sample = 630;
    const nl::FaultList fl = nl::enumerate_faults(cpu.netlist);
    const EnvFactory env = plasma::make_cpu_env_factory(cpu, p.image);
    const Work never =
        kernel_work(cpu.netlist, fl, env, opt, DenseCycles::kNever);
    EXPECT_EQ(never.gates_evaluated, 814'668u);
    EXPECT_EQ(never.sim_cycles, 41'295u);
    EXPECT_EQ(never.by_kind, (std::array<std::uint64_t, 4>{225'317, 25'455,
                                                           72'117, 491'779}));
    const Work w = event_work(cpu.netlist, fl, env, opt);
    EXPECT_EQ(w, kernel_work(cpu.netlist, fl, env, opt,
                             DenseCycles::kAdaptive));
    EXPECT_EQ(w.gates_evaluated, 3'032'147u);
    EXPECT_EQ(w.sim_cycles, 41'295u);
    EXPECT_EQ(w.by_kind, (std::array<std::uint64_t, 4>{740'334, 110'657,
                                                       243'840, 1'937'316}));
  }
  {
    const parwan::ParwanCpu cpu = parwan::build_parwan_cpu();
    const parwan::ParwanSelfTest st = parwan::build_parwan_selftest();
    ASSERT_TRUE(st.halted);
    FaultSimOptions opt;
    opt.max_cycles = 100'000;
    const nl::FaultList fl = nl::enumerate_faults(cpu.netlist);
    const EnvFactory env = parwan::make_parwan_env_factory(cpu, st.image);
    const Work never =
        kernel_work(cpu.netlist, fl, env, opt, DenseCycles::kNever);
    EXPECT_EQ(never.gates_evaluated, 397'013u);
    EXPECT_EQ(never.sim_cycles, 27'259u);
    EXPECT_EQ(never.by_kind, (std::array<std::uint64_t, 4>{238'280, 23'407,
                                                           15'924, 119'402}));
    const Work w = event_work(cpu.netlist, fl, env, opt);
    EXPECT_EQ(w, kernel_work(cpu.netlist, fl, env, opt,
                             DenseCycles::kAdaptive));
    // No Parwan wavefront is wide enough to start a dense stretch.
    EXPECT_EQ(w, never);
  }
}

}  // namespace
}  // namespace sbst::fault
