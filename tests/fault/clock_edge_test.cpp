// In-place clock edge (nl::clock_edge): every flip-flop takes its D as
// if all D pins were sampled before any Q changed, although only the
// flip-flops fed by another flip-flop's Q are sampled first. The Plasma
// core has no such flip-flop and Parwan has one, so these netlists build
// the shapes that can go wrong: a swapped pair (a.D = b.Q, b.D = a.Q), a
// three-stage shift chain, and a D pin reached through a folded BUF of
// another Q. The good machine is checked against a hand-clocked
// interpreted run, and the sweep, with D-pin and Q faults on those
// flip-flops in its lowest and highest lane, against the single-fault
// reference and the event kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "fault/faultsim.h"
#include "netlist/compiled.h"
#include "netlist/fault.h"
#include "netlist/netlist.h"
#include "parwan/cpu.h"
#include "sim/logicsim.h"

#include "testutil.h"

namespace sbst::fault {
namespace {

using testutil::good_run;
using testutil::pattern_env;
using testutil::Records;

struct ChainNet {
  nl::Netlist n;
  std::vector<nl::GateId> chained;  // flip-flops whose D is a Q
  nl::GateId buf = nl::kNoGate;     // the folded BUF
};

// Four inputs "in" drive the head of a shift chain head -> s1 -> s2; a
// swapped pair a <-> b with different reset values toggles every cycle;
// c takes s2 through a BUF that no output reads, so the compiler folds
// it and c's D slot is s2's Q. Every Q is an output bit, and a feeds
// the chain head, so faults on any of them are observable.
ChainNet make_chain_netlist() {
  using K = nl::GateKind;
  ChainNet cn;
  nl::Netlist& n = cn.n;
  const nl::Port in = n.add_input("in", 4);
  const nl::GateId a = n.add_dff(in.bits[0], true);
  const nl::GateId b = n.add_dff(a, false);
  n.set_gate_input(a, 0, b);
  const nl::GateId head = n.add_dff(
      n.add_gate(K::kXor2, n.add_gate(K::kAnd2, in.bits[1], a), in.bits[2]),
      false);
  const nl::GateId s1 = n.add_dff(head, true);
  const nl::GateId s2 = n.add_dff(s1, false);
  cn.buf = n.add_gate(K::kBuf, s2);
  const nl::GateId c = n.add_dff(cn.buf, false);
  cn.chained = {a, b, s1, s2, c};
  n.add_output("o", {a, b, head, s1, s2, c,
                     n.add_gate(K::kOr2, c, in.bits[3])});
  return cn;
}

TEST(ClockEdge, CompileListsTheFlipFlopsFedByAFlipFlop) {
  const ChainNet net = make_chain_netlist();
  const std::shared_ptr<const nl::CompiledNetlist> cn = nl::compile(net.n);
  ASSERT_EQ(cn->node_of_gate[net.buf], nl::kNoNode) << "BUF must fold";
  std::vector<nl::GateId> chained;
  for (std::uint32_t d : cn->dff_chained) chained.push_back(cn->dff_gate[d]);
  std::vector<nl::GateId> want = net.chained;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(chained, want);
  EXPECT_TRUE(std::is_sorted(cn->dff_chained.begin(), cn->dff_chained.end()));
  for (nl::GateId g = 0; g < net.n.size(); ++g) {
    const bool dff = net.n.gate(g).kind == nl::GateKind::kDff;
    ASSERT_EQ(cn->dff_of_gate[g] != nl::kNoDff, dff) << "gate " << g;
    if (dff) {
      EXPECT_EQ(cn->dff_gate[cn->dff_of_gate[g]], g);
    }
  }

  // Parwan's one flip-flop fed by a flip-flop is the only one a shipped
  // core has.
  const parwan::ParwanCpu cpu = parwan::build_parwan_cpu();
  EXPECT_EQ(nl::compile(cpu.netlist)->dff_chained.size(), 1u);
}

TEST(ClockEdge, LogicSimMatchesHandClockedReference) {
  const ChainNet net = make_chain_netlist();
  const nl::Netlist& n = net.n;
  sim::LogicSim sim(n);
  sim::LogicSim ref(n);
  const nl::Port& in = n.input("in");
  const std::vector<nl::GateId>& dffs = sim.compiled().dff_gate;
  std::vector<sim::Word> next(dffs.size());
  for (std::uint64_t cycle = 0; cycle < 64; ++cycle) {
    const std::uint64_t value = (cycle * 0x9E37u + 0x79B9u) ^ (cycle >> 3);
    sim.set_input(in, value);
    ref.set_input(in, value);
    sim.eval();
    ref.eval_reference();
    // Two-phase by hand, through the original D drivers (folded BUFs
    // included, which eval_reference computes).
    for (std::size_t d = 0; d < dffs.size(); ++d) {
      next[d] = ref.word(n.gate(dffs[d]).in[0]);
    }
    for (std::size_t d = 0; d < dffs.size(); ++d) {
      ref.values()[dffs[d]] = next[d];
    }
    sim.step_clock();
    for (nl::GateId g = 0; g < n.size(); ++g) {
      ASSERT_EQ(sim.word(g), ref.word(g))
          << "gate " << g << " after the edge of cycle " << cycle;
    }
  }
}

// Eight groups, one per lane. Groups 0 and 7 carry every D-pin and Q
// fault of the flip-flops fed by a flip-flop, at the low slots of group 0
// and the high slots of group 7; the other slots are generated faults.
nl::FaultList lane_faults(const ChainNet& net) {
  std::vector<nl::Fault> chained;
  for (nl::GateId g : net.chained) {
    for (std::uint8_t pin : {0, 1}) {
      for (std::uint8_t stuck : {0, 1}) chained.push_back({g, pin, stuck});
    }
  }
  const nl::FaultList generated = nl::enumerate_faults(net.n);
  nl::FaultList fl;
  std::size_t filler = 0;
  for (std::size_t group = 0; group < 8; ++group) {
    const std::size_t first = group == 0 ? 0 : 63 - chained.size();
    for (std::size_t slot = 0; slot < 63; ++slot) {
      const bool chain_slot = (group == 0 || group == 7) && slot >= first &&
                              slot < first + chained.size();
      fl.faults.push_back(
          chain_slot ? chained[slot - first]
                     : generated.faults[filler++ % generated.size()]);
      fl.class_size.push_back(1);
    }
  }
  fl.total_uncollapsed = fl.size();
  return fl;
}

TEST(ClockEdge, SweepFaultsOnChainedFlipFlopsInLanesZeroAndSeven) {
  const ChainNet net = make_chain_netlist();
  const nl::Netlist& n = net.n;
  const nl::FaultList fl = lane_faults(net);
  FaultSimOptions opt;
  opt.max_cycles = 4096;
  opt.engine = Engine::kSweep;
  const GroupPlan plan(fl, opt);
  ASSERT_EQ(plan.num_groups(), 8u);

  GroupSimulator sim(n, fl, plan, good_run(n, pattern_env(300), opt));
  ASSERT_EQ(sim.lanes(), 8u);
  // All eight slices are pulled before any group can end, so the first
  // pass loads group g into lane g.
  std::size_t next = 0;
  Records sweep;
  sim.run(
      [&](bool) -> std::optional<GroupSlice> {
        if (next == plan.num_groups()) return std::nullopt;
        return sim.slice(next++);
      },
      [&](GroupSlice&& s, bool) { sweep[s.rec.group] = std::move(s.rec); });
  ASSERT_EQ(sweep.size(), 8u);

  testutil::expect_oracle_verdicts(n, fl, pattern_env(300), opt.max_cycles,
                                   sweep);
  opt.engine = Engine::kEvent;
  const Records event = testutil::event_kernel_records(
      n, fl, opt, good_run(n, pattern_env(300), opt), DenseCycles::kAdaptive);
  for (const auto& [group, rec] : sweep) {
    EXPECT_EQ(rec.detect_cycle, event.at(group).detect_cycle)
        << "group " << group;
  }
  // The chained faults must matter: most of them are detected, in both
  // lanes, and their detect cycles differ.
  for (std::size_t group : {0u, 7u}) {
    const GroupRecord& rec = sweep.at(group);
    const std::size_t first = group == 0 ? 0 : 63 - 4 * net.chained.size();
    std::vector<std::int64_t> cycles;
    for (std::size_t i = 0; i < 4 * net.chained.size(); ++i) {
      if (rec.detect_cycle[first + i] != -1) {
        cycles.push_back(rec.detect_cycle[first + i]);
      }
    }
    EXPECT_GE(cycles.size(), 3 * net.chained.size()) << "group " << group;
    std::sort(cycles.begin(), cycles.end());
    EXPECT_GT(std::unique(cycles.begin(), cycles.end()) - cycles.begin(), 2)
        << "group " << group;
  }
}

}  // namespace
}  // namespace sbst::fault
