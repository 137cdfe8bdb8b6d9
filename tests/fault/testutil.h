// Helpers shared by the fault-simulation tests: small synthetic
// netlists, a pattern environment and the recording of its good run, and
// a check of group records against the single-fault reference. Between
// them the meshes carry every injection kind the engines distinguish: PI
// and constant stems, combinational stems and branches (duplicated MUX
// pins included), DFF D pins and Q outputs.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "fault/faultsim.h"
#include "fault/good_trace.h"
#include "netlist/fault.h"
#include "netlist/netlist.h"
#include "verify/fault_oracle.h"

namespace sbst::fault::testutil {

// A combinational mesh with constant gates mixed in, so the fault list
// holds combinational-pin, PI-output and constant-output injections; a
// NOT and two MUXes with one net on two pins close it off.
inline nl::Netlist make_comb_netlist() {
  nl::Netlist n;
  const auto& in = n.add_input("in", 16);
  std::vector<nl::GateId> nets(in.bits.begin(), in.bits.end());
  nets.push_back(n.add_gate(nl::GateKind::kConst0));
  nets.push_back(n.add_gate(nl::GateKind::kConst1));
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
  const nl::GateId inv = n.add_gate(nl::GateKind::kNot, nets[40]);
  outs.push_back(n.add_gate(nl::GateKind::kMux2, inv, nets[50], inv));
  outs.push_back(n.add_gate(nl::GateKind::kMux2, nets[60], nets[60], inv));
  n.add_output("o", outs);
  return n;
}

// A sequential netlist with enough flip-flops to exercise DFF D-pin and
// Q-output injections, cross-register feedback and divergence that must
// persist across clock edges to reach an output.
inline nl::Netlist make_seq_netlist() {
  nl::Netlist n;
  const auto& in = n.add_input("in", 8);
  std::vector<nl::GateId> nets(in.bits.begin(), in.bits.end());
  std::vector<nl::GateId> dffs;
  for (std::size_t i = 0; i < 24; ++i) {
    const nl::GateId d = nets[(i * 5 + 1) % nets.size()];
    const nl::GateId q = n.add_dff(d, (i % 3) == 0);
    dffs.push_back(q);
    nets.push_back(q);
    const nl::GateId mix = n.add_gate(
        (i % 2) ? nl::GateKind::kXor2 : nl::GateKind::kNand2, q,
        nets[(i * 11 + 2) % nets.size()]);
    nets.push_back(mix);
  }
  // Feedback: route some mixes back into earlier flip-flop D-pins.
  for (std::size_t i = 0; i < dffs.size(); i += 4) {
    n.set_gate_input(dffs[i], 0, nets[nets.size() - 1 - i]);
  }
  std::vector<nl::GateId> outs;
  for (std::size_t i = 0; i < nets.size(); i += 7) outs.push_back(nets[i]);
  n.add_output("o", outs);
  return n;
}

// Gates of make_guard_netlist() that tests look up.
struct GuardNet {
  nl::Netlist n;
  nl::GateId busy = nl::kNoGate;     // the hold MUXes' select
  std::vector<nl::GateId> hold_mux;  // next_h = MUX(busy, h, iter)
  std::vector<nl::GateId> sum;       // h + x, feeds iter
  nl::GateId deep_sel = nl::kNoGate;  // select above its data pin
  nl::GateId shallow = nl::kNoGate;   // that data pin's driver
};

// A sequential netlist built from the shapes the event kernel's select
// filter and observability guards act on, with 16 inputs "in":
//   * a 4-bit register h behind a ripple adder and a negation MUX,
//     held by next_h = MUX(busy, h, iter) while the busy flip-flop is
//     0, and seen only through a strobe (MulD's HI/LO);
//   * a 4 x 2-bit register file with hold MUXes on its write enables
//     and a two-level MUX-tree read port into a flip-flop (RegF);
//   * MUX(NOT(t), y, NOT(NOT(t))) into an output: its select settles
//     a level after the data pin it gates, and t diverges both;
//   * AND(AND(a, b), AND(a, c)) into an output, whose two inputs both
//     rise when a is stuck at 1.
inline GuardNet make_guard_netlist() {
  using K = nl::GateKind;
  GuardNet gn;
  nl::Netlist& n = gn.n;
  const nl::Port in = n.add_input("in", 16);
  const auto b = [&](int i) { return in.bits[static_cast<std::size_t>(i)]; };
  std::vector<nl::GateId> outs;

  // busy rises on in0 & in1 and falls on in2.
  gn.busy = n.add_dff(b(0), false);
  const nl::GateId start = n.add_gate(K::kAnd2, b(0), b(1));
  const nl::GateId keep =
      n.add_gate(K::kAnd2, gn.busy, n.add_gate(K::kNot, b(2)));
  n.set_gate_input(gn.busy, 0, n.add_gate(K::kOr2, start, keep));
  const nl::GateId strobe = n.add_gate(
      K::kAnd2, n.add_gate(K::kAnd2, b(3), b(4)), b(5));
  std::vector<nl::GateId> h;
  for (int i = 0; i < 4; ++i) h.push_back(n.add_dff(b(0), (i & 1) != 0));
  nl::GateId carry = nl::kNoGate;
  for (int i = 0; i < 4; ++i) {
    const nl::GateId x = b(6 + i);
    const nl::GateId hx = n.add_gate(K::kXor2, h[i], x);
    const nl::GateId s =
        carry == nl::kNoGate ? hx : n.add_gate(K::kXor2, hx, carry);
    const nl::GateId g = n.add_gate(K::kAnd2, h[i], x);
    carry = carry == nl::kNoGate
                ? g
                : n.add_gate(K::kOr2, g, n.add_gate(K::kAnd2, hx, carry));
    gn.sum.push_back(s);
    const nl::GateId iter =
        n.add_gate(K::kMux2, s, n.add_gate(K::kNot, s), b(10));
    gn.hold_mux.push_back(n.add_gate(K::kMux2, h[i], iter, gn.busy));
    n.set_gate_input(h[i], 0, gn.hold_mux.back());
    outs.push_back(n.add_gate(K::kAnd2, h[i], strobe));
  }

  // Register file: we = in11, write address in12/in13, data in6/in7;
  // read address in14/in15.
  std::vector<std::vector<nl::GateId>> regs(4);
  for (int r = 0; r < 4; ++r) {
    const nl::GateId a0 = (r & 1) ? b(12) : n.add_gate(K::kNot, b(12));
    const nl::GateId a1 = (r & 2) ? b(13) : n.add_gate(K::kNot, b(13));
    const nl::GateId we =
        n.add_gate(K::kAnd2, b(11), n.add_gate(K::kAnd2, a0, a1));
    for (int bit = 0; bit < 2; ++bit) {
      const nl::GateId q = n.add_dff(b(0), false);
      n.set_gate_input(q, 0, n.add_gate(K::kMux2, q, b(6 + bit), we));
      regs[static_cast<std::size_t>(r)].push_back(q);
    }
  }
  for (int bit = 0; bit < 2; ++bit) {
    const nl::GateId l0 =
        n.add_gate(K::kMux2, regs[0][bit], regs[1][bit], b(14));
    const nl::GateId l1 =
        n.add_gate(K::kMux2, regs[2][bit], regs[3][bit], b(14));
    outs.push_back(n.add_dff(n.add_gate(K::kMux2, l0, l1, b(15)), false));
  }

  // A select one level above the data pin it gates; a fault on t flips
  // both, and only where the good select picks the other pin.
  const nl::GateId t = n.add_gate(K::kAnd2, b(7), b(8));
  gn.shallow = n.add_gate(K::kNot, t);
  gn.deep_sel = n.add_gate(K::kNot, n.add_gate(K::kNot, t));
  outs.push_back(n.add_gate(K::kMux2, gn.shallow, b(1), gn.deep_sel));

  // Two ANDs that rise together under in12 stuck-at-1.
  outs.push_back(n.add_gate(K::kAnd2, n.add_gate(K::kAnd2, b(12), b(3)),
                            n.add_gate(K::kAnd2, b(12), b(5))));

  n.add_output("o", outs);
  return gn;
}

// Drives the inputs with a cycle-dependent pattern for a fixed number
// of cycles. Deterministic and good-machine-only, like all engine
// environments.
class PatternEnv : public Environment {
 public:
  explicit PatternEnv(std::uint64_t cycles) : cycles_(cycles) {}
  void drive(sim::LogicSim& sim, std::uint64_t cycle) override {
    sim.set_input(sim.netlist().input("in"),
                  (cycle * 0x9E37u + 0x79B9u) ^ (cycle >> 3));
  }
  bool observe(const sim::LogicSim&, std::uint64_t cycle) override {
    return cycle + 1 < cycles_;
  }

 private:
  std::uint64_t cycles_;
};

inline EnvFactory pattern_env(std::uint64_t cycles) {
  return [cycles]() { return std::make_unique<PatternEnv>(cycles); };
}

/// The recording of `env`'s good run that a GroupDriver makes for `opt`
/// (planes only under the event engine, uncapped), for simulators built
/// by hand.
inline std::shared_ptr<const GoodTrace> good_run(const nl::Netlist& n,
                                                 const EnvFactory& env,
                                                 const FaultSimOptions& opt) {
  return record_good_trace(n, env, opt.max_cycles, 0,
                           opt.engine == Engine::kEvent);
}

/// Group records keyed by group index.
using Records = std::map<std::uint64_t, GroupRecord>;

/// Checks the detect cycle of every fault in `recs` (groups of an
/// unsampled, unsharded campaign over `fl`) against the single-fault
/// reference.
inline void expect_oracle_verdicts(const nl::Netlist& n,
                                   const nl::FaultList& fl,
                                   const EnvFactory& env,
                                   std::uint64_t max_cycles,
                                   const Records& recs) {
  for (const auto& [group, rec] : recs) {
    for (std::uint32_t i = 0; i < rec.count; ++i) {
      const nl::Fault& f = fl.faults[group * 63 + i];
      EXPECT_EQ(rec.detect_cycle[i],
                verify::reference_detect_cycle(n, f, env, max_cycles))
          << "group " << group << " slot " << i;
    }
  }
}

}  // namespace sbst::fault::testutil
