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
