// The compiled-netlist fuzz generator: random netlists over every gate
// kind, shared by the compiler's differential fuzz (compiled_test.cpp)
// and the good-trace plane check (fault/good_trace_test.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.h"

namespace sbst::nl::testutil {

inline std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// A random netlist drawing from every combinational kind plus DFFs and
/// constants, with BUF chains over-represented so the fold pass always
/// has work. Acyclic by construction (fanins only reference earlier
/// nets; DFF feedback is rewired afterwards through registered state).
inline Netlist random_netlist(std::uint64_t seed) {
  std::uint64_t s = seed;
  Netlist n;
  const int width = 2 + static_cast<int>(splitmix64(s) % 7);  // 2..8
  const Port in = n.add_input("in", width);
  std::vector<GateId> nets(in.bits.begin(), in.bits.end());
  nets.push_back(n.add_gate(GateKind::kConst0));
  nets.push_back(n.add_gate(GateKind::kConst1));

  constexpr GateKind kComb[] = {
      GateKind::kAnd2, GateKind::kOr2,   GateKind::kNand2, GateKind::kNor2,
      GateKind::kXor2, GateKind::kXnor2, GateKind::kNot,   GateKind::kBuf,
      GateKind::kBuf,  GateKind::kMux2};  // kBuf twice: bias toward chains
  std::vector<GateId> dffs;
  const std::size_t gates = 8 + splitmix64(s) % 48;
  for (std::size_t i = 0; i < gates; ++i) {
    const auto pick = [&]() { return nets[splitmix64(s) % nets.size()]; };
    if (splitmix64(s) % 5 == 0) {
      const GateId q = n.add_dff(pick(), (splitmix64(s) & 1) != 0);
      dffs.push_back(q);
      nets.push_back(q);
      continue;
    }
    const GateKind k = kComb[splitmix64(s) % (sizeof(kComb) / sizeof(*kComb))];
    GateId g;
    if (k == GateKind::kNot || k == GateKind::kBuf) {
      g = n.add_gate(k, pick());
    } else if (k == GateKind::kMux2) {
      g = n.add_gate(k, pick(), pick(), pick());
    } else {
      g = n.add_gate(k, pick(), pick());
    }
    nets.push_back(g);
  }
  // DFF feedback: some D-pins re-point at late nets (registered state
  // breaks any comb cycle this could create).
  for (std::size_t i = 0; i < dffs.size(); i += 2) {
    n.set_gate_input(dffs[i], 0, nets[nets.size() - 1 - (i % 5)]);
  }
  // Outputs: a spread of nets, deliberately including folded-BUF
  // candidates so PO materialization is exercised.
  std::vector<GateId> outs;
  for (std::size_t i = 0; i < nets.size(); i += 1 + splitmix64(s) % 4) {
    outs.push_back(nets[i]);
  }
  if (outs.empty()) outs.push_back(nets.back());
  n.add_output("o", outs);
  return n;
}

}  // namespace sbst::nl::testutil
