#include "verify/fault_oracle.h"

#include <memory>
#include <vector>

#include "netlist/levelize.h"
#include "sim/logicsim.h"

namespace sbst::verify {

using sim::Word;

namespace {

// Each gate's value word carries the good machine in bit 0 and the
// faulty machine in bit 1 (higher bits are don't-cares).
constexpr Word kGood = 1;
constexpr Word kBad = 2;

}  // namespace

std::int64_t reference_detect_cycle(const nl::Netlist& netlist,
                                    const nl::Fault& f,
                                    const fault::EnvFactory& make_env,
                                    std::uint64_t max_cycles) {
  const nl::Levelization lv = nl::levelize(netlist);
  // Forces the faulty machine's bit of `w` to the stuck-at value.
  const Word stuck = f.stuck ? kBad : 0;
  const auto force = [stuck](Word w) { return (w & ~kBad) | stuck; };

  std::vector<nl::GateId> pis;
  std::vector<nl::GateId> pos;
  std::vector<Word> v(netlist.size());
  for (nl::GateId g = 0; g < netlist.size(); ++g) {
    const nl::Gate& gate = netlist.gate(g);
    if (gate.kind == nl::GateKind::kInput) pis.push_back(g);
    v[g] = gate.kind == nl::GateKind::kConst1 ? sim::kAllOnes
           : gate.kind == nl::GateKind::kDff  ? sim::broadcast(gate.reset_val)
                                              : 0;
  }
  for (const nl::Port& p : netlist.outputs()) {
    pos.insert(pos.end(), p.bits.begin(), p.bits.end());
  }
  // A stem fault holds its gate's value whatever drove it: after reset,
  // drive, evaluation and clock.
  const auto force_stem = [&] {
    if (f.pin == 0) v[f.gate] = force(v[f.gate]);
  };
  std::vector<Word> next(lv.dffs.size());

  // The environment sees a port surface: inputs are read from it after
  // drive(), good outputs written to it before observe().
  sim::LogicSim ports(netlist);
  const std::unique_ptr<fault::Environment> env = make_env();
  force_stem();
  for (std::uint64_t cycle = 0; cycle < max_cycles; ++cycle) {
    env->drive(ports, cycle);
    for (nl::GateId g : pis) v[g] = ports.word(g);
    force_stem();
    for (nl::GateId g : lv.comb_order) {
      const nl::Gate& gate = netlist.gate(g);
      Word in[3];
      for (int p = 0; p < 3; ++p) {
        in[p] = gate.in[p] == nl::kNoGate ? 0 : v[gate.in[p]];
      }
      if (g == f.gate && f.pin != 0) {  // branch fault: this pin's read
        in[f.pin - 1] = force(in[f.pin - 1]);
      }
      v[g] = sim::eval_gate(gate.kind, in[0], in[1], in[2]);
      if (g == f.gate && f.pin == 0) v[g] = force(v[g]);
    }
    for (nl::GateId b : pos) {
      if (((v[b] >> 1) ^ v[b]) & kGood) {
        return static_cast<std::int64_t>(cycle);
      }
    }
    for (nl::GateId b : pos) ports.values()[b] = sim::broadcast(v[b] & kGood);
    const bool keep_going = env->observe(ports, cycle);
    for (std::size_t i = 0; i < lv.dffs.size(); ++i) {
      const nl::GateId d = lv.dffs[i];
      const Word sampled = v[netlist.gate(d).in[0]];
      next[i] = d == f.gate && f.pin == 1 ? force(sampled) : sampled;
    }
    for (std::size_t i = 0; i < lv.dffs.size(); ++i) v[lv.dffs[i]] = next[i];
    force_stem();
    if (!keep_going) break;
  }
  return -1;
}

}  // namespace sbst::verify
