#include "sim/logicsim.h"

namespace sbst::sim {

LogicSim::LogicSim(const nl::Netlist& netlist)
    : LogicSim(netlist, nl::compile(netlist)) {}

LogicSim::LogicSim(const nl::Netlist& netlist,
                   std::shared_ptr<const nl::CompiledNetlist> compiled)
    : nl_(&netlist),
      cn_(std::move(compiled)),
      val_(netlist.size() + 1, 0),
      staged_(cn_->dff_chained.size(), 0) {
  reset();
}

void LogicSim::reset() {
  for (nl::GateId g = 0; g < nl_->size(); ++g) {
    const nl::Gate& gate = nl_->gate(g);
    switch (gate.kind) {
      case nl::GateKind::kConst0: val_[g] = 0; break;
      case nl::GateKind::kConst1: val_[g] = kAllOnes; break;
      case nl::GateKind::kInput:  val_[g] = 0; break;
      case nl::GateKind::kDff:    val_[g] = broadcast(gate.reset_val); break;
      default: break;
    }
  }
  val_[cn_->zero_slot] = 0;
}

void LogicSim::set_input(const nl::Port& port, std::uint64_t value) {
  for (int i = 0; i < port.width(); ++i) {
    val_[port.bits[static_cast<std::size_t>(i)]] =
        broadcast((value >> i) & 1u);
  }
}

// The good run of every halt check and recording spends its time in
// these run loops. Aligned to a cache line, they sit at the same offset
// whatever code is linked before them: unaligned, an unrelated change
// elsewhere in the library moved the Plasma halt check by up to 3%.
__attribute__((aligned(64))) void LogicSim::eval() {
  Word* const v = val_.data();
  for (const nl::CompiledRun& r : cn_->runs) nl::eval_run(*cn_, r, v);
  nl::apply_copies(*cn_, v);
}

void LogicSim::eval_reference() {
  const nl::Netlist& netlist = *nl_;
  Word* const v = val_.data();
  for (nl::GateId g : cn_->lv.comb_order) {
    const nl::Gate& gate = netlist.gate(g);
    v[g] = eval_gate(gate.kind, v[gate.in[0]],
                     gate.in[1] == nl::kNoGate ? 0 : v[gate.in[1]],
                     gate.in[2] == nl::kNoGate ? 0 : v[gate.in[2]]);
  }
}

void LogicSim::step_clock() {
  nl::clock_edge(*cn_, val_.data(), staged_.data());
}

std::uint64_t LogicSim::read_output(const nl::Port& port, int machine) const {
  std::uint64_t out = 0;
  for (int i = 0; i < port.width(); ++i) {
    const Word w = val_[port.bits[static_cast<std::size_t>(i)]];
    out |= ((w >> machine) & 1u) << i;
  }
  return out;
}

}  // namespace sbst::sim
