#include "netlist/levelize.h"

#include <algorithm>

namespace sbst::nl {

namespace {

bool is_source(GateKind k) {
  return k == GateKind::kConst0 || k == GateKind::kConst1 ||
         k == GateKind::kInput || k == GateKind::kDff;
}

}  // namespace

Levelization levelize(const Netlist& nl) {
  const std::size_t n = nl.size();
  Levelization lv;
  lv.level.assign(n, 0);

  // Kahn's algorithm over combinational gates only. DFF D-pins consume
  // values but a DFF's *output* is a source, so DFFs never gate ordering.
  std::vector<std::uint32_t> pending(n, 0);
  std::vector<std::vector<GateId>> fanout(n);
  std::vector<GateId> ready;
  std::size_t num_comb = 0;

  for (GateId g = 0; g < n; ++g) {
    const Gate& gate = nl.gate(g);
    if (gate.kind == GateKind::kDff) lv.dffs.push_back(g);
    if (is_source(gate.kind)) continue;
    ++num_comb;
    const int arity = fanin_count(gate.kind);
    std::uint32_t deps = 0;
    for (int pin = 0; pin < arity; ++pin) {
      const GateId d = gate.in[static_cast<std::size_t>(pin)];
      if (!is_source(nl.gate(d).kind)) {
        ++deps;
        fanout[d].push_back(g);
      }
    }
    pending[g] = deps;
    if (deps == 0) ready.push_back(g);
  }

  lv.comb_order.reserve(num_comb);
  while (!ready.empty()) {
    const GateId g = ready.back();
    ready.pop_back();
    const Gate& gate = nl.gate(g);
    std::uint32_t max_in = 0;
    const int arity = fanin_count(gate.kind);
    for (int pin = 0; pin < arity; ++pin) {
      const GateId d = gate.in[static_cast<std::size_t>(pin)];
      max_in = std::max(max_in, lv.level[d]);
    }
    lv.level[g] = max_in + 1;
    lv.max_level = std::max(lv.max_level, lv.level[g]);
    lv.comb_order.push_back(g);
    for (GateId f : fanout[g]) {
      if (--pending[f] == 0) ready.push_back(f);
    }
  }

  if (lv.comb_order.size() != num_comb) {
    throw NetlistError(
        "combinational cycle detected: " +
        std::to_string(num_comb - lv.comb_order.size()) +
        " gate(s) unreachable in topological order");
  }

  return lv;
}

std::vector<std::uint8_t> live_mask(const Netlist& nl) {
  const std::size_t n = nl.size();
  std::vector<std::uint8_t> live(n, 0);
  std::vector<GateId> stack;
  // Tolerates unconnected/dangling pins so lint can still compute the
  // cone of a structurally broken netlist.
  auto mark = [&](GateId g) {
    if (g < n && !live[g]) {
      live[g] = 1;
      stack.push_back(g);
    }
  };
  for (const Port& p : nl.outputs()) {
    for (GateId b : p.bits) mark(b);
  }
  while (!stack.empty()) {
    const GateId g = stack.back();
    stack.pop_back();
    const Gate& gate = nl.gate(g);
    const int arity = fanin_count(gate.kind);
    for (int pin = 0; pin < arity; ++pin) {
      mark(gate.in[static_cast<std::size_t>(pin)]);
    }
  }
  // Environment-facing and constant gates are always considered live.
  for (GateId g = 0; g < n; ++g) {
    const GateKind k = nl.gate(g).kind;
    if (k == GateKind::kInput || k == GateKind::kConst0 ||
        k == GateKind::kConst1) {
      live[g] = 1;
    }
  }
  return live;
}

std::vector<std::uint8_t> live_mask(const Netlist& nl,
                                    const std::vector<GateId>& fold_root) {
  std::vector<std::uint8_t> live = live_mask(nl);
  const std::size_t n = nl.size();
  if (fold_root.size() != n) return live;
  // Alias liveness = root liveness, in both directions: a live BUF keeps
  // its root live (the chain still forwards an observable value), and a
  // BUF whose root is live is not dead logic — the compiler folded it,
  // the synthesizer would not sweep it.
  bool changed = true;
  while (changed) {
    changed = false;
    for (GateId g = 0; g < n; ++g) {
      const GateId r = fold_root[g];
      if (r >= n || r == g) continue;
      const std::uint8_t merged = live[g] | live[r];
      if (merged != live[g] || merged != live[r]) {
        live[g] = merged;
        live[r] = merged;
        changed = true;
      }
    }
  }
  return live;
}

}  // namespace sbst::nl
