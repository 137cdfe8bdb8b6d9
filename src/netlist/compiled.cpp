#include "netlist/compiled.h"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "netlist/gate.h"

namespace sbst::nl {
namespace {

bool valid_gate(const Netlist& nl, GateId g) {
  return g != kNoGate && static_cast<std::size_t>(g) < nl.size();
}

/// Lowered form of one combinational gate.
struct Lowered {
  CompiledOp op;
  bool invert;
  GateId in0;
  GateId in1;
  GateId in2;  // kNoGate unless kMux
};

Lowered lower_gate(const Gate& gate, GateId self) {
  switch (gate.kind) {
    case GateKind::kAnd2:
      return {CompiledOp::kAnd, false, gate.in[0], gate.in[1], kNoGate};
    case GateKind::kNand2:
      return {CompiledOp::kAnd, true, gate.in[0], gate.in[1], kNoGate};
    case GateKind::kOr2:
      return {CompiledOp::kOr, false, gate.in[0], gate.in[1], kNoGate};
    case GateKind::kNor2:
      return {CompiledOp::kOr, true, gate.in[0], gate.in[1], kNoGate};
    case GateKind::kXor2:
      return {CompiledOp::kXor, false, gate.in[0], gate.in[1], kNoGate};
    case GateKind::kXnor2:
      return {CompiledOp::kXor, true, gate.in[0], gate.in[1], kNoGate};
    case GateKind::kNot:
      // ~a == ~(a & a): duplicate the pin into the AND lane.
      return {CompiledOp::kAnd, true, gate.in[0], gate.in[0], kNoGate};
    case GateKind::kBuf:
      // Materialized BUFs (PO bits) become a = (a & a).
      return {CompiledOp::kAnd, false, gate.in[0], gate.in[0], kNoGate};
    case GateKind::kMux2:
      return {CompiledOp::kMux, false, gate.in[0], gate.in[1], gate.in[2]};
    default:
      // Sources (const/input/dff) never reach here.
      return {CompiledOp::kAnd, false, self, self, kNoGate};
  }
}

}  // namespace

std::vector<GateId> fold_roots(const Netlist& netlist) {
  const std::size_t n = netlist.size();
  std::vector<GateId> root(n);
  std::iota(root.begin(), root.end(), GateId{0});
  // Memoized chain walk instead of a topological sweep: lint runs this
  // pass on arbitrary (possibly malformed) netlists, so it must not
  // require a levelization — dangling pins terminate a chain (the BUF
  // stays its own root, matching the sweep kernel's constant-0 read),
  // and a pure BUF cycle is cut at the first revisited gate so roots
  // stay well defined even on designs lint will reject anyway.
  std::vector<std::uint8_t> state(n, 0);  // 0 new, 1 on path, 2 done
  std::vector<GateId> path;
  for (GateId g = 0; g < n; ++g) {
    if (state[g] != 0) continue;
    path.clear();
    GateId cur = g;
    GateId r;
    for (;;) {
      if (state[cur] == 2) {
        r = root[cur];
        break;
      }
      if (state[cur] == 1) {  // BUF cycle: cut here
        r = cur;
        break;
      }
      const Gate& gate = netlist.gate(cur);
      if (gate.kind != GateKind::kBuf || !valid_gate(netlist, gate.in[0])) {
        state[cur] = 2;
        r = cur;
        break;
      }
      state[cur] = 1;
      path.push_back(cur);
      cur = gate.in[0];
    }
    for (GateId p : path) {
      root[p] = r;
      state[p] = 2;
    }
  }
  return root;
}

std::shared_ptr<const CompiledNetlist> compile(const Netlist& netlist) {
  auto out = std::make_shared<CompiledNetlist>();
  CompiledNetlist& cn = *out;
  const std::size_t n = netlist.size();
  cn.num_gates = n;
  cn.zero_slot = static_cast<std::uint32_t>(n);
  cn.lv = levelize(netlist);
  cn.fold_root.assign(n, kNoGate);
  std::iota(cn.fold_root.begin(), cn.fold_root.end(), GateId{0});
  cn.node_of_gate.assign(n, kNoNode);

  // Primary-output bits stay materialized even when they are BUFs, so
  // the event kernel's PO-divergence accumulation sees them as nodes.
  std::vector<std::uint8_t> is_po(n, 0);
  for (const auto& port : netlist.outputs()) {
    for (GateId g : port.bits) {
      if (valid_gate(netlist, g)) is_po[g] = 1;
    }
  }

  // Pass 1 (topological): fold BUF chains and classify the survivors.
  std::vector<GateId> kept;
  kept.reserve(cn.lv.comb_order.size());
  for (GateId g : cn.lv.comb_order) {
    const Gate& gate = netlist.gate(g);
    if (gate.kind == GateKind::kBuf && !is_po[g] &&
        valid_gate(netlist, gate.in[0])) {
      cn.fold_root[g] = cn.fold_root[gate.in[0]];
      cn.copy_dst.push_back(g);
      cn.copy_src.push_back(cn.fold_root[g]);
      continue;
    }
    kept.push_back(g);
  }

  // Pass 2: sort survivors into (level, op, invert, gate-id) order so
  // equal-shape neighbours coalesce into branch-free runs.
  struct Key {
    GateId g;
    std::uint32_t level;
    Lowered low;
  };
  std::vector<Key> keys;
  keys.reserve(kept.size());
  for (GateId g : kept) {
    keys.push_back({g, cn.lv.level[g], lower_gate(netlist.gate(g), g)});
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.level != b.level) return a.level < b.level;
    if (a.low.op != b.low.op) return a.low.op < b.low.op;
    if (a.low.invert != b.low.invert) return a.low.invert < b.low.invert;
    return a.g < b.g;
  });

  const auto slot = [&](GateId d) -> std::uint32_t {
    if (!valid_gate(netlist, d)) return cn.zero_slot;
    return cn.fold_root[d];
  };

  const std::size_t num_nodes = keys.size();
  cn.node_gate.reserve(num_nodes);
  cn.node_in0.reserve(num_nodes);
  cn.node_in1.reserve(num_nodes);
  cn.node_in2.reserve(num_nodes);
  cn.node_meta.reserve(num_nodes);
  cn.node_level.reserve(num_nodes);
  for (const Key& k : keys) {
    const std::uint32_t idx = static_cast<std::uint32_t>(cn.node_gate.size());
    cn.node_of_gate[k.g] = idx;
    cn.node_gate.push_back(k.g);
    cn.node_in0.push_back(slot(k.low.in0));
    cn.node_in1.push_back(slot(k.low.in1));
    cn.node_in2.push_back(k.low.op == CompiledOp::kMux ? slot(k.low.in2)
                                                       : cn.zero_slot);
    std::uint8_t meta = static_cast<std::uint8_t>(k.low.op);
    if (k.low.invert) meta |= CompiledNetlist::kMetaInvert;
    if (is_po[k.g]) meta |= CompiledNetlist::kMetaPo;
    cn.node_meta.push_back(meta);
    cn.node_level.push_back(k.level);
    ++cn.nodes_by_op[static_cast<std::size_t>(k.low.op)];
  }

  // Pass 3: run boundaries + per-level indices.
  const std::uint32_t num_levels = cn.lv.max_level + 1;
  cn.level_run_begin.assign(num_levels + 1, 0);
  cn.level_node_begin.assign(num_levels + 1, 0);
  for (std::uint32_t i = 0; i < num_nodes;) {
    CompiledRun run;
    run.begin = i;
    run.level = cn.node_level[i];
    run.op = static_cast<CompiledOp>(cn.node_meta[i] &
                                     CompiledNetlist::kMetaOpMask);
    run.invert = (cn.node_meta[i] & CompiledNetlist::kMetaInvert) != 0;
    std::uint32_t j = i + 1;
    while (j < num_nodes && cn.node_level[j] == run.level &&
           static_cast<CompiledOp>(cn.node_meta[j] &
                                   CompiledNetlist::kMetaOpMask) == run.op &&
           ((cn.node_meta[j] & CompiledNetlist::kMetaInvert) != 0) ==
               run.invert) {
      ++j;
    }
    run.end = j;
    cn.runs.push_back(run);
    i = j;
  }
  {
    // Prefix-fill: level L owns runs/nodes up to the first of level > L.
    std::size_t r = 0;
    std::uint32_t nd = 0;
    for (std::uint32_t lvl = 0; lvl <= num_levels; ++lvl) {
      while (r < cn.runs.size() && cn.runs[r].level < lvl) ++r;
      while (nd < num_nodes && cn.node_level[nd] < lvl) ++nd;
      if (lvl < num_levels) {
        cn.level_run_begin[lvl] = static_cast<std::uint32_t>(r);
        cn.level_node_begin[lvl] = nd;
      }
    }
    cn.level_run_begin[num_levels] = static_cast<std::uint32_t>(cn.runs.size());
    cn.level_node_begin[num_levels] = static_cast<std::uint32_t>(num_nodes);
  }

  // Pass 4: DFFs (Levelization order) with fold-rooted D drivers.
  cn.dff_gate = cn.lv.dffs;
  cn.dff_d.reserve(cn.dff_gate.size());
  for (GateId g : cn.dff_gate) {
    cn.dff_d.push_back(slot(netlist.gate(g).in[0]));
  }

  // Pass 5: compiled fanout CSR over fold-rooted edges. An edge is one
  // consumer pin; duplicated pins (NOT lowered as AND(a, a)) count once.
  cn.fanout_offset.assign(n + 2, 0);
  const auto each_edge = [&](auto&& fn) {
    for (std::uint32_t idx = 0; idx < num_nodes; ++idx) {
      const GateId g = cn.node_gate[idx];
      const Gate& gate = netlist.gate(g);
      const int pins = fanin_count(gate.kind);
      GateId seen[3] = {kNoGate, kNoGate, kNoGate};
      for (int p = 0; p < pins; ++p) {
        if (!valid_gate(netlist, gate.in[p])) continue;
        const GateId src = cn.fold_root[gate.in[p]];
        bool dup = false;
        for (int q = 0; q < p; ++q) dup = dup || (seen[q] == src);
        seen[p] = src;
        if (!dup) fn(src, idx);
      }
    }
    for (std::size_t d = 0; d < cn.dff_gate.size(); ++d) {
      const GateId drv = netlist.gate(cn.dff_gate[d]).in[0];
      if (!valid_gate(netlist, drv)) continue;
      fn(cn.fold_root[drv],
         CompiledNetlist::kDffFlag | static_cast<std::uint32_t>(d));
    }
  };
  each_edge([&](GateId src, std::uint32_t) { ++cn.fanout_offset[src + 1]; });
  for (std::size_t i = 1; i < cn.fanout_offset.size(); ++i) {
    cn.fanout_offset[i] += cn.fanout_offset[i - 1];
  }
  cn.fanout.resize(cn.fanout_offset.back());
  std::vector<std::uint32_t> cursor(cn.fanout_offset.begin(),
                                    cn.fanout_offset.end() - 1);
  each_edge([&](GateId src, std::uint32_t entry) {
    cn.fanout[cursor[src]++] = entry;
  });
  cn.fanout_offset.pop_back();

  // Pass 6 (reverse topological): observability guards. A node keeps the
  // guards that every consumer edge brings: the edge into data pin p of a
  // MUX that the node drives on no other pin brings (select, p), and
  // every edge brings the consumer's own guards. A PO node, a D-pin edge
  // and a node without consumers keep none. Nodes are level-major, so a
  // node's consumers are final when it is visited. Each node's guards are
  // appended nearest-last, guard_offset[i] holding the end of its span,
  // and one reversal puts them in node order, nearest first. No scratch
  // array sized by the netlist is used: a freed one leaves heap behind
  // that forked --isolate workers inherit past their RLIMIT_AS.
  constexpr std::uint32_t kMax = CompiledNetlist::kMaxGuards;
  cn.guard_offset.assign(num_nodes + 1, 0);
  for (std::uint32_t i = static_cast<std::uint32_t>(num_nodes); i-- > 0;) {
    const std::uint32_t s = cn.node_gate[i];
    const std::uint32_t fo_begin = cn.fanout_offset[s];
    const std::uint32_t fo_end = cn.fanout_offset[s + 1];
    const bool po = (cn.node_meta[i] & CompiledNetlist::kMetaPo) != 0;
    std::uint32_t common[kMax + 1];
    std::size_t num_common = 0;
    for (std::uint32_t e = fo_begin; e < fo_end && !po; ++e) {
      const std::uint32_t c = cn.fanout[e];
      if (c & CompiledNetlist::kDffFlag) {
        num_common = 0;
        break;
      }
      std::uint32_t edge[kMax + 1];
      std::size_t num_edge = 0;
      const auto add = [&](std::uint32_t g) {
        const std::uint32_t sel = g & ~CompiledNetlist::kGuardPin1;
        if (cn.lv.level[sel] >= cn.node_level[i]) return;
        if (std::find(edge, edge + num_edge, g) == edge + num_edge) {
          edge[num_edge++] = g;
        }
      };
      const std::uint32_t in0 = cn.node_in0[c], in1 = cn.node_in1[c];
      const std::uint32_t sel = cn.node_in2[c];
      if ((cn.node_meta[c] & CompiledNetlist::kMetaOpMask) ==
              static_cast<std::uint8_t>(CompiledOp::kMux) &&
          sel != cn.zero_slot && sel != s && (in0 == s) != (in1 == s)) {
        add(sel | (in1 == s ? CompiledNetlist::kGuardPin1 : 0));
      }
      for (std::uint32_t j = cn.guard_offset[c]; j > cn.guard_offset[c + 1];
           --j) {
        add(cn.guards[j - 1]);
      }
      if (e == fo_begin) {
        std::copy_n(edge, num_edge, common);
        num_common = num_edge;
      } else {
        num_common = static_cast<std::size_t>(
            std::remove_if(common, common + num_common,
                           [&](std::uint32_t g) {
                             return std::find(edge, edge + num_edge, g) ==
                                    edge + num_edge;
                           }) -
            common);
      }
      if (num_common == 0) break;
    }
    for (std::size_t j = std::min<std::size_t>(num_common, kMax); j-- > 0;) {
      cn.guards.push_back(common[j]);
    }
    cn.guard_offset[i] = static_cast<std::uint32_t>(cn.guards.size());
  }
  std::reverse(cn.guards.begin(), cn.guards.end());
  const std::uint32_t total = static_cast<std::uint32_t>(cn.guards.size());
  for (std::uint32_t& off : cn.guard_offset) off = total - off;

  return out;
}

}  // namespace sbst::nl
