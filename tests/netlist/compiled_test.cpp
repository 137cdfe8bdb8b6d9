// Differential verification of the netlist compiler (nl::compile):
// the compiled SoA program must be bit-identical to the interpreted
// per-gate reference on every net of every netlist — that is the
// contract that lets the fault-simulation kernels run on the compiled
// program. The heavy hammer here is a 10k-netlist random fuzz
// (same splitmix64 idiom as the co-sim fuzzer) over all gate kinds,
// BUF chains, constants, MUXes and flip-flops, run for several clock
// cycles per netlist. Alongside it: unit tests for the folding rules
// (BUF chains, PO-bit materialization, constant aliases) and for the
// alias-aware live_mask overload that feeds nl::lint.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "netlist/compiled.h"
#include "netlist/levelize.h"
#include "netlist/lint.h"
#include "netlist/netlist.h"
#include "sim/logicsim.h"

#include "random_netlist.h"

namespace sbst::nl {
namespace {

using testutil::random_netlist;
using testutil::splitmix64;

TEST(CompiledNetlist, FuzzTenThousandRandomNetlistsMatchReference) {
  for (std::uint64_t seed = 1; seed <= 10'000; ++seed) {
    const Netlist n = random_netlist(seed);
    sim::LogicSim sim(n);
    std::uint64_t s = seed ^ 0xC0FFEEull;
    const int cycles = 2 + static_cast<int>(s % 3);
    for (int cycle = 0; cycle < cycles; ++cycle) {
      sim.set_input(n.input("in"), splitmix64(s));
      sim.eval_reference();
      const std::vector<sim::Word> ref = sim.values();
      sim.eval();
      for (GateId g = 0; g < n.size(); ++g) {
        ASSERT_EQ(sim.word(g), ref[g])
            << "seed " << seed << " cycle " << cycle << " gate " << g << ":"
            << gate_kind_name(n.gate(g).kind);
      }
      sim.step_clock();
    }
  }
}

/// Guards of gate g's compiled node as (select gate, data pin) pairs.
std::vector<std::pair<GateId, int>> guards_of(const CompiledNetlist& cn,
                                              GateId g) {
  std::vector<std::pair<GateId, int>> out;
  const std::uint32_t node = cn.node_of_gate[g];
  for (std::uint32_t k = cn.guard_offset[node]; k < cn.guard_offset[node + 1];
       ++k) {
    const std::uint32_t e = cn.guards[k];
    out.emplace_back(e & ~CompiledNetlist::kGuardPin1,
                     (e & CompiledNetlist::kGuardPin1) ? 1 : 0);
  }
  return out;
}

/// Brute force, sharing no code with compile(): every path from gate g
/// through the original netlist to a flip-flop D pin or a primary output
/// must enter data pin `pin` of a MUX whose select, followed back
/// through BUFs that compile() folds (non-PO BUFs), is `sel`.
bool every_path_crosses(const Netlist& n, GateId g, GateId sel, int pin) {
  std::vector<std::uint8_t> is_po(n.size(), 0);
  for (const Port& port : n.outputs()) {
    for (GateId b : port.bits) is_po[b] = 1;
  }
  const auto root = [&](GateId x) {
    while (x != kNoGate && n.gate(x).kind == GateKind::kBuf && !is_po[x] &&
           n.gate(x).in[0] != kNoGate) {
      x = n.gate(x).in[0];
    }
    return x;
  };
  std::vector<std::uint8_t> explored(n.size(), 0);
  std::vector<GateId> stack = {g};
  while (!stack.empty()) {
    const GateId x = stack.back();
    stack.pop_back();
    if (explored[x]) continue;
    explored[x] = 1;
    if (is_po[x]) return false;
    for (GateId c = 0; c < n.size(); ++c) {
      const Gate& gate = n.gate(c);
      for (int k = 0; k < fanin_count(gate.kind); ++k) {
        if (gate.in[k] != x) continue;
        if (gate.kind == GateKind::kDff) return false;
        if (gate.kind == GateKind::kMux2 && k == pin &&
            root(gate.in[2]) == sel) {
          continue;  // this path is blocked here
        }
        stack.push_back(c);
      }
    }
  }
  return true;
}

/// Levels by their definition: 0 for sources, else one more than the
/// deepest fanin.
std::vector<std::uint32_t> brute_levels(const Netlist& n) {
  std::vector<std::uint32_t> level(n.size(), 0);
  std::vector<std::uint8_t> done(n.size(), 0);
  const auto visit = [&](auto&& self, GateId g) -> std::uint32_t {
    if (done[g]) return level[g];
    const Gate& gate = n.gate(g);
    std::uint32_t l = 0;
    if (gate.kind != GateKind::kDff) {
      for (int k = 0; k < fanin_count(gate.kind); ++k) {
        if (gate.in[k] != kNoGate) l = std::max(l, self(self, gate.in[k]) + 1);
      }
    }
    done[g] = 1;
    return level[g] = l;
  };
  for (GateId g = 0; g < n.size(); ++g) visit(visit, g);
  return level;
}

TEST(CompiledNetlist, FuzzGuardsHoldOnEveryObservationPath) {
  std::size_t guarded = 0;
  for (std::uint64_t seed = 1; seed <= 10'000; ++seed) {
    const Netlist n = random_netlist(seed);
    const auto cn = compile(n);
    const std::vector<std::uint32_t> level = brute_levels(n);
    for (std::uint32_t i = 0; i < cn->num_nodes(); ++i) {
      const GateId g = cn->node_gate[i];
      const auto guards = guards_of(*cn, g);
      ASSERT_LE(guards.size(), CompiledNetlist::kMaxGuards);
      guarded += !guards.empty();
      for (const auto& [sel, pin] : guards) {
        ASSERT_LT(level[sel], level[g]) << "seed " << seed << " gate " << g;
        ASSERT_TRUE(every_path_crosses(n, g, sel, pin))
            << "seed " << seed << " gate " << g << " guard (" << sel << ", "
            << pin << ")";
      }
    }
  }
  EXPECT_GT(guarded, 1000u);
}

TEST(CompiledNetlist, MuxChainIntoDffGuardsEveryDataPinDriver) {
  Netlist n;
  const Port in = n.add_input("in", 4);
  const Port s = n.add_input("s", 6);
  const GateId x = n.add_gate(GateKind::kAnd2, in.bits[0], in.bits[1]);
  std::vector<GateId> chain = {x};
  for (int k = 0; k < 6; ++k) {
    // Alternate the pin the chain enters: 0, 1, 0, ...
    const GateId other = in.bits[2 + (k & 1)];
    chain.push_back(k & 1 ? n.add_gate(GateKind::kMux2, other, chain.back(),
                                       s.bits[k])
                          : n.add_gate(GateKind::kMux2, chain.back(), other,
                                       s.bits[k]));
  }
  n.add_output("o", {n.add_dff(chain.back(), false)});

  const auto cn = compile(n);
  // The last MUX drives the D pin directly; each earlier driver is
  // guarded by every MUX after it, nearest first, up to kMaxGuards.
  EXPECT_TRUE(guards_of(*cn, chain[6]).empty());
  for (int i = 0; i < 6; ++i) {
    std::vector<std::pair<GateId, int>> want;
    for (int k = i; k < 6 && want.size() < CompiledNetlist::kMaxGuards; ++k) {
      want.emplace_back(s.bits[k], k & 1);
    }
    EXPECT_EQ(guards_of(*cn, chain[i]), want) << "chain[" << i << "]";
  }
}

TEST(CompiledNetlist, NoGuardWhereAPathEscapesTheMux) {
  Netlist n;
  const Port in = n.add_input("in", 4);
  const GateId sel = in.bits[3];
  const auto mux_into_dff = [&](GateId d0, GateId d1, GateId s) {
    return n.add_dff(n.add_gate(GateKind::kMux2, d0, d1, s), false);
  };
  const auto node = [&]() {
    return n.add_gate(GateKind::kAnd2, in.bits[0], in.bits[1]);
  };
  std::vector<GateId> outs;
  // Also drives a D pin directly.
  const GateId to_dff = node();
  outs.push_back(mux_into_dff(to_dff, in.bits[2], sel));
  outs.push_back(n.add_dff(to_dff, false));
  // A primary output itself.
  const GateId po = node();
  outs.push_back(mux_into_dff(po, in.bits[2], sel));
  outs.push_back(po);
  // On both data pins.
  const GateId both = node();
  outs.push_back(mux_into_dff(both, both, sel));
  // On a data pin and the select.
  const GateId on_sel = node();
  outs.push_back(mux_into_dff(on_sel, in.bits[2], on_sel));
  // Control: on one data pin only.
  const GateId guarded = node();
  outs.push_back(mux_into_dff(guarded, in.bits[2], sel));
  n.add_output("o", outs);

  const auto cn = compile(n);
  EXPECT_TRUE(guards_of(*cn, to_dff).empty());
  EXPECT_TRUE(guards_of(*cn, po).empty());
  EXPECT_TRUE(guards_of(*cn, both).empty());
  EXPECT_TRUE(guards_of(*cn, on_sel).empty());
  EXPECT_EQ(guards_of(*cn, guarded),
            (std::vector<std::pair<GateId, int>>{{sel, 0}}));
}

TEST(CompiledNetlist, GuardSelectAtOrAboveNodeLevelIsNotKept) {
  Netlist n;
  const Port in = n.add_input("in", 6);
  const auto b = [&](int i) { return in.bits[static_cast<std::size_t>(i)]; };
  const GateId x = n.add_gate(GateKind::kAnd2, b(0), b(1));         // 1
  const GateId level1 = n.add_gate(GateKind::kAnd2, b(2), b(3));    // 1
  const GateId level2 = n.add_gate(GateKind::kAnd2, level1, b(4));  // 2
  const GateId y = n.add_gate(GateKind::kAnd2, x, b(5));            // 2
  std::vector<GateId> outs;
  for (const auto& [d, s] : {std::pair{x, level1}, std::pair{x, level2},
                             std::pair{y, level1}}) {
    outs.push_back(
        n.add_dff(n.add_gate(GateKind::kMux2, d, b(5), s), false));
  }
  n.add_output("o", outs);

  const auto cn = compile(n);
  // x reaches all three MUXes (the third through y), and every select
  // sits at or above x's level 1; y, at level 2, keeps level1's guard.
  EXPECT_TRUE(guards_of(*cn, x).empty());
  EXPECT_EQ(guards_of(*cn, y),
            (std::vector<std::pair<GateId, int>>{{level1, 0}}));
}

TEST(CompiledNetlist, BufChainsFoldToRootAndCopyOut) {
  Netlist n;
  const Port in = n.add_input("in", 2);
  const GateId root = n.add_gate(GateKind::kAnd2, in.bits[0], in.bits[1]);
  const GateId b1 = n.add_gate(GateKind::kBuf, root);
  const GateId b2 = n.add_gate(GateKind::kBuf, b1);
  const GateId user = n.add_gate(GateKind::kXor2, b2, in.bits[0]);
  n.add_output("o", {user});

  const auto cn = compile(n);
  // Both BUFs fold: no compiled node, fold root is the AND, and each
  // appears as a post-sweep copy so external readers still see the net.
  EXPECT_EQ(cn->node_of_gate[b1], kNoNode);
  EXPECT_EQ(cn->node_of_gate[b2], kNoNode);
  EXPECT_EQ(cn->fold_root[b1], root);
  EXPECT_EQ(cn->fold_root[b2], root);
  EXPECT_EQ(cn->copy_dst.size(), 2u);
  EXPECT_EQ(cn->num_nodes(), 2u);  // AND + XOR only

  sim::LogicSim sim(n);
  sim.set_input(n.input("in"), 3);
  sim.eval();
  EXPECT_EQ(sim.word(b1), sim.word(root));
  EXPECT_EQ(sim.word(b2), sim.word(root));
  EXPECT_EQ(sim.word(user), sim.word(root) ^ sim.word(in.bits[0]));
}

TEST(CompiledNetlist, FanoutIndexCoversEveryEdge) {
  Netlist n;
  const GateId a = n.add_gate(GateKind::kInput);
  const GateId b = n.add_gate(GateKind::kInput);
  const GateId x = n.add_gate(GateKind::kAnd2, a, b);
  const GateId w = n.add_gate(GateKind::kBuf, x);       // folds into x
  const GateId y = n.add_gate(GateKind::kXor2, w, x);   // both pins fold to x
  const GateId q = n.add_dff(y, false);                 // DFF D-pin edge
  const GateId z = n.add_gate(GateKind::kNot, q);
  n.add_output("o", {z});
  const auto cn = compile(n);

  const auto consumers = [&cn](GateId g) {
    return std::vector<std::uint32_t>(
        cn->fanout.begin() + cn->fanout_offset[g],
        cn->fanout.begin() + cn->fanout_offset[g + 1]);
  };
  const auto node = [&cn](GateId g) {
    return std::vector<std::uint32_t>{cn->node_of_gate[g]};
  };
  EXPECT_EQ(consumers(a), node(x));
  EXPECT_EQ(consumers(b), node(x));
  // Edges are fold-rooted and one per consumer: y reads x through the
  // folded BUF and directly, and is woken once; the BUF has no edges.
  EXPECT_EQ(consumers(x), node(y));
  EXPECT_TRUE(consumers(w).empty());
  EXPECT_EQ(consumers(y),
            std::vector<std::uint32_t>{CompiledNetlist::kDffFlag | 0u});
  EXPECT_EQ(consumers(q), node(z));
  EXPECT_TRUE(consumers(z).empty());
  ASSERT_EQ(cn->fanout_offset.size(), n.size() + 1);
  EXPECT_EQ(cn->fanout_offset.back(), cn->fanout.size());
}

TEST(CompiledNetlist, PrimaryOutputBufIsMaterializedNotFolded) {
  Netlist n;
  const Port in = n.add_input("in", 2);
  const GateId root = n.add_gate(GateKind::kOr2, in.bits[0], in.bits[1]);
  const GateId po_buf = n.add_gate(GateKind::kBuf, root);
  n.add_output("o", {po_buf});

  const auto cn = compile(n);
  // A PO-bit BUF keeps a real node (the event kernel accumulates PO
  // divergence per node), lowered to AND(a, a) without inversion.
  ASSERT_NE(cn->node_of_gate[po_buf], kNoNode);
  const std::uint32_t node = cn->node_of_gate[po_buf];
  EXPECT_EQ(cn->node_meta[node] & CompiledNetlist::kMetaOpMask,
            static_cast<std::uint8_t>(CompiledOp::kAnd));
  EXPECT_EQ(cn->node_meta[node] & CompiledNetlist::kMetaInvert, 0);
  EXPECT_NE(cn->node_meta[node] & CompiledNetlist::kMetaPo, 0);

  sim::LogicSim sim(n);
  sim.set_input(n.input("in"), 2);
  sim.eval();
  EXPECT_EQ(sim.word(po_buf), sim.word(root));
}

TEST(CompiledNetlist, ConstantsAliasButNeverPropagate) {
  Netlist n;
  const Port in = n.add_input("in", 1);
  const GateId c1 = n.add_gate(GateKind::kConst1);
  const GateId anded = n.add_gate(GateKind::kAnd2, in.bits[0], c1);
  n.add_output("o", {anded});

  // No constant propagation: the AND keeps its compiled node (its
  // output stem carries injectable faults), the constant stays a plain
  // value slot.
  const auto cn = compile(n);
  EXPECT_NE(cn->node_of_gate[anded], kNoNode);
  EXPECT_EQ(cn->fold_root[c1], c1);

  sim::LogicSim sim(n);
  sim.set_input(n.input("in"), 1);
  sim.eval();
  EXPECT_EQ(sim.word(anded), sim::kAllOnes);
}

TEST(CompiledNetlist, FoldRootsDanglingBufIsItsOwnRoot) {
  Netlist n;
  n.add_input("in", 1);
  const GateId dangling = n.add_gate(GateKind::kBuf);  // in0 = kNoGate
  const std::vector<GateId> roots = fold_roots(n);
  EXPECT_EQ(roots[dangling], dangling);
}

TEST(CompiledNetlist, ZeroSlotStaysZeroAcrossEvaluation) {
  const Netlist n = random_netlist(42);
  sim::LogicSim sim(n);
  sim.set_input(n.input("in"), ~0ull);
  sim.eval();
  ASSERT_EQ(sim.values().size(), n.size() + 1);
  EXPECT_EQ(sim.values()[sim.compiled().zero_slot], 0u);
}

TEST(CompiledNetlist, AliasAwareLiveMaskRevivesFoldedAliases) {
  Netlist n;
  const Port in = n.add_input("in", 2);
  const GateId live_root = n.add_gate(GateKind::kAnd2, in.bits[0], in.bits[1]);
  // Dead BUF chain hanging off a live net: plain-dead, alias-live.
  const GateId alias1 = n.add_gate(GateKind::kBuf, live_root);
  const GateId alias2 = n.add_gate(GateKind::kBuf, alias1);
  // Genuinely dead logic: no path to any output, not an alias.
  const GateId dead = n.add_gate(GateKind::kXor2, in.bits[0], in.bits[1]);
  n.add_output("o", {live_root});

  const std::vector<std::uint8_t> plain = live_mask(n);
  EXPECT_TRUE(plain[live_root]);
  EXPECT_FALSE(plain[alias1]);
  EXPECT_FALSE(plain[alias2]);
  EXPECT_FALSE(plain[dead]);

  const std::vector<std::uint8_t> folded = live_mask(n, fold_roots(n));
  EXPECT_TRUE(folded[live_root]);
  EXPECT_TRUE(folded[alias1]) << "alias of a live root must be alias-live";
  EXPECT_TRUE(folded[alias2]);
  EXPECT_FALSE(folded[dead]) << "real dead logic stays dead";
}

TEST(CompiledNetlist, LintSplitsDeadLogicFromFoldedAliases) {
  Netlist n;
  const Port in = n.add_input("in", 2);
  const GateId live_root = n.add_gate(GateKind::kAnd2, in.bits[0], in.bits[1]);
  const GateId alias = n.add_gate(GateKind::kBuf, live_root);
  const GateId dead = n.add_gate(GateKind::kXor2, in.bits[0], in.bits[1]);
  n.add_output("o", {live_root});

  const LintReport rep = lint(n);
  const LintFinding* alias_finding = nullptr;
  const LintFinding* dead_finding = nullptr;
  for (const LintFinding& f : rep.findings) {
    if (f.check == LintCheck::kFoldedDeadAlias) alias_finding = &f;
    if (f.check == LintCheck::kDeadLogic) dead_finding = &f;
  }
  ASSERT_NE(alias_finding, nullptr);
  ASSERT_NE(dead_finding, nullptr);
  EXPECT_EQ(alias_finding->severity, LintSeverity::kInfo);
  ASSERT_EQ(alias_finding->gates.size(), 1u);
  EXPECT_EQ(alias_finding->gates[0], alias)
      << "finding must reference the original gate id";
  ASSERT_EQ(dead_finding->gates.size(), 1u);
  EXPECT_EQ(dead_finding->gates[0], dead);
  EXPECT_EQ(lint_check_name(LintCheck::kFoldedDeadAlias), "folded-alias");
}

TEST(CompiledNetlist, NodesAreLevelMajorAndRunsPartitionThem) {
  const Netlist n = random_netlist(7);
  const auto cn = compile(n);
  // The event kernel's ascending wavefront scan rests on this order: a
  // node's level never decreases with its index, and every consumer
  // node sits above the node that drives it.
  for (std::size_t i = 1; i < cn->num_nodes(); ++i) {
    EXPECT_LE(cn->lv.level[cn->node_gate[i - 1]],
              cn->lv.level[cn->node_gate[i]])
        << "node " << i;
  }
  for (std::uint32_t i = 0; i < cn->num_nodes(); ++i) {
    const std::uint32_t s = cn->node_gate[i];
    for (std::uint32_t e = cn->fanout_offset[s]; e < cn->fanout_offset[s + 1];
         ++e) {
      const std::uint32_t c = cn->fanout[e];
      if (!(c & CompiledNetlist::kDffFlag)) {
        EXPECT_GT(c, i) << "node " << i;
      }
    }
  }
  // And the runs partition the node array in execution order.
  std::uint64_t covered = 0;
  for (const CompiledRun& r : cn->runs) {
    EXPECT_LE(r.begin, r.end);
    covered += r.end - r.begin;
  }
  EXPECT_EQ(covered, cn->num_nodes());
}

}  // namespace
}  // namespace sbst::nl
