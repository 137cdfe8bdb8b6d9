// One-time netlist compiler: lowers a levelized netlist into a flat
// structure-of-arrays program for the simulation kernels.
//
// A per-gate interpreter chases a 16-byte Gate AoS record per evaluation
// and branches through a 13-way GateKind switch. The compiled form
// removes both costs:
//
//   * gates are sorted level-major into per-(level, base-op) runs, so the
//     inner loop over a run is branch-free (no per-gate switch, no Gate
//     loads — three contiguous u32 fanin streams and one output stream);
//   * NAND/NOR/XNOR/NOT fold into the base AND/OR/XOR ops plus one
//     precomputed output-inversion word per run ((a op b) ^ inv);
//   * BUF chains fold at compile time: consumers are rewired to the chain
//     root, and each folded BUF becomes a value copy executed after the
//     sweep so externally observable state (primary outputs, traces,
//     environment reads) is unchanged. BUFs that are primary-output bits
//     are materialized as AND(a, a) nodes instead, so the event-driven
//     kernel's PO divergence accumulation still sees them. Constant
//     gates are aliases of themselves — they are never re-evaluated and
//     never constant-propagated (output-stem faults on constants are
//     forced per group by the injection layer, which aggressive folding
//     would break).
//
// Values stay indexed by original GateId (one extra always-zero slot at
// index num_gates stands in for kNoGate), so the injection tables, the
// good-trace planes and every external observer keep their addressing.
// Compiling is deterministic; evaluation is bit-identical to the
// interpreted LogicSim::eval_reference() on every net (differential-
// tested in compiled_test.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "netlist/levelize.h"
#include "netlist/netlist.h"

namespace sbst::nl {

/// Base operations every combinational GateKind lowers to.
enum class CompiledOp : std::uint8_t { kAnd = 0, kOr = 1, kXor = 2, kMux = 3 };
inline constexpr int kNumCompiledOps = 4;

/// Sentinel for "gate has no compiled node" (folded BUF or non-comb).
inline constexpr std::uint32_t kNoNode = 0xFFFFFFFFu;

/// Base-op class a combinational GateKind lowers to (kAnd for sources,
/// which never lower). BUF classes with the AND lane it is materialized
/// into; inverting kinds class with their base op. Work-counter tallies
/// bucket per-kind evaluations with this, in both engines.
inline CompiledOp op_class(GateKind k) {
  switch (k) {
    case GateKind::kOr2:
    case GateKind::kNor2:
      return CompiledOp::kOr;
    case GateKind::kXor2:
    case GateKind::kXnor2:
      return CompiledOp::kXor;
    case GateKind::kMux2:
      return CompiledOp::kMux;
    default:  // And2/Nand2/Not/Buf (and sources, unused)
      return CompiledOp::kAnd;
  }
}

/// One contiguous range of same-level, same-op, same-inversion nodes.
struct CompiledRun {
  std::uint32_t begin = 0;  // node index range [begin, end)
  std::uint32_t end = 0;
  std::uint32_t level = 0;
  CompiledOp op = CompiledOp::kAnd;
  bool invert = false;
};

struct CompiledNetlist {
  // Per-node meta byte: base op (2 bits), output inversion, PO-bit flag.
  static constexpr std::uint8_t kMetaOpMask = 0x3;
  static constexpr std::uint8_t kMetaInvert = 0x4;
  static constexpr std::uint8_t kMetaPo = 0x8;
  // Compiled-fanout entry tag: bit 31 set = DFF index, else node index.
  static constexpr std::uint32_t kDffFlag = 0x80000000u;

  std::size_t num_gates = 0;
  /// Value-array slot that is always zero (maps kNoGate / unused pins).
  /// Value arrays driven through this program are sized num_gates + 1.
  std::uint32_t zero_slot = 0;
  /// The levelization the program was built from (levels, comb order,
  /// DFF list) — shared so simulators need not levelize again.
  Levelization lv;

  // --- node program (SoA, level-major, grouped into `runs`) ---------------
  std::vector<std::uint32_t> node_gate;  // output value slot (original id)
  std::vector<std::uint32_t> node_in0;   // fold-rooted fanin value slots
  std::vector<std::uint32_t> node_in1;
  std::vector<std::uint32_t> node_in2;   // zero_slot unless op == kMux
  std::vector<std::uint8_t> node_meta;
  std::vector<std::uint32_t> node_level;
  std::vector<CompiledRun> runs;  // execution order
  /// Runs of level L are runs[level_run_begin[L] .. level_run_begin[L+1]).
  std::vector<std::uint32_t> level_run_begin;
  /// Nodes of level L are [level_node_begin[L], level_node_begin[L+1])
  /// (nodes are level-major) — the event kernel's flat worklist arena
  /// uses these as per-level segment bases.
  std::vector<std::uint32_t> level_node_begin;

  // --- gate <-> program maps ----------------------------------------------
  std::vector<std::uint32_t> node_of_gate;  // kNoNode for folded/non-comb
  /// BUF-chain fold root per gate (identity for every unfolded gate).
  std::vector<GateId> fold_root;
  /// Folded BUFs, materialized after the run sweep: v[dst] = v[src].
  std::vector<std::uint32_t> copy_dst;
  std::vector<std::uint32_t> copy_src;

  // --- flip-flops (Levelization::dffs order) ------------------------------
  std::vector<GateId> dff_gate;
  std::vector<std::uint32_t> dff_d;  // fold root of the D driver

  // --- compiled fanout CSR over fold-rooted edges -------------------------
  // Consumers of value slot s are fanout[fanout_offset[s] ..
  // fanout_offset[s + 1]): node indices, or kDffFlag | dff-index.
  std::vector<std::uint32_t> fanout_offset;
  std::vector<std::uint32_t> fanout;

  // --- static observability guards ---------------------------------------
  // A guard (sel, p) of node i states that every path from i to a
  // flip-flop D pin or a primary output crosses data pin p of a MUX
  // whose fold-rooted select slot is sel, and that level(sel) <
  // level(i). Whenever sel picks pin 1 - p, no value of node i can be
  // observed, so the event kernel need not evaluate it. PO nodes and
  // nodes that drive a D pin have none; a node has at most kMaxGuards,
  // nearest MUX first. Guards of node i are
  // guards[guard_offset[i] .. guard_offset[i + 1]), each encoded as
  // sel | (p ? kGuardPin1 : 0).
  static constexpr std::uint32_t kMaxGuards = 4;
  static constexpr std::uint32_t kGuardPin1 = 0x80000000u;
  std::vector<std::uint32_t> guard_offset;
  std::vector<std::uint32_t> guards;

  /// Static node count per base op (materialized nodes only: folded
  /// BUFs have none, unlike the sweep's per-kind tallies, which count
  /// every combinational gate).
  std::array<std::uint64_t, kNumCompiledOps> nodes_by_op = {0, 0, 0, 0};

  std::size_t num_nodes() const { return node_gate.size(); }
};

/// Branch-free evaluation of one run over a value array of size
/// num_gates + 1 (slot zero_slot must hold 0). `W` is the value word:
/// std::uint64_t, or a GCC vector of them (one 64-bit word per lane)
/// for kernels that simulate several fault groups side by side.
template <typename W>
inline void eval_run(const CompiledNetlist& cn, const CompiledRun& r, W* v) {
  const std::uint32_t* const go = cn.node_gate.data();
  const std::uint32_t* const i0 = cn.node_in0.data();
  const std::uint32_t* const i1 = cn.node_in1.data();
  const W inv = r.invert ? ~W{} : W{};
  switch (r.op) {
    case CompiledOp::kAnd:
      for (std::uint32_t i = r.begin; i < r.end; ++i) {
        v[go[i]] = (v[i0[i]] & v[i1[i]]) ^ inv;
      }
      break;
    case CompiledOp::kOr:
      for (std::uint32_t i = r.begin; i < r.end; ++i) {
        v[go[i]] = (v[i0[i]] | v[i1[i]]) ^ inv;
      }
      break;
    case CompiledOp::kXor:
      for (std::uint32_t i = r.begin; i < r.end; ++i) {
        v[go[i]] = (v[i0[i]] ^ v[i1[i]]) ^ inv;
      }
      break;
    case CompiledOp::kMux: {
      const std::uint32_t* const i2 = cn.node_in2.data();
      for (std::uint32_t i = r.begin; i < r.end; ++i) {
        const W c = v[i2[i]];
        v[go[i]] = (v[i0[i]] & ~c) | (v[i1[i]] & c);
      }
      break;
    }
  }
}

/// Materializes the folded BUF chains: v[dst] = v[src] (chain root).
/// Run after the last run of a sweep, before anything external reads v.
inline void apply_copies(const CompiledNetlist& cn, std::uint64_t* v) {
  const std::uint32_t* const dst = cn.copy_dst.data();
  const std::uint32_t* const src = cn.copy_src.data();
  const std::size_t n = cn.copy_dst.size();
  for (std::size_t i = 0; i < n; ++i) v[dst[i]] = v[src[i]];
}

/// Lowers the netlist; throws NetlistError on combinational cycles
/// (via levelize). The result is immutable and shared: campaigns build
/// it once and every worker (thread or COW-forked --isolate process)
/// reuses it, exactly like the recorded good trace.
std::shared_ptr<const CompiledNetlist> compile(const Netlist& netlist);

/// BUF-chain fold roots alone (identity for non-BUF gates), without the
/// cost of a full compile — lint uses this to report compile-time-folded
/// gates by their original ids. A dangling BUF (invalid in0) is its own
/// root. Unlike compile(), PO-bit BUFs fold too: this describes chain
/// structure, not the materialization policy.
std::vector<GateId> fold_roots(const Netlist& netlist);

}  // namespace sbst::nl
