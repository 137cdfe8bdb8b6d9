// Levelized compiled-code 2-valued logic simulator.
//
// Each net carries a 64-bit word: the same evaluation kernel serves the
// good-machine simulator (all bits broadcast) and the 64-way parallel
// fault simulator (one machine per bit). Two-valued simulation is sound
// for this project because every DFF elaborated by the DSL has a defined
// reset value and designs are reset before use (enforced by
// Netlist::check + the DSL, see DESIGN.md).
//
// Evaluation runs the compiled SoA program (nl::CompiledNetlist):
// branch-free per-(level, op) runs with folded inversions and BUF
// chains. eval_reference() keeps the original per-gate interpreted
// sweep for differential testing; both produce bit-identical values on
// every net, folded BUFs included. step_clock() is the in-place clock
// edge the eight-lane sweep kernel also runs (nl::clock_edge).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "netlist/compiled.h"
#include "netlist/netlist.h"

namespace sbst::sim {

using Word = std::uint64_t;
inline constexpr Word kAllOnes = ~Word{0};

/// Broadcasts a single logic bit into a simulation word.
inline Word broadcast(bool b) { return b ? kAllOnes : Word{0}; }

/// Evaluates one gate function over words.
inline Word eval_gate(nl::GateKind k, Word a, Word b, Word c) {
  using nl::GateKind;
  switch (k) {
    case GateKind::kBuf:   return a;
    case GateKind::kNot:   return ~a;
    case GateKind::kAnd2:  return a & b;
    case GateKind::kOr2:   return a | b;
    case GateKind::kNand2: return ~(a & b);
    case GateKind::kNor2:  return ~(a | b);
    case GateKind::kXor2:  return a ^ b;
    case GateKind::kXnor2: return ~(a ^ b);
    case GateKind::kMux2:  return (a & ~c) | (b & c);
    default:               return 0;
  }
}

/// Compiled simulator state for one netlist. Holds a shared compiled
/// program; construction is O(gates) (or O(1) when a pre-compiled
/// program is supplied), evaluation is a flat branch-free sweep.
class LogicSim {
 public:
  explicit LogicSim(const nl::Netlist& netlist);
  /// Reuses a campaign-shared compiled program (must be compiled from
  /// `netlist`) instead of compiling again.
  LogicSim(const nl::Netlist& netlist,
           std::shared_ptr<const nl::CompiledNetlist> compiled);

  const nl::Netlist& netlist() const { return *nl_; }
  const nl::CompiledNetlist& compiled() const { return *cn_; }

  /// Loads DFF reset values and clears inputs.
  void reset();

  /// Drives an input port with a scalar value (broadcast to all machines),
  /// bit i of `value` driving port bit i.
  void set_input(const nl::Port& port, std::uint64_t value);

  /// Propagates through the combinational logic (compiled sweep).
  void eval();
  /// Original per-gate interpreted sweep. Bit-identical to eval() on
  /// every net; kept as the differential-testing reference.
  void eval_reference();

  /// Clocks every DFF: state <- D, in place (nl::clock_edge); a DFF fed
  /// by another DFF takes that DFF's pre-edge Q. Call after eval().
  void step_clock();

  /// Raw word on a net (valid after eval()).
  Word word(nl::GateId g) const { return val_[g]; }
  /// Scalar value of an output port in machine `machine` (default: the
  /// good machine convention used by the fault simulator is bit 63; for
  /// pure logic simulation all bits agree).
  std::uint64_t read_output(const nl::Port& port, int machine = 63) const;

  /// Direct access for the fault simulator. The vector holds one word
  /// per gate plus a trailing always-zero slot (CompiledNetlist's
  /// zero_slot) that stands in for unconnected pins.
  std::vector<Word>& values() { return val_; }
  const std::vector<Word>& values() const { return val_; }

 private:
  const nl::Netlist* nl_;
  std::shared_ptr<const nl::CompiledNetlist> cn_;
  std::vector<Word> val_;
  std::vector<Word> staged_;  // clock_edge's samples of chained DFFs
};

}  // namespace sbst::sim
