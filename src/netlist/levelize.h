// Topological levelization of a netlist for compiled-code simulation.
//
// DFF outputs, INPUT gates and constants are treated as level-0 sources;
// the combinational gates are ordered so every gate appears after all of
// its drivers. A combinational cycle (a loop not broken by a DFF) is a
// design error and raises NetlistError.
#pragma once

#include <vector>

#include "netlist/netlist.h"

namespace sbst::nl {

struct Levelization {
  /// Combinational gates (everything except INPUT/CONST/DFF) in evaluation
  /// order.
  std::vector<GateId> comb_order;
  /// All DFF gates, in id order.
  std::vector<GateId> dffs;
  /// level[g] = 0 for sources, else 1 + max(level of drivers).
  std::vector<std::uint32_t> level;
  /// Maximum combinational depth (levels of logic).
  std::uint32_t max_level = 0;
};

/// Computes a levelization; throws NetlistError on combinational cycles.
Levelization levelize(const Netlist& nl);

/// Marks gates in the transitive fan-in cone of the primary outputs
/// (traced through DFF D-pins). Gates outside the cone correspond to logic
/// a synthesis tool would sweep away: they are excluded from gate counts
/// and from the fault universe. INPUT/CONST gates are always live.
std::vector<std::uint8_t> live_mask(const Netlist& nl);

/// Fold-aware variant: `fold_root` maps each gate to its BUF-chain root
/// (see nl::fold_roots). Every alias inherits its root's liveness and
/// vice versa, so a BUF the compiler folds away is reported live iff the
/// value it forwards is — lint uses this to keep dead-logic findings
/// expressed in original gate ids rather than compiled slots.
std::vector<std::uint8_t> live_mask(const Netlist& nl,
                                    const std::vector<GateId>& fold_root);

}  // namespace sbst::nl
