// Per-group stuck-at injection state shared by the fault-simulation
// kernels (the eight-lane sweep in seq_faultsim.cpp and the event-driven
// differential kernel in compiled_event_kernel.cpp).
//
// Each of the group's <= 63 faults owns one machine bit of the 64-bit
// simulation word; forcing a fault means OR-ing (stuck-at-1) or
// ANDNOT-ing (stuck-at-0) that bit on one pin of one gate. Injections
// are aggregated per gate so the hot loops do an O(1) slot lookup
// instead of scanning the group's fault list.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/fault.h"
#include "sim/logicsim.h"

namespace sbst::fault::detail {

using sim::Word;

/// One injected fault inside the active group.
struct Injection {
  nl::GateId gate;
  std::uint8_t pin;    // 0 = output, 1..3 = input branch
  std::uint8_t stuck;  // forced value
  Word mask;           // single machine bit
};

/// Applies output-style forcing of `stuck` on `mask` bits of `w`.
inline Word force(Word w, Word mask, std::uint8_t stuck) {
  return stuck ? (w | mask) : (w & ~mask);
}

/// Aggregated forcing masks for every injection on one gate: pin p of a
/// faulty gate computes (w | set[p]) & ~clr[p]. Each injection owns a
/// distinct machine bit, so set/clr never collide on a bit and the
/// aggregate is order-independent. For DFF gates, slot 1 holds the
/// D-pin force and slot 0 the Q-output force.
struct GateForce {
  Word set[4] = {0, 0, 0, 0};
  Word clr[4] = {0, 0, 0, 0};
};

/// Forced evaluation of a gate of `kind` whose pins carry the forces `f`,
/// lane-wise over its fanin words a, b, c: each input pin p reads
/// (w | set[p]) & ~clr[p], the output is forced the same way with slot 0.
/// The one formula for an injected gate in both kernels.
inline Word forced_eval(nl::GateKind kind, const GateForce& f, Word a, Word b,
                        Word c) {
  a = (a | f.set[1]) & ~f.clr[1];
  b = (b | f.set[2]) & ~f.clr[2];
  c = (c | f.set[3]) & ~f.clr[3];
  return (sim::eval_gate(kind, a, b, c) | f.set[0]) & ~f.clr[0];
}

/// Per-group injection table. Injections on combinational gates and on
/// DFF pins are indexed per gate (slot() is an O(1) lookup into dense
/// GateForce records), so neither the evaluation sweep nor the clock
/// step ever scans the group's fault list.
class InjectionTable {
 public:
  explicit InjectionTable(std::size_t num_gates) : slot_(num_gates, 0) {}

  void clear() {
    for (nl::GateId g : touched_) slot_[g] = 0;
    touched_.clear();
    forces_.clear();
    source_list_.clear();
    dff_d_list_.clear();
    dff_q_list_.clear();
  }

  void add(const nl::Netlist& netlist, const nl::Fault& f, int machine_bit) {
    const Word mask = Word{1} << machine_bit;
    const nl::GateKind kind = netlist.gate(f.gate).kind;
    const bool is_source = kind == nl::GateKind::kInput ||
                           kind == nl::GateKind::kConst0 ||
                           kind == nl::GateKind::kConst1;
    if (kind == nl::GateKind::kDff) {
      Injection inj{f.gate, f.pin, f.stuck, mask};
      if (f.pin == 0) {
        dff_q_list_.push_back(inj);
      } else {
        // D-pin forces are also folded into the slot table so the clock
        // step looks them up by gate id instead of rescanning this list
        // for every DFF in the design.
        dff_d_list_.push_back(inj);
        add_force(f, mask);
      }
    } else if (is_source) {
      // Output faults on PIs/constants.
      source_list_.push_back(Injection{f.gate, f.pin, f.stuck, mask});
    } else {
      add_force(f, mask);
    }
  }

  std::uint32_t slot(nl::GateId g) const { return slot_[g]; }
  const GateForce& force_record(std::uint32_t slot) const {
    return forces_[slot - 1];
  }
  const std::vector<Injection>& sources() const { return source_list_; }
  const std::vector<Injection>& dff_d() const { return dff_d_list_; }
  const std::vector<Injection>& dff_q() const { return dff_q_list_; }
  /// Gates with a live slot record: combinational injection sites plus
  /// D-pin-injected DFFs, each listed once.
  const std::vector<nl::GateId>& slotted_gates() const { return touched_; }

 private:
  void add_force(const nl::Fault& f, Word mask) {
    std::uint32_t s = slot_[f.gate];
    if (s == 0) {
      forces_.emplace_back();
      touched_.push_back(f.gate);
      s = static_cast<std::uint32_t>(forces_.size());
      slot_[f.gate] = s;
    }
    GateForce& gf = forces_[s - 1];
    if (f.stuck) {
      gf.set[f.pin] |= mask;
    } else {
      gf.clr[f.pin] |= mask;
    }
  }

  std::vector<std::uint32_t> slot_;  // 0 = clean, else index+1 into forces_
  std::vector<nl::GateId> touched_;
  std::vector<GateForce> forces_;
  std::vector<Injection> source_list_;
  std::vector<Injection> dff_d_list_;
  std::vector<Injection> dff_q_list_;
};

}  // namespace sbst::fault::detail
