// Compiled-flavor event-driven differential kernel.
//
// Same algorithm and bit-identical verdicts as EventKernel
// (event_kernel.h) — divergence wavefront over a recorded good trace,
// PROOFS fault dropping, identical watchdog cadence — but running over
// the compiled program (nl::CompiledNetlist):
//
//   * worklist buckets hold compiled node indices; evaluation reads one
//     packed 24-byte node record (fold-rooted fanin slots, base op,
//     inversion and PO flags) — the wavefront's accesses are sparse, so
//     the kernel repacks the compiler's SoA streams into AoS records
//     that cost one cache line per evaluation instead of four;
//   * events are scheduled through the compiled fanout CSR, whose edges
//     skip folded BUF chains entirely (an event crosses a chain in zero
//     evaluations) and carry DFF consumers as tagged entries;
//   * good values come from the tiled trace (GoodTrace::cycle_base), so
//     reconstructing the same gate across adjacent cycles stays within
//     one cache line;
//   * each injected node gets a per-group record holding its forcing
//     masks and an 8-entry LUT of the forced output word as a function
//     of the good fanin bits. While its fanins match the good machine
//     (the common case), one LUT probe replaces the interpreted
//     re-evaluation — and when the forced output also matches the good
//     output (fault not excited), the node is skipped outright, so an
//     unexcited fault costs three trace-bit reads per cycle. Fanin
//     divergence falls back to lane-wise forced evaluation of the
//     original GateKind, matching the sweep kernel's pin semantics
//     exactly.
//
// The evaluation-count telemetry of this kernel reflects the work it
// actually performs, so it reports fewer evaluations than the
// interpreted event kernel (skipped unexcited nodes are not counted);
// verdicts, detection cycles and sweep-engine counters are unaffected.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "fault/event_kernel.h"
#include "fault/faultsim.h"
#include "fault/good_trace.h"
#include "fault/injection.h"
#include "netlist/compiled.h"
#include "netlist/netlist.h"

namespace sbst::fault {

/// Per-worker compiled differential simulator state. Not thread-safe;
/// the trace and compiled program are immutable and shared. `netlist`
/// and `cn` must outlive the kernel.
class CompiledEventKernel {
 public:
  CompiledEventKernel(const nl::Netlist& netlist,
                      const nl::CompiledNetlist& cn,
                      const std::vector<nl::GateId>& po_bits,
                      std::shared_ptr<const GoodTrace> trace);

  /// Simulates one injected group differentially against the trace,
  /// filling rec->detected_mask, detect_cycle, cycles and timed_out
  /// (rec->group/count/detect_cycle must be pre-sized by the caller).
  /// Precondition (checked by GroupSimulator): every non-DFF slotted
  /// gate of `inj` has a compiled node.
  void simulate(const detail::InjectionTable& inj, int count,
                const KernelDeadlines& deadlines, GroupRecord* rec);

  const KernelStats& stats() const { return stats_; }

 private:
  using Word = sim::Word;

  /// Packed per-node evaluation record (AoS repack of the compiled SoA
  /// streams). `meta` carries the compiler's op/invert/PO bits plus the
  /// per-group kInjected flag set and cleared by simulate().
  struct Node {
    std::uint32_t in0;
    std::uint32_t in1;
    std::uint32_t in2;
    std::uint32_t gate;   // output value slot (original id)
    std::uint32_t level;
    std::uint8_t meta;
  };
  static constexpr std::uint8_t kInjected = 0x10;

  /// Per-group record of one injected combinational node.
  struct InjectedNode {
    // Lane-wise fallback: fold-rooted original pins (zero_slot for
    // missing pins) evaluated as the original GateKind under `f`.
    std::uint32_t q0, q1, q2;
    // Trace/mark probe slots: like q*, but missing pins duplicate q0 so
    // probing never touches the (trace-less, always-marked) zero slot.
    std::uint32_t p0, p1, p2;
    nl::GateKind kind;
    detail::GateForce f;
    // Forced output word and its divergence from the good output, as a
    // function of the good fanin bits (missing-pin bits are ignored by
    // construction: the LUT was built with those inputs held at 0).
    Word lut[8];
    Word dv[8];
  };

  const nl::Netlist* netlist_;
  const nl::CompiledNetlist* cn_;
  std::shared_ptr<const GoodTrace> trace_;
  std::vector<Node> nodes_;
  std::vector<std::uint8_t> is_po_;  // per value slot (non-node seeds)

  /// Per-slot diverged value plus its validity stamp, fused so the
  /// blend in value_of touches one cache line instead of two.
  struct Slot {
    Word v;
    std::uint64_t mark;  // v valid this stamp
  };

  // Per-cycle scratch, validity tracked by monotone stamps. Value-slot
  // arrays are sized num_gates + 1 (zero_slot included).
  std::uint64_t stamp_ = 0;
  std::vector<Slot> vm_;
  std::vector<std::uint64_t> seen_;       // seed processed this stamp
  std::vector<std::uint64_t> queued_;     // node in a bucket this stamp
  std::vector<std::uint64_t> cand_mark_;  // DFF candidate this stamp
  std::vector<std::vector<std::uint32_t>> buckets_;  // node idx, by level
  std::vector<std::uint32_t> dff_cands_;             // dff index

  // Sparse diverged flip-flop state carried across clock edges.
  std::vector<std::pair<nl::GateId, Word>> diverged_dffs_;
  std::vector<std::pair<nl::GateId, Word>> next_diverged_;

  // Per-group injection site partition (rebuilt by simulate()).
  std::vector<std::uint32_t> comb_injected_;  // node indices
  std::vector<InjectedNode> inj_nodes_;       // parallel to comb_injected_
  std::vector<std::uint32_t> inj_slot_of_node_;  // valid under kInjected
  std::vector<std::uint32_t> dffd_dffs_;      // dff indices, D-pin-injected
  std::vector<SeedForce> src_forces_;
  std::vector<SeedForce> q_forces_;

  // Excitation schedule of one kChunk-cycle window, filled as the cycle
  // loop enters it, so a dropped group never scans the rest of the
  // trace: per window cycle, each combinational site's LUT index (one
  // row of sites per cycle), the OR of every divergence word any site
  // could contribute, and the excited-force flags. A cycle with no live
  // bit in chunk_dv_ and no carried flip-flop divergence is skipped.
  static constexpr std::uint64_t kChunk = 64;
  static constexpr std::uint8_t kSeedExcited = 1;  // source/Q force
  static constexpr std::uint8_t kDffdExcited = 2;  // D-pin injection
  void fill_chunk(const detail::InjectionTable& inj, std::uint64_t lo,
                  std::uint64_t hi);
  std::vector<std::uint8_t> chunk_ix_;
  Word chunk_dv_[kChunk];
  std::uint8_t chunk_flags_[kChunk];

  KernelStats stats_;
};

}  // namespace sbst::fault
