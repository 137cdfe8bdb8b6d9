// Event-driven differential fault-simulation kernel (PROOFS-style).
//
// The sweep kernel re-evaluates every combinational gate of all 64
// machines each cycle. This kernel instead simulates only *divergence*
// from a pre-recorded good-machine trace (good_trace.h):
//
//   invariant  v[g] == broadcast(good[t][g]) ^ divergence word,
//              where any gate not evaluated at cycle t has divergence 0
//              and is reconstructed from the trace on demand.
//
// Per cycle, events are seeded at the group's injection sites and at
// flip-flops whose state diverged on an earlier clock edge; they
// propagate forward in levelized order, and a node whose recomputed word
// equals the good broadcast stops the wavefront. Because fault dropping
// removes detected machines quickly, the surviving divergence cones are
// tiny on most cycles and per-group cost collapses from
// O(gates x cycles) to O(activity). The kernel runs over the compiled
// program (nl::CompiledNetlist):
//
//   * the wavefront is a bitmap with one bit per compiled node, scanned
//     in ascending node index: nl::compile emits nodes level-major and a
//     consumer sits at a higher level than its driver, so the scan is a
//     levelized order. Evaluation reads one packed 20-byte node record
//     (fold-rooted fanin slots, base op, inversion and PO flags) — the
//     wavefront's accesses are sparse, so the kernel repacks the
//     compiler's SoA streams into AoS records that cost one cache line
//     per evaluation instead of four;
//   * events are scheduled through the compiled fanout CSR, whose edges
//     skip folded BUF chains entirely (an event crosses a chain in zero
//     evaluations) and carry DFF consumers as tagged entries;
//   * good values come from the trace's gate-major 64-cycle blocks
//     (GoodTrace::block): one 64-cycle chunk of the loop reads one block,
//     and reconstructing a gate across the chunk's cycles reads one word.
//     The process's threads share a block's planes within the memory
//     cap; past it the kernel builds the block into its own scratch;
//   * each injected node gets a per-group record holding its forcing
//     masks and an 8-entry LUT of the forced output word as a function
//     of the good fanin bits. While its fanins match the good machine
//     (the common case), one LUT probe replaces a forced re-evaluation —
//     and when the forced output also matches the good output (fault not
//     excited), the node is skipped outright, so an unexcited fault
//     costs three trace-bit reads per cycle. Fanin divergence falls back
//     to lane-wise forced evaluation of the original GateKind, matching
//     the sweep kernel's pin semantics exactly;
//   * two exact rules skip work the good machine cannot observe
//     (DESIGN.md §5, "Unobservable work"): an event on one data pin of a
//     non-injected MUX wakes it only when the good select picks that
//     pin, and a node is not evaluated while one of its compile-time
//     guards (CompiledNetlist::guards) has its select picking the other
//     pin in every live lane.
//
// A wavefront pays per node it evaluates, so a cycle where the
// divergence has spread wide costs more than one plain sweep of the whole
// program. After an event cycle that evaluates more than kDenseAbove
// nodes, the group's next active cycles run *dense*: every source and
// flip-flop is written into the value array as a full word (the good
// word, overlaid with the carried divergence and the source and Q
// forces), nl::eval_run sweeps every compiled run over it, each level's
// injected nodes are re-forced after that level with the lane-wise
// fallback formula, PO divergence is read off every primary-output bit,
// and every flip-flop's next state (D-pin forces included) is compared
// with its good D bit. Every kDenseProbe dense cycles one active cycle
// runs through the wavefront again as a probe: a probe that still
// evaluates more than kDenseAbove nodes starts another dense stretch. A
// quiet cycle ends a stretch. The stretch's progress travels in the
// GroupSlice with the carried state, so where a group parks cannot change
// its work. A dense cycle counts its work as a sweep cycle does: every
// combinational gate once, with the per-kind tallies of
// CompiledNetlist::sweep_evals_by_kind.
//
// A group runs to the trace's watermark (GoodTrace::watermark). Once the
// recording is complete that is its stop cycle. While the recording is
// still being written it is the end of the last published block: a group
// that gets there *parks*. simulate() returns with the group's cycle, its
// detected machines and its diverged flip-flops in the GroupSlice. A
// later call, on any worker's kernel, resumes from exactly that state.
// The injection partition and the chunk schedule are rebuilt on resume;
// the schedule is filled from the first cycle of the resume cycle's
// block, so a slice can resume at any cycle, and a group simulated in
// slices does the same work as one simulated in one go. The kernel adds
// each slice's work to the slice's record.
//
// Verdicts are bit-identical to the sweep kernel's: same detection
// masks, detect cycles, fault dropping, cycle accounting and watchdog
// cadence. The evaluation-count telemetry reflects the work actually
// performed (skipped unexcited nodes, filtered wakeups and guarded
// nodes are not counted; dense cycles count a full sweep).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fault/faultsim.h"
#include "fault/good_trace.h"
#include "fault/injection.h"
#include "netlist/compiled.h"
#include "netlist/netlist.h"

namespace sbst::fault {

/// One injection site's aggregated set/clear masks, re-forced against
/// the good trace every cycle (sources and DFF Q outputs).
struct SeedForce {
  nl::GateId gate;
  sim::Word set;
  sim::Word clr;
};

/// Folds an injection list (inj.sources() / inj.dff_q()) into one
/// SeedForce per distinct gate.
void aggregate_seed_forces(const std::vector<detail::Injection>& list,
                           std::vector<SeedForce>* out);

/// When the event kernel runs an active cycle dense (see above). Only
/// kAdaptive is used in production; tests pin the other two to check the
/// dense cycle against the wavefront.
enum class DenseCycles : std::uint8_t { kAdaptive, kNever, kAlways };

/// Per-worker compiled differential simulator state. Not thread-safe;
/// the trace and compiled program are immutable and shared. `netlist`
/// and `cn` must outlive the kernel.
class CompiledEventKernel {
 public:
  CompiledEventKernel(const nl::Netlist& netlist,
                      const nl::CompiledNetlist& cn,
                      const std::vector<nl::GateId>& po_bits,
                      std::shared_ptr<const GoodTrace> trace,
                      DenseCycles dense = DenseCycles::kAdaptive);

  /// Simulates the injected group of `slice` differentially against the
  /// trace, from slice->cycle (any cycle) to the watermark, filling the
  /// record's detected_mask, detect_cycle, cycles and timed_out, adding
  /// the slice's gate evaluations, cycles and per-kind tallies to its
  /// counters, and setting engine_used (rec.group/count/detect_cycle must
  /// be pre-sized by the caller). Returns true when the group is
  /// finished: all machines detected, timed out, or at the stop cycle of
  /// a complete recording. Returns false when it parked at the watermark
  /// of a recording still being written, with its carried state in
  /// `slice`. slice->deadline is the group's wall-clock bound
  /// (time_point::max() = unbounded), checked with the sweep kernel's
  /// watchdog cadence. Precondition (checked when the GroupSimulator is
  /// built): every non-DFF slotted gate of `inj` has a compiled node.
  bool simulate(const detail::InjectionTable& inj, GroupSlice* slice);

  /// An event cycle that evaluates more nodes than this starts a dense
  /// stretch of kDenseProbe cycles (EXPERIMENTS.md, "Dense cycles").
  static constexpr std::uint64_t kDenseAbove = 500;
  static constexpr std::uint32_t kDenseProbe = 8;

 private:
  using Word = sim::Word;

  /// Packed per-node evaluation record (AoS repack of the compiled SoA
  /// streams). `meta` carries the compiler's op/invert/PO bits, the
  /// per-group kInjected flag set and cleared by simulate(), and the
  /// node's guard count (CompiledNetlist::guards) from bit kGuardShift.
  struct Node {
    std::uint32_t in0;
    std::uint32_t in1;
    std::uint32_t in2;
    std::uint32_t gate;   // output value slot (original id)
    std::uint8_t meta;
  };
  static_assert(sizeof(Node) == 20);
  static constexpr std::uint8_t kInjected = 0x10;
  static constexpr unsigned kGuardShift = 5;
  static_assert(nl::CompiledNetlist::kMaxGuards < (1u << (8 - kGuardShift)));

  /// Per-group record of one injected combinational node.
  struct InjectedNode {
    // Fold-rooted original pins (zero_slot for missing pins): probed
    // for the LUT index and evaluated as the original GateKind under `f`
    // by the lane-wise fallback.
    std::uint32_t q0, q1, q2;
    nl::GateKind kind;
    detail::GateForce f;
    // Forced output word and its divergence from the good output, as a
    // function of the good fanin bits (missing-pin bits are ignored by
    // construction: the LUT was built with those inputs held at 0).
    Word lut[8];
    Word dv[8];
  };

  /// Steps 1-5 of one dense cycle at bit `ci` of block `blk`: fills vm_
  /// for every value slot and returns the PO divergence of the live lanes.
  Word dense_eval(const Word* blk, std::uint64_t ci, Word live);
  /// The clock edge of a dense cycle: every flip-flop whose next state
  /// diverges in a live lane goes to next_diverged_.
  void dense_edge(const detail::InjectionTable& inj, const Word* blk,
                  std::uint64_t ci, Word live);

  const nl::Netlist* netlist_;
  const nl::CompiledNetlist* cn_;
  std::shared_ptr<const GoodTrace> trace_;
  std::vector<Word> scratch_;  // a block past the trace's memory cap
  DenseCycles dense_;
  std::vector<Node> nodes_;
  /// Dense cycles write these slots before the sweep: every source and
  /// flip-flop (the gates no compiled node drives), and read these POs.
  std::vector<nl::GateId> leaf_slots_;
  std::vector<nl::GateId> po_slots_;
  /// Per value slot: kSlotPo for a primary-output bit (read for the
  /// non-node seeds), and kSlotTainted while the group being simulated
  /// forces the select pin of an injected MUX on this slot, so no guard
  /// on that select holds (set and cleared by simulate()).
  std::vector<std::uint8_t> slot_flags_;
  static constexpr std::uint8_t kSlotPo = 1;
  static constexpr std::uint8_t kSlotTainted = 2;

  // Per-cycle state: three bitmaps and the diverged values. Every bit is
  // clear between active cycles. Value-slot arrays are sized
  // num_gates + 1 (zero_slot included; its value, like its block word,
  // is 0 and its valid bit is never set).
  std::vector<Word> vm_;     // diverged value, meaningful under valid_
  std::vector<Word> valid_;  // bit per value slot: vm_ written this cycle
  std::vector<Word> wave_;   // bit per node: queued for evaluation
  std::vector<Word> wake_;   // bit per flip-flop: re-clock at the edge

  // Sparse diverged flip-flop state carried across clock edges.
  std::vector<std::pair<nl::GateId, Word>> diverged_dffs_;
  std::vector<std::pair<nl::GateId, Word>> next_diverged_;

  // Per-group injection site partition (rebuilt by simulate()).
  std::vector<std::uint32_t> comb_injected_;  // node indices
  std::vector<InjectedNode> inj_nodes_;       // parallel to comb_injected_
  std::vector<std::uint32_t> inj_slot_of_node_;  // valid under kInjected
  // Ascending dff indices of the D-pin-injected flip-flops.
  std::vector<std::uint32_t> dffd_dffs_;
  std::vector<SeedForce> src_forces_;
  std::vector<SeedForce> q_forces_;
  /// (level, index into inj_nodes_) of every combinational injection
  /// site, sorted: a dense cycle re-forces them level by level.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> dense_fix_;

  // Excitation schedule of one kChunk-cycle window (one trace block),
  // filled from the block as the cycle loop enters it, so a dropped group
  // never scans the rest of the trace: per window cycle, each combinational site's LUT index (one
  // row of sites per cycle), the OR of every divergence word any site
  // could contribute, and the excited-force flags. A cycle with no live
  // bit in chunk_dv_ and no carried flip-flop divergence is skipped.
  static constexpr std::uint64_t kChunk = GoodTrace::kBlockCycles;
  static constexpr std::uint8_t kSeedExcited = 1;  // source/Q force
  static constexpr std::uint8_t kDffdExcited = 2;  // D-pin injection
  void fill_chunk(const detail::InjectionTable& inj, const Word* blk,
                  std::uint64_t len);
  std::vector<std::uint8_t> chunk_ix_;
  Word chunk_dv_[kChunk];
  std::uint8_t chunk_flags_[kChunk];
};

}  // namespace sbst::fault
