// Recorded good-machine run, replayed by both fault kernels.
//
// The environment around the netlist (memory model, testbench) is a
// function of the good machine only: an undetected faulty machine has by
// definition issued bit-identical memory traffic (DESIGN.md §5), so the
// closed-loop run of every 63-fault group replays the *same* good
// machine. Recording that run once per campaign — its primary inputs,
// plus for the differential kernel one packed bit per gate per cycle —
// removes the environment from every group.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "fault/faultsim.h"
#include "netlist/compiled.h"
#include "netlist/netlist.h"
#include "sim/logicsim.h"

namespace sbst::fault {

/// Immutable recording: the stimulus (per cycle, the driven bit of every
/// primary input) and optional packed good-value bitplanes holding, for
/// every cycle, one bit per gate with the value after drive+eval of that
/// cycle (the instant the sweep kernel compares primary outputs). Shared
/// read-only across worker threads and inherited copy-on-write by forked
/// --isolate workers.
///
/// Plane storage is tiled cycle-block × gate-block rather than
/// cycle-major: cycles are grouped 8 per block (kCycleBlock) and within a
/// block the 8 words of one 64-gate group are contiguous. The event-driven
/// kernel reconstructs the same handful of gates across *adjacent*
/// cycles, and under this tiling those reads land on the same cache line
/// instead of a full plane apart.
class GoodTrace {
 public:
  /// Cycles per tile block; a 64-gate word group spans exactly one
  /// 64-byte cache line per block.
  static constexpr std::uint64_t kCycleBlock = 8;

  /// `stimulus` holds (inputs.size() + 63) / 64 words per cycle, bit i of
  /// word i / 64 being inputs[i]. `planes` is empty unless `has_planes`,
  /// and tiled (see record_good_trace): block b holds words
  /// [b * words_per_cycle * 8, ...), laid out word-group-major with the 8
  /// cycle samples of each group adjacent.
  GoodTrace(std::size_t num_gates, std::vector<nl::GateId> inputs,
            std::vector<sim::Word> stimulus, bool has_planes,
            std::vector<sim::Word> planes, std::uint64_t cycles)
      : words_per_cycle_((num_gates + 63) / 64),
        planes_(std::move(planes)),
        cycles_(cycles),
        has_planes_(has_planes),
        inputs_(std::move(inputs)),
        stimulus_words_((inputs_.size() + 63) / 64),
        stimulus_(std::move(stimulus)) {}

  /// Cycles recorded: the environment's stop cycle, or max_cycles.
  std::uint64_t cycles() const { return cycles_; }

  /// Primary-input gates (every kInput gate, ascending id), and their
  /// driven bits at cycle t (see the constructor for the packing).
  const std::vector<nl::GateId>& inputs() const { return inputs_; }
  const sim::Word* stimulus(std::uint64_t t) const {
    return stimulus_.data() + t * stimulus_words_;
  }

  bool has_planes() const { return has_planes_; }
  /// Size of the planes (0 without them).
  std::size_t memory_bytes() const {
    return planes_.size() * sizeof(sim::Word);
  }

  /// Base pointer for cycle t; pass to broadcast_bit to read gates.
  const sim::Word* cycle_base(std::uint64_t t) const {
    return planes_.data() + (t >> 3) * (words_per_cycle_ * kCycleBlock) +
           (t & 7);
  }

  /// Broadcasts one bit of a tiled cycle base to all 64 machine lanes.
  static sim::Word broadcast_bit(const sim::Word* base, nl::GateId g) {
    return sim::Word{0} - ((base[(g >> 6) << 3] >> (g & 63)) & 1);
  }

 private:
  std::size_t words_per_cycle_;
  std::vector<sim::Word> planes_;
  std::uint64_t cycles_;
  bool has_planes_;
  std::vector<nl::GateId> inputs_;
  std::size_t stimulus_words_;
  std::vector<sim::Word> stimulus_;
};

/// Runs the environment once on a plain LogicSim and records the run:
/// always the stimulus and the stop cycle, plus the planes when `planes`
/// is set and they fit in `mem_cap_bytes` (0 = unlimited; over the cap
/// the planes are dropped and the stimulus kept). Returns nullptr only
/// when `deadline` has passed or `cancel` is set at the start of a
/// 1024-cycle window — cycle 0 included, so a run already past its
/// deadline or draining records nothing. A campaign-shared compiled
/// program may be passed to skip re-compiling the netlist.
std::shared_ptr<const GoodTrace> record_good_trace(
    const nl::Netlist& netlist, const EnvFactory& make_env,
    std::uint64_t max_cycles, std::size_t mem_cap_bytes, bool planes = true,
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max(),
    const std::atomic<bool>* cancel = nullptr,
    std::shared_ptr<const nl::CompiledNetlist> compiled = nullptr);

}  // namespace sbst::fault
