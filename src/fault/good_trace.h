// Recorded good-machine trace for the event-driven differential kernel.
//
// The environment around the netlist (memory model, testbench) is a
// function of the good machine only: an undetected faulty machine has by
// definition issued bit-identical memory traffic (DESIGN.md §5), so the
// closed-loop run of every 63-fault group replays the *same* good
// machine. Recording that run once per campaign — one packed bit per
// gate per cycle — lets the differential kernel reconstruct any
// non-diverged net without re-simulating it, and removes the environment
// from the per-group hot loop entirely.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "netlist/compiled.h"
#include "netlist/netlist.h"
#include "sim/logicsim.h"

namespace sbst::fault {

class Environment;
using EnvFactory = std::function<std::unique_ptr<Environment>()>;

/// Immutable packed good-value bitplanes holding, for every cycle, one
/// bit per gate with the value after drive+eval of that cycle (the
/// instant the sweep kernel compares primary outputs). Shared read-only
/// across worker threads and inherited copy-on-write by forked
/// --isolate workers.
///
/// Storage is tiled cycle-block × gate-block rather than cycle-major:
/// cycles are grouped 8 per block (kCycleBlock) and within a block the 8
/// words of one 64-gate group are contiguous. The event-driven kernel
/// reconstructs the same handful of gates across *adjacent* cycles, and
/// under this tiling those reads land on the same cache line instead of
/// a full plane apart.
class GoodTrace {
 public:
  /// Cycles per tile block; a 64-gate word group spans exactly one
  /// 64-byte cache line per block.
  static constexpr std::uint64_t kCycleBlock = 8;

  /// `planes` must be tiled (see record_good_trace): block b holds
  /// words [b * words_per_cycle * 8, ...), laid out word-group-major
  /// with the 8 cycle samples of each group adjacent.
  GoodTrace(std::size_t num_gates, std::vector<sim::Word> planes,
            std::uint64_t cycles)
      : words_per_cycle_((num_gates + 63) / 64),
        planes_(std::move(planes)),
        cycles_(cycles) {}

  /// Cycles recorded: the environment's stop cycle, or max_cycles.
  std::uint64_t cycles() const { return cycles_; }
  std::size_t words_per_cycle() const { return words_per_cycle_; }
  std::size_t memory_bytes() const {
    return planes_.size() * sizeof(sim::Word);
  }

  /// Base pointer for cycle t; pass to broadcast_bit to read gates.
  const sim::Word* cycle_base(std::uint64_t t) const {
    return planes_.data() + (t >> 3) * (words_per_cycle_ * kCycleBlock) +
           (t & 7);
  }

  /// Good value of gate g at cycle t, broadcast to a full word.
  sim::Word broadcast(std::uint64_t t, nl::GateId g) const {
    return broadcast_bit(cycle_base(t), g);
  }

  /// Broadcasts one bit of a tiled cycle base to all 64 machine lanes.
  static sim::Word broadcast_bit(const sim::Word* base, nl::GateId g) {
    return sim::Word{0} - ((base[(g >> 6) << 3] >> (g & 63)) & 1);
  }

 private:
  std::size_t words_per_cycle_;
  std::vector<sim::Word> planes_;
  std::uint64_t cycles_;
};

/// Runs the environment once on a plain LogicSim and records the packed
/// trace. Returns nullptr when the trace would exceed `mem_cap_bytes`
/// (0 = unlimited; the caller then falls back to the sweep kernel), or
/// when `deadline` has passed or `cancel` is set at the start of a
/// 1024-cycle window — cycle 0 included, so a run already past its
/// deadline or draining records nothing. A campaign-shared compiled
/// program may be passed to skip re-compiling the netlist.
std::shared_ptr<const GoodTrace> record_good_trace(
    const nl::Netlist& netlist, const EnvFactory& make_env,
    std::uint64_t max_cycles, std::size_t mem_cap_bytes,
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max(),
    const std::atomic<bool>* cancel = nullptr,
    std::shared_ptr<const nl::CompiledNetlist> compiled = nullptr);

}  // namespace sbst::fault
