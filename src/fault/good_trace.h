// Recorded good-machine run, replayed by both fault kernels.
//
// The environment around the netlist (memory model, testbench) is a
// function of the good machine only: an undetected faulty machine has by
// definition issued bit-identical memory traffic (DESIGN.md §5), so the
// closed-loop run of every 63-fault group replays the *same* good
// machine. Recording that run once per campaign — its primary inputs,
// plus for the differential kernel one bit per gate per cycle — removes
// the environment from every group.
//
// The recording is a stream. Its planes are written in 64-cycle blocks
// (kBlockCycles): the serial good run keeps only the stimulus and the
// flip-flop Q bits of each cycle, and when a block's last cycle has run,
// one compiled sweep over the block — the 64 bit lanes of every word
// being its 64 cycles, the inputs being the transposed stimulus and Q
// bits — computes every gate's 64 values in place. The finished block is
// then published behind an atomic cycle watermark. Blocks never move, so
// event-kernel groups can read the planes below the watermark while the
// recorder is still writing above it (GroupDriver parks a group that
// reaches it; see faultsim.h).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fault/faultsim.h"
#include "netlist/compiled.h"
#include "netlist/netlist.h"
#include "sim/logicsim.h"

namespace sbst::fault {

/// The stimulus (per cycle, the driven bit of every primary input), the
/// stop cycle and optional good-value planes holding, for every cycle, one
/// bit per gate with the value after drive+eval of that cycle (the
/// instant the sweep kernel compares primary outputs). Shared read-only
/// across worker threads and inherited copy-on-write by forked --isolate
/// workers.
///
/// Planes are stored gate-major per block: block b is num_gates + 1
/// words, and bit c of word g is gate g's value at cycle 64 * b + c (the
/// last word is the always-zero slot of the compiled program, so reading
/// it yields 0). The event-driven kernel reconstructs the same handful of
/// gates across adjacent cycles, and under this layout those reads hit
/// one word for 64 cycles. Bits past the stop cycle in the last block are
/// unspecified.
class GoodTrace {
 public:
  /// Cycles per plane block, the unit of publication.
  static constexpr std::uint64_t kBlockCycles = 64;

  /// Published extent: planes of cycles [0, cycles) are readable. While
  /// recording, `cycles` is a multiple of kBlockCycles; once `complete`,
  /// it is the stop cycle. A recording that was cut, or whose planes
  /// crossed the memory cap, never completes: the recorder returns null
  /// for a cut, and a separate stimulus-only copy after a cap crossing.
  struct Watermark {
    std::uint64_t cycles;
    bool complete;
  };

  /// An empty recording of `netlist`'s good run (with room for planes
  /// iff `planes`), for record_good_trace to write.
  GoodTrace(const nl::Netlist& netlist, bool planes);
  GoodTrace(const GoodTrace&) = delete;
  GoodTrace& operator=(const GoodTrace&) = delete;

  /// Acquire-load of the watermark: every plane bit below it is visible.
  Watermark watermark() const {
    const std::uint64_t w = mark_.load(std::memory_order_acquire);
    return {w & ~kComplete, (w & kComplete) != 0};
  }

  // --- the complete recording ---------------------------------------------

  /// Cycles recorded: the environment's stop cycle, or max_cycles.
  std::uint64_t cycles() const { return cycles_; }

  /// Primary-input gates (every kInput gate, ascending id), and their
  /// driven bits at cycle t: (inputs().size() + 63) / 64 words, bit i of
  /// word i / 64 being inputs()[i].
  const std::vector<nl::GateId>& inputs() const { return inputs_; }
  const sim::Word* stimulus(std::uint64_t t) const {
    return stimulus_.data() + t * stimulus_words_;
  }

  /// Whether the recording holds planes (cleared when they cross the
  /// memory cap).
  bool has_planes() const { return planes_.load(std::memory_order_relaxed); }
  /// Size of the planes (0 without them).
  std::size_t memory_bytes() const {
    return has_planes() ? blocks_ * block_words_ * sizeof(sim::Word) : 0;
  }

  // --- planes (readable below the watermark) -------------------------------

  /// Words per block: num_gates + 1.
  std::size_t block_words() const { return block_words_; }
  /// Block b (cycles [64 b, 64 b + 64)).
  const sim::Word* block(std::uint64_t b) const {
    const unsigned k = std::bit_width(b + 1) - 1;
    return segments_[k][b + 1 - (std::uint64_t{1} << k)].get();
  }
  /// Good value of gate g at cycle t.
  bool good_bit(std::uint64_t t, nl::GateId g) const {
    return (block(t / kBlockCycles)[g] >> (t % kBlockCycles)) & 1;
  }

 private:
  friend std::shared_ptr<const GoodTrace> record_good_trace(
      std::shared_ptr<GoodTrace> trace, const nl::Netlist& netlist,
      const EnvFactory& make_env, std::uint64_t max_cycles,
      std::size_t mem_cap_bytes,
      std::chrono::steady_clock::time_point deadline,
      const std::function<bool()>& stop,
      const std::function<void()>& on_publish,
      std::shared_ptr<const nl::CompiledNetlist> compiled);

  static constexpr std::uint64_t kComplete = std::uint64_t{1} << 63;

  explicit GoodTrace(std::size_t block_words)
      : block_words_(block_words), stimulus_words_(0), planes_(false) {}

  /// Appends a zeroed block (writer only; published by the watermark).
  sim::Word* add_block();
  /// A stimulus-only copy of this (finished) recording.
  std::shared_ptr<const GoodTrace> without_planes() const;

  std::size_t block_words_;
  std::vector<nl::GateId> inputs_;
  std::size_t stimulus_words_;
  std::vector<sim::Word> stimulus_;
  std::uint64_t cycles_ = 0;
  std::atomic<bool> planes_;
  std::atomic<std::uint64_t> mark_{0};
  // Block b lives in segment k = bit_width(b + 1) - 1, which holds 2^k
  // blocks: growing the directory never moves a published pointer.
  std::size_t blocks_ = 0;
  std::array<std::unique_ptr<std::unique_ptr<sim::Word[]>[]>, 64> segments_;
};

/// Runs the environment once on a plain LogicSim and records the run:
/// always the stimulus and the stop cycle, plus the planes when `planes`
/// is set and they fit in `mem_cap_bytes` (0 = unlimited; the cap is
/// checked as each block starts, and over it the planes are dropped and
/// the stimulus kept). Returns nullptr only when `deadline` has passed or
/// `cancel` is set at the start of a 1024-cycle window — cycle 0
/// included, so a run already past its deadline or draining records
/// nothing. A campaign-shared compiled program may be passed to skip
/// re-compiling the netlist.
std::shared_ptr<const GoodTrace> record_good_trace(
    const nl::Netlist& netlist, const EnvFactory& make_env,
    std::uint64_t max_cycles, std::size_t mem_cap_bytes, bool planes = true,
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max(),
    const std::atomic<bool>* cancel = nullptr,
    std::shared_ptr<const nl::CompiledNetlist> compiled = nullptr);

/// The same recorder, writing into `trace` (a fresh GoodTrace of
/// `netlist`) while other threads read it: each finished block is
/// published behind the watermark and then `on_publish` (if set) runs.
/// `stop` (if set) is polled with the deadline. Returns `trace` itself,
/// complete, when it kept its planes (or never had any); a stimulus-only
/// copy when the planes crossed the cap (`trace` then stays incomplete,
/// its watermark where the planes stopped); nullptr when cut.
std::shared_ptr<const GoodTrace> record_good_trace(
    std::shared_ptr<GoodTrace> trace, const nl::Netlist& netlist,
    const EnvFactory& make_env, std::uint64_t max_cycles,
    std::size_t mem_cap_bytes, std::chrono::steady_clock::time_point deadline,
    const std::function<bool()>& stop, const std::function<void()>& on_publish,
    std::shared_ptr<const nl::CompiledNetlist> compiled);

}  // namespace sbst::fault
