// Recorded good-machine run, replayed by both fault kernels.
//
// The environment around the netlist (memory model, testbench) is a
// function of the good machine only: an undetected faulty machine has by
// definition issued bit-identical memory traffic (DESIGN.md §5), so the
// closed-loop run of every 63-fault group replays the *same* good
// machine. Recording that run once per campaign removes the environment
// from every group.
//
// The recording is its rows: a stream of 64-cycle blocks (kBlockCycles),
// published one by one behind an atomic cycle watermark, each holding
// its 64 stimulus rows and, for the event engine, its 64 rows of
// flip-flop Q bits. One compiled sweep over a block's rows — the 64 bit
// lanes of every word being its 64 cycles — computes every gate's 64
// good values (finish_block). These planes are a per-process cache: the
// first thread of a process to read a block builds it, and the others
// wait for it and share it, up to the memory cap's worth of blocks; past
// the cap each reader builds the block into its own scratch. A fork
// hands the cache to the child zero-filled (MADV_WIPEONFORK), so a
// forked worker inherits no built or half-built block and builds its own.
//
// The rows live in one shared mapping, created with the GoodTrace: a
// memfd holding a header page (the watermark, the futex word waiters
// sleep on, the end time) and then the blocks, back to back. Blocks never
// move, so a kernel can read below the watermark while the recorder is
// still writing above it — on another thread, or in a worker process
// forked at any point: each process maps the blocks it reads on first
// use, so a block published after the fork is as readable as one from
// before. A kernel that reaches the watermark either parks there
// (GroupDriver, faultsim.h) or sleeps on it (wait()).
#pragma once

#include <algorithm>
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

/// The stimulus (per cycle, the driven bit of every primary input) and
/// the stop cycle, plus for the event engine each cycle's flip-flop Q
/// bits, from which any block's good-value planes are built: for every
/// cycle, one bit per gate with the value after drive+eval of that cycle
/// (the instant the sweep kernel compares primary outputs). Shared
/// read-only across worker threads and forked --isolate workers.
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
  /// Cycles per block, the unit of publication.
  static constexpr std::uint64_t kBlockCycles = 64;

  /// Published extent: blocks of cycles [0, cycles) are readable. While
  /// recording, `cycles` is a multiple of kBlockCycles; once `complete`,
  /// it is the stop cycle. `cut` is set when the run gave the recording
  /// up (GroupDriver: a drain, the run deadline, a failure); a cut
  /// recording may still be complete.
  struct Watermark {
    std::uint64_t cycles;
    bool complete;
    bool cut;
  };

  /// An empty recording of `netlist`'s good run (with Q rows iff
  /// `planes`), for record_good_trace to write; a process caches at most
  /// `mem_cap_bytes` of its planes (0 = unlimited). Creates the shared
  /// mapping: std::system_error when the kernel refuses it.
  GoodTrace(const nl::Netlist& netlist, bool planes,
            std::size_t mem_cap_bytes);
  ~GoodTrace();
  GoodTrace(const GoodTrace&) = delete;
  GoodTrace& operator=(const GoodTrace&) = delete;

  /// Acquire-load of the watermark: every block below it is visible.
  Watermark watermark() const {
    const std::uint64_t w = shared_->mark.load(std::memory_order_acquire);
    return {w & ~(kComplete | kCut), (w & kComplete) != 0, (w & kCut) != 0};
  }

  /// Sleeps (on a futex in the shared mapping, from any process) until
  /// the watermark is past `cycles`, or complete, or cut; returns it.
  Watermark wait(std::uint64_t cycles) const;

  /// Marks the recording cut and wakes every waiter (see Watermark).
  void cut();

  /// When the recorder completed the recording (valid once complete).
  std::chrono::steady_clock::time_point ended() const;

  // --- the complete recording ---------------------------------------------

  /// Cycles recorded: the environment's stop cycle, or max_cycles.
  std::uint64_t cycles() const { return watermark().cycles; }

  /// Primary-input gates (every kInput gate, ascending id), and their
  /// driven bits at cycle t (below the watermark): (inputs().size() + 63)
  /// / 64 words, bit i of word i / 64 being inputs()[i].
  const std::vector<nl::GateId>& inputs() const { return inputs_; }
  const sim::Word* stimulus(std::uint64_t t) const {
    return rows(t / kBlockCycles) + t % kBlockCycles * stimulus_words_;
  }

  /// Whether the recording has planes (the event engine's).
  bool has_planes() const { return planes_; }
  /// Planes a process caches of the complete recording: its blocks within
  /// the memory cap, 0 without planes.
  std::size_t memory_bytes() const {
    const std::uint64_t blocks = (cycles() + kBlockCycles - 1) / kBlockCycles;
    return std::min(blocks, cache_blocks_) * block_words_ * sizeof(sim::Word);
  }

  // --- planes (readable below the watermark) -------------------------------

  /// Block b's planes, cycles [64 b, 64 b + 64), built from its rows by
  /// the compiled program `cn`: within the memory cap, this process's
  /// cached block (a reader that finds it being built waits); past it,
  /// built into `scratch` (sized and zeroed on first use, then reused).
  const sim::Word* block(const nl::CompiledNetlist& cn, std::uint64_t b,
                         std::vector<sim::Word>* scratch) const;

 private:
  friend std::shared_ptr<const GoodTrace> record_good_trace(
      std::shared_ptr<GoodTrace> trace, const nl::Netlist& netlist,
      const EnvFactory& make_env, std::uint64_t max_cycles,
      std::chrono::steady_clock::time_point deadline,
      const std::function<bool()>& stop,
      const std::function<void()>& on_publish,
      std::shared_ptr<const nl::CompiledNetlist> compiled);

  static constexpr std::uint64_t kComplete = std::uint64_t{1} << 63;
  /// The header page; blocks start after it.
  static constexpr std::uint64_t kHeaderBytes = 4096;
  static constexpr std::uint64_t kCut = std::uint64_t{1} << 62;
  static constexpr unsigned kWindows = 64;

  /// The header page of the mapping: what every process shares besides
  /// the blocks.
  struct Shared {
    std::atomic<std::uint64_t> mark{0};
    std::atomic<std::uint32_t> seq{0};      // futex word: bumped per publish
    std::atomic<std::uint32_t> waiters{0};  // sleepers on `seq`
    std::atomic<std::int64_t> ended_ns{0};  // steady_clock at completion
  };

  // Window w holds blocks [2^w - 1, 2^(w+1) - 1): their rows in the
  // shared mapping, mapped in each process that reads one of them, so the
  // recorder never moves a mapped block; and their planes in this
  // process's cache.
  static std::uint64_t first_block(unsigned w) {
    return (std::uint64_t{1} << w) - 1;
  }
  /// File offset of block b's rows: its stimulus rows, then its Q rows.
  std::uint64_t offset(std::uint64_t b) const {
    return kHeaderBytes + b * row_bytes_;
  }
  /// File offset window w's mapping starts at: its first block's, down
  /// to a page boundary.
  std::uint64_t window_start(unsigned w) const {
    return offset(first_block(w)) & ~page_mask_;
  }
  /// Block b's rows in this process, mapping its window read-only on
  /// first use.
  const sim::Word* rows(std::uint64_t b) const {
    const unsigned w = std::bit_width(b + 1) - 1;
    char* base = windows_[w].load(std::memory_order_acquire);
    if (base == nullptr) base = map_window(w, false);
    return reinterpret_cast<const sim::Word*>(base + (offset(b) -
                                                      window_start(w)));
  }
  /// Maps window w (the recorder writable, after growing the file over
  /// it) unless this process has; returns the mapping.
  char* map_window(unsigned w, bool writable) const;
  /// Bytes of window w of the plane cache (its first block is within the
  /// cap): each cached block's planes and a state word.
  std::size_t cache_bytes(unsigned w) const {
    return std::min(first_block(w) + 1, cache_blocks_ - first_block(w)) *
           (block_words_ + 1) * sizeof(sim::Word);
  }
  /// Maps window w of the plane cache unless this process has.
  char* map_cache(unsigned w) const;
  /// Publishes `mark` and wakes the waiters (writer only).
  void publish(std::uint64_t mark);
  /// The one plane build: a compiled sweep over block b's rows into blk.
  void finish_block(const nl::CompiledNetlist& cn, std::uint64_t b,
                    sim::Word* blk) const;

  const std::size_t block_words_;
  const bool planes_;
  std::vector<nl::GateId> inputs_;
  std::vector<nl::GateId> ones_;  // kConst1 gates: all-ones in every block
  std::size_t stimulus_words_ = 0;
  std::size_t q_words_ = 0;
  std::size_t row_bytes_ = 0;       // bytes of one block's rows
  std::uint64_t cache_blocks_ = 0;  // blocks within the cap, 0 without planes
  std::uint64_t page_mask_ = 0;     // page size - 1
  int fd_ = -1;
  Shared* shared_ = nullptr;
  mutable std::array<std::atomic<char*>, kWindows> windows_{};
  mutable std::array<std::atomic<char*>, kWindows> cache_{};
};

/// Runs the environment once on a plain LogicSim and records the run:
/// the stimulus and the stop cycle, plus the Q rows when `planes` is set;
/// `mem_cap_bytes` is the GoodTrace's cap. Returns nullptr only when
/// `deadline` has passed or `cancel` is set at the start of a 1024-cycle
/// window — cycle 0 included, so a run already past its deadline or
/// draining records nothing. A campaign-shared compiled program may be
/// passed to skip re-compiling the netlist.
std::shared_ptr<const GoodTrace> record_good_trace(
    const nl::Netlist& netlist, const EnvFactory& make_env,
    std::uint64_t max_cycles, std::size_t mem_cap_bytes, bool planes = true,
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max(),
    const std::atomic<bool>* cancel = nullptr,
    std::shared_ptr<const nl::CompiledNetlist> compiled = nullptr);

/// The same recorder, writing into `trace` (a fresh GoodTrace of
/// `netlist`) while other threads or processes read it: each finished
/// block is published behind the watermark, waiters are woken, and then
/// `on_publish` (if set) runs on the recording thread.
/// `stop` (if set) is polled with the deadline. Returns `trace` itself,
/// complete, or nullptr when cut.
std::shared_ptr<const GoodTrace> record_good_trace(
    std::shared_ptr<GoodTrace> trace, const nl::Netlist& netlist,
    const EnvFactory& make_env, std::uint64_t max_cycles,
    std::chrono::steady_clock::time_point deadline,
    const std::function<bool()>& stop, const std::function<void()>& on_publish,
    std::shared_ptr<const nl::CompiledNetlist> compiled);

}  // namespace sbst::fault
