#include "fault/good_trace.h"

#include <algorithm>

namespace sbst::fault {

namespace {

using sim::Word;

/// In-place transpose of a 64x64 bit matrix: bit j of a[i] trades places
/// with bit i of a[j].
void transpose64(Word* a) {
  Word m = 0x00000000FFFFFFFFull;
  for (unsigned j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (unsigned k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const Word t = ((a[k] >> j) ^ a[k | j]) & m;
      a[k | j] ^= t;
      a[k] ^= t << j;
    }
  }
}

/// Scatters source bits recorded one row per cycle (`rows`, `row_words`
/// words per row, `len` rows) into a block as one 64-cycle word per
/// source: bit c of blk[gates[i]] is bit i of row c.
void scatter_columns(const Word* rows, std::size_t row_words, std::size_t len,
                     const std::vector<nl::GateId>& gates, Word* blk) {
  Word m[64];
  for (std::size_t k = 0; k < row_words; ++k) {
    for (std::size_t c = 0; c < 64; ++c) {
      m[c] = c < len ? rows[c * row_words + k] : 0;
    }
    transpose64(m);
    const std::size_t lo = k * 64;
    const std::size_t hi = std::min(gates.size(), lo + 64);
    for (std::size_t i = lo; i < hi; ++i) blk[gates[i]] = m[i - lo];
  }
}

}  // namespace

GoodTrace::GoodTrace(const nl::Netlist& netlist, bool planes)
    : block_words_(netlist.size() + 1), planes_(planes) {
  for (nl::GateId g = 0; g < netlist.size(); ++g) {
    const nl::GateKind k = netlist.gate(g).kind;
    if (k == nl::GateKind::kInput) inputs_.push_back(g);
    if (k == nl::GateKind::kConst1) ones_.push_back(g);
  }
  stimulus_words_ = (inputs_.size() + 63) / 64;
}

GoodTrace::Block& GoodTrace::add_block() {
  const std::uint64_t b = blocks_;
  const unsigned k = std::bit_width(b + 1) - 1;
  if (segments_[k] == nullptr) {
    segments_[k] = std::make_unique<Block[]>(std::size_t{1} << k);
  }
  ++blocks_;
  return segments_[k][b + 1 - (std::uint64_t{1} << k)];
}

// One compiled sweep over the block: the 64 bit lanes are its cycles.
void GoodTrace::finish_block(const nl::CompiledNetlist& cn, const Word* rows,
                             std::uint64_t len, Word* blk) const {
  const std::size_t q_words = (cn.dff_gate.size() + 63) / 64;
  scatter_columns(rows, stimulus_words_, len, inputs_, blk);
  scatter_columns(rows + kBlockCycles * stimulus_words_, q_words,
                  len, cn.dff_gate, blk);
  for (nl::GateId g : ones_) blk[g] = ~Word{0};
  for (const nl::CompiledRun& r : cn.runs) nl::eval_run(cn, r, blk);
  nl::apply_copies(cn, blk);
}

// The rows past the last cycle of a partial block are zero, as
// scatter_columns reads them for a cached one.
void GoodTrace::build_block(const nl::CompiledNetlist& cn, std::uint64_t b,
                            Word* blk) const {
  finish_block(cn, slot(b).rows.get(), kBlockCycles, blk);
}

std::shared_ptr<const GoodTrace> record_good_trace(
    const nl::Netlist& netlist, const EnvFactory& make_env,
    std::uint64_t max_cycles, std::size_t mem_cap_bytes, bool planes,
    std::chrono::steady_clock::time_point deadline,
    const std::atomic<bool>* cancel,
    std::shared_ptr<const nl::CompiledNetlist> compiled) {
  std::function<bool()> stop;
  if (cancel != nullptr) {
    stop = [cancel] { return cancel->load(std::memory_order_relaxed); };
  }
  return record_good_trace(std::make_shared<GoodTrace>(netlist, planes),
                           netlist, make_env, max_cycles, mem_cap_bytes,
                           deadline, stop, {}, std::move(compiled));
}

std::shared_ptr<const GoodTrace> record_good_trace(
    std::shared_ptr<GoodTrace> trace, const nl::Netlist& netlist,
    const EnvFactory& make_env, std::uint64_t max_cycles,
    std::size_t mem_cap_bytes, std::chrono::steady_clock::time_point deadline,
    const std::function<bool()>& stop, const std::function<void()>& on_publish,
    std::shared_ptr<const nl::CompiledNetlist> compiled) {
  using Clock = std::chrono::steady_clock;
  constexpr std::uint64_t kBlock = GoodTrace::kBlockCycles;
  GoodTrace& tr = *trace;
  const bool has_deadline = deadline != Clock::time_point::max();
  if (compiled == nullptr) compiled = nl::compile(netlist);
  const nl::CompiledNetlist& cn = *compiled;

  // Per cycle the serial run keeps the stimulus and, with planes, a row
  // of the block: the stimulus again and the flip-flop Q bits. A cached
  // block's rows go to `scratch` and are built into planes when the block
  // ends; past the cap they are the block's own rows.
  const std::vector<nl::GateId>& inputs = tr.inputs_;
  const std::size_t stimulus_words = tr.stimulus_words_;
  const std::vector<nl::GateId>& dffs = cn.dff_gate;
  const std::size_t q_words = (dffs.size() + 63) / 64;
  const std::size_t row_words = kBlock * (stimulus_words + q_words);
  std::vector<Word> scratch(tr.planes_ ? row_words : 0);
  const std::size_t block_bytes = tr.block_words_ * sizeof(Word);
  Word* rows = nullptr;
  Word* blk = nullptr;  // null past the cap

  sim::LogicSim s(netlist, compiled);
  s.reset();
  std::unique_ptr<Environment> env = make_env();

  std::uint64_t cycle = 0;
  std::uint64_t built = 0;  // cycles whose block is published
  for (; cycle < max_cycles; ++cycle) {
    const std::uint64_t c = cycle % kBlock;
    // A new block starts; the cap is checked at block granularity, so
    // the cached planes never exceed it.
    if (tr.planes_ && c == 0) {
      GoodTrace::Block& b = tr.add_block();
      if (mem_cap_bytes == 0 ||
          (tr.cached_ + 1) * block_bytes <= mem_cap_bytes) {
        b.planes = std::make_unique<Word[]>(tr.block_words_);  // zeroed
        ++tr.cached_;
        blk = b.planes.get();
        rows = scratch.data();
      } else {
        b.rows = std::make_unique<Word[]>(row_words);  // zeroed
        blk = nullptr;
        rows = b.rows.get();
      }
    }
    // Same amortized cadence as the simulation kernels' watchdog, but
    // checked as each window starts, so no cycle is recorded for a run
    // that is already past its deadline or draining.
    if ((cycle & 1023u) == 0) [[unlikely]] {
      if ((stop && stop()) || (has_deadline && Clock::now() >= deadline)) {
        return nullptr;
      }
    }

    env->drive(s, cycle);
    s.eval();

    // Every word is a broadcast, so bit 0 of each net is the good value.
    const Word* const v = s.values().data();
    tr.stimulus_.resize(tr.stimulus_.size() + stimulus_words, 0);
    Word* const in = tr.stimulus_.data() + cycle * stimulus_words;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      in[i >> 6] |= (v[inputs[i]] & 1) << (i & 63);
    }
    if (tr.planes_) {
      std::copy_n(in, stimulus_words, rows + c * stimulus_words);
      Word* const q = rows + kBlock * stimulus_words + c * q_words;
      for (std::size_t w = 0; w < q_words; ++w) {
        const std::size_t lo = w * 64;
        const std::size_t hi = std::min(dffs.size(), lo + 64);
        Word acc = 0;
        for (std::size_t d = lo; d < hi; ++d) {
          acc |= (v[dffs[d]] & 1) << (d & 63);
        }
        q[w] = acc;
      }
    }
    const bool keep_going = env->observe(s, cycle);
    s.step_clock();
    if (!keep_going) {
      ++cycle;
      break;
    }
    if (tr.planes_ && c == kBlock - 1) {
      if (blk != nullptr) tr.finish_block(cn, rows, kBlock, blk);
      built = cycle + 1;
      tr.mark_.store(built, std::memory_order_release);
      if (on_publish) on_publish();
    }
  }
  tr.cycles_ = cycle;
  if (blk != nullptr && cycle > built) {
    tr.finish_block(cn, rows, cycle - built, blk);
  }
  tr.mark_.store(cycle | GoodTrace::kComplete, std::memory_order_release);
  if (on_publish) on_publish();
  return trace;
}

}  // namespace sbst::fault
