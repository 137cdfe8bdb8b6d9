#include "fault/good_trace.h"

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
    if (netlist.gate(g).kind == nl::GateKind::kInput) inputs_.push_back(g);
  }
  stimulus_words_ = (inputs_.size() + 63) / 64;
}

Word* GoodTrace::add_block() {
  const std::uint64_t b = blocks_;
  const unsigned k = std::bit_width(b + 1) - 1;
  if (segments_[k] == nullptr) {
    segments_[k] =
        std::make_unique<std::unique_ptr<Word[]>[]>(std::size_t{1} << k);
  }
  std::unique_ptr<Word[]>& slot = segments_[k][b + 1 - (std::uint64_t{1} << k)];
  slot = std::make_unique<Word[]>(block_words_);  // zeroed
  ++blocks_;
  return slot.get();
}

std::shared_ptr<const GoodTrace> GoodTrace::without_planes() const {
  std::shared_ptr<GoodTrace> copy(new GoodTrace(block_words_));
  copy->inputs_ = inputs_;
  copy->stimulus_words_ = stimulus_words_;
  copy->stimulus_ = stimulus_;
  copy->cycles_ = cycles_;
  copy->mark_.store(cycles_ | kComplete, std::memory_order_release);
  return copy;
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

  // Per cycle the serial run keeps the stimulus and, with planes, the
  // flip-flop Q bits; everything else in a block is computed from them
  // when the block ends.
  const std::vector<nl::GateId>& inputs = tr.inputs_;
  const std::size_t stimulus_words = tr.stimulus_words_;
  const std::vector<nl::GateId>& dffs = cn.dff_gate;
  const std::size_t q_words = (dffs.size() + 63) / 64;
  std::vector<Word> q_rows(kBlock * q_words);
  std::vector<nl::GateId> ones;  // kConst1 gates: all-ones in every block
  for (nl::GateId g = 0; g < netlist.size(); ++g) {
    if (netlist.gate(g).kind == nl::GateKind::kConst1) ones.push_back(g);
  }
  const std::size_t block_bytes = tr.block_words_ * sizeof(Word);
  bool planes = tr.has_planes();
  bool dropped = false;

  // One compiled sweep over the block: the 64 bit lanes are its cycles.
  Word* blk = nullptr;
  const auto finish_block = [&](std::uint64_t first, std::uint64_t len) {
    scatter_columns(tr.stimulus_.data() + first * stimulus_words,
                    stimulus_words, len, inputs, blk);
    scatter_columns(q_rows.data(), q_words, len, dffs, blk);
    for (nl::GateId g : ones) blk[g] = ~Word{0};
    for (const nl::CompiledRun& r : cn.runs) nl::eval_run(cn, r, blk);
    nl::apply_copies(cn, blk);
  };

  sim::LogicSim s(netlist, compiled);
  s.reset();
  std::unique_ptr<Environment> env = make_env();

  std::uint64_t cycle = 0;
  std::uint64_t built = 0;  // cycles whose block is finished
  for (; cycle < max_cycles; ++cycle) {
    const std::uint64_t c = cycle % kBlock;
    // A new block is allocated (zeroed) as it starts; the cap is checked
    // at block granularity, so the planes never exceed it. Over the cap
    // they are dropped for good.
    if (planes && c == 0) {
      if (mem_cap_bytes != 0 && (tr.blocks_ + 1) * block_bytes > mem_cap_bytes) {
        planes = false;
        dropped = true;
        tr.planes_.store(false, std::memory_order_relaxed);
      } else {
        blk = tr.add_block();
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
    if (planes) {
      Word* const q = q_rows.data() + c * q_words;
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
    if (planes && c == kBlock - 1) {
      finish_block(built, kBlock);
      built = cycle + 1;
      tr.mark_.store(built, std::memory_order_release);
      if (on_publish) on_publish();
    }
  }
  tr.cycles_ = cycle;
  if (dropped) return tr.without_planes();
  if (planes && cycle > built) finish_block(built, cycle - built);
  tr.mark_.store(cycle | GoodTrace::kComplete, std::memory_order_release);
  if (on_publish) on_publish();
  return trace;
}

}  // namespace sbst::fault
