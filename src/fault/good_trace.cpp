#include "fault/good_trace.h"

namespace sbst::fault {

std::shared_ptr<const GoodTrace> record_good_trace(
    const nl::Netlist& netlist, const EnvFactory& make_env,
    std::uint64_t max_cycles, std::size_t mem_cap_bytes, bool planes,
    std::chrono::steady_clock::time_point deadline,
    const std::atomic<bool>* cancel,
    std::shared_ptr<const nl::CompiledNetlist> compiled) {
  using Clock = std::chrono::steady_clock;
  const std::size_t n = netlist.size();
  const std::size_t wpc = (n + 63) / 64;
  const std::size_t words_per_block = wpc * GoodTrace::kCycleBlock;
  const bool has_deadline = deadline != Clock::time_point::max();

  std::vector<nl::GateId> inputs;
  for (nl::GateId g = 0; g < n; ++g) {
    if (netlist.gate(g).kind == nl::GateKind::kInput) inputs.push_back(g);
  }
  const std::size_t stimulus_words = (inputs.size() + 63) / 64;

  if (compiled == nullptr) compiled = nl::compile(netlist);
  sim::LogicSim s(netlist, compiled);
  s.reset();
  std::unique_ptr<Environment> env = make_env();

  std::vector<sim::Word> stimulus;
  std::vector<sim::Word> plane_words;
  std::uint64_t cycle = 0;
  for (; cycle < max_cycles; ++cycle) {
    // A new 8-cycle tile block is allocated (zeroed) up front; the cap
    // is checked at block granularity, so tiled storage never exceeds
    // it mid-block. Over the cap the planes are dropped for good.
    if (planes && (cycle & 7u) == 0) {
      if (mem_cap_bytes != 0 &&
          (plane_words.size() + words_per_block) * sizeof(sim::Word) >
              mem_cap_bytes) {
        planes = false;
        std::vector<sim::Word>().swap(plane_words);
      } else {
        plane_words.resize(plane_words.size() + words_per_block, 0);
      }
    }
    // Same amortized cadence as the simulation kernels' watchdog, but
    // checked as each window starts, so no cycle is recorded for a run
    // that is already past its deadline or draining.
    if ((cycle & 1023u) == 0) [[unlikely]] {
      if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
        return nullptr;
      }
      if (has_deadline && Clock::now() >= deadline) return nullptr;
    }

    env->drive(s, cycle);
    s.eval();

    // Pack the post-eval values: every word is a broadcast, so bit 0 of
    // each net is the good value.
    const sim::Word* const v = s.values().data();
    stimulus.resize(stimulus.size() + stimulus_words, 0);
    sim::Word* const in = stimulus.data() + cycle * stimulus_words;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      in[i >> 6] |= (v[inputs[i]] & 1) << (i & 63);
    }
    if (planes) {
      // Tiled addressing: within the current block, the 8 cycle samples
      // of gate word w are contiguous at [w * 8 + (cycle & 7)]. Each
      // 64-gate word is accumulated in a register and stored once — a
      // memory read-modify-write per gate would dominate the recording.
      sim::Word* const base =
          plane_words.data() + (cycle >> 3) * words_per_block + (cycle & 7);
      for (std::size_t w = 0; w * 64 < n; ++w) {
        const std::size_t lo = w * 64;
        const std::size_t hi = std::min(n, lo + 64);
        sim::Word acc = 0;
        for (std::size_t g = lo; g < hi; ++g) {
          acc |= (v[g] & 1) << (g & 63);
        }
        base[w << 3] = acc;
      }
    }
    const bool keep_going = env->observe(s, cycle);
    s.step_clock();
    if (!keep_going) {
      ++cycle;
      break;
    }
  }
  return std::make_shared<const GoodTrace>(n, std::move(inputs),
                                           std::move(stimulus), planes,
                                           std::move(plane_words), cycle);
}

}  // namespace sbst::fault
