#include "fault/good_trace.h"

#include "fault/faultsim.h"

namespace sbst::fault {

std::shared_ptr<const GoodTrace> record_good_trace(
    const nl::Netlist& netlist, const EnvFactory& make_env,
    std::uint64_t max_cycles, std::size_t mem_cap_bytes,
    std::chrono::steady_clock::time_point deadline,
    const std::atomic<bool>* cancel,
    std::shared_ptr<const nl::CompiledNetlist> compiled) {
  using Clock = std::chrono::steady_clock;
  const std::size_t n = netlist.size();
  const std::size_t wpc = (n + 63) / 64;
  const std::size_t words_per_block = wpc * GoodTrace::kCycleBlock;
  const bool has_deadline = deadline != Clock::time_point::max();

  if (compiled == nullptr) compiled = nl::compile(netlist);
  sim::LogicSim s(netlist, compiled);
  s.reset();
  std::unique_ptr<Environment> env = make_env();

  std::vector<sim::Word> planes;
  std::uint64_t cycle = 0;
  for (; cycle < max_cycles; ++cycle) {
    // A new 8-cycle tile block is allocated (zeroed) up front; the cap
    // is checked at block granularity, so tiled storage never exceeds
    // it mid-block.
    if ((cycle & 7u) == 0) {
      if (mem_cap_bytes != 0 &&
          (planes.size() + words_per_block) * sizeof(sim::Word) >
              mem_cap_bytes) {
        return nullptr;
      }
      planes.resize(planes.size() + words_per_block, 0);
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
    // each net is the good value. Tiled addressing: within the current
    // block, the 8 cycle samples of gate word w are contiguous at
    // [w * 8 + (cycle & 7)]. Each 64-gate word is accumulated in a
    // register and stored once — a memory read-modify-write per gate
    // would dominate the whole recording.
    const sim::Word* const v = s.values().data();
    sim::Word* const base =
        planes.data() + (cycle >> 3) * words_per_block + (cycle & 7);
    for (std::size_t w = 0; w * 64 < n; ++w) {
      const std::size_t lo = w * 64;
      const std::size_t hi = std::min(n, lo + 64);
      sim::Word acc = 0;
      for (std::size_t g = lo; g < hi; ++g) {
        acc |= (v[g] & 1) << (g & 63);
      }
      base[w << 3] = acc;
    }
    const bool keep_going = env->observe(s, cycle);
    s.step_clock();
    if (!keep_going) {
      ++cycle;
      break;
    }
  }
  return std::make_shared<const GoodTrace>(n, std::move(planes), cycle);
}

}  // namespace sbst::fault
