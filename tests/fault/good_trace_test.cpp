// Independent check of the good-run recording. A block's planes are
// built from its recorded rows with one compiled sweep whose bit lanes
// are the block's cycles, fed with transposed input and flip-flop bits.
// This suite shares none of that: its reference is a plain per-cycle run
// of the interpreted LogicSim evaluator, clocked by hand from the
// netlist's own D pins. For every gate and every cycle, the plane bit
// must equal the reference value, and so must the stimulus and the stop
// cycle — read by one thread, and by four threads that share a process's
// plane cache with and without the memory cap binding.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/classify.h"
#include "core/program.h"
#include "fault/good_trace.h"
#include "parwan/sbst.h"
#include "parwan/testbench.h"
#include "plasma/cpu.h"
#include "plasma/testbench.h"
#include "sim/logicsim.h"

#include "../netlist/random_netlist.h"
#include "testutil.h"

namespace sbst::fault {
namespace {

/// Stops the wrapped environment's run after `stop` cycles (the run
/// ends at the environment's own stop cycle if that comes first).
class StopAt : public Environment {
 public:
  StopAt(std::unique_ptr<Environment> inner, std::uint64_t stop)
      : inner_(std::move(inner)), stop_(stop) {}
  void drive(sim::LogicSim& sim, std::uint64_t cycle) override {
    inner_->drive(sim, cycle);
  }
  bool observe(const sim::LogicSim& sim, std::uint64_t cycle) override {
    return inner_->observe(sim, cycle) && cycle + 1 < stop_;
  }

 private:
  std::unique_ptr<Environment> inner_;
  std::uint64_t stop_;
};

EnvFactory stop_at(EnvFactory inner, std::uint64_t stop) {
  return [inner, stop] { return std::make_unique<StopAt>(inner(), stop); };
}

/// The reference run of `env`: its stop cycle and its planes, bit c of
/// blocks[b][g] being gate g's value at cycle 64 b + c (0 past the stop
/// cycle and in the zero slot, word n.size()).
struct Reference {
  std::uint64_t cycles = 0;
  std::vector<std::vector<sim::Word>> blocks;
};

Reference reference_run(const nl::Netlist& n, const EnvFactory& env,
                        std::uint64_t max_cycles) {
  std::vector<nl::GateId> dffs;
  for (nl::GateId g = 0; g < n.size(); ++g) {
    if (n.gate(g).kind == nl::GateKind::kDff) dffs.push_back(g);
  }
  sim::LogicSim s(n);
  s.reset();
  const std::unique_ptr<Environment> e = env();
  std::vector<sim::Word> next(dffs.size());
  Reference ref;
  while (ref.cycles < max_cycles) {
    const std::uint64_t cycle = ref.cycles++;
    e->drive(s, cycle);
    s.eval_reference();
    if (cycle % GoodTrace::kBlockCycles == 0) {
      ref.blocks.emplace_back(n.size() + 1, 0);
    }
    for (nl::GateId g = 0; g < n.size(); ++g) {
      ref.blocks.back()[g] |= (s.word(g) & 1) << (cycle % 64);
    }
    const bool keep_going = e->observe(s, cycle);
    for (std::size_t d = 0; d < dffs.size(); ++d) {
      next[d] = s.word(n.gate(dffs[d]).in[0]);
    }
    for (std::size_t d = 0; d < dffs.size(); ++d) {
      s.values()[dffs[d]] = next[d];
    }
    if (!keep_going) break;
  }
  return ref;
}

/// Up to `max` words of block b's planes `got` that differ from the
/// reference below cycle `cycles`: (gate, first differing cycle) pairs.
std::vector<std::pair<nl::GateId, std::uint64_t>> plane_diffs(
    const Reference& ref, std::uint64_t b, const sim::Word* got,
    std::uint64_t cycles, std::size_t max) {
  const std::uint64_t len = std::min<std::uint64_t>(64, cycles - 64 * b);
  const sim::Word valid =
      len == 64 ? ~sim::Word{0} : (sim::Word{1} << len) - 1;
  const std::vector<sim::Word>& want = ref.blocks[b];
  std::vector<std::pair<nl::GateId, std::uint64_t>> out;
  for (nl::GateId g = 0; g < want.size() && out.size() < max; ++g) {
    const sim::Word diff = (got[g] ^ want[g]) & valid;
    if (diff != 0) out.emplace_back(g, 64 * b + std::countr_zero(diff));
  }
  return out;
}

/// Records `env`'s run and checks it against the reference run. Returns
/// the stop cycle.
std::uint64_t expect_recording_matches(const nl::Netlist& n,
                                       const EnvFactory& env,
                                       std::uint64_t max_cycles,
                                       const std::string& what) {
  SCOPED_TRACE(what);
  const auto trace = record_good_trace(n, env, max_cycles, 0);
  EXPECT_NE(trace, nullptr);
  if (trace == nullptr) return 0;
  EXPECT_TRUE(trace->has_planes());
  const GoodTrace::Watermark mark = trace->watermark();
  EXPECT_TRUE(mark.complete);
  EXPECT_EQ(mark.cycles, trace->cycles());

  const Reference ref = reference_run(n, env, max_cycles);
  const std::uint64_t cycles = std::min(trace->cycles(), ref.cycles);
  const std::shared_ptr<const nl::CompiledNetlist> cn = nl::compile(n);
  const std::vector<nl::GateId>& inputs = trace->inputs();
  std::vector<sim::Word> scratch;
  std::size_t bad = 0;
  for (std::uint64_t b = 0; 64 * b < cycles; ++b) {
    for (const auto& [g, cycle] :
         plane_diffs(ref, b, trace->block(*cn, b, &scratch), cycles, 5)) {
      if (++bad <= 5) {
        ADD_FAILURE() << "gate " << g << " ("
                      << (g < n.size() ? nl::gate_kind_name(n.gate(g).kind)
                                       : "zero slot")
                      << ") cycle " << cycle;
      }
    }
  }
  for (std::uint64_t cycle = 0; cycle < cycles; ++cycle) {
    const sim::Word* in = trace->stimulus(cycle);
    const std::vector<sim::Word>& want = ref.blocks[cycle / 64];
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (((in[i / 64] >> (i % 64)) & 1) !=
              ((want[inputs[i]] >> (cycle % 64)) & 1) &&
          ++bad <= 5) {
        ADD_FAILURE() << "input " << i << " cycle " << cycle;
      }
    }
  }
  EXPECT_EQ(bad, 0u) << "plane and stimulus bits differing from the "
                         "reference";
  EXPECT_EQ(trace->cycles(), ref.cycles);
  return ref.cycles;
}

TEST(GoodTrace, PlanesMatchReferenceOnPlasmaPhaseAB) {
  const plasma::PlasmaCpu cpu = plasma::build_plasma_cpu();
  const core::SelfTestProgram ab =
      core::build_phase_ab(core::classify_plasma(cpu));
  const EnvFactory env = plasma::make_cpu_env_factory(cpu, ab.image);
  // The program halts mid-block.
  const std::uint64_t halt = expect_recording_matches(
      cpu.netlist, env, 200'000, "Plasma A+B, halted by the program");
  EXPECT_NE(halt % GoodTrace::kBlockCycles, 0u);
  // The same run stopped on the last cycle of a block, and one cycle
  // into the next.
  const std::uint64_t edge = halt - halt % GoodTrace::kBlockCycles;
  EXPECT_EQ(expect_recording_matches(cpu.netlist, stop_at(env, edge),
                                     200'000, "Plasma A+B, block boundary"),
            edge);
  EXPECT_EQ(expect_recording_matches(cpu.netlist, env, edge + 1,
                                     "Plasma A+B, max_cycles"),
            edge + 1);
}

TEST(GoodTrace, PlanesMatchReferenceOnParwan) {
  const parwan::ParwanCpu cpu = parwan::build_parwan_cpu();
  const parwan::ParwanSelfTest st = parwan::build_parwan_selftest();
  expect_recording_matches(cpu.netlist,
                           parwan::make_parwan_env_factory(cpu, st.image),
                           100'000, "Parwan self-test");
}

TEST(GoodTrace, PlanesMatchReferenceOnRandomNetlists) {
  // Stops on, before and after block boundaries, and inside block 0.
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const nl::Netlist n = nl::testutil::random_netlist(seed);
    for (std::uint64_t cycles : {1u, 63u, 64u, 65u, 128u, 130u}) {
      EXPECT_EQ(expect_recording_matches(
                    n, testutil::pattern_env(cycles), 1000,
                    "seed " + std::to_string(seed) + ", " +
                        std::to_string(cycles) + " cycles"),
                cycles);
    }
  }
}

// Four threads read every block of one recording, each in its own
// shuffled order, twice. Within the memory cap the first reader of a
// block builds it and the others wait for it and share it; past the cap
// every thread builds the block into its own scratch. 700 cycles are ten
// full blocks and a partial one; the caps hold every block, two of them
// (2.5 blocks' worth) and none (8 bytes).
TEST(GoodTrace, FourThreadsShareCachedBlocksAndBuildThePastInScratch) {
  const plasma::PlasmaCpu cpu = plasma::build_plasma_cpu();
  const core::SelfTestProgram ab =
      core::build_phase_ab(core::classify_plasma(cpu));
  const nl::Netlist& n = cpu.netlist;
  const EnvFactory env =
      stop_at(plasma::make_cpu_env_factory(cpu, ab.image), 700);
  const Reference ref = reference_run(n, env, 200'000);
  ASSERT_EQ(ref.cycles, 700u);
  const std::shared_ptr<const nl::CompiledNetlist> cn = nl::compile(n);
  const std::size_t block_bytes = (n.size() + 1) * sizeof(sim::Word);
  const std::size_t blocks = ref.blocks.size();
  constexpr unsigned kThreads = 4;
  for (const std::size_t cap :
       {std::size_t{0}, block_bytes * 5 / 2, std::size_t{8}}) {
    SCOPED_TRACE(cap);
    const std::uint64_t cached = cap == 0 ? blocks : cap / block_bytes;
    const auto trace = record_good_trace(n, env, 200'000, cap);
    ASSERT_NE(trace, nullptr);
    ASSERT_EQ(trace->cycles(), ref.cycles);
    EXPECT_EQ(trace->memory_bytes(), cached * block_bytes);
    std::atomic<bool> go{false};
    std::atomic<std::size_t> bad{0};
    std::atomic<std::size_t> misplaced{0};
    std::vector<std::vector<const sim::Word*>> seen(
        kThreads, std::vector<const sim::Word*>(blocks));
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::vector<std::uint64_t> order(blocks);
        std::iota(order.begin(), order.end(), 0);
        std::shuffle(order.begin(), order.end(), std::mt19937(t + 1));
        std::vector<sim::Word> scratch;
        while (!go.load()) std::this_thread::yield();
        for (int pass = 0; pass < 2; ++pass) {
          for (const std::uint64_t b : order) {
            const sim::Word* got = trace->block(*cn, b, &scratch);
            bad += plane_diffs(ref, b, got, ref.cycles, 1).size();
            if ((got == scratch.data()) != (b >= cached)) ++misplaced;
            seen[t][b] = got;
          }
        }
      });
    }
    go = true;
    for (std::thread& th : threads) th.join();
    EXPECT_EQ(bad.load(), 0u) << "blocks differing from the reference";
    EXPECT_EQ(misplaced.load(), 0u) << "blocks cached past the cap, or "
                                       "built in scratch within it";
    for (std::uint64_t b = 0; b < cached; ++b) {
      for (unsigned t = 1; t < kThreads; ++t) {
        EXPECT_EQ(seen[t][b], seen[0][b]) << "block " << b << " not shared";
      }
    }
  }
}

}  // namespace
}  // namespace sbst::fault
