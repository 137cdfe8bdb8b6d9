// Independent check of the good-run recording. The recorder builds each
// 64-cycle block of planes with one compiled sweep whose bit lanes are
// the block's cycles, fed with transposed input and flip-flop bits. This
// suite shares none of that: its reference is a plain per-cycle run of
// the interpreted LogicSim evaluator, clocked by hand from the netlist's
// own D pins. For every gate and every cycle, the recorded plane bit must
// equal the reference value, and so must the stimulus and the stop cycle.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
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

  std::vector<nl::GateId> dffs;
  for (nl::GateId g = 0; g < n.size(); ++g) {
    if (n.gate(g).kind == nl::GateKind::kDff) dffs.push_back(g);
  }
  const std::vector<nl::GateId>& inputs = trace->inputs();
  sim::LogicSim s(n);
  s.reset();
  const std::unique_ptr<Environment> e = env();
  std::vector<sim::Word> next(dffs.size());
  std::uint64_t cycle = 0;
  std::size_t bad = 0;
  for (; cycle < max_cycles; ++cycle) {
    e->drive(s, cycle);
    s.eval_reference();
    if (cycle < trace->cycles()) {  // a shorter recording fails below
      for (nl::GateId g = 0; g < n.size(); ++g) {
        if (trace->good_bit(cycle, g) != ((s.word(g) & 1) != 0) &&
            ++bad <= 5) {
          ADD_FAILURE() << "gate " << g << " ("
                        << nl::gate_kind_name(n.gate(g).kind) << ") cycle "
                        << cycle;
        }
      }
      const sim::Word* in = trace->stimulus(cycle);
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        if (((in[i / 64] >> (i % 64)) & 1) != (s.word(inputs[i]) & 1) &&
            ++bad <= 5) {
          ADD_FAILURE() << "input " << i << " cycle " << cycle;
        }
      }
    }
    const bool keep_going = e->observe(s, cycle);
    for (std::size_t d = 0; d < dffs.size(); ++d) {
      next[d] = s.word(n.gate(dffs[d]).in[0]);
    }
    for (std::size_t d = 0; d < dffs.size(); ++d) {
      s.values()[dffs[d]] = next[d];
    }
    if (!keep_going) {
      ++cycle;
      break;
    }
  }
  EXPECT_EQ(bad, 0u) << "plane and stimulus bits differing from the "
                         "reference";
  EXPECT_EQ(trace->cycles(), cycle);
  return cycle;
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

}  // namespace
}  // namespace sbst::fault
