// Both engines against the independent single-fault reference
// (verify/fault_oracle.h). The engines share their injection table,
// group plan and forcing code, so their mutual bit-identity cannot catch
// a bug there; the reference shares none of it. Every detected flag and
// detect cycle must match.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "core/classify.h"
#include "core/program.h"
#include "fault/faultsim.h"
#include "netlist/compiled.h"
#include "netlist/fault.h"
#include "parwan/sbst.h"
#include "parwan/testbench.h"
#include "plasma/cpu.h"
#include "plasma/testbench.h"
#include "verify/fault_oracle.h"

#include "testutil.h"

namespace sbst::fault {
namespace {

/// Grades `faults` on both engines and checks every simulated fault's
/// verdict against the reference. Returns how many faults were checked
/// and how many of them were detected.
std::pair<std::size_t, std::size_t> expect_engines_match_oracle(
    const nl::Netlist& n, const nl::FaultList& faults, const EnvFactory& env,
    FaultSimOptions opt) {
  std::vector<FaultSimResult> results;
  for (Engine engine : {Engine::kSweep, Engine::kEvent}) {
    opt.engine = engine;
    results.push_back(run_fault_sim(n, faults, env, opt));
  }
  std::size_t checked = 0;
  std::size_t detected = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (!results[0].simulated[i]) continue;
    const std::int64_t want =
        verify::reference_detect_cycle(n, faults.faults[i], env,
                                       opt.max_cycles);
    for (const FaultSimResult& r : results) {
      EXPECT_EQ(r.detected[i], want >= 0 ? 1 : 0) << "fault " << i;
      EXPECT_EQ(r.detect_cycle[i], want) << "fault " << i;
    }
    ++checked;
    detected += want >= 0;
  }
  return {checked, detected};
}

TEST(FaultOracle, SyntheticMeshesMatch) {
  for (const bool seq : {false, true}) {
    SCOPED_TRACE(seq ? "seq mesh" : "comb mesh");
    const nl::Netlist n =
        seq ? testutil::make_seq_netlist() : testutil::make_comb_netlist();
    const nl::FaultList fl = nl::enumerate_faults(n);
    // Injection kinds present: PI/const stems, comb stems and branches,
    // duplicated MUX pins (comb mesh), DFF D pins and Q outputs (seq).
    std::set<std::pair<nl::GateKind, bool>> kinds;  // (kind, stem)
    for (const nl::Fault& f : fl.faults) {
      kinds.insert({n.gate(f.gate).kind, f.pin == 0});
    }
    if (seq) {
      EXPECT_TRUE(kinds.count({nl::GateKind::kDff, true}));
      EXPECT_TRUE(kinds.count({nl::GateKind::kDff, false}));
    } else {
      EXPECT_TRUE(kinds.count({nl::GateKind::kConst0, true}));
      EXPECT_TRUE(kinds.count({nl::GateKind::kConst1, true}));
      EXPECT_TRUE(kinds.count({nl::GateKind::kMux2, false}));
    }
    EXPECT_TRUE(kinds.count({nl::GateKind::kInput, true}));
    EXPECT_TRUE(kinds.count({nl::GateKind::kXor2, true}));
    EXPECT_TRUE(kinds.count({nl::GateKind::kXor2, false}));

    FaultSimOptions opt;
    opt.max_cycles = 4096;
    opt.threads = 2;
    const auto [checked, detected] =
        expect_engines_match_oracle(n, fl, testutil::pattern_env(400), opt);
    EXPECT_EQ(checked, fl.size());
    EXPECT_GT(detected, 0u);
  }
}

// The event kernel skips work the good machine cannot observe: MUX
// wakeups through the data pin the good select does not pick, and nodes
// whose every observation path a MUX select currently blocks (DESIGN.md
// §5, "Unobservable work"). This netlist holds each shape those rules
// could get wrong: a guard select forced by a fault on a guarded MUX's
// select pin, a select that settles after its data pin, and an AND
// whose two inputs diverge in the same cycle.
TEST(FaultOracle, GuardedNetlistMatchesBothEngines) {
  const testutil::GuardNet gn = testutil::make_guard_netlist();
  const nl::Netlist& n = gn.n;
  const nl::FaultList fl = nl::enumerate_faults(n);

  // The shapes are there: every adder output is guarded by busy, the
  // deep select guards nothing, and busy's MUX select pins carry faults.
  const auto cn = nl::compile(n);
  const auto guarded_by = [&](nl::GateId g, nl::GateId sel) {
    const std::uint32_t node = cn->node_of_gate[g];
    for (std::uint32_t k = cn->guard_offset[node];
         k < cn->guard_offset[node + 1]; ++k) {
      if ((cn->guards[k] & ~nl::CompiledNetlist::kGuardPin1) == sel) {
        return true;
      }
    }
    return false;
  };
  for (nl::GateId s : gn.sum) EXPECT_TRUE(guarded_by(s, gn.busy));
  EXPECT_FALSE(guarded_by(gn.shallow, gn.deep_sel));
  std::size_t select_faults = 0;
  for (const nl::Fault& f : fl.faults) {
    select_faults += f.pin == 3 && std::count(gn.hold_mux.begin(),
                                              gn.hold_mux.end(), f.gate);
  }
  EXPECT_GT(select_faults, 0u);

  FaultSimOptions opt;
  opt.max_cycles = 4096;
  opt.threads = 2;
  const auto [checked, detected] =
      expect_engines_match_oracle(n, fl, testutil::pattern_env(400), opt);
  EXPECT_EQ(checked, fl.size());
  EXPECT_GT(detected, checked / 2);
}

TEST(FaultOracle, ParwanFullListMatchesBothEngines) {
  const parwan::ParwanCpu cpu = parwan::build_parwan_cpu();
  const parwan::ParwanSelfTest st = parwan::build_parwan_selftest();
  ASSERT_TRUE(st.halted);
  const nl::FaultList faults = nl::enumerate_faults(cpu.netlist);
  FaultSimOptions opt;
  opt.max_cycles = 10000;
  opt.threads = 2;
  const auto [checked, detected] = expect_engines_match_oracle(
      cpu.netlist, faults, parwan::make_parwan_env_factory(cpu, st.image),
      opt);
  EXPECT_EQ(checked, faults.size());
  EXPECT_GT(detected, checked / 2);
}

TEST(FaultOracle, PlasmaSampleMatchesBothEngines) {
  const plasma::PlasmaCpu cpu = plasma::build_plasma_cpu();
  const core::SelfTestProgram p =
      core::build_phase_ab(core::classify_plasma(cpu));
  ASSERT_TRUE(p.halted);
  const nl::FaultList faults = nl::enumerate_faults(cpu.netlist);
  FaultSimOptions opt;
  opt.max_cycles = 1'000'000;
  opt.sample = 40;
  opt.sample_seed = 0x0ac1e;
  opt.threads = 2;
  const auto [checked, detected] = expect_engines_match_oracle(
      cpu.netlist, faults, plasma::make_cpu_env_factory(cpu, p.image), opt);
  EXPECT_EQ(checked, opt.sample);
  EXPECT_GT(detected, checked / 2);
}

}  // namespace
}  // namespace sbst::fault
