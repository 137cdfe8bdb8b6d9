// Eight-lane sweep contract: the sweep simulates eight groups side by
// side and refills a lane the moment its group ends, yet every record it
// emits is bit-identical to the record of the same group simulated
// alone (verdicts, cycle counts and work counters) and matches the event
// engine's and the single-fault reference's verdicts — whatever the
// partner groups, lane, refill point or thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/supervisor.h"
#include "core/classify.h"
#include "core/program.h"
#include "fault/faultsim.h"
#include "netlist/compiled.h"
#include "netlist/fault.h"
#include "parwan/sbst.h"
#include "parwan/testbench.h"
#include "plasma/cpu.h"
#include "plasma/testbench.h"

#include "temp_path.h"
#include "testutil.h"

namespace sbst::fault {
namespace {

using testutil::expect_oracle_verdicts;
using testutil::good_run;
using testutil::pattern_env;
using testutil::Records;

/// Verdict fields: what every engine must agree on.
void expect_same_verdicts(const Records& want, const Records& got,
                          const char* what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (const auto& [group, a] : want) {
    const auto it = got.find(group);
    ASSERT_NE(it, got.end()) << what << ": group " << group << " missing";
    const GroupRecord& b = it->second;
    EXPECT_EQ(a.count, b.count) << what << " group " << group;
    EXPECT_EQ(a.detected_mask, b.detected_mask) << what << " group " << group;
    EXPECT_EQ(a.detect_cycle, b.detect_cycle) << what << " group " << group;
    EXPECT_EQ(a.cycles, b.cycles) << what << " group " << group;
    EXPECT_EQ(a.timed_out, b.timed_out) << what << " group " << group;
  }
}

/// Whole records, work counters included: sweep runs must agree.
void expect_same_records(const Records& want, const Records& got,
                         const char* what) {
  expect_same_verdicts(want, got, what);
  for (const auto& [group, a] : want) {
    const auto it = got.find(group);
    if (it == got.end()) continue;
    const GroupRecord& b = it->second;
    EXPECT_EQ(a.gates_evaluated, b.gates_evaluated) << what << " " << group;
    EXPECT_EQ(a.sim_cycles, b.sim_cycles) << what << " " << group;
    EXPECT_EQ(a.evals_by_kind, b.evals_by_kind) << what << " " << group;
    EXPECT_EQ(a.engine_used, b.engine_used) << what << " " << group;
  }
}

/// Grades through run_fault_sim and returns every record it resolved.
Records grade(const nl::Netlist& n, const nl::FaultList& fl,
              const EnvFactory& env, FaultSimOptions opt) {
  Records out;
  opt.on_group = [&out](const GroupRecord& rec, bool, double) {
    out[rec.group] = rec;
  };
  run_fault_sim(n, fl, env, opt);
  return out;
}

/// Streams fresh slices of `groups` through GroupSimulator::run, each
/// bounded by `timeout` from when it is pulled (0 = unbounded), and logs
/// how the lanes were used.
struct LaneRun {
  Records records;
  std::vector<std::uint64_t> emit_order;
  std::size_t max_in_flight = 0;
  std::size_t pulls_before_first_emit = 0;
  bool refilled_mid_run = false;  // loaded next to a running group
};

LaneRun run_lanes(GroupSimulator& sim, const std::vector<std::size_t>& groups,
                  std::chrono::milliseconds timeout = {}) {
  LaneRun out;
  std::size_t next = 0;
  std::set<std::uint64_t> in_flight;
  sim.run(
      [&](bool) -> std::optional<GroupSlice> {
        if (next == groups.size()) return std::nullopt;
        if (!in_flight.empty() && !out.emit_order.empty()) {
          out.refilled_mid_run = true;
        }
        in_flight.insert(groups[next]);
        out.max_in_flight = std::max(out.max_in_flight, in_flight.size());
        if (out.emit_order.empty()) ++out.pulls_before_first_emit;
        GroupSlice s = sim.slice(groups[next++]);
        if (timeout.count() != 0) s.deadline = s.claimed + timeout;
        return s;
      },
      [&](GroupSlice&& slice, bool finished) {
        EXPECT_TRUE(finished);
        const std::uint64_t group = slice.rec.group;
        EXPECT_EQ(in_flight.erase(group), 1u) << "unexpected record";
        out.emit_order.push_back(group);
        out.records[group] = std::move(slice.rec);
      });
  EXPECT_TRUE(in_flight.empty());
  return out;
}

std::vector<std::size_t> all_groups(const GroupPlan& plan) {
  std::vector<std::size_t> g(plan.num_groups());
  for (std::size_t i = 0; i < g.size(); ++i) g[i] = i;
  return g;
}

// Sequential mesh of `width` two-input gates with constants, an
// inverter, a mux, a folded BUF, a three-stage DFF->DFF shift chain and
// register feedback: every injection kind the kernels distinguish has
// live sites.
nl::Netlist make_lane_netlist(std::size_t width = 48) {
  using nl::GateKind;
  nl::Netlist n;
  const auto& in = n.add_input("in", 8);
  std::vector<nl::GateId> nets(in.bits.begin(), in.bits.end());
  nets.push_back(n.add_gate(GateKind::kConst0));
  nets.push_back(n.add_gate(GateKind::kConst1));
  constexpr GateKind kKinds[] = {GateKind::kXor2, GateKind::kAnd2,
                                 GateKind::kOr2,  GateKind::kNand2,
                                 GateKind::kNor2, GateKind::kXnor2};
  std::vector<nl::GateId> dffs;
  for (std::size_t i = 0; i < width; ++i) {
    const nl::GateId a = nets[(i * 7 + 3) % nets.size()];
    const nl::GateId b = nets[(i * 5 + 1) % nets.size()];
    const nl::GateId g = n.add_gate(kKinds[i % 6], a, b);
    nets.push_back(g);
    if (i % 4 == 1) {
      const nl::GateId q = n.add_dff(g, i % 3 == 0);
      dffs.push_back(q);
      nets.push_back(q);
    }
  }
  const nl::GateId buf = n.add_gate(GateKind::kBuf, nets[nets.size() - 2]);
  const nl::GateId inv = n.add_gate(GateKind::kNot, buf);
  const nl::GateId mux =
      n.add_gate(GateKind::kMux2, inv, nets[9], nets[nets.size() - 3]);
  nets.push_back(inv);
  nets.push_back(mux);
  // DFF->DFF shift chain fed by the mux.
  const nl::GateId s0 = n.add_dff(mux, false);
  const nl::GateId s1 = n.add_dff(s0, true);
  const nl::GateId s2 = n.add_dff(s1, false);
  nets.push_back(n.add_gate(GateKind::kXor2, s2, nets[12]));
  // Feedback into the first registers.
  n.set_gate_input(dffs[0], 0, nets.back());
  // s0 and s1 fan out to the port too, so the chain's D pins are
  // branches of their own, not collapsed into the driving Q stems.
  std::vector<nl::GateId> outs = {s0, s1, s2, nets.back(), inv};
  for (std::size_t i = 10; i < nets.size(); i += 5) outs.push_back(nets[i]);
  n.add_output("o", outs);
  return n;
}

enum class Site { kSource, kCombOut, kCombIn, kDffD, kDffQ, kBuf };

Site site_of(const nl::Netlist& n, const nl::Fault& f) {
  switch (n.gate(f.gate).kind) {
    case nl::GateKind::kInput:
    case nl::GateKind::kConst0:
    case nl::GateKind::kConst1:
      return Site::kSource;
    case nl::GateKind::kDff:
      return f.pin == 0 ? Site::kDffQ : Site::kDffD;
    case nl::GateKind::kBuf:
      return Site::kBuf;
    default:
      return f.pin == 0 ? Site::kCombOut : Site::kCombIn;
  }
}

bool is_chain_d(const nl::Netlist& n, const nl::Fault& f) {
  return site_of(n, f) == Site::kDffD &&
         n.gate(n.gate(f.gate).in[0]).kind == nl::GateKind::kDff;
}

/// Builds a list in which each group named in `mixed` opens with a
/// DFF->DFF D-pin fault and then takes faults of every injection kind,
/// dealt round-robin across kinds and mixed groups; the remaining faults
/// fill the other groups, in list order.
nl::FaultList interleave_kinds(const nl::Netlist& n, const nl::FaultList& fl,
                               const std::vector<std::size_t>& mixed) {
  std::vector<nl::Fault> chain;
  std::map<Site, std::vector<nl::Fault>> by_site;
  for (const nl::Fault& f : fl.faults) {
    (is_chain_d(n, f) ? chain : by_site[site_of(n, f)]).push_back(f);
  }
  std::vector<std::vector<nl::Fault>> groups(mixed.size());
  std::vector<nl::Fault> rest;
  for (std::size_t c = 0; c < chain.size(); ++c) {
    (c < groups.size() ? groups[c] : rest).push_back(chain[c]);
  }
  for (std::size_t i = 0;; ++i) {
    bool any = false;
    for (auto& [site, bucket] : by_site) {
      if (i >= bucket.size()) continue;
      any = true;
      std::vector<nl::Fault>* dst = &rest;
      for (std::size_t k = 0; k < groups.size(); ++k) {
        std::vector<nl::Fault>& g = groups[(i + k) % groups.size()];
        if (g.size() < 63) {
          dst = &g;
          break;
        }
      }
      dst->push_back(bucket[i]);
    }
    if (!any) break;
  }
  // Group g of the list is mixed group k where mixed[k] == g, else the
  // next 63 of the rest.
  nl::FaultList out;
  auto next = rest.begin();
  const std::size_t last = *std::max_element(mixed.begin(), mixed.end());
  for (std::size_t g = 0; g <= last || next != rest.end(); ++g) {
    const auto m = std::find(mixed.begin(), mixed.end(), g);
    std::vector<nl::Fault> part;
    if (m != mixed.end()) {
      part = groups[static_cast<std::size_t>(m - mixed.begin())];
    } else {
      const auto take = std::min<std::ptrdiff_t>(63, rest.end() - next);
      part.assign(next, next + take);
      next += take;
    }
    for (const nl::Fault& f : part) {
      out.faults.push_back(f);
      out.class_size.push_back(1);
    }
  }
  out.total_uncollapsed = out.faults.size();
  return out;
}

Records one(std::uint64_t group, const GroupRecord& rec) {
  Records r;
  r[group] = rec;
  return r;
}

/// Each group simulated on its own, one lane busy at a time.
Records simulate_alone(GroupSimulator& sim, const GroupPlan& plan) {
  Records r;
  for (std::size_t g = 0; g < plan.num_groups(); ++g) r[g] = sim.simulate(g);
  return r;
}

TEST(SweepLanes, EveryInjectionKindLiveInLowAndHighLanesAtOnce) {
  // Groups 0 and 3 run in the low half of the 512-bit lane word, groups
  // 4 and 7 in the high half, which only the AVX-512 pass holds in one
  // register; each carries every kind the generated list has, the
  // DFF->DFF D pins included.
  const std::vector<std::size_t> mixed = {0, 3, 4, 7};
  const nl::Netlist n = make_lane_netlist(160);
  const nl::FaultList fl =
      interleave_kinds(n, nl::enumerate_faults(n), mixed);
  ASSERT_GT(fl.size(), 8u * 63u) << "need eight full groups and a ninth";
  for (std::size_t g : mixed) {
    std::set<Site> sites;
    bool chain_d = false;
    for (std::size_t i = g * 63; i < (g + 1) * 63; ++i) {
      sites.insert(site_of(n, fl.faults[i]));
      chain_d |= is_chain_d(n, fl.faults[i]);
    }
    EXPECT_EQ(sites.size(), 5u) << "group " << g;
    EXPECT_TRUE(chain_d) << "group " << g;
  }

  FaultSimOptions opt;
  opt.max_cycles = 4096;
  opt.engine = Engine::kSweep;
  const GroupPlan plan(fl, opt);
  const auto run400 = good_run(n, pattern_env(400), opt);
  GroupSimulator alone(n, fl, plan, run400);
  const Records want = simulate_alone(alone, plan);
  Records checked;
  for (std::size_t g : mixed) checked[g] = want.at(g);
  expect_oracle_verdicts(n, fl, pattern_env(400), opt.max_cycles, checked);

  GroupSimulator lanes(n, fl, plan, run400);
  EXPECT_EQ(lanes.lanes(), 8u);
  const LaneRun run = run_lanes(lanes, all_groups(plan));
  EXPECT_EQ(run.max_in_flight, lanes.lanes()) << "every lane must run at once";
  // The first pass fills the lanes in ascending order before any group
  // can end, so group g < 8 runs in lane g.
  EXPECT_GE(run.pulls_before_first_emit, lanes.lanes());
  expect_same_records(want, run.records, "all lanes vs one at a time");

  opt.engine = Engine::kEvent;
  opt.threads = 1;
  expect_same_verdicts(want, grade(n, fl, pattern_env(400), opt),
                       "lanes vs event");
}

TEST(SweepLanes, FoldedBufFaultRejectedPoBufFaultSimulated) {
  // The compiler folds a BUF away unless it is a primary-output bit. A
  // hand-built list with a fault on a folded BUF has nothing to force
  // and is rejected before anything runs, in-process and isolated.
  nl::Netlist n = make_lane_netlist();
  const nl::FaultList generated = nl::enumerate_faults(n);
  nl::GateId folded = nl::kNoGate;
  for (nl::GateId g = 0; g < n.size(); ++g) {
    if (n.gate(g).kind == nl::GateKind::kBuf) folded = g;
  }
  ASSERT_NE(folded, nl::kNoGate);
  const nl::GateId po_buf =
      n.add_gate(nl::GateKind::kBuf, n.output("o").bits[3]);
  n.add_output("b", {po_buf});
  const std::shared_ptr<const nl::CompiledNetlist> cn = nl::compile(n);
  ASSERT_EQ(cn->node_of_gate[folded], nl::kNoNode);
  ASSERT_NE(cn->node_of_gate[po_buf], nl::kNoNode);

  // Stem and branch faults on the PO BUF, in both groups, among
  // generated faults.
  nl::FaultList fl;
  for (std::size_t i = 0; i < 100; ++i) {
    fl.faults.push_back(generated.faults[i]);
    fl.class_size.push_back(1);
  }
  fl.faults[3] = {po_buf, 1, 0};
  fl.faults[40] = {po_buf, 0, 1};
  fl.faults[70] = {po_buf, 1, 1};
  fl.faults[95] = {po_buf, 0, 0};
  fl.total_uncollapsed = fl.size();

  FaultSimOptions opt;
  opt.max_cycles = 4096;
  opt.threads = 1;
  for (Engine engine : {Engine::kSweep, Engine::kEvent}) {
    opt.engine = engine;
    const Records got = grade(n, fl, pattern_env(400), opt);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_NE(got.at(0).detect_cycle[40], -1) << "PO-BUF stem fault";
    expect_oracle_verdicts(n, fl, pattern_env(400), opt.max_cycles, got);
  }

  nl::FaultList bad = fl;
  bad.faults[80] = {folded, 0, 1};
  for (Engine engine : {Engine::kSweep, Engine::kEvent}) {
    opt.engine = engine;
    // At 4 threads the rejection is thrown on worker threads: the first
    // one must reach the caller once every worker has joined.
    for (unsigned threads : {1u, 4u}) {
      opt.threads = threads;
      EXPECT_THROW(run_fault_sim(n, bad, pattern_env(400), opt),
                   std::invalid_argument)
          << threads << " threads";
    }
    opt.threads = 1;
    campaign::CampaignOptions copt;
    copt.sim = opt;
    copt.isolate = true;
    copt.iso.workers = 2;
    EXPECT_THROW(campaign::run_campaign(n, bad, pattern_env(400), 0xbf0ull,
                                        copt),
                 std::invalid_argument);
  }
}

TEST(SweepLanes, PlasmaSkewedGroupsRefillMidRunAndOddTail) {
  const plasma::PlasmaCpu cpu = plasma::build_plasma_cpu();
  const core::SelfTestProgram p =
      core::build_phase_ab(core::classify_plasma(cpu));
  ASSERT_TRUE(p.halted);
  const nl::FaultList faults = nl::enumerate_faults(cpu.netlist);
  const EnvFactory env = plasma::make_cpu_env_factory(cpu, p.image);
  FaultSimOptions opt;
  opt.max_cycles = 1'000'000;
  // Thirteen groups of the full list, spread over the netlist by a shard
  // restriction: full-list groups share components, so their lengths
  // are skewed (random samples almost all run to the halt). Thirteen is
  // more than the eight lanes and not a multiple of them, so lanes are
  // refilled mid-run and the last groups run beside idle lanes.
  opt.shard_count = 50;
  opt.shard_index = 7;
  opt.engine = Engine::kSweep;
  const GroupPlan plan(faults, opt);
  const auto recorded = good_run(cpu.netlist, env, opt);
  GroupSimulator alone(cpu.netlist, faults, plan, recorded);
  Records want;
  for (std::size_t g = opt.shard_index; g < plan.num_groups();
       g += opt.shard_count) {
    want[g] = alone.simulate(g);
  }
  ASSERT_EQ(want.size(), 13u);
  std::set<std::uint64_t> lengths;
  for (const auto& [g, rec] : want) lengths.insert(rec.cycles);
  EXPECT_GT(lengths.size(), 1u) << "group lengths must be skewed";
  std::vector<std::size_t> groups;
  for (const auto& [g, rec] : want) groups.push_back(g);

  GroupSimulator sim(cpu.netlist, faults, plan, recorded);
  const LaneRun run = run_lanes(sim, groups);
  EXPECT_TRUE(run.refilled_mid_run);
  EXPECT_EQ(run.max_in_flight, sim.lanes());
  expect_same_records(want, run.records, "plasma lanes");

  for (unsigned threads : {1u, 2u, 4u}) {
    opt.threads = threads;
    expect_same_records(want, grade(cpu.netlist, faults, env, opt),
                        "plasma threads");
  }
  opt.engine = Engine::kEvent;
  opt.threads = 2;
  expect_same_verdicts(want, grade(cpu.netlist, faults, env, opt),
                       "plasma event");
}

TEST(SweepLanes, ParwanFullListIdenticalAcrossKernelsAndThreads) {
  const parwan::ParwanCpu cpu = parwan::build_parwan_cpu();
  const parwan::ParwanSelfTest st = parwan::build_parwan_selftest();
  ASSERT_TRUE(st.halted);
  const nl::FaultList faults = nl::enumerate_faults(cpu.netlist);
  const EnvFactory env = parwan::make_parwan_env_factory(cpu, st.image);
  FaultSimOptions opt;
  opt.max_cycles = 10000;
  opt.engine = Engine::kSweep;
  const GroupPlan plan(faults, opt);
  const auto recorded = good_run(cpu.netlist, env, opt);
  GroupSimulator alone(cpu.netlist, faults, plan, recorded);
  const Records want = simulate_alone(alone, plan);
  ASSERT_GT(want.size(), 20u);

  for (unsigned threads : {1u, 2u, 4u}) {
    opt.threads = threads;
    expect_same_records(want, grade(cpu.netlist, faults, env, opt),
                        "parwan lanes");
  }
  // A stream whose length is not a multiple of the lane count: the last
  // groups run beside idle lanes.
  GroupSimulator sim(cpu.netlist, faults, plan, recorded);
  std::vector<std::size_t> odd = all_groups(plan);
  if (odd.size() % sim.lanes() == 0) odd.pop_back();
  ASSERT_GT(odd.size(), sim.lanes());
  const LaneRun run = run_lanes(sim, odd);
  EXPECT_TRUE(run.refilled_mid_run);
  for (const auto& [g, rec] : run.records) {
    expect_same_records(one(g, want.at(g)), one(g, rec), "parwan odd");
  }

  opt.engine = Engine::kEvent;
  for (unsigned threads : {1u, 4u}) {
    opt.threads = threads;
    expect_same_verdicts(want, grade(cpu.netlist, faults, env, opt),
                         "parwan event");
  }
}

TEST(SweepLanes, GroupTimeoutInOneLaneWhileTheOtherCompletes) {
  // Group 0 holds a fault on a gate no output observes, so it never
  // drops and runs until its group timeout; group 1 holds only faults
  // detected within 64 cycles, so it drops early and completes while
  // group 0 is still running in another lane.
  nl::Netlist n = make_lane_netlist();
  const nl::FaultList generated = nl::enumerate_faults(n);
  const nl::Port& in = n.input("in");
  const nl::GateId dead =
      n.add_gate(nl::GateKind::kAnd2, in.bits[0], in.bits[1]);
  FaultSimOptions opt;
  opt.max_cycles = 4096;
  opt.threads = 1;
  opt.engine = Engine::kSweep;
  const FaultSimResult probe =
      run_fault_sim(n, generated, pattern_env(4096), opt);
  nl::FaultList fl;
  fl.faults.push_back({dead, 0, 0});
  for (std::size_t i = 0; i < generated.size() && fl.size() < 2 * 63; ++i) {
    if (probe.detected[i] && probe.detect_cycle[i] < 64) {
      fl.faults.push_back(generated.faults[i]);
    }
  }
  ASSERT_EQ(fl.size(), 2u * 63u) << "need 125 early-detected faults";
  fl.class_size.assign(fl.size(), 1);
  fl.total_uncollapsed = fl.size();

  // A never-halting pattern run: only the timeout ends group 0.
  opt.max_cycles = 1'000'000;
  const GroupPlan plan(fl, opt);
  const auto recorded = good_run(n, pattern_env(opt.max_cycles), opt);
  GroupSimulator plain(n, fl, plan, recorded);
  const GroupRecord want = plain.simulate(1);
  ASSERT_FALSE(want.timed_out);
  ASSERT_LE(want.cycles, 64u);

  // Each slice carries a 20 ms bound, as a run's driver would set it.
  GroupSimulator sim(n, fl, plan, recorded);
  const LaneRun run =
      run_lanes(sim, {0, 1}, std::chrono::milliseconds(20));
  EXPECT_EQ(run.max_in_flight, 2u);
  ASSERT_EQ(run.emit_order.size(), 2u);
  EXPECT_EQ(run.emit_order[0], 1u) << "the healthy lane finishes first";
  const GroupRecord& hung = run.records.at(0);
  EXPECT_TRUE(hung.timed_out);
  EXPECT_EQ(hung.detect_cycle[0], -1);
  // The watchdog fires at one of its 1024-cycle checks.
  EXPECT_EQ(hung.cycles % 1024, 1023u);
  EXPECT_LT(hung.cycles, opt.max_cycles);
  expect_same_records(one(1, want), one(1, run.records.at(1)),
                      "healthy lane");
}

TEST(SweepLanes, GroupDurationsSumToAtMostWorkersTimesWallClock) {
  // Ten groups at four workers, up to eight side by side in one worker.
  // A sweep group is charged its share of each pass it ran in, so the
  // durations of a run add up to at most workers x its wall clock,
  // threaded or isolated.
  const plasma::PlasmaCpu cpu = plasma::build_plasma_cpu();
  const core::SelfTestProgram p =
      core::build_phase_ab(core::classify_plasma(cpu));
  ASSERT_TRUE(p.halted);
  const nl::FaultList faults = nl::enumerate_faults(cpu.netlist);
  const EnvFactory env = plasma::make_cpu_env_factory(cpu, p.image);
  FaultSimOptions opt;
  opt.max_cycles = 1'000'000;
  opt.sample = 630;
  opt.engine = Engine::kSweep;
  opt.threads = 1;
  const Records want = grade(cpu.netlist, faults, env, opt);
  ASSERT_EQ(want.size(), 10u);

  constexpr unsigned kWorkers = 4;
  for (const bool isolate : {false, true}) {
    SCOPED_TRACE(isolate ? "isolated" : "threads");
    Records got;
    double busy_ms = 0;
    opt.threads = kWorkers;
    opt.on_group = [&](const GroupRecord& r, bool, double duration_ms) {
      got[r.group] = r;
      busy_ms += duration_ms;
    };
    const auto start = std::chrono::steady_clock::now();
    if (isolate) {
      campaign::IsolateOptions iso;
      iso.workers = kWorkers;
      std::size_t restarts = 0;
      campaign::run_fault_sim_isolated(cpu.netlist, faults, env, opt, iso,
                                       &restarts);
    } else {
      run_fault_sim(cpu.netlist, faults, env, opt);
    }
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    expect_same_records(want, got, "charged");
    EXPECT_GT(busy_ms, 0.0);
    EXPECT_LE(busy_ms, kWorkers * wall_ms);
  }
}

TEST(SweepLanes, CancelMidStreamThenResumeIsIdentical) {
  const parwan::ParwanCpu cpu = parwan::build_parwan_cpu();
  const parwan::ParwanSelfTest st = parwan::build_parwan_selftest();
  const nl::FaultList faults = nl::enumerate_faults(cpu.netlist);
  const EnvFactory env = parwan::make_parwan_env_factory(cpu, st.image);
  constexpr std::uint64_t kFp = 0x5eed1a4e5ull;

  campaign::CampaignOptions base;
  base.sim.max_cycles = 10000;
  // 25 groups: more than two workers' eight lanes each hold at once.
  base.sim.sample = 1575;
  base.sim.engine = Engine::kSweep;
  for (unsigned threads : {1u, 2u}) {
    base.sim.threads = threads;
    const campaign::CampaignResult clean =
        campaign::run_campaign(cpu.netlist, faults, env, kFp, base);

    const std::string journal = testfs::temp_path("sweep_lanes_cancel.sbstj");
    std::remove(journal.c_str());
    std::atomic<bool> stop{false};
    campaign::CampaignOptions first = base;
    first.journal = journal;
    first.sim.cancel = &stop;
    first.sim.progress = [&stop](const Progress& p) {
      if (p.done >= 3) stop.store(true);
    };
    const campaign::CampaignResult part =
        campaign::run_campaign(cpu.netlist, faults, env, kFp, first);
    ASSERT_TRUE(part.interrupted);
    ASSERT_GE(part.groups_done, 3u);
    ASSERT_LT(part.groups_done, part.groups_total);
    // Cancel stops refills only: every group that started finished.
    EXPECT_EQ(part.faults_timed_out, 0u);

    campaign::CampaignOptions second = base;
    second.journal = journal;
    const campaign::CampaignResult resumed =
        campaign::run_campaign(cpu.netlist, faults, env, kFp, second);
    EXPECT_TRUE(resumed.resumed);
    EXPECT_EQ(resumed.seeded_groups, part.groups_done);
    EXPECT_EQ(resumed.result.detected, clean.result.detected);
    EXPECT_EQ(resumed.result.detect_cycle, clean.result.detect_cycle);
    EXPECT_EQ(resumed.result.gates_evaluated, clean.result.gates_evaluated);
    EXPECT_EQ(resumed.result.good_cycles, clean.result.good_cycles);
    std::remove(journal.c_str());
  }
}

}  // namespace
}  // namespace sbst::fault
