// Event-driven differential kernel vs. the full-sweep kernel: grades the
// Plasma Phase A+B self-test (sampled campaign) and the Parwan self-test
// on both engines, verifies the two are bit-identical, and records
// wall-clock, evaluated-gate counts (total, per group, per cycle) and
// good-trace memory in BENCH_event_driven.json so the activity-factor
// reduction is tracked across PRs. Each engine's time is the best of
// kBestOf rounds; the rounds alternate the engine order, and the JSON
// carries the host's 1-minute load average at start and end.
//
// Usage: bench_event_driven [--full] [--out FILE.json]
//        default grades a 630-fault Plasma sample (10 groups);
//        --full grades the entire collapsed Plasma fault list.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "fault/faultsim.h"
#include "netlist/fault.h"
#include "parwan/cpu.h"
#include "parwan/sbst.h"
#include "parwan/testbench.h"
#include "plasma/testbench.h"
#include "util/parallel.h"

#include "bench_common.h"

using namespace sbst;

namespace {

struct EngineRun {
  double seconds = 0.0;
  std::uint64_t gates_evaluated = 0;
  std::uint64_t sim_cycles = 0;
  std::size_t trace_bytes = 0;
};

struct Target {
  std::string name;
  std::size_t netlist_gates = 0;
  std::size_t faults_graded = 0;
  std::size_t groups = 0;
  std::uint64_t good_cycles = 0;
  double coverage_percent = 0.0;
  bool identical = false;  // both engines bit-identical
  EngineRun sweep{1e300}, event{1e300};  // seconds: best so far

  double reduction() const {
    return event.gates_evaluated == 0
               ? 0.0
               : static_cast<double>(sweep.gates_evaluated) /
                     static_cast<double>(event.gates_evaluated);
  }
  double speedup() const {
    return event.seconds == 0.0 ? 0.0 : sweep.seconds / event.seconds;
  }
};

bool identical_results(const fault::FaultSimResult& a,
                       const fault::FaultSimResult& b) {
  return a.detected == b.detected && a.simulated == b.simulated &&
         a.detect_cycle == b.detect_cycle && a.good_cycles == b.good_cycles;
}

Target run_target(const std::string& name, const nl::Netlist& netlist,
                  const nl::FaultList& faults, const fault::EnvFactory& env,
                  fault::FaultSimOptions opt) {
  Target t;
  t.name = name;
  t.netlist_gates = netlist.size();
  t.faults_graded = opt.sample == 0 || opt.sample > faults.size()
                        ? faults.size()
                        : opt.sample;
  t.groups = (t.faults_graded + 62) / 63;

  struct Leg {
    fault::Engine engine;
    EngineRun Target::*run;
  };
  const Leg legs[2] = {
      {fault::Engine::kSweep, &Target::sweep},
      {fault::Engine::kEvent, &Target::event},
  };
  fault::FaultSimResult results[2];
  for (int round = 0; round < bench::kBestOf; ++round) {
    for (int k = 0; k < 2; ++k) {
      const int pass = round % 2 == 0 ? k : 1 - k;
      opt.engine = legs[pass].engine;
      EngineRun& run = t.*(legs[pass].run);
      const auto t0 = std::chrono::steady_clock::now();
      results[pass] = fault::run_fault_sim(netlist, faults, env, opt);
      run.seconds = std::min(
          run.seconds,
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count());
      run.gates_evaluated = results[pass].gates_evaluated;
      run.sim_cycles = results[pass].sim_cycles;
      run.trace_bytes = results[pass].trace_bytes;
    }
  }
  t.good_cycles = results[0].good_cycles;
  t.identical = identical_results(results[0], results[1]);
  t.coverage_percent = fault::overall_coverage(faults, results[0]).percent();

  std::printf("\n%s: %zu faults, %zu groups, %llu good cycles"
              " (best of %d)\n",
              t.name.c_str(), t.faults_graded, t.groups,
              static_cast<unsigned long long>(t.good_cycles), bench::kBestOf);
  const auto row = [&](const char* tag, const EngineRun& r) {
    const double per_group =
        t.groups ? static_cast<double>(r.gates_evaluated) /
                       static_cast<double>(t.groups)
                 : 0.0;
    const double per_cycle =
        r.sim_cycles ? static_cast<double>(r.gates_evaluated) /
                           static_cast<double>(r.sim_cycles)
                     : 0.0;
    std::printf("  %-13s %8.3fs  %14llu gate-evals  %12.0f /group"
                "  %8.1f /cycle\n",
                tag, r.seconds,
                static_cast<unsigned long long>(r.gates_evaluated),
                per_group, per_cycle);
  };
  row("sweep", t.sweep);
  row("event", t.event);
  std::printf("  evaluated-gate reduction %.1fx, wall-clock speedup %.2fx,"
              " trace %.2f MiB, results %s\n",
              t.reduction(), t.speedup(),
              static_cast<double>(t.event.trace_bytes) / (1024.0 * 1024.0),
              t.identical ? "bit-identical" : "MISMATCH");
  return t;
}

void emit_engine(std::FILE* f, const char* tag, const Target& t,
                 const EngineRun& r, const char* trail) {
  const double per_group = t.groups ? static_cast<double>(r.gates_evaluated) /
                                          static_cast<double>(t.groups)
                                    : 0.0;
  const double per_cycle =
      r.sim_cycles ? static_cast<double>(r.gates_evaluated) /
                         static_cast<double>(r.sim_cycles)
                   : 0.0;
  std::fprintf(f,
               "      \"%s\": {\"seconds\": %.4f, \"gates_evaluated\": %llu,"
               " \"sim_cycles\": %llu, \"gate_evals_per_group\": %.1f,"
               " \"gate_evals_per_cycle\": %.2f, \"trace_bytes\": %zu}%s\n",
               tag, r.seconds,
               static_cast<unsigned long long>(r.gates_evaluated),
               static_cast<unsigned long long>(r.sim_cycles), per_group,
               per_cycle, r.trace_bytes, trail);
}

}  // namespace

int main(int argc, char** argv) {
  bool full = false;
  std::string out_path = "BENCH_event_driven.json";
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--full")) full = true;
    if (!std::strcmp(argv[i], "--out") && i + 1 < argc) out_path = argv[i + 1];
  }

  bench::header("Event-driven kernel",
                "Differential fault simulation vs. full sweep");

  std::vector<Target> targets;
  const double load_start = bench::load_average();

  {
    bench::Context ctx;
    const nl::FaultList faults = nl::enumerate_faults(ctx.cpu.netlist);
    const core::SelfTestProgram pab = core::build_phase_ab(ctx.classified);
    fault::FaultSimOptions opt;
    opt.max_cycles = 100000;
    opt.threads = 1;  // expose kernel cost, not scheduling
    if (!full) opt.sample = 630;
    targets.push_back(run_target(
        "plasma_" + pab.name, ctx.cpu.netlist, faults,
        plasma::make_cpu_env_factory(ctx.cpu, pab.image), opt));
  }

  {
    const parwan::ParwanCpu cpu = parwan::build_parwan_cpu();
    const parwan::ParwanSelfTest st = parwan::build_parwan_selftest();
    const nl::FaultList faults = nl::enumerate_faults(cpu.netlist);
    fault::FaultSimOptions opt;
    opt.max_cycles = 100000;
    opt.threads = 1;
    targets.push_back(run_target(
        "parwan_selftest", cpu.netlist, faults,
        parwan::make_parwan_env_factory(cpu, st.image), opt));
  }

  bool all_identical = true;
  for (const Target& t : targets) all_identical &= t.identical;
  const double load_end = bench::load_average();
  std::printf("\nload average %.2f at start, %.2f at end\n", load_start,
              load_end);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"event_driven\",\n"
               "  \"sampled\": %s,\n"
               "  \"threads\": 1,\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"bit_identical\": %s,\n"
               "  \"best_of\": %d,\n"
               "  \"loadavg_1min_start\": %.2f,\n"
               "  \"loadavg_1min_end\": %.2f,\n"
               "  \"targets\": [\n",
               full ? "false" : "true", util::hardware_threads(),
               all_identical ? "true" : "false", bench::kBestOf, load_start,
               load_end);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const Target& t = targets[i];
    std::fprintf(f,
                 "    {\n"
                 "      \"name\": \"%s\",\n"
                 "      \"netlist_gates\": %zu,\n"
                 "      \"faults_graded\": %zu,\n"
                 "      \"fault_groups\": %zu,\n"
                 "      \"good_cycles\": %llu,\n"
                 "      \"coverage_percent\": %.4f,\n"
                 "      \"bit_identical\": %s,\n",
                 t.name.c_str(), t.netlist_gates, t.faults_graded, t.groups,
                 static_cast<unsigned long long>(t.good_cycles),
                 t.coverage_percent, t.identical ? "true" : "false");
    emit_engine(f, "sweep", t, t.sweep, ",");
    emit_engine(f, "event", t, t.event, ",");
    std::fprintf(f,
                 "      \"gate_eval_reduction\": %.2f,\n"
                 "      \"wall_clock_speedup\": %.3f\n"
                 "    }%s\n",
                 t.reduction(), t.speedup(),
                 i + 1 < targets.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
  return all_identical ? 0 : 1;
}
