// Fault-simulation scaling: grades the Plasma Phase A+B self-test
// program at 1/2/4/N worker threads and records the wall-clock
// trajectory in BENCH_faultsim_scaling.json so the perf history is
// tracked across PRs.
//
// Also re-verifies the engine's determinism contract end to end: every
// thread count must produce bit-identical verdicts, good-run length,
// work counters (gate evaluations, simulated cycles) and recording size.
//
// Usage: bench_faultsim_scaling [--full] [--out FILE.json]
//        default grades a 6300-fault statistical sample (~100 groups);
//        --full grades the entire collapsed fault list.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "fault/faultsim.h"
#include "netlist/fault.h"
#include "plasma/testbench.h"
#include "util/parallel.h"

#include "bench_common.h"

using namespace sbst;

int main(int argc, char** argv) {
  bool full = false;
  std::string out_path = "BENCH_faultsim_scaling.json";
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--full")) full = true;
    if (!std::strcmp(argv[i], "--out") && i + 1 < argc) out_path = argv[i + 1];
  }

  bench::header("Scaling", "Parallel fault-simulation engine throughput");
  bench::Context ctx;
  const nl::FaultList faults = nl::enumerate_faults(ctx.cpu.netlist);
  const core::SelfTestProgram pab = core::build_phase_ab(ctx.classified);

  fault::FaultSimOptions opt;
  opt.max_cycles = 100000;
  if (!full) opt.sample = 6300;
  const std::size_t graded =
      opt.sample == 0 || opt.sample > faults.size() ? faults.size()
                                                    : opt.sample;
  const std::size_t groups = (graded + 62) / 63;
  const unsigned hw = util::hardware_threads();
  std::printf("grading %s (%zu faults, %zu groups) on up to %u hardware"
              " threads\n",
              pab.name.c_str(), graded, groups, hw);

  std::vector<unsigned> counts = {1, 2, 4};
  if (std::find(counts.begin(), counts.end(), hw) == counts.end()) {
    counts.push_back(hw);
  }

  const fault::EnvFactory env =
      plasma::make_cpu_env_factory(ctx.cpu, pab.image);
  struct Run {
    unsigned threads;
    double seconds;
    double speedup;
  };
  std::vector<Run> runs;
  fault::FaultSimResult reference;
  bool deterministic = true;
  for (unsigned t : counts) {
    fault::FaultSimOptions o = opt;
    o.threads = t;
    const auto t0 = std::chrono::steady_clock::now();
    const fault::FaultSimResult res =
        fault::run_fault_sim(ctx.cpu.netlist, faults, env, o);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (t == counts.front()) {
      reference = res;
    } else if (res.detected != reference.detected ||
               res.detect_cycle != reference.detect_cycle ||
               res.simulated != reference.simulated ||
               res.good_cycles != reference.good_cycles ||
               res.gates_evaluated != reference.gates_evaluated ||
               res.sim_cycles != reference.sim_cycles ||
               res.trace_bytes != reference.trace_bytes) {
      deterministic = false;
    }
    runs.push_back({t, secs, 0.0});
    std::printf("  threads=%-2u  %7.2fs\n", t, secs);
  }
  for (Run& r : runs) r.speedup = runs.front().seconds / r.seconds;

  const fault::Coverage cov = fault::overall_coverage(faults, reference);
  std::printf("coverage %.2f%%, determinism across thread counts: %s\n",
              cov.percent(), deterministic ? "bit-identical" : "MISMATCH");

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"faultsim_scaling\",\n"
               "  \"program\": \"%s\",\n"
               "  \"netlist_gates\": %zu,\n"
               "  \"faults_graded\": %zu,\n"
               "  \"fault_groups\": %zu,\n"
               "  \"sampled\": %s,\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"single_core\": %s,\n"
               "  \"coverage_percent\": %.4f,\n"
               "  \"deterministic_across_threads\": %s,\n"
               "  \"runs\": [\n",
               pab.name.c_str(), ctx.cpu.netlist.size(), graded, groups,
               full ? "false" : "true", hw,
               // Caveat for readers of the speedup column: on a
               // single-core box the thread sweep measures scheduling
               // overhead, not parallel scaling.
               hw == 1 ? "true" : "false", cov.percent(),
               deterministic ? "true" : "false");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    std::fprintf(f,
                 "    {\"threads\": %u, \"seconds\": %.4f,"
                 " \"speedup_vs_1\": %.3f}%s\n",
                 runs[i].threads, runs[i].seconds, runs[i].speedup,
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return deterministic ? 0 : 1;
}
