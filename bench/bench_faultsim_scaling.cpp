// Fault-simulation scaling: grades the Plasma Phase A+B self-test
// program at 1/2/4/N worker threads and records the wall-clock
// trajectory in BENCH_faultsim_scaling.json so the perf history is
// tracked across PRs. Each thread count's time is the best of kBestOf
// rounds; the rounds alternate the order of the thread counts, so a
// burst of load on a shared host does not always land on the same one,
// and the JSON carries the host's 1-minute load average at start and end.
// Beside the best time, the JSON keeps every round's time and their
// min, median and max: a leg whose rounds fall into two bands (the
// 4-thread leg on a 4-vCPU VM can) shows as a wide spread, which the
// best time alone hides.
//
// Also re-verifies the engine's determinism contract end to end: every
// thread count must produce bit-identical verdicts, good-run length,
// work counters (gate evaluations, simulated cycles) and recording size.
//
// Usage: bench_faultsim_scaling [--full] [--out FILE.json]
//        default grades a 6300-fault statistical sample (~100 groups);
//        --full grades the entire collapsed fault list.
#include <algorithm>
#include <array>
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
    double seconds;  // best round
    double speedup;
    std::vector<double> rounds;  // every round's time, in round order
  };
  std::vector<Run> runs;
  for (unsigned t : counts) runs.push_back({t, 1e300, 0.0, {}});
  fault::FaultSimResult reference;
  bool have_reference = false;
  bool deterministic = true;
  const double load_start = bench::load_average();
  for (int round = 0; round < bench::kBestOf; ++round) {
    for (std::size_t k = 0; k < runs.size(); ++k) {
      Run& r = runs[round % 2 == 0 ? k : runs.size() - 1 - k];
      fault::FaultSimOptions o = opt;
      o.threads = r.threads;
      const auto t0 = std::chrono::steady_clock::now();
      const fault::FaultSimResult res =
          fault::run_fault_sim(ctx.cpu.netlist, faults, env, o);
      const double secs =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      if (!have_reference) {
        reference = res;
        have_reference = true;
      } else if (res.detected != reference.detected ||
                 res.detect_cycle != reference.detect_cycle ||
                 res.simulated != reference.simulated ||
                 res.good_cycles != reference.good_cycles ||
                 res.gates_evaluated != reference.gates_evaluated ||
                 res.sim_cycles != reference.sim_cycles ||
                 res.trace_bytes != reference.trace_bytes) {
        deterministic = false;
      }
      r.seconds = std::min(r.seconds, secs);
      r.rounds.push_back(secs);
    }
  }
  const double load_end = bench::load_average();
  // Min, median and max of a leg's rounds.
  const auto spread = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    const double median =
        n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
    return std::array<double, 3>{v.front(), median, v.back()};
  };
  for (const Run& r : runs) {
    const std::array<double, 3> m = spread(r.rounds);
    std::printf(
        "  threads=%-2u  %7.4fs (best of %d; median %.4fs, max %.4fs)\n",
        r.threads, r.seconds, bench::kBestOf, m[1], m[2]);
  }
  std::printf("load average %.2f at start, %.2f at end\n", load_start,
              load_end);
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
               "  \"best_of\": %d,\n"
               "  \"loadavg_1min_start\": %.2f,\n"
               "  \"loadavg_1min_end\": %.2f,\n"
               "  \"runs\": [\n",
               pab.name.c_str(), ctx.cpu.netlist.size(), graded, groups,
               full ? "false" : "true", hw,
               // Caveat for readers of the speedup column: on a
               // single-core box the thread sweep measures scheduling
               // overhead, not parallel scaling.
               hw == 1 ? "true" : "false", cov.percent(),
               deterministic ? "true" : "false", bench::kBestOf, load_start,
               load_end);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& r = runs[i];
    const std::array<double, 3> m = spread(r.rounds);
    std::string rounds;
    for (double secs : r.rounds) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%s%.4f", rounds.empty() ? "" : ", ",
                    secs);
      rounds += buf;
    }
    std::fprintf(f,
                 "    {\"threads\": %u, \"seconds\": %.4f,"
                 " \"speedup_vs_1\": %.3f,\n"
                 "     \"rounds_seconds\": [%s],\n"
                 "     \"min_seconds\": %.4f, \"median_seconds\": %.4f,"
                 " \"max_seconds\": %.4f}%s\n",
                 r.threads, r.seconds, r.speedup, rounds.c_str(), m[0], m[1],
                 m[2], i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return deterministic ? 0 : 1;
}
