// sbst — command-line driver for the plasma-sbst library.
//
//   sbst info                          processor inventory (Tables 2/3)
//   sbst asm FILE.s [-o out.bin]       assemble MIPS source
//   sbst disasm FILE.bin [-o out.lst]  disassemble a word image
//   sbst run FILE.s [--gate]           run on the ISS (or gate-level CPU)
//   sbst cosim FILE.s                  run on both, compare traces
//   sbst selftest [a|ab|abc] [-o f.s]  generate a self-test program
//   sbst grade FILE.s [--sample N] [--threads N] [-o report.txt]
//              [--durability none|flush|fsync]
//              [--journal F.sbstj] [--progress] [--retry-timeouts]
//              [--group-timeout SEC] [--time-budget SEC]
//              [--isolate] [--workers N] [--max-group-retries K]
//              [--worker-mem-mb M]
//              [--engine event|sweep] [--trace-mem-mb M]
//              [--metrics F.ndjson] [--status F.json]
//                                      fault-grade a program (Table 5 style);
//                                      --sample 0 simulates the full fault
//                                      list; omitting --threads (or
//                                      --workers) uses every core. With
//                                      --journal the run
//                                      is a durable campaign: finished
//                                      63-fault groups are checkpointed,
//                                      SIGINT/SIGTERM drains gracefully
//                                      (exit code 3, "resumable"), and
//                                      rerunning the same command resumes
//                                      where it stopped. Timed-out groups
//                                      are reported as a distinct
//                                      inconclusive count, making coverage
//                                      an explicit lower bound. --isolate
//                                      runs each group in a forked,
//                                      rlimit-sandboxed worker process; a
//                                      group whose worker dies on every
//                                      attempt (K retries, default 2) is
//                                      quarantined with its signal/rusage
//                                      recorded instead of killing the
//                                      campaign. --engine picks the
//                                      simulation kernel (default: event,
//                                      the differential engine; sweep is
//                                      the full per-cycle re-evaluation) —
//                                      both produce bit-identical grades,
//                                      and journals mix freely across
//                                      engines. --trace-mem-mb caps the
//                                      event engine's recorded good trace
//                                      (default 1024 MiB, 0 = unlimited);
//                                      exceeding it falls back to sweep.
//                                      --metrics streams one NDJSON object
//                                      per resolved 63-fault group (see
//                                      telemetry/metrics.h for the schema);
//                                      --status keeps an atomically
//                                      rewritten heartbeat JSON for live
//                                      dashboards. Both files are written
//                                      whole-file-atomically, so readers
//                                      never see a torn line.
//                                      Sharded campaigns: --shard i/N
//                                      restricts the run to the i-th
//                                      residue class of 63-fault groups
//                                      (fingerprint unchanged, so shard
//                                      journals merge; progress/status
//                                      are labelled and rated per
//                                      shard).
//   sbst dispatch FILE.s --shards N --journal-dir D
//              [--workers-per-shard K] [--max-shard-retries R]
//              [--stale-after SEC] [--backoff-ms MS]
//              [--status F.json] [--sample N] [--engine E]
//              [--durability D] [-o MERGED.sbstj]
//                                      fan one campaign out over N shard
//                                      runner processes, supervised via
//                                      their --status heartbeats (the
//                                      file mtime is the lease). A shard
//                                      whose runner dies or whose
//                                      heartbeat goes stale is
//                                      re-dispatched under capped,
//                                      jittered exponential backoff.
//                                      On a drain, shards stopped short
//                                      of completion stay resumable.
//                                      With -o the shard journals are
//                                      merged when all shards complete.
//                                      Exit 0 all complete, 3 drained
//                                      (resumable), 1 otherwise.
//   sbst stats METRICS.ndjson...       aggregate --metrics files: group
//        [--journal F.sbstj]...        latency percentiles, per-engine
//                                      attribution, gate-evaluation
//                                      activity, retry/quarantine counts.
//                                      Several inputs (e.g. one per
//                                      shard) aggregate into one report;
//                                      journal inputs fold winning
//                                      records across all journals.
//                                      Exits non-zero when the input is
//                                      empty or has malformed lines.
//                                      --journal derives the counter
//                                      lines straight from a campaign
//                                      journal's winning records —
//                                      post-hoc reconstruction when a
//                                      crash landed between periodic
//                                      --metrics rewrites (latency
//                                      fields are not journaled, read 0).
//   sbst journal <verb> F.sbstj        offline journal toolchain:
//        [-o OUT] [--durability D]       inspect  header, fingerprint,
//                                                 per-verdict record
//                                                 tally, dead-record
//                                                 ratio, damage summary
//                                        verify   full CRC sweep; exit 0
//                                                 only when every byte
//                                                 of every frame checks
//                                                 out (CI validator)
//                                        repair   merge of the one
//                                                 journal into OUT
//                                                 (default: in place):
//                                                 the winning record per
//                                                 group; damaged spans,
//                                                 the torn tail and dead
//                                                 records are dropped;
//                                                 prints what was lost
//                                        compact  the same merge of the
//                                                 one journal, for dead
//                                                 records (retries and
//                                                 heals leave them)
//   sbst journal merge A.sbstj B.sbstj ... -o OUT.sbstj
//                                        merge    reconcile shard
//                                                 journals: refuses
//                                                 fingerprint mismatches,
//                                                 resolves per-group
//                                                 conflicts exactly like
//                                                 compaction (later
//                                                 record wins), reports
//                                                 per-shard contribution
//                                      repair/compact/merge swap
//                                      atomically and default to
//                                      --durability fsync.
//   sbst fuzz [--seed S] [--iters N] [--body N] [-o repro.s]
//             [--no-shrink] [--inject-alu-bug]
//                                      differential co-sim fuzzing: random
//                                      programs on ISS vs gate level; on
//                                      mismatch, shrink and write a minimal
//                                      reproducer
//   sbst lint [plasma|parwan]          structural lint of the shipped
//                                      gate-level netlists
//
// Programs must end with the `halt` pseudo-instruction (a store to
// 0xFFFFFFFC).
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/dispatch.h"
#include "core/program.h"
#include "core/report.h"
#include "iss/iss.h"
#include "netlist/cost.h"
#include "netlist/fault.h"
#include "netlist/lint.h"
#include "parwan/cpu.h"
#include "plasma/testbench.h"
#include "telemetry/metrics.h"
#include "telemetry/stats.h"
#include "util/argparse.h"
#include "util/atomic_file.h"
#include "util/parallel.h"
#include "util/signals.h"
#include "verify/cosim_fuzz.h"

using namespace sbst;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: sbst "
      "<info|asm|disasm|run|cosim|selftest|grade|dispatch|stats|journal|"
      "fuzz|lint> ...\n"
      "see the header of tools/sbst_cli.cpp for details\n");
  return 2;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

isa::Program load_program(const std::string& path) {
  return isa::assemble(read_file(path));
}

/// Cycle budget of a graded program: the halt check and every fault
/// group run for at most this many cycles.
constexpr std::uint64_t kGradeMaxCycles = 10'000'000;

/// The campaign a `grade` or `dispatch` run fault-grades.
struct GradeCampaign {
  isa::Program program;
  plasma::PlasmaCpu cpu;
  std::uint64_t good_cycles = 0;  // cycles the program runs to its halt
  nl::FaultList faults;
  /// Ties a journal (and a runner's status heartbeat) to this exact
  /// campaign: program image, netlist, fault universe, sampling and
  /// cycle budget. The shard restriction is deliberately NOT part of
  /// it — every shard of a campaign shares one identity, which is
  /// exactly what makes their journals mutually mergeable.
  std::uint64_t fingerprint = 0;
};

/// Loads FILE.s, checks that it halts on the gate-level CPU, enumerates
/// the collapsed fault list and fingerprints the campaign for `sample`
/// faults of it. Returns nullopt, after saying why, when the program
/// does not halt.
std::optional<GradeCampaign> prepare_campaign(const std::string& path,
                                              std::size_t sample) {
  GradeCampaign c;
  c.program = load_program(path);
  c.cpu = plasma::build_plasma_cpu();
  const plasma::GateRunResult gr =
      plasma::run_gate_cpu(c.cpu, c.program, kGradeMaxCycles);
  if (!gr.halted) {
    std::fprintf(stderr, "program does not halt on the gate-level CPU\n");
    return std::nullopt;
  }
  c.good_cycles = gr.cycles;
  c.faults = nl::enumerate_faults(c.cpu.netlist);
  const std::vector<std::uint32_t>& words = c.program.words;
  std::uint64_t fp = campaign::fingerprint_init();
  fp = campaign::fingerprint_bytes(fp, words.data(), words.size() * 4);
  fp = campaign::fingerprint_u64(fp, c.cpu.netlist.size());
  fp = campaign::fingerprint_u64(fp, c.faults.size());
  fp = campaign::fingerprint_u64(fp, sample);
  fp = campaign::fingerprint_u64(fp, fault::FaultSimOptions{}.sample_seed);
  fp = campaign::fingerprint_u64(fp, kGradeMaxCycles);
  c.fingerprint = fp;
  return c;
}

int cmd_info(int argc, char** argv) {
  util::ArgParser(argc, argv).parse(0, 0);
  plasma::PlasmaCpu cpu = plasma::build_plasma_cpu();
  const nl::CostReport cost = nl::compute_cost(cpu.netlist);
  auto classified = core::classify_plasma(cpu);
  core::sort_by_test_priority(classified);
  std::printf("Plasma/MIPS gate-level model\n");
  std::printf("  %zu primitive gates, %.0f NAND2-equivalent, %zu DFFs\n",
              cost.total_gates, cost.total_nand2, cpu.netlist.num_dffs());
  const nl::FaultList faults = nl::enumerate_faults(cpu.netlist);
  std::printf("  %zu collapsed / %zu uncollapsed stuck-at faults\n\n",
              faults.size(), faults.total_uncollapsed);
  std::printf("  %-6s %-11s %9s  (test priority order)\n", "comp", "class",
              "NAND2");
  for (const auto& c : classified) {
    std::printf("  %-6s %-11s %9.0f\n", c.name.c_str(),
                std::string(core::component_class_name(c.cls)).c_str(),
                c.nand2);
  }
  return 0;
}

int cmd_asm(int argc, char** argv) {
  std::string out;
  const auto pos =
      util::ArgParser(argc, argv).value("-o", &out).parse(1, 1);
  const isa::Program p = load_program(pos[0]);
  if (out.empty()) {
    std::printf("%zu words\n", p.size_words());
    for (const auto& [name, addr] : p.symbols) {
      std::printf("  %08X %s\n", addr, name.c_str());
    }
  } else {
    util::write_file_atomic(
        out, std::string_view(reinterpret_cast<const char*>(p.words.data()),
                              p.words.size() * 4));
    std::printf("wrote %zu words to %s\n", p.size_words(), out.c_str());
  }
  return 0;
}

int cmd_disasm(int argc, char** argv) {
  std::string out;
  const auto pos = util::ArgParser(argc, argv).value("-o", &out).parse(1, 1);
  const std::string raw = read_file(pos[0]);
  if (raw.size() % 4 != 0) {
    std::fprintf(stderr,
                 "warning: %s is %zu bytes, not a multiple of 4; ignoring "
                 "%zu trailing byte(s)\n",
                 pos[0].c_str(), raw.size(), raw.size() % 4);
  }
  std::string listing;
  for (std::size_t i = 0; i + 3 < raw.size(); i += 4) {
    std::uint32_t w = 0;
    std::memcpy(&w, raw.data() + i, 4);
    char line[96];
    std::snprintf(line, sizeof(line), "%08zX: %08X  %s\n", i, w,
                  isa::disassemble(w, static_cast<std::uint32_t>(i)).c_str());
    listing += line;
  }
  if (out.empty()) {
    std::fputs(listing.c_str(), stdout);
  } else {
    util::write_file_atomic(out, listing);
    std::printf("wrote %zu lines to %s\n", raw.size() / 4, out.c_str());
  }
  return 0;
}

int cmd_run(int argc, char** argv) {
  bool gate = false;
  const auto pos =
      util::ArgParser(argc, argv).flag("--gate", &gate).parse(1, 1);
  const isa::Program p = load_program(pos[0]);
  if (gate) {
    plasma::PlasmaCpu cpu = plasma::build_plasma_cpu();
    const plasma::GateRunResult r = plasma::run_gate_cpu(cpu, p, 10'000'000);
    std::printf("gate level: halted=%s cycles=%llu stores=%zu\n",
                r.halted ? "yes" : "no", (unsigned long long)r.cycles,
                r.writes.size());
    for (int i = 1; i <= 31; ++i) {
      if (r.regs[static_cast<std::size_t>(i)] != 0) {
        std::printf("  $%-4s = %08X\n",
                    std::string(isa::register_name(i)).c_str(),
                    r.regs[static_cast<std::size_t>(i)]);
      }
    }
    return r.halted ? 0 : 1;
  }
  iss::Iss iss(p);
  const iss::RunResult r = iss.run(100'000'000);
  std::printf("iss: halted=%s instructions=%llu cycles=%llu stores=%zu\n",
              r.halted ? "yes" : "no", (unsigned long long)r.instructions,
              (unsigned long long)r.cycles, iss.writes().size());
  for (int i = 1; i <= 31; ++i) {
    if (iss.reg(i) != 0) {
      std::printf("  $%-4s = %08X\n",
                  std::string(isa::register_name(i)).c_str(), iss.reg(i));
    }
  }
  if (iss.hi() || iss.lo()) {
    std::printf("  hi/lo = %08X/%08X\n", iss.hi(), iss.lo());
  }
  return r.halted ? 0 : 1;
}

int cmd_cosim(int argc, char** argv) {
  const auto pos = util::ArgParser(argc, argv).parse(1, 1);
  const isa::Program p = load_program(pos[0]);
  iss::Iss iss(p);
  const iss::RunResult ir = iss.run(10'000'000);
  plasma::PlasmaCpu cpu = plasma::build_plasma_cpu();
  const plasma::GateRunResult gr = plasma::run_gate_cpu(cpu, p, 50'000'000);
  bool ok = ir.halted && gr.halted && ir.cycles == gr.cycles &&
            iss.writes().size() == gr.writes.size();
  std::size_t first_bad = SIZE_MAX;
  for (std::size_t i = 0; ok && i < gr.writes.size(); ++i) {
    if (!(gr.writes[i] == iss.writes()[i])) {
      ok = false;
      first_bad = i;
    }
  }
  std::printf("iss:  halted=%d cycles=%llu writes=%zu\n", ir.halted,
              (unsigned long long)ir.cycles, iss.writes().size());
  std::printf("gate: halted=%d cycles=%llu writes=%zu\n", gr.halted,
              (unsigned long long)gr.cycles, gr.writes.size());
  if (first_bad != SIZE_MAX) {
    std::printf("first mismatching store: #%zu\n", first_bad);
  }
  std::printf("%s\n", ok ? "EQUIVALENT" : "MISMATCH");
  return ok ? 0 : 1;
}

int cmd_selftest(int argc, char** argv) {
  std::string out;
  const auto pos =
      util::ArgParser(argc, argv).value("-o", &out).parse(0, 1);
  const std::string phase = pos.empty() ? "ab" : pos[0];
  if (phase != "a" && phase != "ab" && phase != "abc") {
    throw util::ArgError("unknown phase '" + phase + "' (want a, ab or abc)");
  }
  plasma::PlasmaCpu cpu = plasma::build_plasma_cpu();
  const auto classified = core::classify_plasma(cpu);
  core::SelfTestProgram p;
  if (phase == "a") {
    p = core::build_phase_a(classified);
  } else if (phase == "abc") {
    p = core::build_phase_abc(classified);
  } else {
    p = core::build_phase_ab(classified);
  }
  std::printf("%s: %zu words, %llu cycles, routines:", p.name.c_str(),
              p.words, (unsigned long long)p.cycles);
  for (const std::string& r : p.routines) std::printf(" %s", r.c_str());
  std::printf("\n");
  if (!out.empty()) {
    util::write_file_atomic(out, p.source);
    std::printf("wrote assembly listing to %s\n", out.c_str());
  }
  return 0;
}

int cmd_grade(int argc, char** argv) {
  std::size_t sample = 6300;
  unsigned threads = 0;  // 0 = one worker per hardware thread (flag: >= 1)
  std::uint64_t group_timeout_s = 0;
  std::uint64_t time_budget_s = 0;
  bool progress = false;
  bool retry_timeouts = false;
  bool isolate = false;
  unsigned workers = 0;  // 0 = one per hardware thread (flag: >= 1)
  unsigned max_group_retries = 2;
  std::size_t worker_mem_mb = 0;
  // Test hooks for the isolation machinery (CI kills a designated group's
  // worker to prove retry/quarantine end to end). Deliberately undocumented
  // in the usage header.
  std::uint64_t crash_group = std::numeric_limits<std::uint64_t>::max();
  unsigned crash_attempts = 0;
  std::string journal;
  std::string out;
  std::string engine = "event";
  std::string metrics;
  std::string status;
  std::string durability = "flush";
  std::string shard;  // "i/N": run only the i-th residue class of groups
  std::size_t trace_mem_mb = 1024;
  const auto pos = util::ArgParser(argc, argv)
                       .value_size("--sample", &sample)
                       .value("--engine", &engine)
                       .value("--durability", &durability)
                       .value_size("--trace-mem-mb", &trace_mem_mb)
                       .value_count("--threads", &threads)
                       .value("--journal", &journal)
                       .value("--metrics", &metrics)
                       .value("--status", &status)
                       .value("--shard", &shard)
                       .value_u64("--group-timeout", &group_timeout_s)
                       .value_u64("--time-budget", &time_budget_s)
                       .flag("--retry-timeouts", &retry_timeouts)
                       .flag("--progress", &progress)
                       .flag("--isolate", &isolate)
                       .value_count("--workers", &workers)
                       .value_count("--max-group-retries", &max_group_retries)
                       .value_size("--worker-mem-mb", &worker_mem_mb)
                       .value_u64("--crash-group", &crash_group)
                       .value_unsigned("--crash-attempts", &crash_attempts)
                       .value("-o", &out)
                       .parse(1, 1);
  if (!isolate && (workers != 0 || worker_mem_mb != 0 ||
                   crash_group != std::numeric_limits<std::uint64_t>::max())) {
    throw util::ArgError(
        "--workers/--worker-mem-mb/--crash-group only apply to --isolate");
  }
  if (isolate && threads != 0) {
    throw util::ArgError(
        "--threads does not apply to --isolate; use --workers N to set the "
        "number of isolated worker processes");
  }
  unsigned shard_index = 0, shard_count = 0;
  if (!shard.empty()) {
    char extra = 0;
    if (std::sscanf(shard.c_str(), "%u/%u%c", &shard_index, &shard_count,
                    &extra) != 2 ||
        shard_count < 2 || shard_index >= shard_count) {
      throw util::ArgError("--shard wants i/N with 0 <= i < N and N >= 2, "
                           "got '" + shard + "'");
    }
  }
  const std::optional<GradeCampaign> camp = prepare_campaign(pos[0], sample);
  if (!camp) return 1;
  const nl::FaultList& faults = camp->faults;

  campaign::CampaignOptions copt;
  copt.journal = journal;
  copt.retry_timed_out = retry_timeouts;
  copt.handle_signals = true;
  copt.isolate = isolate;
  copt.iso.workers = workers;
  copt.iso.max_group_retries = max_group_retries;
  copt.iso.worker_mem_mb = worker_mem_mb;
  copt.telemetry.metrics_path = metrics;
  copt.telemetry.status_path = status;
  // One policy for every durable artifact of the run: journal appends,
  // heals/compactions, metrics and status rewrites.
  copt.durability = util::parse_durability(durability);
  copt.telemetry.durability = copt.durability;
  if (crash_group != std::numeric_limits<std::uint64_t>::max()) {
    copt.iso.crash_group = static_cast<std::int64_t>(crash_group);
    if (crash_attempts != 0) copt.iso.crash_attempts = crash_attempts;
  }
  if (engine == "event") {
    copt.sim.engine = fault::Engine::kEvent;
  } else if (engine == "sweep") {
    copt.sim.engine = fault::Engine::kSweep;
  } else {
    throw util::ArgError("unknown --engine '" + engine +
                         "' (want event or sweep)");
  }
  copt.sim.trace_mem_mb = trace_mem_mb;
  copt.sim.sample = sample;  // 0 => full fault list
  copt.sim.max_cycles = kGradeMaxCycles;
  copt.sim.threads = threads;
  copt.sim.group_timeout_ms = group_timeout_s * 1000;
  copt.sim.time_budget_ms = time_budget_s * 1000;
  copt.sim.shard_index = shard_index;
  copt.sim.shard_count = shard_count;
  if (progress) {
    // stderr so the stdout report stays machine-diffable. Serialized by
    // the engine. telemetry::eta_seconds extrapolates the per-group
    // rate of groups simulated by *this run* (done - seeded) and
    // returns negative — rendered "--:--" — until that is meaningful.
    // Under --shard, Progress.total is already shard-local (the ETA
    // rates only this shard's fresh groups) and the label carries the
    // shard id so interleaved shard logs stay attributable.
    const std::string label =
        shard.empty() ? std::string("[grade]") : "[shard " + shard + "]";
    const auto t0 = std::chrono::steady_clock::now();
    copt.sim.progress = [t0, label](const fault::Progress& p) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      const double eta_s =
          telemetry::eta_seconds(p.done, p.seeded, p.total, elapsed);
      char eta[24];
      if (eta_s >= 0) {
        std::snprintf(eta, sizeof(eta), "%.1fs", eta_s);
      } else {
        std::snprintf(eta, sizeof(eta), "--:--");
      }
      std::fprintf(stderr, "\r%s %zu/%zu groups  elapsed %.1fs  eta %s ",
                   label.c_str(), p.done, p.total, elapsed, eta);
      if (p.done == p.total) std::fputc('\n', stderr);
    };
  }

  const bool sampled = sample != 0 && sample < faults.size();
  const unsigned parallel = isolate ? workers : threads;
  std::printf("fault-grading %zu of %zu collapsed faults over %llu cycles"
              " (%u %s)\n",
              sampled ? sample : faults.size(), faults.size(),
              (unsigned long long)camp->good_cycles,
              parallel == 0 ? util::hardware_threads() : parallel,
              isolate ? "isolated worker processes" : "threads");
  if (sampled) {
    std::printf("note: sampled run — coverage below is a statistical "
                "estimate over %zu randomly chosen faults; components whose "
                "faults were not sampled show n/a. Use --sample 0 for the "
                "full fault list.\n",
                sampled ? sample : faults.size());
  }

  const campaign::CampaignResult cres = campaign::run_campaign(
      camp->cpu.netlist, faults,
      plasma::make_cpu_env_factory(camp->cpu, camp->program),
      camp->fingerprint, copt);
  if (cres.journal_truncated) {
    std::fprintf(stderr,
                 "warning: %s had a torn trailing record (interrupted "
                 "mid-write); it was dropped and that group re-simulated\n",
                 journal.c_str());
  }
  if (cres.journal_salvage.skipped_records != 0) {
    std::fprintf(
        stderr,
        "warning: %s had %zu damaged span(s) (%zu bytes) mid-file; %zu "
        "intact record(s) were salvaged around them and the damaged "
        "groups re-simulated (`sbst journal verify` checks a journal "
        "without running the campaign)\n",
        journal.c_str(), cres.journal_salvage.skipped_records,
        cres.journal_salvage.skipped_bytes, cres.journal_salvage.salvaged);
  }
  if (cres.journal_compacted) {
    std::fprintf(stderr,
                 "note: %s was compacted on open (superseded records "
                 "outnumbered live ones)\n",
                 journal.c_str());
  }
  if (!journal.empty() && cres.journal_empty) {
    std::fprintf(stderr, "note: %s is an empty journal, starting fresh\n",
                 journal.c_str());
  }
  if (cres.resumed) {
    std::printf("resumed from %s: %zu/%zu groups already journaled\n",
                journal.c_str(), cres.seeded_groups, cres.shard_groups_total);
  }
  if (cres.worker_restarts != 0) {
    std::fprintf(stderr,
                 "warning: %zu worker process(es) died and were respawned\n",
                 cres.worker_restarts);
  }
  if (cres.result.trace_fallback) {
    std::fprintf(stderr,
                 "note: good trace exceeded --trace-mem-mb %zu; fell back "
                 "to the sweep engine\n",
                 trace_mem_mb);
  }

  if (cres.interrupted) {
    const char* signame = cres.signal == SIGTERM   ? "SIGTERM"
                          : cres.signal == SIGHUP ? "SIGHUP"
                                                  : "SIGINT";
    const char* prefix = shard.empty() ? "" : "shard ";
    const char* shard_id = shard.empty() ? "" : shard.c_str();
    if (!journal.empty()) {
      std::fprintf(stderr,
                   "%s%s%sinterrupted (%s): resumable — %zu/%zu groups done "
                   "and journaled in %s; rerun the same command to continue\n",
                   prefix, shard_id, shard.empty() ? "" : " ", signame,
                   cres.groups_done, cres.shard_groups_total, journal.c_str());
    } else {
      std::fprintf(stderr,
                   "%s%s%sinterrupted (%s): %zu/%zu groups done but "
                   "discarded — pass --journal FILE to make campaigns "
                   "resumable\n",
                   prefix, shard_id, shard.empty() ? "" : " ", signame,
                   cres.groups_done, cres.shard_groups_total);
    }
    return 3;
  }

  if (shard_count > 1) {
    // A shard's coverage table would be meaningless (every out-of-class
    // group would read undetected); report completion and point at the
    // merge instead. Quarantines still surface — they are shard results.
    std::printf("shard %u/%u complete: %zu/%zu shard groups done (journal "
                "%s; campaign universe %zu groups)\n",
                shard_index, shard_count, cres.groups_done,
                cres.shard_groups_total,
                journal.empty() ? "none" : journal.c_str(), cres.groups_total);
    if (cres.faults_timed_out != 0) {
      std::printf("%zu collapsed faults inconclusive (wall-clock bound)\n",
                  cres.faults_timed_out);
    }
    if (!cres.quarantined_groups.empty()) {
      std::printf("%zu collapsed faults quarantined across %zu group(s)\n",
                  cres.faults_quarantined, cres.quarantined_groups.size());
    }
    std::printf("merge the shard journals (`sbst journal merge ... -o "
                "MERGED.sbstj`) and grade with --journal MERGED.sbstj for "
                "the coverage table\n");
    return 0;
  }

  const core::CoverageReport rep =
      core::make_coverage_report(camp->cpu, faults, cres.result);
  std::ostringstream table;
  core::print_coverage_table(table, rep, nullptr);
  std::fputs(table.str().c_str(), stdout);
  if (cres.faults_timed_out != 0) {
    std::printf("%zu collapsed faults inconclusive (wall-clock bound); "
                "coverage is a lower bound\n",
                cres.faults_timed_out);
  }
  if (!cres.quarantined_groups.empty()) {
    std::printf("%zu collapsed faults quarantined across %zu group(s); "
                "coverage is a lower bound:\n",
                cres.faults_quarantined, cres.quarantined_groups.size());
    for (const campaign::QuarantinedGroup& q : cres.quarantined_groups) {
      if (q.error.term_signal != 0) {
        std::printf("  group %llu: worker killed by signal %d (%s) on all "
                    "%u attempts (peak rss %llu KB, cpu %llu ms)\n",
                    (unsigned long long)q.group, q.error.term_signal,
                    strsignal(q.error.term_signal), q.error.attempts,
                    (unsigned long long)q.error.max_rss_kb,
                    (unsigned long long)q.error.cpu_ms);
      } else {
        std::printf("  group %llu: worker exited with code %d on all "
                    "%u attempts (peak rss %llu KB, cpu %llu ms)\n",
                    (unsigned long long)q.group, q.error.exit_code,
                    q.error.attempts, (unsigned long long)q.error.max_rss_kb,
                    (unsigned long long)q.error.cpu_ms);
      }
    }
    std::printf("re-run with --retry-timeouts (and more --worker-mem-mb or "
                "fewer --workers) to give them a fresh chance\n");
  }
  if (!out.empty()) {
    util::write_file_atomic(out, table.str());
    std::printf("wrote report to %s\n", out.c_str());
  }
  return 0;
}

int cmd_dispatch(int argc, char** argv) {
  unsigned shards = 0;
  std::string journal_dir;
  unsigned workers_per_shard = 0;
  unsigned max_shard_retries = 3;
  std::uint64_t stale_after_s = 10;
  std::uint64_t backoff_ms = 500;
  std::uint64_t backoff_cap_ms = 30'000;
  std::string status;
  std::string engine = "event";
  std::size_t sample = 6300;
  std::uint64_t group_timeout_s = 0;
  std::string durability = "flush";
  std::string merged;
  const auto pos = util::ArgParser(argc, argv)
                       .value_count("--shards", &shards)
                       .value("--journal-dir", &journal_dir)
                       .value_count("--workers-per-shard", &workers_per_shard)
                       .value_unsigned("--max-shard-retries",
                                       &max_shard_retries)
                       .value_u64("--stale-after", &stale_after_s)
                       .value_u64("--backoff-ms", &backoff_ms)
                       .value_u64("--backoff-cap-ms", &backoff_cap_ms)
                       .value("--status", &status)
                       .value("--engine", &engine)
                       .value_size("--sample", &sample)
                       .value_u64("--group-timeout", &group_timeout_s)
                       .value("--durability", &durability)
                       .value("-o", &merged)
                       .parse(1, 1);
  if (shards < 2) {
    throw util::ArgError(
        "--shards wants N >= 2 (a single shard is just sbst grade)");
  }
  if (journal_dir.empty()) {
    throw util::ArgError("--journal-dir is required");
  }
  if (engine != "event" && engine != "sweep") {
    throw util::ArgError("unknown --engine '" + engine +
                         "' (want event or sweep)");
  }
  util::parse_durability(durability);  // fail fast, runners re-parse

  // Same preamble as cmd_grade: the dispatcher computes the campaign
  // fingerprint itself (a live runner's status must name it) and
  // verifies the program halts once, before forking N runners that
  // would all fail.
  const std::optional<GradeCampaign> camp = prepare_campaign(pos[0], sample);
  if (!camp) return 1;
  const std::uint64_t fp = camp->fingerprint;

  char exebuf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exebuf, sizeof(exebuf) - 1);
  const std::string exe =
      n > 0 ? std::string(exebuf, static_cast<std::size_t>(n))
            : std::string("/proc/self/exe");
  const std::string prog = pos[0];

  util::install_drain_handlers();
  campaign::DispatchOptions dopt;
  dopt.shards = shards;
  dopt.journal_dir = journal_dir;
  dopt.max_shard_retries = max_shard_retries;
  dopt.stale_after_s = static_cast<double>(stale_after_s);
  dopt.backoff_initial_s = static_cast<double>(backoff_ms) / 1000.0;
  dopt.backoff_cap_s = static_cast<double>(backoff_cap_ms) / 1000.0;
  dopt.fingerprint = fp;
  dopt.status_path = status;
  dopt.durability = util::parse_durability(durability);
  dopt.cancel = &util::drain_requested();
  dopt.make_runner_argv = [&](unsigned shard, const std::string& journal,
                              const std::string& shard_status) {
    std::vector<std::string> argv = {
        exe,         "grade",
        prog,        "--shard",
        std::to_string(shard) + "/" + std::to_string(shards),
        "--journal", journal,
        "--status",  shard_status,
        "--sample",  std::to_string(sample),
        "--engine",  engine,
        "--durability", durability};
    if (workers_per_shard != 0) {
      argv.push_back("--threads");
      argv.push_back(std::to_string(workers_per_shard));
    }
    if (group_timeout_s != 0) {
      argv.push_back("--group-timeout");
      argv.push_back(std::to_string(group_timeout_s));
    }
    return argv;
  };

  std::printf("dispatching %u shard(s) of %s into %s (campaign %016llx)\n",
              shards, prog.c_str(), journal_dir.c_str(),
              static_cast<unsigned long long>(fp));
  const campaign::DispatchResult res = campaign::run_dispatch(dopt);

  for (const campaign::ShardOutcome& s : res.shards) {
    const char* state = s.completed    ? "complete"
                        : s.resumable ? "resumable"
                        : s.failed    ? "failed"
                                      : "incomplete";
    std::printf("shard %u/%u: %s (%u attempt(s), %u re-dispatch(es)%s)%s%s\n",
                s.shard, shards, state, s.attempts, s.redispatches,
                s.stale_leases != 0 ? ", stale lease" : "",
                s.error.empty() ? "" : " — ", s.error.c_str());
  }

  if (res.interrupted) {
    const int sig = util::drain_signal();
    std::fprintf(stderr,
                 "interrupted (%s): resumable — rerun the same command to "
                 "continue from the shard journals in %s\n",
                 sig == SIGTERM   ? "SIGTERM"
                 : sig == SIGHUP ? "SIGHUP"
                                 : "SIGINT",
                 journal_dir.c_str());
    return 3;
  }
  if (!res.all_completed()) {
    std::fprintf(stderr,
                 "dispatch incomplete: merge the shard journals anyway and "
                 "resume off the merged journal to re-simulate exactly the "
                 "missing groups\n");
    return 1;
  }

  if (!merged.empty()) {
    // Merge every shard journal a runner wrote; later-record-wins
    // dedups any overlap.
    std::vector<std::string> inputs;
    for (const campaign::ShardOutcome& s : res.shards) {
      if (std::ifstream(s.journal, std::ios::binary).good()) {
        inputs.push_back(s.journal);
      }
    }
    const campaign::MergeStats m =
        campaign::merge_journals(inputs, merged, dopt.durability);
    std::printf("merged %zu journal(s) -> %s: %zu group(s) of %llu\n",
                m.inputs.size(), merged.c_str(), m.records_out,
                static_cast<unsigned long long>(m.meta.num_groups));
  }
  return 0;
}

int cmd_stats(int argc, char** argv) {
  std::vector<std::string> journals;
  const auto pos = util::ArgParser(argc, argv)
                       .value_multi("--journal", &journals)
                       .parse(0, 4096);
  if (journals.empty() && pos.empty()) {
    throw util::ArgError(
        "pass at least one input: METRICS.ndjson files and/or --journal "
        "F.sbstj (repeatable, e.g. one per shard)");
  }

  telemetry::MetricsFolder folder;

  // NDJSON inputs fold line by line into one aggregate.
  for (const std::string& path : pos) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
      return 1;
    }
    folder.fold_ndjson(in);
  }

  // Journal inputs: counter reconstruction from the journals themselves.
  // The metrics file is rewritten periodically, so a crash can lose up
  // to a rewrite window of records — the journal has every one of them.
  // Winning records across ALL journals (the concatenation, exactly as
  // `journal merge` resolves conflicts), so shard journals holding
  // duplicate groups — re-dispatch races, healed quarantines — count
  // each group once. Counter lines are bit-equal to a clean run's
  // `sbst stats` output; latency fields (never journaled) read zero.
  std::size_t journal_groups = 0;
  std::uint64_t num_groups = 0;
  if (!journals.empty()) {
    const campaign::JournalSet set = campaign::load_journals(journals);
    for (const campaign::MergeInputStats& in : set.inputs) {
      if (in.damaged) {
        std::fprintf(stderr,
                     "warning: %s is damaged (%zu span(s), torn tail %zu "
                     "bytes); stats cover the %zu salvaged record(s)\n",
                     in.path.c_str(), in.skipped_spans, in.dropped_bytes,
                     in.records);
      }
    }
    const std::vector<fault::GroupRecord> winners =
        campaign::winning_records(set.records);
    journal_groups = winners.size();
    num_groups = set.meta.num_groups;
    for (const fault::GroupRecord& rec : winners) {
      folder.fold(campaign::to_group_metric(rec, /*seeded=*/false, 0.0));
    }
  }

  const telemetry::MetricsSummary s = folder.finish();
  if (!journals.empty()) {
    std::printf("source: %zu journal(s) (%llu/%llu groups journaled; "
                "latency not recorded in journals)",
                journals.size(),
                static_cast<unsigned long long>(journal_groups),
                static_cast<unsigned long long>(num_groups));
    if (!pos.empty()) std::printf(" + %zu metrics file(s)", pos.size());
    std::printf("\n");
  } else if (pos.size() > 1) {
    std::printf("source: %zu metrics files\n", pos.size());
  }
  std::ostringstream os;
  telemetry::print_metrics_summary(os, s);
  std::fputs(os.str().c_str(), stdout);
  if (s.records == 0) {
    std::fprintf(stderr, "error: inputs hold no metric records\n");
    return 1;
  }
  if (s.malformed != 0) {
    std::fprintf(stderr, "error: %zu malformed line(s) across inputs\n",
                 s.malformed);
    return 1;
  }
  return 0;
}

/// Renders one journal's health: the shared core of `journal inspect`
/// (informational) and `journal verify` (CI validator, exit status).
/// Returns true when the journal is fully intact.
bool print_journal_health(const campaign::JournalLoad& loaded,
                          const std::string& path) {
  std::printf("journal: %s\n", path.c_str());
  std::printf("  fingerprint: %016llx\n",
              static_cast<unsigned long long>(loaded.meta.fingerprint));
  std::printf("  campaign: %llu groups, %llu faults\n",
              static_cast<unsigned long long>(loaded.meta.num_groups),
              static_cast<unsigned long long>(loaded.meta.num_faults));
  std::size_t ok = 0, timed_out = 0, quarantined = 0;
  for (const fault::GroupRecord& rec : loaded.records) {
    if (rec.quarantined) ++quarantined;
    else if (rec.timed_out) ++timed_out;
    else ++ok;
  }
  const std::size_t live = campaign::winning_records(loaded.records).size();
  const std::size_t dead = loaded.records.size() - live;
  std::printf("  records: %zu (ok=%zu timed_out=%zu quarantined=%zu)\n",
              loaded.records.size(), ok, timed_out, quarantined);
  if (live != 0) {
    std::printf("  live groups: %zu, dead records: %zu (dead ratio %.2f%s)\n",
                live, dead,
                static_cast<double>(dead) / static_cast<double>(live),
                dead > campaign::kCompactDeadFactor * live
                    ? ", compaction due" : "");
  }
  if (loaded.stats.skipped_records != 0) {
    std::printf("  damage: %zu span(s), %zu bytes skipped mid-file\n",
                loaded.stats.skipped_records, loaded.stats.skipped_bytes);
  }
  if (loaded.truncated) {
    std::printf("  damage: torn tail, %zu bytes dropped\n",
                loaded.dropped_bytes);
  }
  if (!loaded.damaged()) std::printf("  damage: none\n");
  return !loaded.damaged();
}

int cmd_journal(int argc, char** argv) {
  std::string out;
  std::string durability = "fsync";
  const auto pos = util::ArgParser(argc, argv)
                       .value("-o", &out)
                       .value("--durability", &durability)
                       .parse(2, 4096);
  const std::string verb = pos[0];
  const std::string path = pos[1];
  if (verb != "inspect" && verb != "verify" && verb != "repair" &&
      verb != "compact" && verb != "merge") {
    throw util::ArgError("unknown journal verb '" + verb +
                         "' (want inspect, verify, repair, compact or "
                         "merge)");
  }
  if (verb != "merge" && pos.size() != 2) {
    throw util::ArgError("journal " + verb + " takes exactly one journal");
  }
  if (!out.empty() && verb != "repair" && verb != "compact" &&
      verb != "merge") {
    throw util::ArgError("-o only applies to repair, compact and merge");
  }
  const util::Durability dur = util::parse_durability(durability);

  if (verb == "merge") {
    if (out.empty()) {
      throw util::ArgError("journal merge requires -o OUT.sbstj");
    }
    const std::vector<std::string> inputs(pos.begin() + 1, pos.end());
    const campaign::MergeStats m = campaign::merge_journals(inputs, out, dur);
    std::printf("merged %zu journal(s) -> %s: %zu record(s) in, %zu "
                "group(s) out (campaign %016llx, %llu groups)\n",
                m.inputs.size(), out.c_str(), m.records_in, m.records_out,
                static_cast<unsigned long long>(m.meta.fingerprint),
                static_cast<unsigned long long>(m.meta.num_groups));
    for (const campaign::MergeInputStats& in : m.inputs) {
      std::printf("  %s: %zu record(s), %zu winner(s)%s\n", in.path.c_str(),
                  in.records, in.winners,
                  in.damaged ? " (damaged; salvaged records only)" : "");
    }
    if (m.records_out < m.meta.num_groups) {
      std::printf("%llu group(s) still missing; a resume off the merged "
                  "journal re-simulates exactly those\n",
                  static_cast<unsigned long long>(m.meta.num_groups -
                                                  m.records_out));
    }
    return 0;
  }

  if (verb == "inspect" || verb == "verify") {
    const auto loaded = campaign::load_journal_raw(path);
    if (!loaded) {
      std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
      return 1;
    }
    if (loaded->empty_file) {
      std::printf("journal: %s\n  empty file (no header yet) — a fresh "
                  "campaign will recreate it\n", path.c_str());
      return 0;
    }
    const bool clean = print_journal_health(*loaded, path);
    if (verb == "inspect") return 0;
    std::printf("%s\n", clean ? "VERIFY OK" : "VERIFY FAILED");
    return clean ? 0 : 1;
  }

  // repair and compact: a merge of one journal, which keeps the winning
  // record per group and leaves damage behind.
  const std::string dest = out.empty() ? path : out;
  const campaign::MergeStats c = campaign::merge_journals({path}, dest, dur);
  std::printf("%s %s -> %s: %zu -> %zu record(s), %zu -> %zu bytes\n",
              verb == "repair" ? "repaired" : "compacted", path.c_str(),
              dest.c_str(), c.records_in, c.records_out, c.bytes_in,
              c.bytes_out);
  const campaign::MergeInputStats& in = c.inputs.front();
  if (in.damaged) {
    std::printf("dropped %zu damaged span(s) and a %zu-byte torn tail; "
                "damaged groups re-simulate on the next resume\n",
                in.skipped_spans, in.dropped_bytes);
  }
  return 0;
}

int cmd_fuzz(int argc, char** argv) {
  verify::FuzzOptions opt;
  bool no_shrink = false;
  bool inject = false;
  int body = opt.prog.body_instructions;
  std::string out = "cosim-repro.s";
  util::ArgParser(argc, argv)
      .value_u64("--seed", &opt.seed)
      .value_int("--iters", &opt.iterations)
      .value_int("--body", &body)
      .value_u64("--max-cycles", &opt.max_cycles)
      .flag("--no-shrink", &no_shrink)
      .flag("--inject-alu-bug", &inject)
      .value("-o", &out)
      .parse(0, 0);
  opt.prog.body_instructions = body;
  opt.shrink = !no_shrink;

  plasma::PlasmaCpu cpu = plasma::build_plasma_cpu();
  if (inject) {
    const nl::GateId g = verify::inject_alu_carry_bug(cpu);
    std::printf("injected ALU carry bug at gate %u\n", g);
  }
  std::printf("co-sim fuzzing: %d programs of %d body instructions, "
              "seeds %llu..%llu\n",
              opt.iterations, opt.prog.body_instructions,
              (unsigned long long)opt.seed,
              (unsigned long long)(opt.seed + opt.iterations - 1));
  const verify::FuzzResult res = verify::run_cosim_fuzz(cpu, opt);
  if (!res.mismatch) {
    std::printf("%d/%d programs agree (memory traces, registers, cycles)\n",
                res.iterations_run, opt.iterations);
    return 0;
  }
  const verify::FuzzMismatch& m = *res.mismatch;
  std::printf("MISMATCH at seed %llu: %s\n", (unsigned long long)m.seed,
              m.detail.c_str());
  std::printf("shrunk %zu -> %zu instructions (%d differential runs, "
              "%d rounds)\n",
              m.program.size(), m.reduced.size(), m.shrink_stats.checks,
              m.shrink_stats.rounds);
  const std::string header =
      "minimal ISS-vs-gate divergence reproducer\nseed " +
      std::to_string(m.seed) + ", original " +
      std::to_string(m.program.size()) + " instructions\n" + m.detail;
  const std::string listing = verify::render_reproducer(m.reduced, header);
  util::write_file_atomic(out, listing);
  std::printf("reproducer written to %s:\n%s", out.c_str(), listing.c_str());
  return 1;
}

int cmd_lint(int argc, char** argv) {
  const auto pos = util::ArgParser(argc, argv).parse(0, 1);
  const std::string target = pos.empty() ? "all" : pos[0];
  if (target != "all" && target != "plasma" && target != "parwan") {
    throw util::ArgError("unknown target '" + target +
                         "' (want plasma or parwan)");
  }
  bool clean = true;
  auto lint_one = [&clean](const char* name, const nl::Netlist& netlist) {
    const nl::FaultList faults = nl::enumerate_faults(netlist);
    const nl::LintReport rep = nl::lint(netlist, faults);
    std::printf("%s: %zu gates, %zu findings (%zu errors, %zu warnings, "
                "%zu infos)\n",
                name, netlist.size(), rep.findings.size(), rep.errors,
                rep.warnings, rep.infos);
    nl::print_lint_report(std::cout, rep);
    clean = clean && rep.clean();
  };
  if (target == "all" || target == "plasma") {
    lint_one("plasma", plasma::build_plasma_cpu().netlist);
  }
  if (target == "all" || target == "parwan") {
    lint_one("parwan", parwan::build_parwan_cpu().netlist);
  }
  std::printf("%s\n", clean ? "LINT CLEAN" : "LINT FAILED");
  return clean ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "info") return cmd_info(argc - 2, argv + 2);
    if (cmd == "asm") return cmd_asm(argc - 2, argv + 2);
    if (cmd == "disasm") return cmd_disasm(argc - 2, argv + 2);
    if (cmd == "run") return cmd_run(argc - 2, argv + 2);
    if (cmd == "cosim") return cmd_cosim(argc - 2, argv + 2);
    if (cmd == "selftest") return cmd_selftest(argc - 2, argv + 2);
    if (cmd == "grade") return cmd_grade(argc - 2, argv + 2);
    if (cmd == "dispatch") return cmd_dispatch(argc - 2, argv + 2);
    if (cmd == "stats") return cmd_stats(argc - 2, argv + 2);
    if (cmd == "journal") return cmd_journal(argc - 2, argv + 2);
    if (cmd == "fuzz") return cmd_fuzz(argc - 2, argv + 2);
    if (cmd == "lint") return cmd_lint(argc - 2, argv + 2);
  } catch (const util::ArgError& e) {
    std::fprintf(stderr, "error: %s: %s\n", cmd.c_str(), e.what());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
