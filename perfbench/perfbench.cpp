// Fault-grading benchmark: times the paper's grading flow end to end and
// layer by layer, and checks every campaign's verdicts.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             --reference FILE --work-dir DIR
//   perfbench --bless [--work-dir DIR]      (reference digests to stdout)
//
// Workloads (rationale in perfbench/README.md and BENCHMARK.json):
//   table5_full     Plasma Phase A+B, full collapsed list, event engine,
//                   nproc threads, flush journal + metrics NDJSON.
//   routine_dev     Plasma Phase A, A+B, A+B+C at the CLI's 6,300-fault
//                   sample (selected by --seed) plus the full Parwan
//                   self-test; event engine, nproc threads, no journal.
//   sweep_isolated  Plasma Phase A+B, full list, sweep engine, --isolate
//                   with nproc workers, flush journal + metrics NDJSON.
//
// An untraced run (--trace 0) repeats set-up and grading and reports the
// end-to-end medians. A traced run (--trace 1) alternates untraced and
// traced grading reps, then calls each layer's public entry points on
// their own, and reports per-layer numbers; its spans (name, start, end,
// parent) are kept in memory and written to the work directory at exit.
// All times are host wall-clock or host CPU time.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; `attempted`/`failed` count 63-fault groups.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/journal.h"
#include "core/classify.h"
#include "core/program.h"
#include "core/report.h"
#include "fault/faultsim.h"
#include "fault/good_trace.h"
#include "netlist/compiled.h"
#include "netlist/fault.h"
#include "netlist/levelize.h"
#include "parwan/cpu.h"
#include "parwan/sbst.h"
#include "parwan/testbench.h"
#include "plasma/cpu.h"
#include "plasma/testbench.h"
#include "telemetry/metrics.h"

using namespace sbst;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

// Cycle budgets: the CLI's for Plasma, bench_parwan_coverage's scale for
// Parwan (both programs halt long before).
constexpr std::uint64_t kPlasmaMaxCycles = 10'000'000;
constexpr std::uint64_t kParwanMaxCycles = 100'000;
// `sbst grade`'s default sample size.
constexpr std::size_t kCliSample = 6300;
// routine_dev draws its fault samples from this many sample seeds
// (--seed modulo kSampleSeeds), so every sample it can grade has a
// reference digest in reference.txt.
constexpr std::uint64_t kSampleSeeds = 16;
// Set-ups before each grading rep; setup_s is the median of all of them.
constexpr int kSetupsPerRep = 2;
// Grading reps per run at least, however short --seconds is.
constexpr int kMinReps = 3;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t i = static_cast<std::size_t>(p * (v.size() - 1) + 0.5);
  return v[std::min(i, v.size() - 1)];
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// CPUs this process may run on (what nproc prints).
unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// User+system CPU seconds of this process plus its reaped children.
double cpu_seconds() {
  double s = 0;
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage ru{};
    getrusage(who, &ru);
    s += ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
         1e-6 * (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  }
  return s;
}

double peak_rss_mib(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uintmax_t file_bytes(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t n = fs::file_size(path, ec);
  return ec ? 0 : n;
}

// --- spans -----------------------------------------------------------------

struct Span {
  std::string name;
  double start_s = 0;
  double end_s = 0;
  int parent = -1;
};

/// In-memory span recorder around the calls into each layer. Disabled
/// (untraced runs) it records nothing, but `timed` still returns the
/// call's wall clock, which the end-to-end metrics need anyway.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {}

  template <class F>
  double timed(const std::string& name, F&& fn) {
    const int id = begin(name);
    const auto t = Clock::now();
    fn();
    const double s = since(t);
    end(id);
    return s;
  }

  int begin(const std::string& name) {
    if (!on_) return -1;
    spans_.push_back({name, since(t0_), 0.0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }

  void end(int id) {
    if (id < 0) return;
    spans_[id].end_s = since(t0_);
    current_ = spans_[id].parent;
  }

  void write(const std::string& path, const std::string& host_json) const {
    std::ofstream out(path);
    out << "{\"host\":" << host_json << ",\"spans\":[";
    char buf[64];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"parent\":" << s.parent;
      std::snprintf(buf, sizeof(buf), ",\"start_s\":%.9f,\"end_s\":%.9f}",
                    s.start_s, s.end_s);
      out << buf;
    }
    out << "\n]}\n";
  }

 private:
  bool on_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  int current_ = -1;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const std::string& name) : t_(t), id_(t.begin(name)) {}
  ~ScopedSpan() { t_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  int id_;
};

// --- reference verdicts ----------------------------------------------------

struct RefEntry {
  std::uint64_t digest = 0;
  std::size_t simulated = 0;
  std::string coverage;  // overall percent, two decimals
};

std::map<std::string, RefEntry> load_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open reference " + path);
  std::map<std::string, RefEntry> ref;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key, hex;
    RefEntry e;
    if (!(ls >> key >> hex >> e.simulated >> e.coverage)) {
      throw std::runtime_error("malformed reference line: " + line);
    }
    e.digest = std::stoull(hex, nullptr, 16);
    ref[key] = e;
  }
  return ref;
}

/// FNV-1a over every simulated fault's (index, detected, detect_cycle).
std::uint64_t verdict_digest(const fault::FaultSimResult& r) {
  std::uint64_t h = campaign::fingerprint_init();
  for (std::size_t i = 0; i < r.simulated.size(); ++i) {
    if (!r.simulated[i]) continue;
    h = campaign::fingerprint_u64(h, i);
    h = campaign::fingerprint_u64(h, r.detected[i]);
    h = campaign::fingerprint_u64(h, static_cast<std::uint64_t>(r.detect_cycle[i]));
  }
  return h;
}

std::string percent2(double pct) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", pct);
  return buf;
}

// --- workloads -------------------------------------------------------------

enum class Workload { kTable5Full, kRoutineDev, kSweepIsolated };

Workload parse_workload(const std::string& s) {
  if (s == "table5_full") return Workload::kTable5Full;
  if (s == "routine_dev") return Workload::kRoutineDev;
  if (s == "sweep_isolated") return Workload::kSweepIsolated;
  throw std::runtime_error("unknown workload '" + s + "'");
}

/// One grading campaign, ready to run: the core and fault list it grades
/// live in the owning Setup.
struct Campaign {
  std::string key;  // reference key, e.g. "plasma_ab/full"
  const nl::Netlist* netlist = nullptr;
  const plasma::PlasmaCpu* plasma = nullptr;  // null: Parwan
  const nl::FaultList* faults = nullptr;
  fault::EnvFactory env;
  std::uint64_t fingerprint = 0;
  campaign::CampaignOptions options;
};

/// Set-up time by layer, seconds.
struct SetupTimes {
  double plasma_build = 0, core_program = 0, plasma_halt = 0;
  double parwan_build = 0, parwan_program = 0, parwan_halt = 0;
  double collapse = 0;
  double total = 0;
};

/// Everything one set-up produces. Not movable: campaigns point into it.
struct Setup {
  plasma::PlasmaCpu plasma;
  nl::FaultList plasma_faults;
  std::optional<parwan::ParwanCpu> parwan;
  nl::FaultList parwan_faults;
  std::vector<core::SelfTestProgram> programs;
  parwan::ParwanSelfTest parwan_test;
  std::vector<Campaign> campaigns;
  SetupTimes t;

  Setup() = default;
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;
};

struct Config {
  Workload workload = Workload::kTable5Full;
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  unsigned workers = 1;
  std::string work_dir;
};

std::uint64_t sample_seed_for(std::uint64_t seed) {
  return splitmix64(seed % kSampleSeeds);
}

std::uint64_t fingerprint_of(const void* image, std::size_t bytes,
                             const nl::Netlist& netlist,
                             const nl::FaultList& faults,
                             const fault::FaultSimOptions& sim) {
  // The CLI's campaign identity: image, netlist, fault universe, sampling
  // and cycle budget.
  std::uint64_t fp = campaign::fingerprint_init();
  fp = campaign::fingerprint_bytes(fp, image, bytes);
  fp = campaign::fingerprint_u64(fp, netlist.size());
  fp = campaign::fingerprint_u64(fp, faults.size());
  fp = campaign::fingerprint_u64(fp, sim.sample);
  fp = campaign::fingerprint_u64(fp, sim.sample_seed);
  return campaign::fingerprint_u64(fp, sim.max_cycles);
}

/// Campaign options for a workload's Plasma campaigns; `tag` names the
/// campaign's journal and metrics files.
campaign::CampaignOptions options_for(const Config& cfg,
                                      const std::string& tag) {
  campaign::CampaignOptions o;
  o.sim.threads = cfg.workers;
  o.sim.max_cycles = kPlasmaMaxCycles;
  o.durability = util::Durability::kFlush;
  o.telemetry.durability = o.durability;
  const std::string base = cfg.work_dir + "/" + cfg.workload_name + "-" + tag;
  switch (cfg.workload) {
    case Workload::kTable5Full:
      o.sim.engine = fault::Engine::kEvent;
      o.journal = base + ".sbstj";
      o.telemetry.metrics_path = base + ".ndjson";
      break;
    case Workload::kRoutineDev:
      o.sim.engine = fault::Engine::kEvent;
      o.sim.sample = kCliSample;
      o.sim.sample_seed = sample_seed_for(cfg.seed);
      break;
    case Workload::kSweepIsolated:
      o.sim.engine = fault::Engine::kSweep;
      o.isolate = true;
      o.iso.workers = cfg.workers;
      o.journal = base + ".sbstj";
      o.telemetry.metrics_path = base + ".ndjson";
      break;
  }
  return o;
}

/// Elaborate, generate + assemble, halt-check and collapse: the set-up
/// every grade pays before its first fault group.
std::unique_ptr<Setup> set_up(const Config& cfg, Tracer& tr) {
  auto s = std::make_unique<Setup>();
  ScopedSpan root(tr, "setup");
  const auto t0 = Clock::now();
  SetupTimes& t = s->t;

  t.plasma_build = tr.timed("plasma.build_plasma_cpu",
                            [&] { s->plasma = plasma::build_plasma_cpu(); });
  const std::vector<std::string> phases =
      cfg.workload == Workload::kRoutineDev
          ? std::vector<std::string>{"a", "ab", "abc"}
          : std::vector<std::string>{"ab"};
  t.core_program = tr.timed("core.program", [&] {
    const auto classified = core::classify_plasma(s->plasma);
    for (const std::string& ph : phases) {
      s->programs.push_back(ph == "a"    ? core::build_phase_a(classified)
                            : ph == "ab" ? core::build_phase_ab(classified)
                                         : core::build_phase_abc(classified));
    }
  });
  for (const core::SelfTestProgram& p : s->programs) {
    t.plasma_halt += tr.timed("plasma.run_gate_cpu", [&] {
      if (!plasma::run_gate_cpu(s->plasma, p.image, kPlasmaMaxCycles).halted) {
        throw std::runtime_error(p.name + " does not halt at gate level");
      }
    });
  }
  t.collapse += tr.timed("nl.enumerate_faults", [&] {
    s->plasma_faults = nl::enumerate_faults(s->plasma.netlist);
  });

  if (cfg.workload == Workload::kRoutineDev) {
    t.parwan_build = tr.timed("parwan.build_parwan_cpu",
                              [&] { s->parwan = parwan::build_parwan_cpu(); });
    t.parwan_program = tr.timed("parwan.build_parwan_selftest", [&] {
      s->parwan_test = parwan::build_parwan_selftest();
    });
    t.parwan_halt = tr.timed("parwan.run_gate_parwan", [&] {
      if (!parwan::run_gate_parwan(*s->parwan, s->parwan_test.image,
                                   kParwanMaxCycles)
               .halted) {
        throw std::runtime_error("Parwan self-test does not halt");
      }
    });
    t.collapse += tr.timed("nl.enumerate_faults", [&] {
      s->parwan_faults = nl::enumerate_faults(s->parwan->netlist);
    });
  }
  t.total = since(t0);

  // Campaign wiring is cheap bookkeeping, outside the timed set-up.
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const core::SelfTestProgram& p = s->programs[i];
    Campaign c;
    c.options = options_for(cfg, "plasma_" + phases[i]);
    c.key = "plasma_" + phases[i] + "/" +
            (c.options.sim.sample == 0
                 ? std::string("full")
                 : "s" + std::to_string(cfg.seed % kSampleSeeds));
    c.netlist = &s->plasma.netlist;
    c.plasma = &s->plasma;
    c.faults = &s->plasma_faults;
    c.env = plasma::make_cpu_env_factory(s->plasma, p.image);
    c.fingerprint = fingerprint_of(p.image.words.data(), p.image.words.size() * 4,
                                   s->plasma.netlist, s->plasma_faults,
                                   c.options.sim);
    s->campaigns.push_back(std::move(c));
  }
  if (s->parwan) {
    Campaign c;
    c.options = options_for(cfg, "parwan");
    c.options.sim.sample = 0;
    c.options.sim.max_cycles = kParwanMaxCycles;
    c.key = "parwan/full";
    c.netlist = &s->parwan->netlist;
    c.faults = &s->parwan_faults;
    c.env = parwan::make_parwan_env_factory(*s->parwan, s->parwan_test.image);
    c.fingerprint =
        fingerprint_of(s->parwan_test.image.data(), s->parwan_test.image.size(),
                       s->parwan->netlist, s->parwan_faults, c.options.sim);
    s->campaigns.push_back(std::move(c));
  }
  return s;
}

// --- grading ---------------------------------------------------------------

/// Deterministic outputs of one campaign: equal across every rep of a run
/// (and across runs of one seed), else the benchmark reports drift.
struct Counters {
  std::uint64_t digest = 0;
  std::uint64_t gate_evals = 0;
  std::uint64_t sim_cycles = 0;
  std::uint64_t trace_bytes = 0;
  std::uint64_t journal_bytes = 0;
  bool operator==(const Counters&) const = default;
};

/// What one campaign of one rep measured.
struct CampaignRun {
  double campaign_s = 0;  // run_campaign wall clock
  double report_s = 0;    // coverage report wall clock
  double cpu_s = 0;       // user+sys CPU of both, reaped workers included
  double first_group_s = 0;
  std::size_t groups = 0;
  std::size_t failed_groups = 0;
  std::size_t worker_restarts = 0;
  Counters counters;
  std::vector<double> group_ms;  // traced: per simulated group (NDJSON)
  double busy_s = 0;             // traced: their sum
  std::uintmax_t metrics_bytes = 0;
};

struct Rep {
  double grade_s = 0;
  double cpu_s = 0;
  std::vector<CampaignRun> runs;
};

class Grader {
 public:
  Grader(const Config& cfg, std::map<std::string, RefEntry> ref)
      : cfg_(cfg), ref_(std::move(ref)) {}

  Rep grade(const Setup& s, Tracer& tr, bool traced) {
    Rep rep;
    ScopedSpan root(tr, traced ? "grade.traced" : "grade");
    for (const Campaign& c : s.campaigns) {
      rep.runs.push_back(run(c, tr, traced));
      rep.grade_s += rep.runs.back().campaign_s + rep.runs.back().report_s;
      rep.cpu_s += rep.runs.back().cpu_s;
    }
    return rep;
  }

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && !drift_; }

 private:
  CampaignRun run(const Campaign& c, Tracer& tr, bool traced) {
    campaign::CampaignOptions opt = c.options;
    fs::remove(opt.journal);
    fs::remove(opt.telemetry.metrics_path);
    if (traced && opt.telemetry.metrics_path.empty()) {
      // routine_dev grades without telemetry; its traced reps add the
      // NDJSON, and that cost shows in trace.overhead_s.
      std::string tag = c.key;
      std::replace(tag.begin(), tag.end(), '/', '-');
      opt.telemetry.metrics_path =
          cfg_.work_dir + "/" + cfg_.workload_name + "-" + tag + ".ndjson";
      fs::remove(opt.telemetry.metrics_path);
    }
    CampaignRun r;
    std::optional<Clock::time_point> first;
    if (traced) {
      // The engine never runs the progress hook concurrently.
      opt.sim.progress = [&](const fault::Progress&) {
        if (!first) first = Clock::now();
      };
    }
    campaign::CampaignResult cres;
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    r.campaign_s = tr.timed("campaign.run_campaign " + c.key, [&] {
      cres = campaign::run_campaign(*c.netlist, *c.faults, c.env,
                                    c.fingerprint, opt);
    });
    if (first) r.first_group_s = std::chrono::duration<double>(*first - t0).count();

    std::string coverage;
    r.report_s = tr.timed("core.make_coverage_report " + c.key, [&] {
      if (c.plasma) {
        coverage = percent2(
            core::make_coverage_report(*c.plasma, *c.faults, cres.result)
                .overall.percent());
      } else {
        fault::component_coverage(*c.netlist, *c.faults, cres.result);
        coverage = percent2(fault::overall_coverage(*c.faults, cres.result).percent());
      }
    });
    r.cpu_s = cpu_seconds() - cpu0;

    const fault::FaultSimResult& res = cres.result;
    r.groups = cres.groups_total;
    r.worker_restarts = cres.worker_restarts;
    r.counters = {verdict_digest(res), res.gates_evaluated, res.sim_cycles,
                  res.trace_bytes, file_bytes(opt.journal)};
    if (traced) {
      r.metrics_bytes = file_bytes(opt.telemetry.metrics_path);
      std::ifstream in(opt.telemetry.metrics_path);
      std::string line;
      telemetry::GroupMetric m;
      while (std::getline(in, line)) {
        if (telemetry::metric_from_json(line, &m) && !m.seeded) {
          r.group_ms.push_back(m.duration_ms);
          r.busy_s += m.duration_ms / 1000.0;
        }
      }
    }
    r.failed_groups = check(c, cres, coverage, r.counters);
    attempted_ += r.groups;
    failed_ += r.failed_groups;
    return r;
  }

  /// Failed groups of one campaign: timed out, quarantined or never run;
  /// every group when the campaign's verdicts differ from the reference.
  std::size_t check(const Campaign& c, const campaign::CampaignResult& cres,
                    const std::string& coverage, const Counters& counters) {
    const fault::FaultSimResult& res = cres.result;
    const fault::GroupPlan plan(*c.faults, c.options.sim);
    std::size_t failed = 0;
    for (std::size_t g = 0; g < plan.num_groups(); ++g) {
      for (std::size_t k = 0; k < plan.group_count(g); ++k) {
        const std::size_t i = plan.active()[g * 63 + k];
        if (!res.simulated[i] || res.timed_out[i] ||
            (!res.quarantined.empty() && res.quarantined[i])) {
          ++failed;
          break;
        }
      }
    }
    std::size_t simulated = 0;
    for (std::uint8_t s : res.simulated) simulated += s;
    const auto it = ref_.find(c.key);
    if (it == ref_.end()) {
      std::fprintf(stderr, "error: no reference for %s\n", c.key.c_str());
      return cres.groups_total;
    }
    const RefEntry& e = it->second;
    if (counters.digest != e.digest || simulated != e.simulated ||
        coverage != e.coverage || cres.interrupted || res.trace_fallback) {
      std::fprintf(stderr,
                   "error: %s verdicts differ from the reference: digest "
                   "%016llx (want %016llx), %zu faults (want %zu), %s%% "
                   "(want %s%%)\n",
                   c.key.c_str(), (unsigned long long)counters.digest,
                   (unsigned long long)e.digest, simulated, e.simulated,
                   coverage.c_str(), e.coverage.c_str());
      return cres.groups_total;
    }
    const auto [seen, fresh] = counters_.try_emplace(c.key, counters);
    if (!fresh && !(seen->second == counters)) {
      std::fprintf(stderr,
                   "error: %s deterministic counters drifted between reps "
                   "(gate_evals %llu vs %llu, sim_cycles %llu vs %llu, "
                   "trace_bytes %llu vs %llu, journal_bytes %llu vs %llu)\n",
                   c.key.c_str(), (unsigned long long)seen->second.gate_evals,
                   (unsigned long long)counters.gate_evals,
                   (unsigned long long)seen->second.sim_cycles,
                   (unsigned long long)counters.sim_cycles,
                   (unsigned long long)seen->second.trace_bytes,
                   (unsigned long long)counters.trace_bytes,
                   (unsigned long long)seen->second.journal_bytes,
                   (unsigned long long)counters.journal_bytes);
      drift_ = true;
    }
    return failed;
  }

  const Config& cfg_;
  std::map<std::string, RefEntry> ref_;
  std::map<std::string, Counters> counters_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  bool drift_ = false;
};

// --- metrics output --------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string host_json(const Config& cfg) {
  std::ostringstream os;
  os << "{\"nproc\":" << nproc()
     << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
     << ",\"workers\":" << cfg.workers << ",\"compiler\":\"" PERFBENCH_CXX_ID
        "\",\"build_type\":\"" PERFBENCH_BUILD_TYPE "\"}";
  return os.str();
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

template <class F>
double median_of(int n, F&& fn) {
  std::vector<double> v;
  for (int i = 0; i < n; ++i) v.push_back(fn());
  return median(v);
}

/// Per-layer numbers from calling each layer's entry points on their own,
/// summed over the workload's campaigns.
struct LayerCalls {
  double levelize_s = 0, compile_s = 0, trace_record_s = 0;
  double bare_sim_s = 0, journal_load_s = 0, resume_s = 0;
};

LayerCalls call_layers(const Setup& s, Tracer& tr) {
  ScopedSpan root(tr, "layers");
  LayerCalls l;
  for (const Campaign& c : s.campaigns) {
    const nl::Netlist& n = *c.netlist;
    l.levelize_s += median_of(3, [&] {
      return tr.timed("nl.levelize " + c.key, [&] { nl::levelize(n); });
    });
    l.compile_s += median_of(3, [&] {
      return tr.timed("nl.compile " + c.key, [&] { nl::compile(n); });
    });
    const fault::FaultSimOptions& sim = c.options.sim;
    if (sim.engine == fault::Engine::kEvent) {
      l.trace_record_s += median_of(3, [&] {
        return tr.timed("fault.record_good_trace " + c.key, [&] {
          fault::record_good_trace(n, c.env, sim.max_cycles,
                                   sim.trace_mem_mb * std::size_t{1024} * 1024);
        });
      });
    }
    // Same engine and worker count, no journal, telemetry or isolation.
    l.bare_sim_s += median_of(2, [&] {
      return tr.timed("fault.run_fault_sim " + c.key,
                      [&] { fault::run_fault_sim(n, *c.faults, c.env, sim); });
    });
    if (!c.options.journal.empty()) {
      // The last rep left a complete journal: time the read path.
      l.journal_load_s += median_of(5, [&] {
        return tr.timed("campaign.load_journal_raw " + c.key,
                        [&] { campaign::load_journal_raw(c.options.journal); });
      });
      l.resume_s += median_of(3, [&] {
        return tr.timed("campaign.run_campaign resume " + c.key, [&] {
          const campaign::CampaignResult r = campaign::run_campaign(
              n, *c.faults, c.env, c.fingerprint, c.options);
          if (r.seeded_groups != r.groups_total) {
            throw std::runtime_error("resume of " + c.key + " re-simulated " +
                                     std::to_string(r.groups_total - r.seeded_groups) +
                                     " groups");
          }
        });
      });
    }
  }
  return l;
}

int run_benchmark(const Config& cfg, const std::string& reference) {
  Tracer tr(cfg.trace);
  Grader grader(cfg, load_reference(reference));

  // On shared machines per-CPU speed drifts over seconds (other tenants
  // on sibling hardware threads), so set-up is sampled before every
  // grading rep rather than once up front: its median then spans the same
  // stretch of the run as the grading medians.
  std::vector<double> setup_s;
  std::vector<SetupTimes> setup_t;
  std::unique_ptr<Setup> setup;
  auto set_up_again = [&] {
    for (int i = 0; i < kSetupsPerRep; ++i) {
      setup = set_up(cfg, tr);
      setup_s.push_back(setup->t.total);
      setup_t.push_back(setup->t);
    }
  };

  // Untraced runs grade back to back; a traced run alternates untraced
  // and traced reps so the tracing overhead compares like with like.
  std::vector<Rep> plain, traced;
  const auto t0 = Clock::now();
  while (static_cast<int>(plain.size()) < kMinReps ||
         (cfg.trace && static_cast<int>(traced.size()) < kMinReps) ||
         since(t0) < cfg.seconds) {
    set_up_again();
    plain.push_back(grader.grade(*setup, tr, false));
    if (cfg.trace) traced.push_back(grader.grade(*setup, tr, true));
    std::fprintf(stderr, "rep %zu: setup %.4f s, grade %.4f s, cpu %.4f s%s\n",
                 plain.size(), setup_s.back(), plain.back().grade_s,
                 plain.back().cpu_s, cfg.trace ? " (untraced)" : "");
  }

  std::vector<Metric> metrics;
  auto rep_median = [](const std::vector<Rep>& reps, auto&& get) {
    std::vector<double> v;
    for (const Rep& r : reps) v.push_back(get(r));
    return median(v);
  };
  if (!cfg.trace) {
    metrics = {
        {"grade_s", rep_median(plain, [](const Rep& r) { return r.grade_s; }), "s"},
        {"setup_s", median(setup_s), "s"},
        {"cpu_s", rep_median(plain, [](const Rep& r) { return r.cpu_s; }), "s"},
        {"peak_rss_mb",
         std::max(peak_rss_mib(RUSAGE_SELF), peak_rss_mib(RUSAGE_CHILDREN)),
         "MiB"},
    };
  } else {
    const LayerCalls l = call_layers(*setup, tr);
    auto setup_median = [&](double SetupTimes::*f) {
      std::vector<double> v;
      for (const SetupTimes& t : setup_t) v.push_back(t.*f);
      return median(v);
    };
    auto sum_runs = [](const Rep& r, auto&& get) {
      double s = 0;
      for (const CampaignRun& c : r.runs) s += get(c);
      return s;
    };
    Counters k;  // summed over the workload's campaigns
    for (const CampaignRun& c : traced.front().runs) {
      k.gate_evals += c.counters.gate_evals;
      k.sim_cycles += c.counters.sim_cycles;
      k.trace_bytes += c.counters.trace_bytes;
      k.journal_bytes += c.counters.journal_bytes;
    }
    std::vector<double> group_ms;
    for (const Rep& r : traced) {
      for (const CampaignRun& c : r.runs) {
        group_ms.insert(group_ms.end(), c.group_ms.begin(), c.group_ms.end());
      }
    }
    // Median over reps of a per-campaign figure summed over campaigns.
    auto rep_sum = [&](const std::vector<Rep>& reps, auto&& get) {
      return rep_median(reps, [&](const Rep& r) { return sum_runs(r, get); });
    };
    const double busy_s =
        rep_sum(traced, [](const CampaignRun& c) { return c.busy_s; });
    // Both shares are over workers x run_campaign wall clock. Occupancy
    // counts a worker waiting inside its first group for the shared good
    // trace as busy; CPU utilization does not, so it shows the serial
    // trace-recording prefix.
    auto worker_share = [&](auto&& numerator) {
      return rep_median(traced, [&](const Rep& r) {
        double num = 0, wall = 0;
        for (const CampaignRun& c : r.runs) {
          num += numerator(c);
          wall += c.campaign_s;
        }
        return num / (cfg.workers * wall);
      });
    };
    const double efficiency =
        worker_share([](const CampaignRun& c) { return c.busy_s; });
    const double cpu_utilization =
        worker_share([](const CampaignRun& c) { return c.cpu_s; });
    const double campaign_s =
        rep_sum(plain, [](const CampaignRun& c) { return c.campaign_s; });
    std::size_t restarts = 0;
    for (const auto* reps : {&plain, &traced}) {
      for (const Rep& r : *reps) {
        restarts += sum_runs(r, [](const CampaignRun& c) {
          return static_cast<double>(c.worker_restarts);
        });
      }
    }
    const double grade_plain = rep_median(plain, [](const Rep& r) { return r.grade_s; });
    const double grade_traced = rep_median(traced, [](const Rep& r) { return r.grade_s; });
    metrics = {
        {"plasma.build_s", setup_median(&SetupTimes::plasma_build), "s"},
        {"plasma.halt_check_s", setup_median(&SetupTimes::plasma_halt), "s"},
        {"parwan.build_s", setup_median(&SetupTimes::parwan_build), "s"},
        {"parwan.program_s", setup_median(&SetupTimes::parwan_program), "s"},
        {"parwan.halt_check_s", setup_median(&SetupTimes::parwan_halt), "s"},
        {"core.program_s", setup_median(&SetupTimes::core_program), "s"},
        {"core.report_s",
         rep_sum(plain, [](const CampaignRun& c) { return c.report_s; }), "s"},
        {"netlist.collapse_s", setup_median(&SetupTimes::collapse), "s"},
        {"netlist.levelize_s", l.levelize_s, "s"},
        {"netlist.compile_s", l.compile_s, "s"},
        {"fault.trace_record_s", l.trace_record_s, "s"},
        {"fault.trace_bytes", static_cast<double>(k.trace_bytes), "count"},
        {"fault.first_group_s",
         rep_sum(traced, [](const CampaignRun& c) { return c.first_group_s; }),
         "s"},
        {"fault.group_ms_p50", percentile(group_ms, 0.50), "ms"},
        {"fault.group_ms_p95", percentile(group_ms, 0.95), "ms"},
        {"fault.kernel_busy_s", busy_s, "s"},
        {"fault.gate_evals", static_cast<double>(k.gate_evals), "count"},
        {"fault.sim_cycles", static_cast<double>(k.sim_cycles), "count"},
        {"fault.gate_evals_per_cycle",
         k.sim_cycles ? static_cast<double>(k.gate_evals) / k.sim_cycles : 0.0,
         "evals/cycle"},
        {"fault.ns_per_gate_eval",
         k.gate_evals ? busy_s * 1e9 / static_cast<double>(k.gate_evals) : 0.0,
         "ns"},
        {"fault.parallel_efficiency", efficiency, "ratio"},
        {"fault.cpu_utilization", cpu_utilization, "ratio"},
        {"campaign.overhead_s", campaign_s - l.bare_sim_s, "s"},
        {"campaign.journal_bytes", static_cast<double>(k.journal_bytes), "count"},
        {"campaign.journal_load_s", l.journal_load_s, "s"},
        {"campaign.resume_s", l.resume_s, "s"},
        {"campaign.worker_restarts", static_cast<double>(restarts), "count"},
        {"campaign.worker_peak_rss_mb", peak_rss_mib(RUSAGE_CHILDREN), "MiB"},
        {"telemetry.metrics_bytes",
         sum_runs(traced.back(),
                  [](const CampaignRun& c) {
                    return static_cast<double>(c.metrics_bytes);
                  }),
         "count"},
        {"failed_group_ratio",
         static_cast<double>(grader.failed()) /
             static_cast<double>(std::max<std::size_t>(1, grader.attempted())),
         "ratio"},
        {"trace.overhead_s", grade_traced - grade_plain, "s"},
    };
  }

  const std::string host = host_json(cfg);
  std::printf("host: %s\n", host.c_str());
  if (cfg.trace) {
    const std::string path = cfg.work_dir + "/spans-" + cfg.workload_name +
                             "-seed" + std::to_string(cfg.seed) + ".json";
    tr.write(path, host);
    std::printf("spans: %s\n", path.c_str());
  }
  print_result(grader.correct(), grader.attempted(), grader.failed(), metrics);
  return 0;
}

/// Writes reference verdict digests for every campaign the workloads can
/// run, graded with the sweep engine — the other kernel from the event
/// engine that table5_full and routine_dev use — in-process.
int bless(Config cfg) {
  std::printf("# key digest simulated_faults overall_coverage_percent\n"
              "# Written by `perfbench --bless`: sweep engine, in-process.\n");
  auto emit = [](const Campaign& c) {
    campaign::CampaignOptions o;
    o.sim = c.options.sim;
    o.sim.engine = fault::Engine::kSweep;
    const campaign::CampaignResult r =
        campaign::run_campaign(*c.netlist, *c.faults, c.env, c.fingerprint, o);
    std::size_t simulated = 0;
    for (std::uint8_t s : r.result.simulated) simulated += s;
    const double pct =
        c.plasma ? core::make_coverage_report(*c.plasma, *c.faults, r.result)
                       .overall.percent()
                 : fault::overall_coverage(*c.faults, r.result).percent();
    std::printf("%s %016llx %zu %s\n", c.key.c_str(),
                (unsigned long long)verdict_digest(r.result), simulated,
                percent2(pct).c_str());
    std::fflush(stdout);
  };
  Tracer off(false);
  cfg.workload = Workload::kTable5Full;
  emit(set_up(cfg, off)->campaigns.front());
  cfg.workload = Workload::kRoutineDev;
  for (std::uint64_t seed = 0; seed < kSampleSeeds; ++seed) {
    cfg.seed = seed;
    const auto s = set_up(cfg, off);
    for (const Campaign& c : s->campaigns) {
      if (seed == 0 || c.plasma) emit(c);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  std::string reference, workload;
  bool do_bless = false;
  bool have_seed = false, have_seconds = false, have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::runtime_error(a + " requires a value");
        return argv[++i];
      };
      if (a == "--workload") {
        workload = value();
      } else if (a == "--seed") {
        cfg.seed = std::stoull(value());
        have_seed = true;
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(value());
        have_seconds = true;
      } else if (a == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") throw std::runtime_error("--trace wants 0 or 1");
        cfg.trace = v == "1";
        have_trace = true;
      } else if (a == "--reference") {
        reference = value();
      } else if (a == "--work-dir") {
        cfg.work_dir = value();
      } else if (a == "--bless") {
        do_bless = true;
      } else {
        throw std::runtime_error("unknown argument " + a);
      }
    }
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
      throw std::runtime_error("refusing a " PERFBENCH_BUILD_TYPE
                               " build: fault simulation runs ~10x slower "
                               "unoptimized; rebuild with "
                               "-DCMAKE_BUILD_TYPE=Release");
    }
    // Pin glibc's mmap threshold at its start-up default. Left dynamic, it
    // rises after the first large free, so later reps allocate the good
    // trace and verdict arrays on fragmenting heaps and the peak RSS of a
    // run depends on how many reps it made. Pinned, every rep allocates
    // like the first grade of a fresh `sbst grade` process.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    cfg.workers = nproc();
    if (cfg.work_dir.empty()) cfg.work_dir = ".";
    fs::create_directories(cfg.work_dir);
    if (do_bless) return bless(cfg);
    if (workload.empty() || !have_seed || !have_seconds || !have_trace ||
        reference.empty()) {
      throw std::runtime_error(
          "usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
          "--reference FILE [--work-dir DIR] | --bless");
    }
    cfg.workload = parse_workload(workload);
    cfg.workload_name = workload;
    return run_benchmark(cfg, reference);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
