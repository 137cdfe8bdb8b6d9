// Streaming the good run to the workers: while the calling thread (or
// the --isolate supervisor) records, the workers start. Groups of either
// engine run against the recording while it is being written: threaded
// event groups park at its watermark and resume later, sweep lanes and
// every group in an isolated worker process sleep on it and resume in
// place, and records finished during the recording are held until it
// completes. None of that may show in a result. A pacing environment
// slows the recorder so that groups catch up with the watermark, and the
// suite checks that every outcome equals the one of a run that recorded
// first: records and compacted journals at 1, 2 and 4 threads and 2 and 4
// isolated workers, a drain or a run deadline landing mid-recording under
// either engine and either executor, a worker death mid-recording, a
// recording longer than the hang deadline, group timeouts that count from
// the recording's end, and planes crossing the
// memory cap mid-stream, which must leave every group on the event
// kernel, --isolate included.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "campaign/campaign.h"
#include "campaign/journal.h"
#include "core/classify.h"
#include "core/program.h"
#include "fault/good_trace.h"
#include "netlist/fault.h"
#include "plasma/cpu.h"
#include "plasma/testbench.h"
#include "temp_path.h"

namespace sbst::fault {
namespace {

using Clock = std::chrono::steady_clock;

/// Paces the wrapped environment: every cycle sleeps `pace`, cycle
/// `stall_at` sleeps `stall` instead, and cycle `drain_at` sets `drain`.
struct Pacing {
  std::chrono::microseconds pace{20};
  std::uint64_t stall_at = ~std::uint64_t{0};
  std::chrono::milliseconds stall{0};
  std::uint64_t drain_at = ~std::uint64_t{0};
  std::atomic<bool>* drain = nullptr;
};

class PacedEnv : public Environment {
 public:
  PacedEnv(std::unique_ptr<Environment> inner, const Pacing& p)
      : inner_(std::move(inner)), p_(p) {}
  void drive(sim::LogicSim& sim, std::uint64_t cycle) override {
    if (cycle == p_.stall_at) {
      std::this_thread::sleep_for(p_.stall);
    } else {
      std::this_thread::sleep_for(p_.pace);
    }
    if (cycle == p_.drain_at) p_.drain->store(true);
    inner_->drive(sim, cycle);
  }
  bool observe(const sim::LogicSim& sim, std::uint64_t cycle) override {
    return inner_->observe(sim, cycle);
  }

 private:
  std::unique_ptr<Environment> inner_;
  Pacing p_;
};

EnvFactory paced(EnvFactory inner, const Pacing& p) {
  return [inner, p] { return std::make_unique<PacedEnv>(inner(), p); };
}

using testfs::temp_path;

/// The journal's winning records, compacted: one per group, in group
/// order, every record field included.
std::string compacted(const std::string& journal) {
  const std::string out = journal + ".compact";
  campaign::merge_journals({journal}, out, util::Durability::kNone);
  std::ifstream in(out, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  std::remove(out.c_str());
  return ss.str();
}

void expect_identical(const FaultSimResult& a, const FaultSimResult& b) {
  EXPECT_EQ(a.detected, b.detected);
  EXPECT_EQ(a.simulated, b.simulated);
  EXPECT_EQ(a.detect_cycle, b.detect_cycle);
  EXPECT_EQ(a.timed_out, b.timed_out);
  EXPECT_EQ(a.good_cycles, b.good_cycles);
  EXPECT_EQ(a.gates_evaluated, b.gates_evaluated);
  EXPECT_EQ(a.sim_cycles, b.sim_cycles);
  EXPECT_EQ(a.groups_done, b.groups_done);
  EXPECT_EQ(a.trace_bytes, b.trace_bytes);
}

/// Plasma Phase A+B over one shard of the full collapsed fault list:
/// 32 groups of adjacent faults, so that some groups drop every fault
/// within the first blocks (held while recording) and some run to the
/// end (parked at the watermark).
struct Plasma {
  plasma::PlasmaCpu cpu = plasma::build_plasma_cpu();
  core::SelfTestProgram ab = core::build_phase_ab(core::classify_plasma(cpu));
  nl::FaultList faults = nl::enumerate_faults(cpu.netlist);
  EnvFactory env() const { return plasma::make_cpu_env_factory(cpu, ab.image); }
  std::uint64_t halt() const {
    return record_good_trace(cpu.netlist, env(), 200'000, 0)->cycles();
  }
};

const Plasma& plasma_fixture() {
  static const Plasma* fx = new Plasma();
  return *fx;
}

campaign::CampaignOptions options(unsigned threads,
                                  const std::string& journal) {
  campaign::CampaignOptions o;
  o.sim.max_cycles = 200'000;
  o.sim.shard_count = 20;
  o.sim.threads = threads;
  o.journal = journal;
  o.durability = util::Durability::kNone;
  std::remove(journal.c_str());
  return o;
}

constexpr std::uint64_t kFp = 0x57e4a11e0001ull;

TEST(GoodTraceStream, RecordsAndJournalMatchACompleteRecording) {
  const Plasma& fx = plasma_fixture();
  const std::string ref_path = temp_path("stream_ref.sbstj");
  const campaign::CampaignResult ref = campaign::run_campaign(
      fx.cpu.netlist, fx.faults, fx.env(), kFp, options(1, ref_path));
  const std::string want = compacted(ref_path);
  ASSERT_EQ(ref.groups_done, ref.shard_groups_total);

  for (unsigned threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(threads);
    const std::string path = temp_path("stream.sbstj");
    const campaign::CampaignResult got =
        campaign::run_campaign(fx.cpu.netlist, fx.faults,
                               paced(fx.env(), Pacing{}), kFp,
                               options(threads, path));
    expect_identical(ref.result, got.result);
    EXPECT_FALSE(got.result.trace_fallback);
    EXPECT_EQ(compacted(path), want);
    // Paced, the recorder is the slowest party: groups park.
    if (threads > 1) {
      EXPECT_GT(got.result.parks, 0u);
    }
    EXPECT_FALSE(got.interrupted);
  }
}

TEST(GoodTraceStream, DrainDuringRecordingSimulatesNothing) {
  const Plasma& fx = plasma_fixture();
  const std::uint64_t halt = fx.halt();
  ASSERT_GT(halt, 2048u) << "needs a drain inside and after a window";
  // Inside the first 1024-cycle window (the recorder sees it at the next
  // window), and after the last window starts (the recording completes,
  // then finds the drain).
  for (const Engine engine : {Engine::kEvent, Engine::kSweep}) {
    for (std::uint64_t at : {std::uint64_t{300}, halt - 2}) {
      for (unsigned threads : {1u, 2u, 4u}) {
        SCOPED_TRACE(std::string(engine == Engine::kSweep ? "sweep" : "event") +
                     " / " + std::to_string(at) + " / " +
                     std::to_string(threads));
        std::atomic<bool> drain{false};
        Pacing p;
        p.drain_at = at;
        p.drain = &drain;
        const std::string path = temp_path("stream_drain.sbstj");
        campaign::CampaignOptions o = options(threads, path);
        o.sim.engine = engine;
        o.sim.cancel = &drain;
        const campaign::CampaignResult got = campaign::run_campaign(
            fx.cpu.netlist, fx.faults, paced(fx.env(), p), kFp, o);
        EXPECT_TRUE(got.interrupted);
        EXPECT_EQ(got.groups_done, 0u);
        for (std::uint8_t s : got.result.simulated) ASSERT_EQ(s, 0);
        const auto load = campaign::load_journal_raw(path);
        ASSERT_TRUE(load.has_value());
        EXPECT_TRUE(load->records.empty());
      }
    }
  }
}

TEST(GoodTraceStream, RunDeadlineDuringRecordingExpiresEveryGroup) {
  const Plasma& fx = plasma_fixture();
  const std::uint64_t halt = fx.halt();
  // The deadline passes while the recorder stalls, inside the first
  // window (a cut) and inside the last one (a complete recording, found
  // past the deadline when it ends).
  for (const Engine engine : {Engine::kEvent, Engine::kSweep}) {
    for (std::uint64_t at : {std::uint64_t{100}, halt - 2}) {
      for (unsigned threads : {1u, 2u, 4u}) {
        SCOPED_TRACE(std::string(engine == Engine::kSweep ? "sweep" : "event") +
                     " / " + std::to_string(at) + " / " +
                     std::to_string(threads));
        Pacing p;
        p.pace = std::chrono::microseconds(0);  // reach `at` well in budget
        p.stall_at = at;
        p.stall = std::chrono::milliseconds(300);
        const std::string path = temp_path("stream_budget.sbstj");
        campaign::CampaignOptions o = options(threads, path);
        o.sim.engine = engine;
        o.sim.time_budget_ms = 100;
        const auto start = Clock::now();
        const campaign::CampaignResult got = campaign::run_campaign(
            fx.cpu.netlist, fx.faults, paced(fx.env(), p), kFp, o);
        ASSERT_LT(Clock::now() - start, std::chrono::seconds(30));
        EXPECT_EQ(got.groups_done, got.shard_groups_total);
        std::size_t simulated = 0;
        for (std::size_t i = 0; i < got.result.simulated.size(); ++i) {
          if (!got.result.simulated[i]) continue;
          ++simulated;
          EXPECT_EQ(got.result.timed_out[i], 1) << i;
          EXPECT_EQ(got.result.detected[i], 0) << i;
        }
        EXPECT_EQ(simulated, 32u * 63);
        EXPECT_EQ(got.result.gates_evaluated, 0u);
      }
    }
  }
}

TEST(GoodTraceStream, MemoryCapCrossedMidStreamStaysOnTheEventKernel) {
  const Plasma& fx = plasma_fixture();
  // About 1 KiB of planes per cycle: a 1 MiB cap is crossed a thousand
  // cycles into a four-thousand-cycle run, after groups have parked and
  // finished; the later blocks are rebuilt from their rows by every
  // group that reaches them, parked groups included.
  const std::string ref_path = temp_path("stream_cap_ref.sbstj");
  const campaign::CampaignResult ref = campaign::run_campaign(
      fx.cpu.netlist, fx.faults, fx.env(), kFp, options(1, ref_path));
  const std::string want = compacted(ref_path);
  ASSERT_GT(ref.result.trace_bytes, std::size_t{1} << 20);

  for (unsigned threads : {1u, 2u, 4u, 0u}) {
    const bool isolate = threads == 0;
    SCOPED_TRACE(isolate ? std::string("isolate") : std::to_string(threads));
    const std::string path = temp_path("stream_cap.sbstj");
    campaign::CampaignOptions o = options(threads, path);
    o.sim.trace_mem_mb = 1;
    o.isolate = isolate;
    o.iso.workers = 2;
    const campaign::CampaignResult got = campaign::run_campaign(
        fx.cpu.netlist, fx.faults, paced(fx.env(), Pacing{}), kFp, o);
    if (threads > 1) {
      EXPECT_GT(got.result.parks, 0u);
    }
    EXPECT_FALSE(got.result.trace_fallback);
    EXPECT_GT(got.result.trace_bytes, 0u);
    EXPECT_LE(got.result.trace_bytes, std::size_t{1} << 20);
    FaultSimResult same_bytes = got.result;
    same_bytes.trace_bytes = ref.result.trace_bytes;
    expect_identical(ref.result, same_bytes);
    EXPECT_EQ(compacted(path), want);
    const auto load = campaign::load_journal_raw(path);
    ASSERT_TRUE(load.has_value());
    EXPECT_EQ(load->records.size(), 32u);
    for (const GroupRecord& rec : load->records) {
      EXPECT_EQ(rec.engine_used, GroupEngine::kEvent) << rec.group;
    }
  }
}

const char* engine_name(Engine engine) {
  return engine == Engine::kSweep ? "sweep" : "event";
}

campaign::CampaignOptions isolated(unsigned workers, Engine engine,
                                   const std::string& journal) {
  campaign::CampaignOptions o = options(1, journal);
  o.sim.engine = engine;
  o.isolate = true;
  o.iso.workers = workers;
  return o;
}

// Paced, the recorder is the slowest party: sweep lanes on threads and
// every slice in an isolated worker catch up with the watermark and
// sleep on it.
TEST(GoodTraceStream, WaitingSlicesMatchTheThreadedRecordsAndJournal) {
  const Plasma& fx = plasma_fixture();
  for (const Engine engine : {Engine::kEvent, Engine::kSweep}) {
    const std::string ref_path = temp_path("stream_iso_ref.sbstj");
    campaign::CampaignOptions ref_opt = options(4, ref_path);
    ref_opt.sim.engine = engine;
    const campaign::CampaignResult ref = campaign::run_campaign(
        fx.cpu.netlist, fx.faults, fx.env(), kFp, ref_opt);
    const std::string want = compacted(ref_path);
    ASSERT_EQ(ref.groups_done, ref.shard_groups_total);
    // 0 = four threads: the threaded sweep waits at the watermark too.
    for (unsigned workers : {0u, 2u, 4u}) {
      if (workers == 0 && engine == Engine::kEvent) continue;  // above
      SCOPED_TRACE(std::string(engine_name(engine)) + " / " +
                   std::to_string(workers));
      const std::string path = temp_path("stream_iso.sbstj");
      campaign::CampaignOptions o = isolated(workers, engine, path);
      if (workers == 0) {
        o.isolate = false;
        o.sim.threads = 4;
      }
      const campaign::CampaignResult got = campaign::run_campaign(
          fx.cpu.netlist, fx.faults, paced(fx.env(), Pacing{}), kFp, o);
      expect_identical(ref.result, got.result);
      EXPECT_EQ(compacted(path), want);
      EXPECT_EQ(got.worker_restarts, 0u);
      EXPECT_EQ(got.result.parks, 0u);  // nothing parks: slices wait
      EXPECT_FALSE(got.interrupted);
    }
  }
}

TEST(GoodTraceStream, IsolatedDrainDuringRecordingSimulatesNothing) {
  const Plasma& fx = plasma_fixture();
  const std::uint64_t halt = fx.halt();
  for (const Engine engine : {Engine::kEvent, Engine::kSweep}) {
    for (std::uint64_t at : {std::uint64_t{300}, halt - 2}) {
      for (unsigned workers : {2u, 4u}) {
        SCOPED_TRACE(std::string(engine_name(engine)) + " / " +
                     std::to_string(at) + " / " + std::to_string(workers));
        std::atomic<bool> drain{false};
        Pacing p;
        p.drain_at = at;
        p.drain = &drain;
        const std::string path = temp_path("stream_iso_drain.sbstj");
        campaign::CampaignOptions o = isolated(workers, engine, path);
        o.sim.cancel = &drain;
        const campaign::CampaignResult got = campaign::run_campaign(
            fx.cpu.netlist, fx.faults, paced(fx.env(), p), kFp, o);
        EXPECT_TRUE(got.interrupted);
        EXPECT_EQ(got.groups_done, 0u);
        EXPECT_EQ(got.worker_restarts, 0u);
        for (std::uint8_t s : got.result.simulated) ASSERT_EQ(s, 0);
        const auto load = campaign::load_journal_raw(path);
        ASSERT_TRUE(load.has_value());
        EXPECT_TRUE(load->records.empty());
      }
    }
  }
}

TEST(GoodTraceStream, IsolatedRunDeadlineDuringRecordingExpiresEveryGroup) {
  const Plasma& fx = plasma_fixture();
  const std::uint64_t halt = fx.halt();
  for (const Engine engine : {Engine::kEvent, Engine::kSweep}) {
    for (std::uint64_t at : {std::uint64_t{100}, halt - 2}) {
      for (unsigned workers : {2u, 4u}) {
        SCOPED_TRACE(std::string(engine_name(engine)) + " / " +
                     std::to_string(at) + " / " + std::to_string(workers));
        Pacing p;
        p.pace = std::chrono::microseconds(0);
        p.stall_at = at;
        p.stall = std::chrono::milliseconds(150);
        const std::string path = temp_path("stream_iso_budget.sbstj");
        campaign::CampaignOptions o = isolated(workers, engine, path);
        o.sim.time_budget_ms = 60;
        const auto start = Clock::now();
        const campaign::CampaignResult got = campaign::run_campaign(
            fx.cpu.netlist, fx.faults, paced(fx.env(), p), kFp, o);
        ASSERT_LT(Clock::now() - start, std::chrono::seconds(30));
        EXPECT_EQ(got.groups_done, got.shard_groups_total);
        EXPECT_EQ(got.worker_restarts, 0u);
        std::size_t simulated = 0;
        for (std::size_t i = 0; i < got.result.simulated.size(); ++i) {
          if (!got.result.simulated[i]) continue;
          ++simulated;
          EXPECT_EQ(got.result.timed_out[i], 1) << i;
          EXPECT_EQ(got.result.detected[i], 0) << i;
        }
        EXPECT_EQ(simulated, 32u * 63);
        EXPECT_EQ(got.result.gates_evaluated, 0u);
      }
    }
  }
}

TEST(GoodTraceStream, IsolatedWorkerDeathMidRecordingIsRetried) {
  const Plasma& fx = plasma_fixture();
  // The first attempt of group 20 (this shard's second) aborts its
  // worker as soon as it takes the request, on the first published block
  // of a recording paced to last well over the fork and the retry. Under
  // the sweep the worker holds seven more groups, each charged an attempt
  // and retried alone.
  for (const Engine engine : {Engine::kEvent, Engine::kSweep}) {
    const std::string ref_path = temp_path("stream_iso_crash_ref.sbstj");
    campaign::CampaignOptions ref_opt = options(1, ref_path);
    ref_opt.sim.engine = engine;
    const campaign::CampaignResult ref = campaign::run_campaign(
        fx.cpu.netlist, fx.faults, fx.env(), kFp, ref_opt);
    const std::string want = compacted(ref_path);
    for (unsigned workers : {2u, 4u}) {
      SCOPED_TRACE(std::string(engine_name(engine)) + " / " +
                   std::to_string(workers));
      const std::string path = temp_path("stream_iso_crash.sbstj");
      campaign::CampaignOptions o = isolated(workers, engine, path);
      o.iso.crash_group = 20;
      o.iso.crash_attempts = 1;
      const campaign::CampaignResult got = campaign::run_campaign(
          fx.cpu.netlist, fx.faults, paced(fx.env(), Pacing{}), kFp, o);
      EXPECT_EQ(got.worker_restarts, 1u);
      EXPECT_TRUE(got.quarantined_groups.empty());
      expect_identical(ref.result, got.result);
      EXPECT_EQ(compacted(path), want);
    }
  }
}

/// Eight groups over 1,024 cycles, so that the watchdog checks each
/// group once, on cycle 1023.
campaign::CampaignOptions short_run(Engine engine, const std::string& journal) {
  campaign::CampaignOptions o = options(1, journal);
  o.sim.engine = engine;
  o.sim.shard_count = 80;
  o.sim.max_cycles = 1024;
  return o;
}

TEST(GoodTraceStream, IsolatedWorkersOutwaitARecordingLongerThanTheHangKill) {
  const Plasma& fx = plasma_fixture();
  // A 200 ms group timeout gives a busy worker 1.4 s before the
  // supervisor kills it as hung. The recorder stalls for longer than that
  // just after it publishes its first block, while the first groups sleep
  // at that watermark; the supervisor's passes after the stall, one per
  // block, find them still busy. No worker may die for it. (Groups may
  // time out here under a sanitizer, so verdicts are checked below.)
  Pacing p;
  p.pace = std::chrono::microseconds(0);
  p.stall_at = GoodTrace::kBlockCycles + 6;
  p.stall = std::chrono::milliseconds(1500);
  for (const Engine engine : {Engine::kEvent, Engine::kSweep}) {
    SCOPED_TRACE(engine_name(engine));
    const std::string path = temp_path("stream_iso_hang.sbstj");
    campaign::CampaignOptions o = short_run(engine, path);
    o.sim.group_timeout_ms = 200;
    o.isolate = true;
    o.iso.workers = 2;
    const campaign::CampaignResult got = campaign::run_campaign(
        fx.cpu.netlist, fx.faults, paced(fx.env(), p), kFp, o);
    EXPECT_EQ(got.worker_restarts, 0u);
    EXPECT_TRUE(got.quarantined_groups.empty());
    EXPECT_EQ(got.groups_done, got.shard_groups_total);
  }
}

TEST(GoodTraceStream, IsolatedGroupTimeoutCountsFromTheEndOfTheRecording) {
  const Plasma& fx = plasma_fixture();
  // The recorder stalls for twice the 200 ms group timeout 40 cycles
  // before its last block ends, while the workers sleep at that block's
  // watermark with their groups in hand. Each group's timeout counts from
  // the end of the recording, in the worker too, so they all finish: a
  // bound counted from the claim would stop every group still running at
  // the watchdog's check on cycle 1023. A group claimed after the
  // recording has 1,024 cycles to run within its own 200 ms, which even a
  // sanitizer build does.
  Pacing p;
  p.pace = std::chrono::microseconds(0);
  p.stall_at = 1024 - 40;
  p.stall = std::chrono::milliseconds(400);
  for (const Engine engine : {Engine::kEvent, Engine::kSweep}) {
    SCOPED_TRACE(engine_name(engine));
    const std::string ref_path = temp_path("stream_iso_bound_ref.sbstj");
    const campaign::CampaignResult ref = campaign::run_campaign(
        fx.cpu.netlist, fx.faults, fx.env(), kFp, short_run(engine, ref_path));
    const std::string want = compacted(ref_path);
    ASSERT_EQ(ref.shard_groups_total, 8u);

    const std::string path = temp_path("stream_iso_bound.sbstj");
    campaign::CampaignOptions o = short_run(engine, path);
    o.sim.group_timeout_ms = 200;
    o.isolate = true;
    o.iso.workers = 2;
    const campaign::CampaignResult got = campaign::run_campaign(
        fx.cpu.netlist, fx.faults, paced(fx.env(), p), kFp, o);
    EXPECT_EQ(got.worker_restarts, 0u);
    expect_identical(ref.result, got.result);
    EXPECT_EQ(compacted(path), want);
  }
}

// A 1 MiB cap holds about a quarter of the planes: each isolated worker
// caches the first blocks, built once by its first reader, and builds
// every later one in scratch.
TEST(GoodTraceStream, IsolatedMemoryCapCrossedMidStreamMatches) {
  const Plasma& fx = plasma_fixture();
  const std::string ref_path = temp_path("stream_iso_cap_ref.sbstj");
  const campaign::CampaignResult ref = campaign::run_campaign(
      fx.cpu.netlist, fx.faults, fx.env(), kFp, options(4, ref_path));
  const std::string want = compacted(ref_path);
  ASSERT_GT(ref.result.trace_bytes, std::size_t{1} << 20);
  for (unsigned workers : {2u, 4u}) {
    SCOPED_TRACE(workers);
    const std::string path = temp_path("stream_iso_cap.sbstj");
    campaign::CampaignOptions o = isolated(workers, Engine::kEvent, path);
    o.sim.trace_mem_mb = 1;
    const campaign::CampaignResult got = campaign::run_campaign(
        fx.cpu.netlist, fx.faults, paced(fx.env(), Pacing{}), kFp, o);
    EXPECT_GT(got.result.trace_bytes, 0u);
    EXPECT_LE(got.result.trace_bytes, std::size_t{1} << 20);
    FaultSimResult same_bytes = got.result;
    same_bytes.trace_bytes = ref.result.trace_bytes;
    expect_identical(ref.result, same_bytes);
    EXPECT_EQ(compacted(path), want);
  }
}

}  // namespace
}  // namespace sbst::fault
