// Streaming the good run to the workers: while the calling thread
// records, the other workers start. Under the event engine groups run
// against the recording while it is being written, park at its watermark
// and resume later, and records finished during the recording are held
// until it completes with planes; sweep workers wait for it to complete.
// None of that may show in a result. A pacing environment slows the
// recorder so that groups catch up with the watermark and park, and the
// suite checks that every outcome equals the one of a run that recorded
// first: records and compacted journals at 1, 2 and 4 threads, a drain or
// a run deadline landing mid-recording under either engine, and planes
// crossing the memory cap mid-stream.
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

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + name;
}

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

TEST(GoodTraceStream, MemoryCapCrossedMidStreamReplaysOnTheSweep) {
  const Plasma& fx = plasma_fixture();
  // About 1 KiB of planes per cycle: a 1 MiB cap is crossed a thousand
  // cycles into a four-thousand-cycle run, after groups have parked and
  // finished.
  const std::string ref_path = temp_path("stream_cap_ref.sbstj");
  campaign::CampaignOptions ref_opt = options(4, ref_path);
  ref_opt.sim.engine = Engine::kSweep;
  const campaign::CampaignResult ref = campaign::run_campaign(
      fx.cpu.netlist, fx.faults, fx.env(), kFp, ref_opt);

  for (unsigned threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(threads);
    const std::string path = temp_path("stream_cap.sbstj");
    campaign::CampaignOptions o = options(threads, path);
    o.sim.trace_mem_mb = 1;
    const campaign::CampaignResult got = campaign::run_campaign(
        fx.cpu.netlist, fx.faults, paced(fx.env(), Pacing{}), kFp, o);
    EXPECT_TRUE(got.result.trace_fallback);
    if (threads > 1) {
      EXPECT_GT(got.result.parks, 0u);
    }
    expect_identical(ref.result, got.result);
    EXPECT_EQ(compacted(path), compacted(ref_path));
  }
}

}  // namespace
}  // namespace sbst::fault
