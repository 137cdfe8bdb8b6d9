// Chaos tests: a campaign whose journal writes fail — short writes,
// ENOSPC, failed flushes, a simulated SIGKILL mid-write — must lose at
// most the record being written, and a resumed campaign must be
// bit-identical to one that never failed. The failure point sweeps a
// seeded range of byte offsets so every structural position in the file
// (mid-header, mid-frame, record boundaries) gets hit over the sweep;
// CI widens the sweep via SBST_CHAOS_SEEDS.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_map>

#include "campaign/campaign.h"
#include "campaign/journal.h"
#include "netlist/fault.h"
#include "util/atomic_file.h"
#include "util/faulty_io.h"
#include "temp_path.h"

namespace sbst::campaign {
namespace {

using testfs::temp_path;

/// Deterministic no-op environment: inputs never change, so the result
/// is a pure function of the netlist and cycle cap — cheap and exactly
/// reproducible, which is what bit-identity checks need.
class ConstEnv final : public fault::Environment {
 public:
  void drive(sim::LogicSim&, std::uint64_t) override {}
  bool observe(const sim::LogicSim&, std::uint64_t) override { return true; }
};

nl::Netlist make_small_netlist() {
  nl::Netlist n;
  const auto& in = n.add_input("in", 8);
  std::vector<nl::GateId> nets(in.bits.begin(), in.bits.end());
  std::vector<nl::GateId> outs;
  for (std::size_t i = 0; i < 40; ++i) {
    const nl::GateId g =
        n.add_gate(i % 2 ? nl::GateKind::kAnd2 : nl::GateKind::kXor2,
                   nets[(i * 5 + 1) % nets.size()],
                   nets[(i * 11 + 3) % nets.size()]);
    nets.push_back(g);
    if (i % 2 == 0) outs.push_back(g);
  }
  n.add_output("o", outs);
  return n;
}

constexpr std::uint64_t kFp = 0xc4a05c4a05ull;

std::size_t file_size(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<std::size_t>(in.tellg()) : 0;
}

int sweep_seeds() {
  const char* env = std::getenv("SBST_CHAOS_SEEDS");
  if (env != nullptr) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 12;
}

TEST(Chaos, EveryJournalWriteFailurePointLosesAtMostTheTornTail) {
  const nl::Netlist n = make_small_netlist();
  const nl::FaultList faults = nl::enumerate_faults(n);
  const auto env = []() { return std::make_unique<ConstEnv>(); };

  CampaignOptions base;
  base.sim.threads = 1;
  base.sim.max_cycles = 256;

  // Reference: one clean campaign, plus the intact journal's size — the
  // sweep places failures across [0, size + margin) so offsets land in
  // the header, inside frames, on frame boundaries and past the end.
  const std::string ref_path = temp_path("chaos_ref.sbstj");
  std::remove(ref_path.c_str());
  CampaignOptions ref_opt = base;
  ref_opt.journal = ref_path;
  const CampaignResult reference =
      run_campaign(n, faults, env, kFp, ref_opt);
  ASSERT_EQ(reference.groups_done, reference.groups_total);
  const std::uint64_t intact_bytes = file_size(ref_path);
  ASSERT_GT(intact_bytes, 0u);

  const JournalMeta meta{kFp, reference.groups_total, faults.size()};
  const std::string path = temp_path("chaos_run.sbstj");

  for (int seed = 0; seed < sweep_seeds(); ++seed) {
    SCOPED_TRACE(seed);
    const util::IoFaultPlan plan =
        util::io_plan_from_seed(static_cast<std::uint64_t>(seed),
                                intact_bytes + 64);
    std::remove(path.c_str());

    CampaignOptions opt = base;
    opt.journal = path;
    bool failed = false;
    util::arm_io_faults(plan);
    try {
      run_campaign(n, faults, env, kFp, opt);
    } catch (const util::IoKilled&) {
      failed = true;  // simulated SIGKILL mid-write
    } catch (const std::runtime_error&) {
      failed = true;  // ENOSPC / short write / failed flush surfaced
    }
    const bool tripped = util::io_fault_tripped();
    util::disarm_io_faults();
    EXPECT_EQ(failed, tripped)
        << "an injected failure must surface as an error, never silently";

    // Whatever hit the disk must parse as an intact prefix: zero or
    // more complete records plus at most one torn tail that load drops.
    std::size_t salvaged = 0;
    if (std::optional<JournalLoad> loaded = load_journal(path, meta)) {
      salvaged = loaded->records.size();
      EXPECT_LE(salvaged, reference.groups_total);
      for (const fault::GroupRecord& rec : loaded->records) {
        EXPECT_LT(rec.group, reference.groups_total);
        EXPECT_LE(rec.count, 63u);
      }
    }

    // Resume with healthy I/O: the journal heals and the final result
    // is bit-identical to the never-failed run.
    CampaignOptions resume = base;
    resume.journal = path;
    const CampaignResult full = run_campaign(n, faults, env, kFp, resume);
    EXPECT_EQ(full.groups_done, full.groups_total);
    EXPECT_EQ(full.seeded_groups, salvaged)
        << "every salvaged record must seed, everything else re-simulates";
    EXPECT_EQ(full.result.detected, reference.result.detected);
    EXPECT_EQ(full.result.simulated, reference.result.simulated);
    EXPECT_EQ(full.result.detect_cycle, reference.result.detect_cycle);
    EXPECT_EQ(full.result.timed_out, reference.result.timed_out);
    EXPECT_EQ(full.result.quarantined, reference.result.quarantined);
    EXPECT_EQ(full.result.good_cycles, reference.result.good_cycles);

    // And the healed journal now loads clean, with no torn tail left.
    const auto healed = load_journal(path, meta);
    ASSERT_TRUE(healed);
    EXPECT_FALSE(healed->truncated);
    EXPECT_EQ(healed->records.size(), reference.groups_total);
  }
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void spit(const std::string& path, const std::string& data) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << data;
}

TEST(Chaos, MidFileJournalDamageLosesOnlyTheDamagedRecords) {
  // The write-failure sweep above models crashes *while writing*; this
  // sweep models what storage does to a finished journal *between*
  // runs — a flipped bit, a zeroed page, an interior span torn out. The
  // salvaging loader must keep every undamaged record, `sbst journal
  // repair`'s engine must produce a clean file, and a resume must be
  // bit-identical to a run that never saw damage.
  const nl::Netlist n = make_small_netlist();
  const nl::FaultList faults = nl::enumerate_faults(n);
  const auto env = []() { return std::make_unique<ConstEnv>(); };

  CampaignOptions base;
  base.sim.threads = 1;
  base.sim.max_cycles = 256;

  const std::string ref_path = temp_path("chaos_dmg_ref.sbstj");
  std::remove(ref_path.c_str());
  CampaignOptions ref_opt = base;
  ref_opt.journal = ref_path;
  const CampaignResult reference = run_campaign(n, faults, env, kFp, ref_opt);
  ASSERT_EQ(reference.groups_done, reference.groups_total);
  const std::string intact = slurp(ref_path);
  ASSERT_GT(intact.size(), 36u);

  const JournalMeta meta{kFp, reference.groups_total, faults.size()};
  const auto ref_loaded = load_journal(ref_path, meta);
  ASSERT_TRUE(ref_loaded);
  std::unordered_map<std::uint64_t, fault::GroupRecord> originals;
  for (const fault::GroupRecord& rec : ref_loaded->records) {
    originals[rec.group] = rec;
  }

  const std::string path = temp_path("chaos_dmg_run.sbstj");
  for (int seed = 0; seed < sweep_seeds(); ++seed) {
    SCOPED_TRACE(seed);
    spit(path, intact);
    const util::DamagePlan plan = util::damage_plan_from_seed(
        static_cast<std::uint64_t>(seed) + 31337, 36, intact.size());
    util::apply_file_damage(path, plan);

    // Salvage: the header survives (damage starts past byte 36), every
    // undamaged record is recovered bit-exact, and one damage event
    // destroys at most two adjacent frames.
    auto loaded = load_journal(path, meta);
    ASSERT_TRUE(loaded);
    const std::size_t salvaged = loaded->records.size();
    EXPECT_GE(salvaged + 2, reference.groups_total);
    for (const fault::GroupRecord& rec : loaded->records) {
      const auto it = originals.find(rec.group);
      ASSERT_NE(it, originals.end());
      EXPECT_EQ(rec.detected_mask, it->second.detected_mask);
      EXPECT_EQ(rec.detect_cycle, it->second.detect_cycle);
      EXPECT_EQ(rec.cycles, it->second.cycles);
    }

    // Odd seeds run the offline repair first (`sbst journal repair`: a
    // merge of the one journal); even seeds resume straight off the
    // damaged file — both paths must converge to the same bit-identical
    // result.
    if (seed % 2 == 1) {
      const std::size_t winners = winning_records(loaded->records).size();
      const MergeStats r = merge_journals({path}, path);
      EXPECT_EQ(r.inputs[0].damaged, loaded->damaged());
      EXPECT_EQ(r.records_in, salvaged);
      EXPECT_EQ(r.records_out, winners);
      const auto repaired = load_journal(path, meta);
      ASSERT_TRUE(repaired);
      EXPECT_FALSE(repaired->damaged());
      EXPECT_EQ(repaired->records.size(), winners);
    }

    CampaignOptions resume = base;
    resume.journal = path;
    const CampaignResult full = run_campaign(n, faults, env, kFp, resume);
    EXPECT_EQ(full.groups_done, full.groups_total);
    EXPECT_EQ(full.seeded_groups, salvaged)
        << "exactly the salvaged groups seed; the damaged ones re-simulate";
    EXPECT_EQ(full.result.detected, reference.result.detected);
    EXPECT_EQ(full.result.simulated, reference.result.simulated);
    EXPECT_EQ(full.result.detect_cycle, reference.result.detect_cycle);
    EXPECT_EQ(full.result.timed_out, reference.result.timed_out);
    EXPECT_EQ(full.result.good_cycles, reference.result.good_cycles);

    const auto healed = load_journal(path, meta);
    ASSERT_TRUE(healed);
    EXPECT_FALSE(healed->damaged()) << "resume must heal the journal";
    EXPECT_EQ(healed->records.size(), reference.groups_total);
  }
}

TEST(Chaos, CompactionKeepsResumeBitIdenticalAcrossModes) {
  // A retry-heavy journal (dead records > 2x live) auto-compacts at
  // open; the compacted resume must stay bit-identical to the clean
  // reference at every thread count and under process isolation.
  const nl::Netlist n = make_small_netlist();
  const nl::FaultList faults = nl::enumerate_faults(n);
  const auto env = []() { return std::make_unique<ConstEnv>(); };

  CampaignOptions base;
  base.sim.threads = 1;
  base.sim.max_cycles = 256;

  const std::string ref_path = temp_path("chaos_cmp_ref.sbstj");
  std::remove(ref_path.c_str());
  CampaignOptions ref_opt = base;
  ref_opt.journal = ref_path;
  const CampaignResult reference = run_campaign(n, faults, env, kFp, ref_opt);
  ASSERT_EQ(reference.groups_done, reference.groups_total);

  const JournalMeta meta{kFp, reference.groups_total, faults.size()};
  const auto ref_loaded = load_journal(ref_path, meta);
  ASSERT_TRUE(ref_loaded);

  // Bloat: every record written four times — three dead, one winner.
  const std::string bloated = temp_path("chaos_cmp_bloat.sbstj");
  {
    JournalWriter w = JournalWriter::create(bloated, meta);
    for (const fault::GroupRecord& rec : ref_loaded->records) {
      for (int copy = 0; copy < 4; ++copy) w.add(rec);
    }
  }
  const std::size_t bloated_size = slurp(bloated).size();

  const std::string path = temp_path("chaos_cmp_run.sbstj");
  struct Mode {
    const char* name;
    unsigned threads;
    bool isolate;
  };
  for (const Mode mode : {Mode{"threads1", 1, false}, Mode{"threads2", 2, false},
                          Mode{"threads4", 4, false}, Mode{"isolate", 0, true}}) {
    SCOPED_TRACE(mode.name);
    spit(path, slurp(bloated));
    CampaignOptions opt = base;
    opt.journal = path;
    opt.sim.threads = mode.threads;
    opt.isolate = mode.isolate;
    if (mode.isolate) opt.iso.workers = 2;
    const CampaignResult res = run_campaign(n, faults, env, kFp, opt);
    EXPECT_TRUE(res.journal_compacted)
        << "3x dead records must trip the auto-compaction threshold";
    EXPECT_EQ(res.seeded_groups, reference.groups_total)
        << "compaction must not lose a single winning record";
    EXPECT_EQ(res.result.detected, reference.result.detected);
    EXPECT_EQ(res.result.simulated, reference.result.simulated);
    EXPECT_EQ(res.result.detect_cycle, reference.result.detect_cycle);
    EXPECT_EQ(res.result.timed_out, reference.result.timed_out);
    EXPECT_LT(slurp(path).size(), bloated_size);
    const auto compacted = load_journal(path, meta);
    ASSERT_TRUE(compacted);
    EXPECT_FALSE(compacted->damaged());
    EXPECT_EQ(compacted->records.size(), reference.groups_total);
  }
}

TEST(Chaos, AtomicFileWriteNeverLeavesAHalfWrittenDestination) {
  const std::string path = temp_path("chaos_atomic.bin");
  std::remove(path.c_str());
  const std::string before(200, 'A');
  util::write_file_atomic(path, before);

  for (int seed = 0; seed < sweep_seeds(); ++seed) {
    SCOPED_TRACE(seed);
    util::arm_io_faults(util::io_plan_from_seed(
        static_cast<std::uint64_t>(seed) + 7777, 260));
    bool failed = false;
    try {
      util::write_file_atomic(path, std::string(250, 'B'));
    } catch (const util::IoKilled&) {
      failed = true;
    } catch (const std::runtime_error&) {
      failed = true;
    }
    const bool tripped = util::io_fault_tripped();
    util::disarm_io_faults();
    EXPECT_EQ(failed, tripped);

    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string now = ss.str();
    if (failed) {
      EXPECT_EQ(now, before) << "a failed atomic write must not touch "
                                "the destination";
    } else {
      EXPECT_EQ(now, std::string(250, 'B'));
      util::write_file_atomic(path, before);  // restore for the next seed
    }
  }
}

}  // namespace
}  // namespace sbst::campaign
