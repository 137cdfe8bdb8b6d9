// PROOFS-style 63-faults-per-word sequential stuck-at fault simulator.
//
// Each 64-bit simulation word carries 63 faulty machines (bits 0..62) and
// the good machine (bit 63). A fault is detected when any primary-output
// bit of its machine differs from the good machine in any cycle. Because
// the primary outputs include the complete memory interface, a
// not-yet-detected machine has by definition issued the identical memory
// traffic as the good machine, so the environment (memory model) only
// needs to be simulated once per campaign, from the good machine's
// outputs — see good_trace.h and DESIGN.md §5.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "netlist/compiled.h"
#include "netlist/fault.h"
#include "sim/logicsim.h"

namespace sbst::fault {

/// Closed-loop environment around the netlist (memory model, testbench).
/// The fault engine builds one per campaign with groups to simulate, on
/// the run's own thread, and only to record the good run
/// (record_good_trace), which every group replays. It must be
/// deterministic, and may only drive primary inputs (broadcast values)
/// and read primary outputs: the recording keeps nothing else of it.
class Environment {
 public:
  virtual ~Environment() = default;

  /// Drives primary inputs for cycle `cycle` (broadcast values only).
  /// Called before combinational evaluation.
  virtual void drive(sim::LogicSim& sim, std::uint64_t cycle) = 0;

  /// Observes good-machine outputs after evaluation of cycle `cycle`
  /// (read with machine=63). Returns false to stop the run (e.g. the
  /// program under simulation halted).
  virtual bool observe(const sim::LogicSim& sim, std::uint64_t cycle) = 0;
};

using EnvFactory = std::function<std::unique_ptr<Environment>()>;

/// Structured post-mortem of a fault group that repeatedly killed its
/// isolated worker process (segfault, OOM under rlimit, supervisor
/// hard-kill on a hang). Recorded alongside the quarantined verdict so
/// a campaign report can say *why* the group has no result.
struct GroupError {
  std::int32_t term_signal = 0;  // signal that killed the last attempt, 0 = exited
  std::int32_t exit_code = 0;    // exit status when term_signal == 0
  std::uint32_t attempts = 0;    // total attempts before quarantine
  std::uint64_t max_rss_kb = 0;  // peak RSS of the last attempt (rusage)
  std::uint64_t cpu_ms = 0;      // user+sys CPU of the last attempt
};

/// Which kernel actually produced a group's record. Stored with the
/// record (journal + supervisor wire) so resumed campaigns and telemetry
/// attribute per-group work to the engine that really ran — detection
/// verdicts are bit-identical across kernels, work counters are not.
enum class GroupEngine : std::uint8_t {
  kNone = 0,   // never simulated (unstarted/quarantined record)
  kEvent = 1,  // event-driven differential kernel
  kSweep = 2,  // full levelized sweep
};

/// Outcome of one 63-fault group — the unit of campaign checkpointing.
/// Slot i is the i-th fault of the group, i.e. index `group * 63 + i`
/// into the engine's active fault order (the sampled-and-sorted fault
/// subset), which is deterministic for fixed (faults, sample,
/// sample_seed). A record fully describes the group's contribution to
/// FaultSimResult, so a stored record can replace re-simulation.
struct GroupRecord {
  std::uint64_t group = 0;
  std::uint32_t count = 0;  // faults in this group, <= 63
  /// Group hit a wall-clock bound (group_timeout_ms or time_budget_ms)
  /// before every fault had a verdict; undetected slots are inconclusive.
  bool timed_out = false;
  /// Group was quarantined by the process-isolation supervisor after
  /// exhausting its retries (worker crash/OOM/hang each attempt). All
  /// slots are inconclusive; `error` records the last failure.
  bool quarantined = false;
  std::uint64_t detected_mask = 0;         // bit i: slot i detected
  std::uint64_t cycles = 0;                // good-machine cycles the group ran
  std::vector<std::int64_t> detect_cycle;  // size count, -1 when undetected
  /// Worker attempt accounting. On a quarantined record: the last
  /// failure, with every attempt's rusage folded in. The isolation
  /// supervisor also fills `attempts` and the dead attempts' rusage on
  /// the records it simulates, for telemetry only: the journal and wire
  /// encodings carry `error` iff the record is quarantined.
  GroupError error;
  /// Work spent simulating this group (0 for unstarted records, and for
  /// records journaled before work accounting existed). Carried in the
  /// journal payload and across the supervisor's worker pipes so
  /// campaign-level aggregates survive --isolate and journal resumes.
  std::uint64_t gates_evaluated = 0;
  std::uint64_t sim_cycles = 0;
  /// Kernel that produced the verdicts (engine-dependent counters above
  /// only compare between records with equal engines).
  GroupEngine engine_used = GroupEngine::kNone;
  /// Gate evaluations split by compiled base op (AND/OR/XOR/MUX, in
  /// nl::CompiledOp order; inverting kinds fold into their base op, BUFs
  /// into the gate they forward). Sums to gates_evaluated. Sweep-kernel
  /// tallies count every combinational gate once per evaluated cycle,
  /// folded BUFs included, so they are a pure function of (netlist,
  /// cycles); event-kernel tallies count the evaluations actually
  /// performed. Zero for records journaled before this accounting
  /// existed.
  std::array<std::uint64_t, nl::kNumCompiledOps> evals_by_kind = {0, 0, 0, 0};
};

/// Simulation kernel selection. Both kernels produce bit-identical
/// GroupRecords (same detection masks, detect cycles and cycle counts),
/// so records journaled by one engine seed resumes under the other.
enum class Engine : std::uint8_t {
  /// Event-driven differential kernel (compiled_event_kernel.h): per
  /// group it simulates only the divergence wavefront from the recorded
  /// good-value planes. Falls back to kSweep for the whole run when the
  /// planes would exceed `trace_mem_mb`.
  kEvent,
  /// Two-lane compiled sweep of every combinational gate each cycle.
  kSweep,
};

/// Snapshot passed to the progress callback after each resolved group.
/// `seeded` counts the groups (of `done`) that were replayed from stored
/// records rather than simulated — ETA estimators must derive their rate
/// from `done - seeded`, because seeded groups resolve in ~zero time and
/// a resumed campaign would otherwise extrapolate absurdly fast.
struct Progress {
  std::size_t done = 0;    // groups resolved so far (simulated + seeded)
  std::size_t seeded = 0;  // of `done`, replayed from stored records
  std::size_t total = 0;   // groups scheduled (shard-local)
};

struct FaultSimOptions {
  std::uint64_t max_cycles = 1'000'000;
  /// Kernel used to simulate fault groups; see Engine.
  Engine engine = Engine::kEvent;
  /// Memory cap for the event engine's good-value planes, in MiB
  /// (0 = unlimited). One packed bit per gate per cycle; exceeding the
  /// cap silently falls back to the sweep kernel for the whole run
  /// (reported via FaultSimResult::trace_fallback).
  std::size_t trace_mem_mb = 1024;
  /// If non-zero, simulate only a pseudo-random sample of this many
  /// representative faults (statistical fault grading); coverage is then
  /// an estimate over the sample.
  std::size_t sample = 0;
  std::uint64_t sample_seed = 0x5eed5bd7u;
  /// Worker threads for group-level parallel simulation. 0 = one per
  /// hardware thread; 1 = serial, on the calling thread. Fault groups
  /// are independent by construction (lane-local reset per group, one
  /// shared read-only recording of the good run, disjoint result
  /// indices), so the result is bit-identical for every thread count.
  unsigned threads = 0;
  /// Optional progress callback. Invoked under an internal mutex (never
  /// concurrently), but from worker threads when threads != 1; groups
  /// complete out of order, yet Progress::done is a monotonically
  /// increasing count.
  std::function<void(const Progress&)> progress;
  /// Cooperative cancellation (graceful drain). Checked between groups
  /// only: when the flag becomes true, in-flight groups finish normally,
  /// unstarted groups are left unsimulated, and the run returns early
  /// with FaultSimResult::cancelled set. Groups parked at the watermark
  /// of a streamed recording, and records held until it completes, count
  /// as unstarted (GroupDriver::record()). Stored records (seed_group) are
  /// replayed even when the flag is already set. Safe to flip from a
  /// signal handler or another thread.
  const std::atomic<bool>* cancel = nullptr;
  /// Shard restriction for distributed campaigns: when shard_count > 1,
  /// only groups with group % shard_count == shard_index are scheduled;
  /// every other group is left untouched (simulated == 0, no record).
  /// The group universe, sampling and record encodings are unchanged, so
  /// shard runs share the campaign fingerprint and their journals merge
  /// losslessly (campaign/journal.h merge_journals). Progress totals and
  /// FaultSimResult::groups_scheduled are shard-local.
  std::uint32_t shard_count = 0;  // 0 or 1 = unsharded
  std::uint32_t shard_index = 0;  // must be < shard_count when sharded
  /// Wall-clock bound per fault group in milliseconds (0 = unlimited).
  /// A group exceeding it stops early; its faults without a verdict are
  /// recorded as timed out (inconclusive), never as undetected. It
  /// counts from the group's claim, or from the end of the good-run
  /// recording for a group claimed while it streamed.
  std::uint64_t group_timeout_ms = 0;
  /// Wall-clock budget for the whole run in milliseconds (0 = unlimited).
  /// Groups unstarted when the budget expires are recorded as timed out
  /// in full; a group running when it expires stops like a group timeout.
  std::uint64_t time_budget_ms = 0;
  /// Resume hook: return true and fill `out` to splice a previously
  /// stored record in place of simulating group `group`. Asked once per
  /// scheduled group, from the calling thread, before any group is
  /// simulated; a record that does not match its group's slot of the
  /// plan is rejected with std::runtime_error. The engine stays
  /// oblivious to storage; callers (src/campaign) own the journal.
  std::function<bool(std::uint64_t group, GroupRecord* out)> seed_group;
  /// Per-group hook: invoked once per group resolved by this run —
  /// simulated, deadline-expired, quarantined AND seeded (`seeded` true)
  /// — under the same internal lock as progress, so calls never overlap
  /// (but come from worker threads when threads != 1). `duration_ms` is
  /// the wall clock this run spent on the group (0 when seeded or
  /// expired unstarted). Callers (src/campaign) checkpoint the unseeded
  /// records and feed every record to telemetry.
  std::function<void(const GroupRecord&, bool seeded, double duration_ms)>
      on_group;
};

struct FaultSimResult {
  /// detected[i] == 1 iff representative fault i was detected. For sampled
  /// runs, unsampled faults have simulated[i] == 0.
  std::vector<std::uint8_t> detected;
  std::vector<std::uint8_t> simulated;
  /// Cycle of first detection (or -1).
  std::vector<std::int64_t> detect_cycle;
  /// Third verdict state: timed_out[i] == 1 iff fault i's group hit a
  /// wall-clock bound before fault i was detected. The fault counts as
  /// simulated but is inconclusive — it must never be folded into
  /// "undetected"; coverage over a result with timeouts is a lower
  /// bound. May be empty (all zeros) for results built before this field
  /// existed; consumers must treat empty as "no timeouts".
  std::vector<std::uint8_t> timed_out;
  /// Fourth verdict state: quarantined[i] == 1 iff fault i's group was
  /// quarantined by the isolation supervisor (the worker simulating it
  /// died on every retry). Like timed_out, the fault is inconclusive —
  /// never "undetected" — and coverage is a lower bound. May be empty
  /// for results built before this field existed (treat as none).
  std::vector<std::uint8_t> quarantined;
  /// Cycles the good machine ran for (environment stop or max_cycles).
  std::uint64_t good_cycles = 0;
  /// Groups resolved by this run or a seed hook vs. the campaign total;
  /// groups_done < groups_scheduled iff the run was cancelled mid-way.
  std::size_t groups_done = 0;
  std::size_t groups_total = 0;
  /// Groups this run was responsible for: equal to groups_total unless a
  /// shard restriction (FaultSimOptions::shard_count) narrowed the
  /// schedule to one residue class.
  std::size_t groups_scheduled = 0;
  /// True when options.cancel was set and scheduled groups were left
  /// unresolved: their faults have simulated == 0 (resumable).
  bool cancelled = false;
  /// Work accounting for the activity-factor benchmarks and campaign
  /// telemetry: combinational gate evaluations actually performed and
  /// machine cycles simulated, summed over the per-group record counters
  /// of every resolved group — seeded groups contribute the work their
  /// original simulation recorded, so a resumed campaign's aggregate
  /// equals the uninterrupted run's (records journaled before work
  /// accounting existed contribute 0).
  std::uint64_t gates_evaluated = 0;
  std::uint64_t sim_cycles = 0;
  /// Size of the recording's good-value planes: 0 under the sweep
  /// engine, when no group was left to simulate, when recording was cut
  /// (run deadline, drain) and when the planes exceeded trace_mem_mb.
  /// trace_fallback is set only in that last case, so the event engine's
  /// groups ran on the sweep kernel; a recording cut by the deadline or
  /// a drain leaves no group to simulate and sets no fallback.
  std::size_t trace_bytes = 0;
  bool trace_fallback = false;
  /// Times a group parked at the watermark of a recording still being
  /// written (see GroupDriver::next_slice). Timing-dependent, like
  /// wall-clock cut-offs; 0 at one worker and under --isolate.
  std::size_t parks = 0;
};

/// Work counters of the event kernels: gate evaluations actually
/// performed and machine cycles simulated. Deterministic (bit-stable for
/// a fixed netlist/engine); GroupSimulator copies the per-group deltas
/// into each GroupRecord.
struct KernelStats {
  std::uint64_t gates_evaluated = 0;
  std::uint64_t cycles = 0;
  std::array<std::uint64_t, nl::kNumCompiledOps> evals_by_kind = {0, 0, 0, 0};
};

/// Runs sequential fault simulation of `faults` on `netlist` inside the
/// environment produced by `make_env`. The engine performs fault dropping
/// (a group stops as soon as all of its faults are detected) and runs a
/// GroupDriver's 63-fault groups on `options.threads` worker threads,
/// each with its own GroupSimulator: the calling thread records the good
/// run while the others start on it, then joins them. A worker's first
/// exception stops every worker's claims and is rethrown once all
/// workers have joined.
FaultSimResult run_fault_sim(const nl::Netlist& netlist,
                             const nl::FaultList& faults,
                             const EnvFactory& make_env,
                             const FaultSimOptions& options = {});

// --- group-level simulation ------------------------------------------------
//
// A run is one GroupDriver plus an executor. GroupPlan owns the
// deterministic fault-to-group assignment and result splicing,
// GroupSimulator the per-worker simulation state, and GroupDriver
// everything else about a run. run_fault_sim executes the driver's
// groups on worker threads; the process-isolation supervisor
// (campaign/supervisor.h) executes the same driver's groups in forked
// worker processes.

/// The deterministic group universe of one campaign: which faults are
/// active (sampling applied), how they partition into 63-fault groups,
/// and how a GroupRecord splices back into a FaultSimResult. Cheap to
/// construct (no netlist work); identical for equal (faults, sample,
/// sample_seed).
class GroupPlan {
 public:
  GroupPlan(const nl::FaultList& faults, const FaultSimOptions& options);

  std::size_t num_faults() const { return num_faults_; }
  std::size_t num_groups() const;
  std::uint32_t group_count(std::size_t group) const;
  /// Active (sampled) fault indices in engine order; group g covers
  /// active()[g*63 .. g*63+group_count(g)).
  const std::vector<std::size_t>& active() const { return active_; }

  /// A FaultSimResult with all verdict arrays allocated and zeroed.
  FaultSimResult make_result() const;

  /// Splices one record into the verdict arrays (not its counters or
  /// cycle count; GroupDriver folds those).
  void apply(const GroupRecord& rec, FaultSimResult* res) const;

  /// Record for a group never started before the campaign deadline (or
  /// quarantined before simulation): count filled, all slots -1.
  GroupRecord unstarted_record(std::size_t group) const;

 private:
  std::size_t num_faults_ = 0;
  std::vector<std::size_t> active_;
};

class GoodTrace;

/// A group on its way through a simulator: its record so far, the
/// recording it runs against and the kernel state carried from one slice
/// to the next. The sweep runs a slice to the end. The event kernel runs
/// it to the recording's watermark; a group that reaches the watermark of
/// a recording still being written *parks* there (always at a 64-cycle
/// block boundary) and resumes from exactly this state, on any worker.
struct GroupSlice {
  GroupRecord rec;
  std::shared_ptr<const GoodTrace> good_run;
  std::uint64_t cycle = 0;     // next cycle to simulate
  std::uint64_t detected = 0;  // machines detected so far
  /// Flip-flops whose state diverges entering `cycle`, with their word.
  std::vector<std::pair<nl::GateId, std::uint64_t>> diverged_dffs;
  /// When the group was claimed, and its wall-clock bound for the next
  /// slice (time_point::max() = unbounded).
  std::chrono::steady_clock::time_point claimed;
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  double run_ms = 0;  // wall clock of the slices run so far
};

/// Worker-owned simulation state (kernel scratch + injection tables)
/// able to simulate any group of a plan. Build one per worker thread, or
/// once before forking isolated worker processes (children inherit it
/// copy-on-write). Not thread-safe; `plan`, `netlist` and `faults` must
/// outlive the simulator. Throws std::invalid_argument when an active
/// fault sits on a combinational gate the netlist compiler folds away (a
/// BUF that is not a primary output; nl::enumerate_faults never places
/// one there).
///
/// Every group replays a campaign-shared recording of the good machine
/// up to its stop cycle: `good_run`, or the recording a pulled slice
/// names, on which the kernel is then rebuilt (a run whose planes crossed
/// the memory cap goes on against a stimulus-only copy). Planes in the
/// recording select the event-driven differential kernel, otherwise the
/// sweep. Null only for a recording cut short, which leaves no group to
/// simulate (run() throws std::logic_error on one).
///
/// The compiled sweep kernel simulates two groups side by side, one per
/// 64-bit lane of a 128-bit word; run() keeps both lanes busy by pulling
/// the next slice the moment a lane's group ends.
class GroupSimulator {
 public:
  /// `run_deadline` (time_budget_ms) is the same instant for every
  /// worker. `compiled` is the campaign-shared program (nl::compile(netlist));
  /// pass null to compile privately. Like the recording it is built
  /// once per campaign and inherited copy-on-write by forked workers.
  GroupSimulator(const nl::Netlist& netlist, const nl::FaultList& faults,
                 const GroupPlan& plan, const FaultSimOptions& options,
                 std::shared_ptr<const GoodTrace> good_run,
                 std::chrono::steady_clock::time_point run_deadline =
                     std::chrono::steady_clock::time_point::max(),
                 std::shared_ptr<const nl::CompiledNetlist> compiled =
                     nullptr);
  ~GroupSimulator();
  GroupSimulator(const GroupSimulator&) = delete;
  GroupSimulator& operator=(const GroupSimulator&) = delete;

  /// A fresh slice of `group` against this simulator's recording,
  /// bounded by group_timeout_ms from now and by the run deadline.
  GroupSlice slice(std::size_t group) const;

  /// Simulates one group to a record: run() of slice(group) alone
  /// (honours the recorded stop cycle, group_timeout_ms and the run
  /// deadline; sets timed_out when a bound cut the group short).
  /// Bit-deterministic absent wall-clock cutoffs, and bit-identical
  /// across both kernels.
  GroupRecord simulate(std::size_t group);

  /// Groups the kernel keeps in flight at once: 2 for the sweep, 1 for
  /// the event engine.
  std::size_t lanes() const;

  /// Slice source for run(). Called whenever a lane is free. With `wait`
  /// true every lane is idle: return the next slice, or nullopt to end
  /// the stream. With `wait` false another lane is still busy: return a
  /// slice only if one is ready now, without blocking; nullopt means
  /// "none yet" and the kernel asks again at least every 16 cycles.
  using PullSlice = std::function<std::optional<GroupSlice>(bool wait)>;
  /// Receives each slice the kernel is done with, in completion order:
  /// `finished` when its record is final (identical to what simulate()
  /// returns, absent wall-clock cut-offs), false when it parked.
  using EmitSlice = std::function<void(GroupSlice&&, bool finished)>;

  /// Streams slices through the kernel until `pull` ends the stream and
  /// every lane has drained. The event kernel runs each slice to the
  /// watermark under its deadline; the sweep runs fresh slices to the
  /// end.
  void run(const PullSlice& pull, const EmitSlice& emit);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The run driver behind both executors: run_fault_sim's worker threads
/// and the isolation supervisor's worker processes. It owns every step
/// of a run except simulating a group — the plan and shard schedule,
/// the run deadline, the campaign-shared compiled netlist and recording
/// of the good run, seeding, expiring groups unstarted at the deadline,
/// folding records into the result, and the on_group/progress hooks — so
/// a run's verdicts, counters and hook calls do not depend on the
/// executor. An executor takes slices from next_slice(), runs them on
/// simulators from make_simulator(), and hands each back to settle().
class GroupDriver {
 public:
  /// Plans the run and builds its shard schedule (std::runtime_error
  /// when shard_index >= shard_count > 1), then replays every scheduled
  /// group that options.seed_group supplies, checking each record
  /// against the plan (std::runtime_error on a mismatch), before any
  /// group is simulated. Then starts the run deadline and, if groups
  /// are left, compiles the netlist. `netlist`, `faults`, `make_env` and
  /// `options` must outlive the driver.
  GroupDriver(const nl::Netlist& netlist, const nl::FaultList& faults,
              const EnvFactory& make_env, const FaultSimOptions& options);
  GroupDriver(const GroupDriver&) = delete;
  GroupDriver& operator=(const GroupDriver&) = delete;
  ~GroupDriver();

  /// Records the good run on the calling thread, if groups are left to
  /// simulate: the only call of `make_env`; planes under the event engine
  /// within trace_mem_mb; cut by the run deadline, options.cancel and
  /// stop(). Each 64-cycle block of planes is published as it is built,
  /// so next_slice() can hand out event-kernel work while this runs.
  /// Call once.
  ///
  /// When the recording ends, the records of groups that finished during
  /// it are folded (one by one; a drain set meanwhile leaves the rest
  /// unsimulated), and parked groups become resumable — but only if it
  /// ended complete with its planes, undrained, unstopped and before the
  /// run deadline. Otherwise both are discarded, and their groups go back
  /// to the schedule as if never claimed, so the run proceeds exactly as
  /// if the recording had been made before any group started.
  void record();

  const GroupPlan& plan() const { return plan_; }

  /// Groups left to claim (scheduled, not seeded, not yet claimed).
  std::size_t pending() const;

  /// A simulator over this run's plan, compiled netlist, recording and
  /// run deadline: one per worker thread, or one to fork from. While
  /// record() runs, its recording is the one being written. Thread-safe.
  std::unique_ptr<GroupSimulator> make_simulator() const;

  /// The next slice to run and hand back to settle(). Once the recording
  /// has ended: a parked group (none while draining), else a fresh claim
  /// in schedule order, else nullopt. While it is being written: a fresh
  /// claim once the watermark has reached one block, else the parked
  /// group furthest behind the watermark, else nullopt without `wait`,
  /// and with it a block until the watermark moves or the recording
  /// ends. A recording without planes (the sweep) has no watermark
  /// before it completes, so its slices wait for the end. A slice's
  /// deadline is its group timeout counted from the later of its claim
  /// and the end of the recording (and the run deadline); before the
  /// recording completes it has none. Groups still unstarted at the run
  /// deadline resolve here, as timed out. Thread-safe.
  std::optional<GroupSlice> next_slice(bool wait);

  /// Takes back a slice from GroupSimulator::run(): `finished` records
  /// are held while recording and folded once it is kept (see record());
  /// parked groups wait for next_slice(). A slice run against a recording
  /// that was discarded returns its group to the schedule instead.
  /// slice.run_ms is the duration reported to on_group. Thread-safe.
  void settle(GroupSlice&& slice, bool finished);

  /// Ends claiming (an executor failed and will rethrow).
  void stop() { stopped_.store(true); }

  /// The run's result; call once, after every executor returned.
  FaultSimResult finish();

 private:
  /// Next group to simulate in schedule order (groups a discarded
  /// recording returned first), or nullopt once the schedule is
  /// exhausted, options.cancel is set or stop() was called. Groups still
  /// unstarted at the run deadline resolve here, as timed out.
  std::optional<std::size_t> claim();
  void fold(const GroupRecord& rec, bool seeded, double duration_ms);
  void end_recording(std::shared_ptr<const GoodTrace> trace);
  /// options.cancel is set or stop() was called.
  bool draining() const;

  const nl::Netlist& netlist_;
  const nl::FaultList& faults_;
  const EnvFactory& make_env_;
  const FaultSimOptions& options_;
  GroupPlan plan_;
  std::vector<std::size_t> unseeded_;  // scheduled groups to simulate
  std::atomic<std::size_t> next_{0};   // next unseeded_ slot to claim
  std::atomic<bool> stopped_{false};
  std::chrono::steady_clock::time_point deadline_ =
      std::chrono::steady_clock::time_point::max();
  std::shared_ptr<const nl::CompiledNetlist> compiled_;
  /// Recording state shared with next_slice()/settle() (seq_faultsim.cpp).
  struct Stream;
  std::unique_ptr<Stream> stream_;
  std::mutex mu_;  // guards result_, seeded_ and the hook calls
  FaultSimResult result_;
  std::size_t seeded_ = 0;
};

// --- coverage aggregation --------------------------------------------------

struct Coverage {
  std::size_t total = 0;      // uncollapsed faults considered
  std::size_t detected = 0;   // uncollapsed faults detected
  /// Uncollapsed faults whose verdict is inconclusive (group hit a
  /// wall-clock bound). Included in `total`, so percent() understates
  /// true coverage — report it as a lower bound whenever this is != 0.
  std::size_t timed_out = 0;
  /// Uncollapsed faults whose group was quarantined (isolated worker
  /// died on every attempt). Inconclusive like timed_out: included in
  /// `total`, so percent() is a lower bound whenever this is != 0.
  std::size_t quarantined = 0;

  /// False when no fault was considered at all — coverage is then
  /// undefined, not 100%. Sampled runs routinely produce such rows for
  /// small components; reports must render them as "n/a" rather than as
  /// perfect coverage.
  bool defined() const { return total != 0; }

  /// True when percent() is only a lower bound on the real coverage
  /// (some counted faults never reached a verdict).
  bool is_lower_bound() const { return timed_out != 0 || quarantined != 0; }

  double percent() const {
    return total == 0 ? 0.0 : 100.0 * static_cast<double>(detected) /
                                  static_cast<double>(total);
  }
};

/// Overall coverage in uncollapsed-fault terms (each representative
/// weighted by its equivalence-class size), counting only simulated
/// faults.
Coverage overall_coverage(const nl::FaultList& faults,
                          const FaultSimResult& result);

/// Per-component coverage, indexed by ComponentId.
std::vector<Coverage> component_coverage(const nl::Netlist& netlist,
                                         const nl::FaultList& faults,
                                         const FaultSimResult& result);

}  // namespace sbst::fault
