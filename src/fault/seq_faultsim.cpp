#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "fault/compiled_event_kernel.h"
#include "fault/event_kernel.h"
#include "fault/faultsim.h"
#include "fault/good_trace.h"
#include "fault/injection.h"
#include "netlist/compiled.h"
#include "util/parallel.h"

namespace sbst::fault {

namespace {

using sim::Word;
using detail::force;
using detail::Injection;
using detail::InjectionTable;

/// Fault-aware evaluation sweep. Identical to LogicSim::eval() except that
/// flagged gates apply input-branch and output-stem forcing.
void eval_with_injections(sim::LogicSim& s, const InjectionTable& inj) {
  const nl::Netlist& netlist = s.netlist();
  const auto& order = s.levelization().comb_order;
  Word* const v = s.values().data();
  for (nl::GateId g : order) {
    const nl::Gate& gate = netlist.gate(g);
    Word a = v[gate.in[0]];
    Word b = gate.in[1] == nl::kNoGate ? 0 : v[gate.in[1]];
    Word c = gate.in[2] == nl::kNoGate ? 0 : v[gate.in[2]];
    if (const std::uint32_t slot = inj.slot(g); slot != 0) [[unlikely]] {
      const detail::GateForce& f = inj.force_record(slot);
      a = (a | f.set[1]) & ~f.clr[1];
      b = (b | f.set[2]) & ~f.clr[2];
      c = (c | f.set[3]) & ~f.clr[3];
      const Word w = sim::eval_gate(gate.kind, a, b, c);
      v[g] = (w | f.set[0]) & ~f.clr[0];
    } else {
      v[g] = sim::eval_gate(gate.kind, a, b, c);
    }
  }
}

/// Applies stuck-at forcing on source gates (PIs, constants) and DFF
/// outputs; must run after inputs are driven / DFFs updated.
void apply_state_injections(sim::LogicSim& s, const InjectionTable& inj) {
  Word* const v = s.values().data();
  for (const Injection& i : inj.sources()) {
    v[i.gate] = force(v[i.gate], i.mask, i.stuck);
  }
  for (const Injection& i : inj.dff_q()) {
    v[i.gate] = force(v[i.gate], i.mask, i.stuck);
  }
}

/// Clocks DFFs with D-pin fault forcing, then re-applies Q-output faults.
/// D-pin injections are folded into the per-gate slot table, so forcing
/// is an O(1) lookup per DFF instead of a scan of the group's fault list.
void step_clock_with_injections(sim::LogicSim& s, const InjectionTable& inj) {
  const nl::Netlist& netlist = s.netlist();
  const auto& dffs = s.levelization().dffs;
  Word* const v = s.values().data();
  thread_local std::vector<Word> next;
  next.resize(dffs.size());
  for (std::size_t i = 0; i < dffs.size(); ++i) {
    const nl::GateId g = dffs[i];
    Word nx = v[netlist.gate(g).in[0]];
    if (const std::uint32_t slot = inj.slot(g); slot != 0) [[unlikely]] {
      const detail::GateForce& f = inj.force_record(slot);
      nx = (nx | f.set[1]) & ~f.clr[1];
    }
    next[i] = nx;
  }
  for (std::size_t i = 0; i < dffs.size(); ++i) v[dffs[i]] = next[i];
  for (const Injection& f : inj.dff_q()) {
    v[f.gate] = force(v[f.gate], f.mask, f.stuck);
  }
}

/// Detection word: bits where a machine's PO differs from the good
/// machine (bit 63). Walks the flat precomputed PO-bit list instead of
/// the nested Port structure — this runs once per simulated cycle.
inline Word po_diff(const sim::LogicSim& s) {
  Word diff = 0;
  const Word* const v = s.values().data();
  for (nl::GateId b : s.po_bits()) {
    const Word w = v[b];
    // Arithmetic right shift replicates bit 63 across the word.
    const Word good = static_cast<Word>(static_cast<std::int64_t>(w) >> 63);
    diff |= w ^ good;
  }
  return diff & ~(Word{1} << 63);
}

std::vector<std::size_t> choose_sample(std::size_t universe, std::size_t n,
                                       std::uint64_t seed) {
  // Partial Fisher-Yates with a splitmix64 generator (deterministic,
  // seedable), over a *virtual* identity permutation: only displaced
  // entries are materialized, so cost is O(sample) in time and space
  // rather than O(universe). Consumes the generator exactly like the
  // dense formulation, so the chosen set is bit-identical to it (and to
  // every previously journaled campaign).
  std::uint64_t state = seed;
  auto next_u64 = [&state]() {
    state += 0x9E3779B97f4A7C15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  std::unordered_map<std::size_t, std::size_t> moved;
  auto value = [&moved](std::size_t p) {
    const auto it = moved.find(p);
    return it == moved.end() ? p : it->second;
  };
  const std::size_t take = std::min(n, universe);
  std::vector<std::size_t> idx;
  idx.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    if (i + 1 < universe) {
      const std::size_t j = i + next_u64() % (universe - i);
      const std::size_t vj = value(j);
      const std::size_t vi = value(i);
      moved[j] = vi;
      idx.push_back(vj);
    } else {
      // Last position of the universe: the dense loop stopped swapping
      // here (and consumed no random draw for it).
      idx.push_back(value(i));
    }
  }
  std::sort(idx.begin(), idx.end());
  return idx;
}

constexpr int kFaultsPerGroup = 63;
static_assert(kFaultsPerGroup < 64,
              "bit 63 of the simulation word is reserved for the good "
              "machine");

// --- two-lane sweep ----------------------------------------------------------
//
// The compiled sweep simulates two independent groups per pass: every
// value slot holds one 64-bit simulation word per lane, each lane with
// its own 63 faulty machines and its own good machine in bit 63. The
// typedefs are deliberately non-dependent — GCC silently drops
// vector_size on a template-dependent alias, leaving a scalar.
constexpr int kLanes = 2;
typedef Word LaneWord __attribute__((vector_size(16)));
typedef std::int64_t LaneSigned __attribute__((vector_size(16)));
static_assert(sizeof(LaneWord) == kLanes * sizeof(Word),
              "one 64-bit simulation word per lane");

/// An idle lane asks for a new group at least this often (in cycles)
/// while the other lane is busy.
constexpr unsigned kPollCycles = 16;

/// One lane: the group it simulates and everything lane-local about it.
struct SweepLane {
  SweepLane(const nl::Netlist& netlist,
            std::shared_ptr<const nl::CompiledNetlist> compiled)
      : inj(netlist.size()), ports(netlist, std::move(compiled)) {}

  bool busy = false;
  GroupRecord rec;
  InjectionTable inj;
  // The environment's view of the lane: only its port nets are live.
  // Input words are copied into the lane after drive(), output words
  // out of it before observe().
  sim::LogicSim ports;
  std::unique_ptr<Environment> env;
  Word all_mask = 0;
  Word detected = 0;
  std::uint64_t cycle = 0;
  std::uint64_t evaluated = 0;  // cycles evaluated (work counters)
  std::chrono::steady_clock::time_point deadline;
};

/// Forced re-evaluation of one injected combinational gate in one lane.
struct LaneFixup {
  nl::GateId gate;
  int lane;
  detail::GateForce force;
};

/// Two-lane sweep state of one simulator.
struct LaneSweep {
  LaneSweep(const nl::Netlist& netlist,
            const std::shared_ptr<const nl::CompiledNetlist>& compiled)
      : v(compiled->num_gates + 1), next(compiled->dff_gate.size()) {
    const nl::CompiledNetlist& cn = *compiled;
    fix_by_level.resize(static_cast<std::size_t>(cn.lv.max_level) + 1);
    dff_index.assign(netlist.size(), 0);
    for (std::size_t i = 0; i < cn.dff_gate.size(); ++i) {
      dff_index[cn.dff_gate[i]] = static_cast<std::uint32_t>(i);
    }
    // Lane-local reset: sources and flip-flops take the values
    // LogicSim::reset() gives them; everything else is recomputed before
    // it is read.
    const sim::LogicSim reset(netlist, compiled);
    for (nl::GateId g = 0; g < netlist.size(); ++g) {
      const nl::GateKind k = netlist.gate(g).kind;
      if (k == nl::GateKind::kInput) pi_gates.push_back(g);
      if (k == nl::GateKind::kInput || k == nl::GateKind::kDff ||
          k == nl::GateKind::kConst0 || k == nl::GateKind::kConst1) {
        reset_image.emplace_back(g, reset.word(g));
      }
    }
    lanes.reserve(kLanes);
    for (int l = 0; l < kLanes; ++l) lanes.emplace_back(netlist, compiled);
  }

  std::vector<LaneWord> v;     // value slots, num_gates + 1
  std::vector<LaneWord> next;  // per DFF, sampled D words
  std::vector<SweepLane> lanes;
  std::vector<nl::GateId> pi_gates;
  std::vector<std::pair<nl::GateId, Word>> reset_image;
  std::vector<std::uint32_t> dff_index;  // gate -> Levelization::dffs index
  // Comb fixups of the busy lanes, by level; fix_levels lists the
  // non-empty levels in ascending order.
  std::vector<std::vector<LaneFixup>> fix_by_level;
  std::vector<std::uint32_t> fix_levels;
  int busy = 0;
};

}  // namespace

// --- GroupPlan --------------------------------------------------------------

GroupPlan::GroupPlan(const nl::FaultList& faults,
                     const FaultSimOptions& options)
    : num_faults_(faults.size()) {
  if (options.sample != 0 && options.sample < faults.size()) {
    active_ =
        choose_sample(faults.size(), options.sample, options.sample_seed);
  } else {
    active_.resize(faults.size());
    for (std::size_t i = 0; i < faults.size(); ++i) active_[i] = i;
  }
}

std::size_t GroupPlan::num_groups() const {
  return (active_.size() + kFaultsPerGroup - 1) / kFaultsPerGroup;
}

std::uint32_t GroupPlan::group_count(std::size_t group) const {
  const std::size_t base = group * kFaultsPerGroup;
  return static_cast<std::uint32_t>(
      std::min<std::size_t>(kFaultsPerGroup, active_.size() - base));
}

FaultSimResult GroupPlan::make_result() const {
  FaultSimResult res;
  res.detected.assign(num_faults_, 0);
  res.simulated.assign(num_faults_, 0);
  res.detect_cycle.assign(num_faults_, -1);
  res.timed_out.assign(num_faults_, 0);
  res.quarantined.assign(num_faults_, 0);
  res.groups_total = num_groups();
  res.groups_scheduled = res.groups_total;
  return res;
}

void GroupPlan::apply(const GroupRecord& rec, FaultSimResult* res) const {
  const std::size_t base =
      static_cast<std::size_t>(rec.group) * kFaultsPerGroup;
  for (std::uint32_t i = 0; i < rec.count; ++i) {
    const std::size_t fi = active_[base + i];
    res->simulated[fi] = 1;
    if ((rec.detected_mask >> i) & 1) {
      res->detected[fi] = 1;
      res->detect_cycle[fi] = rec.detect_cycle[i];
    } else if (rec.quarantined) {
      res->quarantined[fi] = 1;
    } else if (rec.timed_out) {
      res->timed_out[fi] = 1;
    }
  }
}

GroupRecord GroupPlan::unstarted_record(std::size_t group) const {
  GroupRecord rec;
  rec.group = group;
  rec.count = group_count(group);
  rec.detect_cycle.assign(rec.count, -1);
  return rec;
}

// --- GroupSimulator ---------------------------------------------------------

struct GroupSimulator::Impl {
  using Clock = std::chrono::steady_clock;

  const nl::Netlist& netlist;
  const nl::FaultList& faults;
  const GroupPlan& plan;
  EnvFactory make_env;
  std::uint64_t max_cycles;
  std::uint64_t group_timeout_ms;
  KernelFlavor kernel;
  Clock::time_point run_deadline = Clock::time_point::max();
  // Campaign-shared compiled program (compiled privately when the caller
  // did not pass one). Initialized before `sim` so the simulator can
  // reuse it.
  std::shared_ptr<const nl::CompiledNetlist> compiled;
  // Single-group state of the event engine and the interpreted sweep.
  sim::LogicSim sim;
  InjectionTable inj;
  // Per-cycle static sweep tallies: how many comb gates of each base-op
  // class one full sweep evaluates (folded BUFs class as the AND lane
  // they forward through). A pure function of the netlist, so sweep
  // evals_by_kind stays bit-stable across kernel flavors.
  std::array<std::uint64_t, nl::kNumCompiledOps> sweep_kinds_per_cycle = {
      0, 0, 0, 0};
  // Event-engine state: the campaign-shared trace source (null = sweep),
  // the flavor-selected differential kernel built on first successful
  // trace fetch, and a latch that pins the sweep fallback once recording
  // has failed. Both flavors can coexist: groups whose injections land
  // on compile-time-folded gates fall back to the interpreted kernel.
  std::shared_ptr<SharedTraceSource> trace_source;
  std::optional<EventKernel> event;
  std::optional<CompiledEventKernel> cevent;
  std::shared_ptr<const GoodTrace> trace;
  bool event_unavailable = false;
  // Compiled sweep, built on first use.
  std::unique_ptr<LaneSweep> sweep;

  Impl(const nl::Netlist& n, const nl::FaultList& f, const GroupPlan& p,
       EnvFactory env, const FaultSimOptions& options,
       std::shared_ptr<SharedTraceSource> trace_src,
       std::shared_ptr<const nl::CompiledNetlist> comp)
      : netlist(n),
        faults(f),
        plan(p),
        make_env(std::move(env)),
        max_cycles(options.max_cycles),
        group_timeout_ms(options.group_timeout_ms),
        kernel(options.kernel),
        compiled(comp ? std::move(comp) : nl::compile(n)),
        sim(n, compiled),
        inj(n.size()),
        trace_source(std::move(trace_src)) {
    for (nl::GateId g : compiled->lv.comb_order) {
      ++sweep_kinds_per_cycle[static_cast<std::size_t>(
          nl::op_class(n.gate(g).kind))];
    }
  }

  /// Loads `group`'s faults into `table` and returns its empty record.
  GroupRecord begin(std::size_t group, InjectionTable& table) const {
    GroupRecord rec;
    rec.group = group;
    rec.count = plan.group_count(group);
    rec.detect_cycle.assign(rec.count, -1);
    table.clear();
    const std::size_t base = group * kFaultsPerGroup;
    for (std::uint32_t i = 0; i < rec.count; ++i) {
      table.add(netlist, faults.faults[plan.active()[base + i]],
                static_cast<int>(i));
    }
    return rec;
  }

  /// True when every non-DFF injection site of `table` has a compiled
  /// node (faults never sit on BUF gates — fault.h strips them from the
  /// universe — but hand-built fault lists can, and those groups run the
  /// interpreted kernels instead).
  bool compilable(const InjectionTable& table) const {
    for (nl::GateId g : table.slotted_gates()) {
      if (netlist.gate(g).kind != nl::GateKind::kDff &&
          compiled->node_of_gate[g] == nl::kNoNode) {
        return false;
      }
    }
    return true;
  }

  bool has_clock_bounds() const {
    return group_timeout_ms != 0 || run_deadline != Clock::time_point::max();
  }
  Clock::time_point group_deadline() const {
    return group_timeout_ms != 0
               ? Clock::now() + std::chrono::milliseconds(group_timeout_ms)
               : Clock::time_point::max();
  }

  /// Sweep work counters are normalized to the interpreted sweep (every
  /// comb gate once per cycle, folded BUFs included), so they are a pure
  /// function of (netlist, evaluated cycles) and bit-stable across kernel
  /// flavors and lanes — journals written under either flavor agree.
  void set_sweep_counters(GroupRecord& rec, std::uint64_t cycles) const {
    rec.gates_evaluated = cycles * compiled->lv.comb_order.size();
    rec.sim_cycles = cycles;
    for (std::size_t i = 0; i < rec.evals_by_kind.size(); ++i) {
      rec.evals_by_kind[i] = cycles * sweep_kinds_per_cycle[i];
    }
    rec.engine_used = GroupEngine::kSweep;
  }

  /// Event engine: fetch the campaign-shared good trace (the first fetch
  /// records it; recording honours the run deadline and cancel flag). A
  /// failed recording latches the sweep fallback for this worker.
  void fetch_trace() {
    if (trace_source && !trace && !event_unavailable) {
      trace = trace_source->get();
      if (!trace) event_unavailable = true;
    }
  }

  GroupRecord simulate_event(std::size_t group);
  GroupRecord simulate_interp(std::size_t group);
  void run_lanes(std::size_t first, const PullGroup& pull,
                 const EmitRecord& emit);

  // Two-lane sweep steps (run_lanes).
  void load_lane(int l, std::size_t group, const EmitRecord& emit);
  void finish_lane(int l, bool timed_out, const EmitRecord& emit);
  void rebuild_fixups();
  void eval_lanes();
  void step_lanes();
};

GroupRecord GroupSimulator::Impl::simulate_event(std::size_t group) {
  GroupRecord rec = begin(group, inj);
  KernelDeadlines deadlines;
  deadlines.active = has_clock_bounds();
  deadlines.group_deadline = group_deadline();
  deadlines.run_deadline = run_deadline;
  const auto run_event = [&](auto& k) {
    const KernelStats before = k.stats();
    k.simulate(inj, static_cast<int>(rec.count), deadlines, &rec);
    const KernelStats& after = k.stats();
    rec.gates_evaluated = after.gates_evaluated - before.gates_evaluated;
    rec.sim_cycles = after.cycles - before.cycles;
    for (std::size_t i = 0; i < rec.evals_by_kind.size(); ++i) {
      rec.evals_by_kind[i] = after.evals_by_kind[i] - before.evals_by_kind[i];
    }
    rec.engine_used = GroupEngine::kEvent;
  };
  // The compiled kernel requires every injected comb gate to exist as a
  // compiled node.
  if (kernel == KernelFlavor::kCompiled && compilable(inj)) {
    if (!cevent) cevent.emplace(netlist, *compiled, sim.po_bits(), trace);
    run_event(*cevent);
  } else {
    if (!event) {
      event.emplace(netlist, sim.levelization(), sim.po_bits(), trace);
    }
    run_event(*event);
  }
  return rec;
}

GroupRecord GroupSimulator::Impl::simulate_interp(std::size_t group) {
  GroupRecord rec = begin(group, inj);
  const Word all_mask = (Word{1} << rec.count) - 1;  // count <= 63
  const bool bounded = has_clock_bounds();
  const Clock::time_point deadline = group_deadline();
  sim.reset();
  apply_state_injections(sim, inj);
  std::unique_ptr<Environment> env = make_env();

  Word detected = 0;
  std::uint64_t cycle = 0;
  std::uint64_t evaluated = 0;
  for (; cycle < max_cycles; ++cycle) {
    // Amortized watchdog: one clock read every 1024 cycles keeps the
    // bound within ~ms granularity without slowing the hot loop.
    if (bounded && (cycle & 1023u) == 1023u) [[unlikely]] {
      const Clock::time_point now = Clock::now();
      if (now >= deadline || now >= run_deadline) {
        rec.timed_out = true;
        break;
      }
    }
    env->drive(sim, cycle);
    apply_state_injections(sim, inj);
    eval_with_injections(sim, inj);
    ++evaluated;

    const Word diff = po_diff(sim) & all_mask & ~detected;
    if (diff != 0) {
      Word d = diff;
      while (d != 0) {
        const int bit = std::countr_zero(d);
        d &= d - 1;
        rec.detect_cycle[static_cast<std::size_t>(bit)] =
            static_cast<std::int64_t>(cycle);
      }
      detected |= diff;
      if (detected == all_mask) break;  // fault dropping: group done
    }

    const bool keep_going = env->observe(sim, cycle);
    step_clock_with_injections(sim, inj);
    if (!keep_going) {
      ++cycle;
      break;
    }
  }
  rec.detected_mask = detected;
  rec.cycles = cycle;
  set_sweep_counters(rec, evaluated);
  return rec;
}

// The two-lane compiled sweep. Each pass runs one cycle of every busy
// lane: per-lane drive and source/Q forcing, one branch-free sweep of
// the compiled runs over both lanes (with per-(gate, lane) fixups at
// their level), per-lane detection and observe, one DFF step. A lane
// whose group ends emits its record and is refilled from lane-local
// reset on the next pass, while the other lane carries on. Every step is
// lane-wise identical to simulate_interp, so records are bit-identical
// whichever lane (and whichever partner) a group runs with.
void GroupSimulator::Impl::run_lanes(std::size_t first, const PullGroup& pull,
                                     const EmitRecord& emit) {
  if (!sweep) sweep = std::make_unique<LaneSweep>(netlist, compiled);
  LaneSweep& s = *sweep;
  LaneWord* const v = s.v.data();
  const std::vector<nl::GateId>& po_bits = sim.po_bits();
  const bool bounded = has_clock_bounds();

  std::size_t group = first;
  bool have_group = true;
  unsigned since_poll = kPollCycles;  // the first idle lane polls at once
  for (;;) {
    // Refill idle lanes. A group the compiled kernel cannot take runs
    // alone on the interpreted sweep inside load_lane, and the lane
    // pulls again.
    for (int l = 0; l < kLanes; ++l) {
      while (!s.lanes[static_cast<std::size_t>(l)].busy) {
        if (!have_group) {
          std::optional<std::size_t> next;
          if (s.busy == 0) {
            next = pull(true);
            if (!next) return;  // stream ended, every lane drained
          } else if (since_poll >= kPollCycles) {
            next = pull(false);
            if (!next) {
              since_poll = 0;
              break;
            }
          } else {
            break;
          }
          group = *next;
        }
        have_group = false;
        load_lane(l, group, emit);
      }
    }
    ++since_poll;

    // Cycle bounds, then drive: the environment sets the lane's port
    // surface, whose input words enter the lane before source forcing.
    for (int l = 0; l < kLanes; ++l) {
      SweepLane& ln = s.lanes[static_cast<std::size_t>(l)];
      if (!ln.busy) continue;
      if (ln.cycle >= max_cycles) {
        finish_lane(l, false, emit);
        continue;
      }
      // Amortized watchdog, as in simulate_interp.
      if (bounded && (ln.cycle & 1023u) == 1023u) [[unlikely]] {
        const Clock::time_point now = Clock::now();
        if (now >= ln.deadline || now >= run_deadline) {
          finish_lane(l, true, emit);
          continue;
        }
      }
      ln.env->drive(ln.ports, ln.cycle);
      const Word* const pv = ln.ports.values().data();
      for (nl::GateId g : s.pi_gates) v[g][l] = pv[g];
      for (const Injection& i : ln.inj.sources()) {
        v[i.gate][l] = force(v[i.gate][l], i.mask, i.stuck);
      }
      for (const Injection& i : ln.inj.dff_q()) {
        v[i.gate][l] = force(v[i.gate][l], i.mask, i.stuck);
      }
    }
    if (s.busy == 0) continue;

    eval_lanes();

    // Detection word per lane: bits where a machine's PO differs from
    // its lane's good machine (bit 63; the arithmetic shift replicates it
    // across the lane).
    LaneWord diff = {0, 0};
    for (nl::GateId b : po_bits) {
      const LaneWord w = v[b];
      diff |= w ^ std::bit_cast<LaneWord>(std::bit_cast<LaneSigned>(w) >> 63);
    }
    for (int l = 0; l < kLanes; ++l) {
      SweepLane& ln = s.lanes[static_cast<std::size_t>(l)];
      if (!ln.busy) continue;
      ++ln.evaluated;
      const Word d = diff[l] & ln.all_mask & ~ln.detected;
      if (d != 0) {
        for (Word m = d; m != 0; m &= m - 1) {
          ln.rec.detect_cycle[static_cast<std::size_t>(std::countr_zero(m))] =
              static_cast<std::int64_t>(ln.cycle);
        }
        ln.detected |= d;
        if (ln.detected == ln.all_mask) {  // fault dropping: group done
          finish_lane(l, false, emit);
          continue;
        }
      }
      Word* const pv = ln.ports.values().data();
      for (nl::GateId b : po_bits) pv[b] = v[b][l];
      const bool keep_going = ln.env->observe(ln.ports, ln.cycle);
      ++ln.cycle;
      if (!keep_going) finish_lane(l, false, emit);
    }
    if (s.busy != 0) step_lanes();
  }
}

void GroupSimulator::Impl::load_lane(int l, std::size_t group,
                                     const EmitRecord& emit) {
  SweepLane& ln = sweep->lanes[static_cast<std::size_t>(l)];
  ln.rec = begin(group, ln.inj);
  if (!compilable(ln.inj)) {
    emit(simulate_interp(group));  // the lane stays idle
    return;
  }
  LaneWord* const v = sweep->v.data();
  for (const auto& [g, w] : sweep->reset_image) v[g][l] = w;
  ln.ports.reset();
  ln.env = make_env();
  ln.all_mask = (Word{1} << ln.rec.count) - 1;  // count <= 63
  ln.detected = 0;
  ln.cycle = 0;
  ln.evaluated = 0;
  ln.deadline = group_deadline();
  ln.busy = true;
  ++sweep->busy;
  rebuild_fixups();
}

void GroupSimulator::Impl::finish_lane(int l, bool timed_out,
                                       const EmitRecord& emit) {
  SweepLane& ln = sweep->lanes[static_cast<std::size_t>(l)];
  ln.busy = false;
  --sweep->busy;
  ln.env.reset();
  rebuild_fixups();
  ln.rec.timed_out = timed_out;
  ln.rec.detected_mask = ln.detected;
  ln.rec.cycles = ln.cycle;
  set_sweep_counters(ln.rec, ln.evaluated);
  emit(std::move(ln.rec));
}

void GroupSimulator::Impl::rebuild_fixups() {
  LaneSweep& s = *sweep;
  for (std::uint32_t lvl : s.fix_levels) s.fix_by_level[lvl].clear();
  s.fix_levels.clear();
  for (int l = 0; l < kLanes; ++l) {
    const SweepLane& ln = s.lanes[static_cast<std::size_t>(l)];
    if (!ln.busy) continue;
    for (nl::GateId g : ln.inj.slotted_gates()) {
      if (netlist.gate(g).kind == nl::GateKind::kDff) continue;  // D pin
      const std::uint32_t lvl = compiled->lv.level[g];
      if (s.fix_by_level[lvl].empty()) s.fix_levels.push_back(lvl);
      s.fix_by_level[lvl].push_back(
          {g, l, ln.inj.force_record(ln.inj.slot(g))});
    }
  }
  std::sort(s.fix_levels.begin(), s.fix_levels.end());
}

// Branch-free runs over both lanes, with each injected gate re-evaluated
// in its lane at the end of its level (its consumers sit at strictly
// higher levels, so the fixup lands before anything reads the forced
// word). Operands are read through the fold roots: folded BUF copies are
// never materialized, since only POs (always materialized) and fold-rooted
// DFF D slots are read from the lane.
void GroupSimulator::Impl::eval_lanes() {
  LaneSweep& s = *sweep;
  const nl::CompiledNetlist& cn = *compiled;
  LaneWord* const v = s.v.data();
  std::size_t r = 0;
  for (std::uint32_t lvl : s.fix_levels) {
    for (const std::size_t end = cn.level_run_begin[lvl + 1]; r < end; ++r) {
      nl::eval_run(cn, cn.runs[r], v);
    }
    for (const LaneFixup& fx : s.fix_by_level[lvl]) {
      const nl::Gate& gate = netlist.gate(fx.gate);
      const auto rd = [&](nl::GateId d) -> Word {
        return d < cn.num_gates ? v[cn.fold_root[d]][fx.lane] : 0;
      };
      const detail::GateForce& f = fx.force;
      const Word a = (rd(gate.in[0]) | f.set[1]) & ~f.clr[1];
      const Word b = (rd(gate.in[1]) | f.set[2]) & ~f.clr[2];
      const Word c = (rd(gate.in[2]) | f.set[3]) & ~f.clr[3];
      v[fx.gate][fx.lane] =
          (sim::eval_gate(gate.kind, a, b, c) | f.set[0]) & ~f.clr[0];
    }
  }
  for (; r < cn.runs.size(); ++r) nl::eval_run(cn, cn.runs[r], v);
}

// Clocks every DFF in both lanes. D-pin forcing applies to the sampled
// (pre-update) words, so a DFF feeding another DFF hands over its old,
// forced-or-not Q. Q-output forcing is re-applied after the next drive.
void GroupSimulator::Impl::step_lanes() {
  LaneSweep& s = *sweep;
  const nl::CompiledNetlist& cn = *compiled;
  LaneWord* const v = s.v.data();
  LaneWord* const next = s.next.data();
  const std::size_t num_dffs = cn.dff_gate.size();
  for (std::size_t i = 0; i < num_dffs; ++i) next[i] = v[cn.dff_d[i]];
  for (int l = 0; l < kLanes; ++l) {
    const SweepLane& ln = s.lanes[static_cast<std::size_t>(l)];
    if (!ln.busy) continue;
    for (const Injection& i : ln.inj.dff_d()) {
      LaneWord& n = next[s.dff_index[i.gate]];
      n[l] = force(n[l], i.mask, i.stuck);
    }
  }
  for (std::size_t i = 0; i < num_dffs; ++i) v[cn.dff_gate[i]] = next[i];
}

GroupSimulator::GroupSimulator(
    const nl::Netlist& netlist, const nl::FaultList& faults,
    const GroupPlan& plan, EnvFactory make_env,
    const FaultSimOptions& options,
    std::shared_ptr<SharedTraceSource> trace_source,
    std::shared_ptr<const nl::CompiledNetlist> compiled)
    : impl_(std::make_unique<Impl>(netlist, faults, plan, std::move(make_env),
                                   options, std::move(trace_source),
                                   std::move(compiled))) {}

GroupSimulator::~GroupSimulator() = default;

void GroupSimulator::set_run_deadline(
    std::chrono::steady_clock::time_point deadline) {
  impl_->run_deadline = deadline;
}

std::size_t GroupSimulator::lanes() const {
  const Impl& im = *impl_;
  const bool sweep = !im.trace_source || im.trace_source->fell_back();
  return im.kernel == KernelFlavor::kCompiled && sweep ? kLanes : 1;
}

void GroupSimulator::run(const PullGroup& pull, const EmitRecord& emit) {
  Impl& im = *impl_;
  while (const std::optional<std::size_t> group = pull(true)) {
    // The trace is fetched on the first simulated group, so a campaign
    // fully seeded from its journal never records it.
    im.fetch_trace();
    if (!im.trace && im.kernel == KernelFlavor::kCompiled) {
      im.run_lanes(*group, pull, emit);
      return;
    }
    emit(im.trace ? im.simulate_event(*group) : im.simulate_interp(*group));
  }
}

GroupRecord GroupSimulator::simulate(std::size_t group) {
  GroupRecord out;
  bool pulled = false;
  run(
      [&](bool) -> std::optional<std::size_t> {
        if (pulled) return std::nullopt;
        pulled = true;
        return group;
      },
      [&](GroupRecord&& rec) { out = std::move(rec); });
  return out;
}

FaultSimResult run_fault_sim(const nl::Netlist& netlist,
                             const nl::FaultList& faults,
                             const EnvFactory& make_env,
                             const FaultSimOptions& options) {
  using Clock = std::chrono::steady_clock;

  const GroupPlan plan(faults, options);
  FaultSimResult res = plan.make_result();
  const std::size_t num_groups = plan.num_groups();

  // Shard restriction: schedule only this shard's residue class. The
  // group universe (and therefore record encodings, sampling and the
  // campaign fingerprint) is untouched — a shard run is an ordinary
  // campaign that happens to leave the other residue classes unstarted.
  const bool sharded = options.shard_count > 1;
  if (sharded && options.shard_index >= options.shard_count) {
    throw std::runtime_error("shard index " +
                             std::to_string(options.shard_index) +
                             " out of range for " +
                             std::to_string(options.shard_count) + " shards");
  }
  std::vector<std::size_t> schedule;
  schedule.reserve(sharded ? num_groups / options.shard_count + 1
                           : num_groups);
  for (std::size_t g = 0; g < num_groups; ++g) {
    if (!sharded || g % options.shard_count == options.shard_index) {
      schedule.push_back(g);
    }
  }
  res.groups_scheduled = schedule.size();

  // Wall-clock bounds. When neither is configured the hot loop performs
  // no clock reads at all, keeping the no-timeout path byte-identical to
  // the historical engine.
  const bool has_clock_bounds =
      options.group_timeout_ms != 0 || options.time_budget_ms != 0;
  const Clock::time_point run_deadline =
      options.time_budget_ms != 0
          ? Clock::now() + std::chrono::milliseconds(options.time_budget_ms)
          : Clock::time_point::max();

  // The compiled program is built once and shared read-only by every
  // worker, exactly like the good trace.
  std::shared_ptr<const nl::CompiledNetlist> compiled = nl::compile(netlist);

  // Event engine: one lazily recorded good trace shared read-only by
  // every worker (a campaign fully seeded from its journal never pays
  // for recording at all).
  std::shared_ptr<SharedTraceSource> trace_source;
  if (options.engine == Engine::kEvent) {
    const std::size_t cap_bytes =
        options.trace_mem_mb == 0
            ? 0
            : options.trace_mem_mb * std::size_t{1024} * 1024;
    trace_source = std::make_shared<SharedTraceSource>(
        netlist, make_env, options.max_cycles, cap_bytes, compiled);
    // The good run is bounded like a single group: if it cannot finish
    // within group_timeout_ms, every group would time out under the
    // event engine too, so falling back to the sweep kernel preserves
    // the timeout semantics exactly.
    Clock::time_point trace_deadline = run_deadline;
    if (options.group_timeout_ms != 0) {
      const Clock::time_point d =
          Clock::now() + std::chrono::milliseconds(options.group_timeout_ms);
      if (d < trace_deadline) trace_deadline = d;
    }
    trace_source->set_deadline(trace_deadline);
    trace_source->set_cancel(options.cancel);
  }

  // Thread-safe progress: groups complete out of order across workers,
  // but the reported count is monotonic and ends at num_groups (fewer on
  // a cancelled run) — counted and reported under one lock, so no worker
  // delivers an older count after a newer one. The same mutex serializes
  // the on_group checkpoint hook so journal appends never interleave.
  std::atomic<std::size_t> groups_done{0};
  std::atomic<std::size_t> groups_seeded{0};
  std::atomic<std::uint64_t> good_cycles{0};
  std::mutex hook_mutex;
  auto report_progress = [&](bool seeded) {
    std::lock_guard<std::mutex> lock(hook_mutex);
    Progress p;
    p.seeded = seeded ? groups_seeded.fetch_add(1) + 1
                      : groups_seeded.load(std::memory_order_relaxed);
    p.done = groups_done.fetch_add(1) + 1;
    p.total = schedule.size();  // shard-local: ETA rates this shard only
    if (options.progress) options.progress(p);
  };

  // Splices a group outcome into the result arrays and folds its work
  // counters into the run totals. Groups own disjoint fault indices, so
  // concurrent calls from workers never collide; the scalar reductions
  // are atomic. Summing per-record counters (instead of per-worker
  // KernelStats) makes the aggregate a pure function of the resolved
  // records: seeded groups contribute the work their original
  // simulation recorded, so resumed and uninterrupted campaigns agree.
  std::atomic<std::uint64_t> agg_gates{0};
  std::atomic<std::uint64_t> agg_cycles{0};
  auto apply_record = [&](const GroupRecord& rec) {
    plan.apply(rec, &res);
    agg_gates.fetch_add(rec.gates_evaluated, std::memory_order_relaxed);
    agg_cycles.fetch_add(rec.sim_cycles, std::memory_order_relaxed);
    std::uint64_t cur = good_cycles.load(std::memory_order_relaxed);
    while (rec.cycles > cur &&
           !good_cycles.compare_exchange_weak(cur, rec.cycles,
                                              std::memory_order_relaxed)) {
    }
  };

  // Resolves one group outcome. Seeded groups are not re-journaled;
  // simulated and deadline-expired ones go through on_group.
  const bool timed =
      static_cast<bool>(options.on_group_metric);  // one clock pair/group
  auto resolve = [&](const GroupRecord& rec, bool seeded, double ms) {
    apply_record(rec);
    if (!seeded && options.on_group) {
      std::lock_guard<std::mutex> lock(hook_mutex);
      options.on_group(rec);
    }
    if (timed) {
      std::lock_guard<std::mutex> lock(hook_mutex);
      options.on_group_metric(rec, seeded, ms);
    }
    report_progress(seeded);
  };
  const auto ms_since = [](Clock::time_point t) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
  };

  // One worker's group stream. Schedule slots are claimed in order;
  // seeded and deadline-expired groups resolve on the spot, the rest go
  // to the simulator, which keeps up to lanes() of them in flight. A
  // cancel (or another worker's failure) stops the claims; groups in
  // flight finish.
  std::atomic<std::size_t> next_slot{0};
  std::atomic<bool> failed{false};
  auto stream = [&](GroupSimulator& sim) {
    // In-flight groups and when they were claimed (metric durations).
    std::vector<std::pair<std::size_t, Clock::time_point>> claimed;
    const auto pull = [&](bool) -> std::optional<std::size_t> {
      for (;;) {
        if (failed.load(std::memory_order_relaxed) ||
            (options.cancel &&
             options.cancel->load(std::memory_order_relaxed)) ||
            next_slot.load(std::memory_order_relaxed) >= schedule.size()) {
          return std::nullopt;
        }
        const std::size_t slot = next_slot.fetch_add(1);
        if (slot >= schedule.size()) return std::nullopt;
        const std::size_t group = schedule[slot];
        const Clock::time_point started =
            timed ? Clock::now() : Clock::time_point();
        GroupRecord rec;
        if (options.seed_group && options.seed_group(group, &rec)) {
          if (rec.group != group || rec.count != plan.group_count(group) ||
              rec.detect_cycle.size() != rec.count) {
            throw std::runtime_error(
                "fault-sim seed record does not match group " +
                std::to_string(group) + " of this campaign");
          }
          resolve(rec, true, timed ? ms_since(started) : 0.0);
        } else if (has_clock_bounds && Clock::now() >= run_deadline) {
          // Unstarted at the campaign deadline: every fault is
          // inconclusive.
          rec = plan.unstarted_record(group);
          rec.timed_out = true;
          resolve(rec, false, timed ? ms_since(started) : 0.0);
        } else {
          claimed.emplace_back(group, started);
          return group;
        }
      }
    };
    const auto emit = [&](GroupRecord&& rec) {
      double ms = 0.0;
      for (auto it = claimed.begin(); it != claimed.end(); ++it) {
        if (it->first != rec.group) continue;
        if (timed) ms = ms_since(it->second);
        claimed.erase(it);
        break;
      }
      resolve(rec, false, ms);
    };
    try {
      sim.run(pull, emit);
    } catch (...) {
      failed.store(true);
      throw;
    }
  };

  unsigned threads =
      options.threads == 0 ? util::hardware_threads() : options.threads;
  threads = static_cast<unsigned>(std::min<std::size_t>(
      threads, std::max<std::size_t>(schedule.size(), 1)));

  if (threads <= 1) {
    GroupSimulator sim(netlist, faults, plan, make_env, options,
                       trace_source, compiled);
    sim.set_run_deadline(run_deadline);
    stream(sim);
  } else {
    // One task per worker, each streaming groups until the schedule is
    // exhausted; every worker owns its simulator and injection tables.
    util::ThreadPool pool(threads);
    std::vector<std::unique_ptr<GroupSimulator>> workers(pool.size());
    pool.run(pool.size(), [&](std::size_t, unsigned w) {
      if (!workers[w]) {
        workers[w] = std::make_unique<GroupSimulator>(
            netlist, faults, plan, make_env, options, trace_source, compiled);
        workers[w]->set_run_deadline(run_deadline);
      }
      stream(*workers[w]);
    });
  }
  res.gates_evaluated = agg_gates.load(std::memory_order_relaxed);
  res.sim_cycles = agg_cycles.load(std::memory_order_relaxed);

  if (trace_source) {
    res.trace_bytes = trace_source->trace_bytes();
    res.trace_fallback = trace_source->fell_back();
  }
  res.good_cycles = good_cycles.load(std::memory_order_relaxed);
  res.groups_done = groups_done.load(std::memory_order_relaxed);
  res.cancelled = options.cancel &&
                  options.cancel->load(std::memory_order_relaxed) &&
                  res.groups_done < res.groups_scheduled;
  return res;
}

Coverage overall_coverage(const nl::FaultList& faults,
                          const FaultSimResult& result) {
  Coverage cov;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (!result.simulated[i]) continue;
    cov.total += faults.class_size[i];
    if (result.detected[i]) cov.detected += faults.class_size[i];
    // timed_out/quarantined may be empty on hand-built results; empty
    // means none.
    if (i < result.timed_out.size() && result.timed_out[i]) {
      cov.timed_out += faults.class_size[i];
    }
    if (i < result.quarantined.size() && result.quarantined[i]) {
      cov.quarantined += faults.class_size[i];
    }
  }
  return cov;
}

std::vector<Coverage> component_coverage(const nl::Netlist& netlist,
                                         const nl::FaultList& faults,
                                         const FaultSimResult& result) {
  std::vector<Coverage> cov(static_cast<std::size_t>(netlist.num_components()));
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (!result.simulated[i]) continue;
    const nl::ComponentId c = fault_component(netlist, faults.faults[i]);
    cov[c].total += faults.class_size[i];
    if (result.detected[i]) cov[c].detected += faults.class_size[i];
    if (i < result.timed_out.size() && result.timed_out[i]) {
      cov[c].timed_out += faults.class_size[i];
    }
    if (i < result.quarantined.size() && result.quarantined[i]) {
      cov[c].quarantined += faults.class_size[i];
    }
  }
  return cov;
}

}  // namespace sbst::fault
