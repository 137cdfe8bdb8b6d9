#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "fault/compiled_event_kernel.h"
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

/// One lane: the slice it simulates and everything lane-local about it.
struct SweepLane {
  explicit SweepLane(const nl::Netlist& netlist) : inj(netlist.size()) {}

  bool busy = false;
  GroupSlice slice;
  InjectionTable inj;
  Word all_mask = 0;
  Word detected = 0;
  std::uint64_t cycle = 0;
  std::uint64_t evaluated = 0;  // cycles evaluated (work counters)
  std::chrono::steady_clock::time_point started;
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
      if (k == nl::GateKind::kInput || k == nl::GateKind::kDff ||
          k == nl::GateKind::kConst0 || k == nl::GateKind::kConst1) {
        reset_image.emplace_back(g, reset.word(g));
      }
    }
    lanes.reserve(kLanes);
    for (int l = 0; l < kLanes; ++l) lanes.emplace_back(netlist);
  }

  std::vector<LaneWord> v;     // value slots, num_gates + 1
  std::vector<LaneWord> next;  // per DFF, sampled D words
  std::vector<SweepLane> lanes;
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
  std::uint64_t group_timeout_ms;
  Clock::time_point run_deadline;
  // Campaign-shared compiled program (compiled privately when the caller
  // did not pass one).
  std::shared_ptr<const nl::CompiledNetlist> compiled;
  // Primary-output bits and the event engine's injection table.
  std::vector<nl::GateId> po_bits;
  InjectionTable inj;
  // Per-cycle static sweep tallies: how many comb gates of each base-op
  // class one full sweep evaluates (folded BUFs class as the AND lane
  // they forward through). A pure function of the netlist.
  std::array<std::uint64_t, nl::kNumCompiledOps> sweep_kinds_per_cycle = {
      0, 0, 0, 0};
  // The campaign-shared recording of the good run, and the differential
  // kernel, built on first use when the recording has planes.
  std::shared_ptr<const GoodTrace> trace;
  std::optional<CompiledEventKernel> event;
  // Compiled sweep, built on first use.
  std::unique_ptr<LaneSweep> sweep;

  Impl(const nl::Netlist& n, const nl::FaultList& f, const GroupPlan& p,
       const FaultSimOptions& options,
       std::shared_ptr<const GoodTrace> good_trace,
       Clock::time_point deadline,
       std::shared_ptr<const nl::CompiledNetlist> comp)
      : netlist(n),
        faults(f),
        plan(p),
        group_timeout_ms(options.group_timeout_ms),
        run_deadline(deadline),
        compiled(comp ? std::move(comp) : nl::compile(n)),
        inj(n.size()) {
    use(std::move(good_trace));
    // The kernels force faults on compiled nodes: a fault on a gate the
    // compiler folded away (a BUF that is not a primary output) has no
    // node to force. Generated fault lists never hold one
    // (nl::enumerate_faults skips BUFs); reject hand-built ones here.
    for (std::size_t i : plan.active()) {
      const nl::Fault& f = faults.faults[i];
      const nl::GateKind k = n.gate(f.gate).kind;
      if (nl::fanin_count(k) != 0 && k != nl::GateKind::kDff &&
          compiled->node_of_gate[f.gate] == nl::kNoNode) {
        throw std::invalid_argument(
            "fault " + std::to_string(i) + " sits on gate " +
            std::to_string(f.gate) + " (" +
            std::string(nl::gate_kind_name(k)) +
            "), which the netlist compiler folds away");
      }
    }
    for (const nl::Port& port : n.outputs()) {
      po_bits.insert(po_bits.end(), port.bits.begin(), port.bits.end());
    }
    for (nl::GateId g : compiled->lv.comb_order) {
      ++sweep_kinds_per_cycle[static_cast<std::size_t>(
          nl::op_class(n.gate(g).kind))];
    }
  }

  /// Takes `good_run` as the recording every later slice runs against.
  void use(std::shared_ptr<const GoodTrace> good_run) {
    trace = std::move(good_run);
    event.reset();
  }

  /// Whether the event kernel reads the recording: one still being
  /// written has planes, or lost them to the memory cap and only serves
  /// slices that will be discarded (a recording without planes hands out
  /// no slice before it completes); a complete one iff it kept them.
  bool reads_planes() const {
    return trace->has_planes() || !trace->watermark().complete;
  }

  /// Loads `group`'s faults into `table`.
  void load(std::size_t group, InjectionTable& table) const {
    table.clear();
    const std::size_t base = group * kFaultsPerGroup;
    for (std::uint32_t i = 0; i < plan.group_count(group); ++i) {
      table.add(netlist, faults.faults[plan.active()[base + i]],
                static_cast<int>(i));
    }
  }

  /// The wall-clock bound of a group starting now: its group timeout or
  /// the run deadline, whichever comes first (time_point::max() = none).
  Clock::time_point group_deadline() const {
    if (group_timeout_ms == 0) return run_deadline;
    return std::min(run_deadline,
                    Clock::now() + std::chrono::milliseconds(group_timeout_ms));
  }

  /// Sweep work counters count every combinational gate once per
  /// evaluated cycle, folded BUFs included, so they are a pure function
  /// of (netlist, evaluated cycles) and the same in either lane.
  void set_sweep_counters(GroupRecord& rec, std::uint64_t cycles) const {
    rec.gates_evaluated = cycles * compiled->lv.comb_order.size();
    rec.sim_cycles = cycles;
    for (std::size_t i = 0; i < rec.evals_by_kind.size(); ++i) {
      rec.evals_by_kind[i] = cycles * sweep_kinds_per_cycle[i];
    }
    rec.engine_used = GroupEngine::kSweep;
  }

  bool advance_event(GroupSlice* slice);
  void run_lanes(GroupSlice first, const PullSlice& pull,
                 const EmitSlice& emit);

  // Two-lane sweep steps (run_lanes).
  void load_lane(int l, GroupSlice&& slice);
  void finish_lane(int l, bool timed_out, const EmitSlice& emit);
  void rebuild_fixups();
  void eval_lanes();
  void step_lanes();
};

// One slice: the injection table and the kernel's per-group partition
// are rebuilt from the group index, the carried state comes from the
// slice, and the slice's work is added to the record's counters.
bool GroupSimulator::Impl::advance_event(GroupSlice* slice) {
  GroupRecord& rec = slice->rec;
  load(rec.group, inj);
  if (!event) event.emplace(netlist, *compiled, po_bits, trace);
  const KernelStats before = event->stats();
  const bool finished = event->simulate(inj, slice->deadline, slice);
  const KernelStats& after = event->stats();
  rec.gates_evaluated += after.gates_evaluated - before.gates_evaluated;
  rec.sim_cycles += after.cycles - before.cycles;
  for (std::size_t i = 0; i < rec.evals_by_kind.size(); ++i) {
    rec.evals_by_kind[i] += after.evals_by_kind[i] - before.evals_by_kind[i];
  }
  rec.engine_used = GroupEngine::kEvent;
  return finished;
}

// The two-lane compiled sweep. Each pass runs one cycle of every busy
// lane: per-lane input replay from the recorded stimulus and source/Q
// forcing, one branch-free sweep of the compiled runs over both lanes
// (with per-(gate, lane) fixups at their level), per-lane detection, one
// DFF step. A group ends at the recorded stop cycle unless it drops or
// times out first. A lane whose group ends emits its record and is
// refilled from lane-local reset on the next pass, while the other lane
// carries on. No step reads the other lane, so records are bit-identical
// whichever lane (and whichever partner) a group runs with.
void GroupSimulator::Impl::run_lanes(GroupSlice first, const PullSlice& pull,
                                     const EmitSlice& emit) {
  if (!sweep) sweep = std::make_unique<LaneSweep>(netlist, compiled);
  LaneSweep& s = *sweep;
  LaneWord* const v = s.v.data();
  const std::vector<nl::GateId>& inputs = trace->inputs();
  const std::uint64_t stop = trace->cycles();

  std::optional<GroupSlice> next = std::move(first);
  unsigned since_poll = kPollCycles;  // the first idle lane polls at once
  for (;;) {
    // Refill idle lanes.
    for (int l = 0; l < kLanes; ++l) {
      if (s.lanes[static_cast<std::size_t>(l)].busy) continue;
      if (!next) {
        if (s.busy == 0) {
          next = pull(true);
          if (!next) return;  // stream ended, every lane drained
        } else if (since_poll >= kPollCycles) {
          next = pull(false);
          if (!next) {
            since_poll = 0;
            continue;
          }
        } else {
          continue;
        }
      }
      load_lane(l, std::move(*next));
      next.reset();
    }
    ++since_poll;

    // Cycle bounds (the recorded stop cycle, the watchdog), then the
    // recorded inputs of the lane's cycle, before source forcing.
    for (int l = 0; l < kLanes; ++l) {
      SweepLane& ln = s.lanes[static_cast<std::size_t>(l)];
      if (!ln.busy) continue;
      if (ln.cycle >= stop) {
        finish_lane(l, false, emit);
        continue;
      }
      // Amortized watchdog: one clock read every 1024 cycles keeps the
      // bound within ~ms granularity without slowing the hot loop.
      if (ln.slice.deadline != Clock::time_point::max() &&
          (ln.cycle & 1023u) == 1023u && Clock::now() >= ln.slice.deadline)
          [[unlikely]] {
        finish_lane(l, true, emit);
        continue;
      }
      const Word* const in = trace->stimulus(ln.cycle);
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        v[inputs[i]][l] = Word{0} - ((in[i >> 6] >> (i & 63)) & 1);
      }
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
          const auto slot = static_cast<std::size_t>(std::countr_zero(m));
          ln.slice.rec.detect_cycle[slot] = static_cast<std::int64_t>(ln.cycle);
        }
        ln.detected |= d;
        if (ln.detected == ln.all_mask) {  // fault dropping: group done
          finish_lane(l, false, emit);
          continue;
        }
      }
      ++ln.cycle;
    }
    if (s.busy != 0) step_lanes();
  }
}

void GroupSimulator::Impl::load_lane(int l, GroupSlice&& slice) {
  SweepLane& ln = sweep->lanes[static_cast<std::size_t>(l)];
  ln.slice = std::move(slice);
  load(ln.slice.rec.group, ln.inj);
  LaneWord* const v = sweep->v.data();
  for (const auto& [g, w] : sweep->reset_image) v[g][l] = w;
  ln.all_mask = (Word{1} << ln.slice.rec.count) - 1;  // count <= 63
  ln.detected = 0;
  ln.cycle = 0;
  ln.evaluated = 0;
  ln.started = Clock::now();
  ln.busy = true;
  ++sweep->busy;
  rebuild_fixups();
}

void GroupSimulator::Impl::finish_lane(int l, bool timed_out,
                                       const EmitSlice& emit) {
  SweepLane& ln = sweep->lanes[static_cast<std::size_t>(l)];
  ln.busy = false;
  --sweep->busy;
  rebuild_fixups();
  GroupRecord& rec = ln.slice.rec;
  rec.timed_out = timed_out;
  rec.detected_mask = ln.detected;
  rec.cycles = ln.cycle;
  set_sweep_counters(rec, ln.evaluated);
  ln.slice.run_ms +=
      std::chrono::duration<double, std::milli>(Clock::now() - ln.started)
          .count();
  emit(std::move(ln.slice), true);
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
    const GroupPlan& plan, const FaultSimOptions& options,
    std::shared_ptr<const GoodTrace> good_run,
    std::chrono::steady_clock::time_point run_deadline,
    std::shared_ptr<const nl::CompiledNetlist> compiled)
    : impl_(std::make_unique<Impl>(netlist, faults, plan, options,
                                   std::move(good_run), run_deadline,
                                   std::move(compiled))) {}

GroupSimulator::~GroupSimulator() = default;

std::size_t GroupSimulator::lanes() const {
  return impl_->trace && impl_->reads_planes() ? 1 : kLanes;
}

GroupSlice GroupSimulator::slice(std::size_t group) const {
  GroupSlice s;
  s.rec = impl_->plan.unstarted_record(group);
  s.good_run = impl_->trace;
  s.claimed = Impl::Clock::now();
  s.deadline = impl_->group_deadline();
  return s;
}

void GroupSimulator::run(const PullSlice& pull, const EmitSlice& emit) {
  using Clock = Impl::Clock;
  Impl& im = *impl_;
  while (std::optional<GroupSlice> s = pull(true)) {
    // The one rebuild: slices that name another recording (the
    // stimulus-only copy of planes that crossed the memory cap).
    if (s->good_run != im.trace) im.use(s->good_run);
    if (!im.trace) {
      throw std::logic_error("no recorded good run to simulate group " +
                             std::to_string(s->rec.group) + " against");
    }
    if (!im.reads_planes()) {
      im.run_lanes(std::move(*s), pull, emit);
      return;
    }
    const auto start = Clock::now();
    const bool finished = im.advance_event(&*s);
    s->run_ms +=
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    emit(std::move(*s), finished);
  }
}

GroupRecord GroupSimulator::simulate(std::size_t group) {
  std::optional<GroupSlice> next = slice(group);
  GroupRecord out;
  run([&](bool) { return std::exchange(next, std::nullopt); },
      [&](GroupSlice&& s, bool) { out = std::move(s.rec); });
  return out;
}

// --- GroupDriver ------------------------------------------------------------

struct GroupDriver::Stream {
  using Clock = std::chrono::steady_clock;

  std::mutex mu;
  std::condition_variable cv;  // watermark moved, or the recording ended
  std::shared_ptr<GoodTrace> live;         // being written; null once ended
  std::shared_ptr<const GoodTrace> trace;  // once ended; null = cut
  /// The recording slices run against: `live` while it is written, then
  /// `trace`, or null when a drain or the run deadline came first and
  /// nothing more is simulated. A slice run against another recording
  /// does not stand.
  std::shared_ptr<const GoodTrace> current;
  Clock::time_point ended;  // the epoch until the recording ends
  std::vector<GroupSlice> parked;
  std::vector<std::pair<GroupRecord, double>> held;  // finished while recording
  std::vector<std::size_t> returned;  // claimed, then discarded
  std::size_t parks = 0;

  /// Removes and returns the parked group with the lowest cycle below
  /// `mark`, if any.
  std::optional<GroupSlice> take_parked(std::uint64_t mark) {
    auto behind = parked.end();
    for (auto it = parked.begin(); it != parked.end(); ++it) {
      if (it->cycle < mark &&
          (behind == parked.end() || it->cycle < behind->cycle)) {
        behind = it;
      }
    }
    if (behind == parked.end()) return std::nullopt;
    GroupSlice s = std::move(*behind);
    *behind = std::move(parked.back());
    parked.pop_back();
    return s;
  }
};

GroupDriver::GroupDriver(const nl::Netlist& netlist,
                         const nl::FaultList& faults,
                         const EnvFactory& make_env,
                         const FaultSimOptions& options)
    : netlist_(netlist),
      faults_(faults),
      make_env_(make_env),
      options_(options),
      plan_(faults, options),
      stream_(std::make_unique<Stream>()),
      result_(plan_.make_result()) {
  using Clock = std::chrono::steady_clock;

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
  for (std::size_t g = sharded ? options.shard_index : 0;
       g < plan_.num_groups(); g += sharded ? options.shard_count : 1) {
    schedule.push_back(g);
  }
  result_.groups_scheduled = schedule.size();

  // Stored records resolve up front, so every later step (claims, the
  // recording, the deadline) sees only the groups left to simulate.
  for (std::size_t group : schedule) {
    GroupRecord rec;
    if (!options.seed_group || !options.seed_group(group, &rec)) {
      unseeded_.push_back(group);
      continue;
    }
    if (rec.group != group || rec.count != plan_.group_count(group) ||
        rec.detect_cycle.size() != rec.count) {
      throw std::runtime_error("fault-sim seed record does not match group " +
                               std::to_string(group) + " of this campaign");
    }
    fold(rec, /*seeded=*/true, 0.0);
  }

  if (options.time_budget_ms != 0) {
    deadline_ =
        Clock::now() + std::chrono::milliseconds(options.time_budget_ms);
  }
  if (unseeded_.empty()) return;  // nothing to simulate: no compile, no run

  // The compiled program and the recording of the good run are built
  // once per campaign and shared read-only by every worker; forked
  // workers inherit both.
  compiled_ = nl::compile(netlist);
  stream_->live = std::make_shared<GoodTrace>(
      netlist, options.engine == Engine::kEvent);
  stream_->current = stream_->live;
}

GroupDriver::~GroupDriver() = default;

// This is the only place the environment runs. A recording cut by the
// deadline, a drain or stop() is null and leaves nothing to simulate:
// claim() expires every group past the deadline and claims none while
// draining or stopped.
void GroupDriver::record() {
  Stream& st = *stream_;
  if (st.live == nullptr) {  // nothing to simulate: no environment
    end_recording(nullptr);
    return;
  }
  const std::size_t cap_bytes =
      options_.trace_mem_mb * std::size_t{1024} * 1024;  // 0 = unlimited
  std::shared_ptr<const GoodTrace> trace;
  try {
    trace = record_good_trace(
        st.live, netlist_, make_env_, options_.max_cycles, cap_bytes,
        deadline_,
        [this] { return draining(); },
        [&st] {
          { std::lock_guard<std::mutex> lock(st.mu); }
          st.cv.notify_all();
        },
        compiled_);
  } catch (...) {
    stop();
    end_recording(nullptr);
    throw;
  }
  end_recording(std::move(trace));
}

void GroupDriver::end_recording(std::shared_ptr<const GoodTrace> trace) {
  using Clock = std::chrono::steady_clock;
  Stream& st = *stream_;
  std::vector<std::pair<GroupRecord, double>> held;
  {
    std::lock_guard<std::mutex> lock(st.mu);
    st.ended = Clock::now();
    // Work done against the recording stands only if the recording is
    // exactly what a run that recorded first would go on to simulate: it
    // ended before a drain and the run deadline, and it is the recording
    // the work read, not the stimulus-only copy made when its planes
    // crossed the memory cap. A cut (null) comes only after a drain or
    // the deadline.
    st.current = !draining() && st.ended < deadline_ ? trace : nullptr;
    const bool keep = st.current != nullptr && st.current == st.live;
    st.trace = std::move(trace);
    st.live.reset();
    if (keep) {
      held.swap(st.held);
    } else {
      for (const auto& h : st.held) st.returned.push_back(h.first.group);
      for (const GroupSlice& s : st.parked) st.returned.push_back(s.rec.group);
      st.held.clear();
      st.parked.clear();
    }
  }
  st.cv.notify_all();
  // Held groups fold as if each had started only now: once a drain is
  // set (say by a progress hook), the rest stay unsimulated.
  for (const auto& [rec, ms] : held) {
    if (draining()) break;
    fold(rec, /*seeded=*/false, ms);
  }
}

bool GroupDriver::draining() const {
  return stopped_.load(std::memory_order_relaxed) ||
         (options_.cancel && options_.cancel->load(std::memory_order_relaxed));
}

std::size_t GroupDriver::pending() const {
  return unseeded_.size() -
         std::min(next_.load(std::memory_order_relaxed), unseeded_.size());
}

std::unique_ptr<GroupSimulator> GroupDriver::make_simulator() const {
  std::shared_ptr<const GoodTrace> trace;
  {
    std::lock_guard<std::mutex> lock(stream_->mu);
    trace = stream_->current;
  }
  return std::make_unique<GroupSimulator>(netlist_, faults_, plan_, options_,
                                          std::move(trace), deadline_,
                                          compiled_);
}

std::optional<std::size_t> GroupDriver::claim() {
  for (;;) {
    if (draining()) return std::nullopt;
    std::size_t group;
    {
      std::lock_guard<std::mutex> lock(stream_->mu);
      std::vector<std::size_t>& returned = stream_->returned;
      if (!returned.empty()) {
        group = returned.back();
        returned.pop_back();
      } else {
        const std::size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
        if (slot >= unseeded_.size()) return std::nullopt;
        group = unseeded_[slot];
      }
    }
    if (deadline_ != std::chrono::steady_clock::time_point::max() &&
        std::chrono::steady_clock::now() >= deadline_) {
      // Unstarted at the campaign deadline: every fault is inconclusive.
      GroupRecord rec = plan_.unstarted_record(group);
      rec.timed_out = true;
      fold(rec, /*seeded=*/false, 0.0);
      continue;
    }
    return group;
  }
}

std::optional<GroupSlice> GroupDriver::next_slice(bool wait) {
  using Clock = std::chrono::steady_clock;
  Stream& st = *stream_;
  std::unique_lock<std::mutex> lock(st.mu);
  for (;;) {
    const bool recording = st.live != nullptr;
    const std::uint64_t mark = recording
                                   ? st.live->watermark().cycles
                                   : std::numeric_limits<std::uint64_t>::max();
    // Once the recording has ended, parked groups go first, furthest
    // behind first: they are the groups that outlived the most cycles.
    // A drain leaves them unsimulated, like unstarted groups.
    std::optional<GroupSlice> s;
    if (!recording && !draining()) s = st.take_parked(mark);
    if (!s && mark > 0) {
      std::shared_ptr<const GoodTrace> good_run = st.current;
      lock.unlock();
      const std::optional<std::size_t> group = claim();
      lock.lock();
      if (group) {
        s.emplace();
        s->rec = plan_.unstarted_record(*group);
        s->good_run = std::move(good_run);
        s->claimed = Clock::now();
      } else if (!recording) {
        // Groups parked later are resumed by the worker that parks them.
        return std::nullopt;
      }
    }
    // While recording, fresh claims go first (they have the most cycles
    // below the watermark), then the group furthest behind it.
    std::uint64_t seen = mark;
    if (!s && st.live != nullptr) {
      seen = st.live->watermark().cycles;
      s = st.take_parked(seen);
    }
    if (s) {
      // Unbounded before the recording completes (a slice stops at the
      // watermark); after, the group timeout counts from the later of
      // the claim and the end of the recording.
      if (s->good_run == nullptr || s->good_run->watermark().complete) {
        s->deadline = deadline_;
        if (options_.group_timeout_ms != 0) {
          s->deadline = std::min(
              deadline_,
              std::max(s->claimed, st.ended) +
                  std::chrono::milliseconds(options_.group_timeout_ms));
        }
      }
      return s;
    }
    if (st.live == nullptr) continue;
    if (!wait) return std::nullopt;
    // Nothing below the watermark: block until it moves or the
    // recording ends.
    st.cv.wait(lock, [&] {
      return st.live == nullptr || st.live->watermark().cycles != seen;
    });
  }
}

void GroupDriver::settle(GroupSlice&& slice, bool finished) {
  Stream& st = *stream_;
  {
    std::lock_guard<std::mutex> lock(st.mu);
    if (slice.good_run != st.current) {
      st.returned.push_back(slice.rec.group);
      return;
    }
    if (!finished) {
      ++st.parks;
      st.parked.push_back(std::move(slice));
      return;
    }
    if (st.live != nullptr) {
      st.held.emplace_back(std::move(slice.rec), slice.run_ms);
      return;
    }
  }
  fold(slice.rec, /*seeded=*/false, slice.run_ms);
}

// Summing per-record counters (instead of per-worker KernelStats) makes
// the aggregate a pure function of the resolved records: seeded groups
// contribute the work their original simulation recorded, so resumed and
// uninterrupted campaigns agree. Progress is counted and reported under
// the same lock, so it is monotonic even though groups complete out of
// order.
void GroupDriver::fold(const GroupRecord& rec, bool seeded,
                       double duration_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  plan_.apply(rec, &result_);
  result_.gates_evaluated += rec.gates_evaluated;
  result_.sim_cycles += rec.sim_cycles;
  result_.good_cycles = std::max(result_.good_cycles, rec.cycles);
  ++result_.groups_done;
  if (seeded) ++seeded_;
  if (options_.on_group) options_.on_group(rec, seeded, duration_ms);
  if (options_.progress) {
    options_.progress({result_.groups_done, seeded_, result_.groups_scheduled});
  }
}

FaultSimResult GroupDriver::finish() {
  std::lock_guard<std::mutex> lock(mu_);
  const std::shared_ptr<const GoodTrace>& trace = stream_->trace;
  result_.trace_bytes = trace ? trace->memory_bytes() : 0;
  result_.trace_fallback = options_.engine == Engine::kEvent && trace &&
                           !trace->has_planes();
  result_.parks = stream_->parks;
  result_.cancelled = options_.cancel &&
                      options_.cancel->load(std::memory_order_relaxed) &&
                      result_.groups_done < result_.groups_scheduled;
  return std::move(result_);
}

// --- threaded executor ------------------------------------------------------

FaultSimResult run_fault_sim(const nl::Netlist& netlist,
                             const nl::FaultList& faults,
                             const EnvFactory& make_env,
                             const FaultSimOptions& options) {
  GroupDriver driver(netlist, faults, make_env, options);

  // N workers on N OS threads. The calling thread records the good run
  // while the other N - 1 start on it (the event kernel below the
  // watermark; the sweep once it completes), then joins them as worker 0.
  const std::size_t workers = std::min<std::size_t>(
      options.threads == 0 ? util::hardware_threads() : options.threads,
      driver.pending());

  // A worker's first failure ends every worker's claims (groups in
  // flight finish) and is rethrown once all workers have joined.
  std::mutex error_mu;
  std::exception_ptr error;
  const auto fail = [&] {
    driver.stop();
    std::lock_guard<std::mutex> lock(error_mu);
    if (!error) error = std::current_exception();
  };
  const auto work = [&] {
    try {
      driver.make_simulator()->run(
          [&driver](bool wait) { return driver.next_slice(wait); },
          [&driver](GroupSlice&& s, bool finished) {
            driver.settle(std::move(s), finished);
          });
    } catch (...) {
      fail();
    }
  };

  std::vector<std::thread> threads;
  for (std::size_t w = 1; w < workers; ++w) {
    try {
      threads.emplace_back(work);
    } catch (...) {
      fail();
      break;
    }
  }
  try {
    driver.record();
  } catch (...) {
    fail();
  }
  if (workers > 0) work();
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
  return driver.finish();
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
