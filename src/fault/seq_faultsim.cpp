#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <new>
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

// --- eight-lane sweep --------------------------------------------------------
//
// The compiled sweep simulates eight independent groups per pass: every
// value slot holds one 64-bit simulation word per lane, each lane with
// its own 63 faulty machines and its own good machine in bit 63. The
// typedef is deliberately non-dependent — GCC silently drops
// vector_size on a template-dependent alias, leaving a scalar.
constexpr int kLanes = 8;
typedef Word LaneWord __attribute__((vector_size(64)));
static_assert(sizeof(LaneWord) == kLanes * sizeof(Word),
              "one 64-bit simulation word per lane");

/// An idle lane asks for a new group at least this often (in cycles)
/// while another lane is busy.
constexpr unsigned kPollCycles = 16;

/// Zeroed lane words, 64-byte aligned by construction. The AVX-512 pass
/// moves whole words with aligned 512-bit loads and stores, but outside
/// AVX-512 code GCC aligns a 64-byte vector type to 16 bytes only, and
/// that is all operator new (and so std::vector) would give.
struct FreeLaneWords {
  void operator()(LaneWord* p) const { std::free(p); }
};
using LaneWords = std::unique_ptr<LaneWord[], FreeLaneWords>;

LaneWords lane_words(std::size_t n) {
  const std::size_t bytes = std::max<std::size_t>(n, 1) * sizeof(LaneWord);
  void* const p = std::aligned_alloc(64, bytes);
  if (p == nullptr) throw std::bad_alloc();
  std::memset(p, 0, bytes);
  return LaneWords(static_cast<LaneWord*>(p));
}

/// One lane: the slice it simulates (its cycle and detected machines
/// included) and everything else lane-local about it.
struct SweepLane {
  explicit SweepLane(const nl::Netlist& netlist) : inj(netlist.size()) {}

  bool busy = false;
  GroupSlice slice;
  InjectionTable inj;
  Word all_mask = 0;
  const Word* stimulus = nullptr;  // recorded inputs of this pass's cycle
  std::uint64_t evaluated = 0;     // cycles evaluated (work counters)
};

/// Forced re-evaluation of one injected combinational gate in one lane,
/// with the gate's kind and fold-rooted pin slots (zero_slot for a
/// missing pin) resolved when the lane is loaded.
struct LaneFixup {
  nl::GateId gate;
  std::uint32_t in[3];
  nl::GateKind kind;
  std::uint8_t lane;
  detail::GateForce force;
};

/// Eight-lane sweep state of one simulator.
struct LaneSweep {
  LaneSweep(const nl::Netlist& netlist,
            const std::shared_ptr<const nl::CompiledNetlist>& compiled)
      : v(lane_words(compiled->num_gates + 1)),
        staged(lane_words(compiled->dff_chained.size())) {
    const nl::CompiledNetlist& cn = *compiled;
    fix_by_level.resize(static_cast<std::size_t>(cn.lv.max_level) + 1);
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

  LaneWords v;       // value slots, num_gates + 1
  LaneWords staged;  // clock_edge's samples of chained DFFs
  std::vector<SweepLane> lanes;
  std::vector<std::pair<nl::GateId, Word>> reset_image;
  // Comb fixups of the busy lanes, by level; fix_levels lists the
  // non-empty levels in ascending order.
  std::vector<std::vector<LaneFixup>> fix_by_level;
  std::vector<std::uint32_t> fix_levels;
  int busy = 0;
  // The busy lanes' wall clock is charged up to here (charge_lanes).
  std::chrono::steady_clock::time_point charged;
};

// One cycle of every busy lane: replay of the lane's recorded inputs and
// source/Q forcing; one branch-free sweep of the compiled runs over all
// lanes, each injected gate re-evaluated in its lane at the end of its
// level (its consumers sit at strictly higher levels, so the fixup lands
// before anything reads the forced word); per lane, the bits where a
// machine's PO differs from its lane's good machine (bit 63) into
// diff[l]; one in-place clock edge (nl::clock_edge). Operands are read
// through the fold roots: folded BUF copies are never materialized,
// since only POs (always materialized) and fold-rooted DFF D slots are
// read from the lane. The edge hands a DFF fed by another DFF that
// DFF's old, forced-or-not Q; a D-pin force then lands on its own DFF's
// new Q word, which nothing has read yet, and Q-output forcing is
// re-applied after the next drive. Idle lanes are evaluated too and
// never read: a lane starts from lane-local reset.
//
// This is the one place the sweep spends its time, so it is compiled for
// three ISAs and the loader picks the widest the CPU has: one LaneWord
// is four SSE2, two AVX2 or one AVX-512 register. `flatten` inlines
// nl::eval_run into each clone; a call would reach the generic build.
// ThreadSanitizer instruments the ifunc resolver of the clones, which
// runs before its runtime is up (a GCC 12 -fsanitize=thread binary dies
// there before main), so a build for race checks compiles the pass once.
#if defined(__SANITIZE_THREAD__)
#define SBST_SWEEP_PASS_CLONES
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SBST_SWEEP_PASS_CLONES
#endif
#endif
#ifndef SBST_SWEEP_PASS_CLONES
#define SBST_SWEEP_PASS_CLONES target_clones("default", "avx2", "avx512f"),
#endif
__attribute__((SBST_SWEEP_PASS_CLONES flatten))
void sweep_pass(LaneSweep& s, const nl::CompiledNetlist& cn,
                const std::vector<nl::GateId>& inputs,
                const std::vector<nl::GateId>& po_bits, Word* diff) {
  LaneWord* const v = s.v.get();
  for (int l = 0; l < kLanes; ++l) {
    const SweepLane& ln = s.lanes[static_cast<std::size_t>(l)];
    if (!ln.busy) continue;
    const Word* const in = ln.stimulus;
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

  std::size_t r = 0;
  for (std::uint32_t lvl : s.fix_levels) {
    for (const std::size_t end = cn.level_run_begin[lvl + 1]; r < end; ++r) {
      nl::eval_run(cn, cn.runs[r], v);
    }
    for (const LaneFixup& fx : s.fix_by_level[lvl]) {
      const int l = fx.lane;
      v[fx.gate][l] = detail::forced_eval(fx.kind, fx.force, v[fx.in[0]][l],
                                          v[fx.in[1]][l], v[fx.in[2]][l]);
    }
  }
  for (; r < cn.runs.size(); ++r) nl::eval_run(cn, cn.runs[r], v);

  // The good bit replicated across its lane is 0 - (w >> 63).
  LaneWord d = {};
  for (nl::GateId b : po_bits) {
    const LaneWord w = v[b];
    d |= w ^ (LaneWord{} - (w >> 63));
  }
  for (int l = 0; l < kLanes; ++l) diff[l] = d[l];

  nl::clock_edge(cn, v, s.staged.get());
  for (int l = 0; l < kLanes; ++l) {
    const SweepLane& ln = s.lanes[static_cast<std::size_t>(l)];
    if (!ln.busy) continue;
    for (const Injection& i : ln.inj.dff_d()) {
      v[i.gate][l] = force(v[i.gate][l], i.mask, i.stuck);
    }
  }
}

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
  // Campaign-shared compiled program (compiled privately when the caller
  // did not pass one).
  std::shared_ptr<const nl::CompiledNetlist> compiled;
  // Primary-output bits and the event engine's injection table.
  std::vector<nl::GateId> po_bits;
  InjectionTable inj;
  // The campaign-shared recording of the good run, and the differential
  // kernel, built on first use when the recording has planes.
  const std::shared_ptr<const GoodTrace> trace;
  std::optional<CompiledEventKernel> event;
  // Compiled sweep, built on first use.
  std::unique_ptr<LaneSweep> sweep;

  Impl(const nl::Netlist& n, const nl::FaultList& f, const GroupPlan& p,
       std::shared_ptr<const GoodTrace> good_trace,
       std::shared_ptr<const nl::CompiledNetlist> comp)
      : netlist(n),
        faults(f),
        plan(p),
        compiled(comp ? std::move(comp) : nl::compile(n)),
        inj(n.size()),
        trace(std::move(good_trace)) {
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

  /// Sweep work counters count every combinational gate once per
  /// evaluated cycle, folded BUFs included, so they are a pure function
  /// of (netlist, evaluated cycles) and the same in either lane.
  void set_sweep_counters(GroupRecord& rec, std::uint64_t cycles) const {
    rec.gates_evaluated = cycles * compiled->lv.comb_order.size();
    rec.sim_cycles = cycles;
    for (std::size_t i = 0; i < rec.evals_by_kind.size(); ++i) {
      rec.evals_by_kind[i] = cycles * compiled->sweep_evals_by_kind[i];
    }
    rec.engine_used = GroupEngine::kSweep;
  }

  bool advance_event(GroupSlice* slice);
  void run_lanes(GroupSlice first, const PullSlice& pull,
                 const EmitSlice& emit);

  // Lane bookkeeping of the sweep (run_lanes); sweep_pass is the rest.
  void load_lane(int l, GroupSlice&& slice);
  void finish_lane(int l, bool timed_out, const EmitSlice& emit);
  void charge_lanes();
  void rebuild_fixups();
};

// One slice: the injection table and the kernel's per-group partition
// are rebuilt from the group index; the carried state, the bound and the
// record the kernel adds its work to all come with the slice.
bool GroupSimulator::Impl::advance_event(GroupSlice* slice) {
  load(slice->rec.group, inj);
  if (!event) event.emplace(netlist, *compiled, po_bits, trace);
  return event->simulate(inj, slice);
}

// The eight-lane compiled sweep. Each pass runs one cycle of every busy
// lane (sweep_pass), then detection per lane. A group ends at the
// recorded stop cycle unless it drops or times out first. A lane whose
// group ends emits its record and is refilled from lane-local reset on
// the next pass, while the other lanes carry on. No step reads another
// lane, so records are bit-identical whichever lane (and whichever
// partners) a group runs with.
void GroupSimulator::Impl::run_lanes(GroupSlice first, const PullSlice& pull,
                                     const EmitSlice& emit) {
  if (!sweep) sweep = std::make_unique<LaneSweep>(netlist, compiled);
  LaneSweep& s = *sweep;
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
    // recorded inputs of the lane's cycle.
    for (int l = 0; l < kLanes; ++l) {
      SweepLane& ln = s.lanes[static_cast<std::size_t>(l)];
      if (!ln.busy) continue;
      const std::uint64_t cycle = ln.slice.cycle;
      if (cycle >= stop) {
        finish_lane(l, false, emit);
        continue;
      }
      // Amortized watchdog: one clock read every 1024 cycles keeps the
      // bound within ~ms granularity without slowing the hot loop.
      if (ln.slice.deadline != Clock::time_point::max() &&
          (cycle & 1023u) == 1023u && Clock::now() >= ln.slice.deadline)
          [[unlikely]] {
        finish_lane(l, true, emit);
        continue;
      }
      ln.stimulus = trace->stimulus(cycle);
    }
    if (s.busy == 0) continue;

    Word diff[kLanes] = {};
    sweep_pass(s, *compiled, trace->inputs(), po_bits, diff);

    for (int l = 0; l < kLanes; ++l) {
      SweepLane& ln = s.lanes[static_cast<std::size_t>(l)];
      if (!ln.busy) continue;
      ++ln.evaluated;
      GroupSlice& sl = ln.slice;
      const Word d = diff[l] & ln.all_mask & ~sl.detected;
      if (d != 0) {
        for (Word m = d; m != 0; m &= m - 1) {
          const auto slot = static_cast<std::size_t>(std::countr_zero(m));
          sl.rec.detect_cycle[slot] = static_cast<std::int64_t>(sl.cycle);
        }
        sl.detected |= d;
        if (sl.detected == ln.all_mask) {  // fault dropping: group done
          finish_lane(l, false, emit);
          continue;
        }
      }
      ++sl.cycle;
    }
  }
}

void GroupSimulator::Impl::load_lane(int l, GroupSlice&& slice) {
  if (slice.cycle != 0) {  // a lane starts from lane-local reset
    throw std::logic_error("the sweep cannot resume group " +
                           std::to_string(slice.rec.group));
  }
  SweepLane& ln = sweep->lanes[static_cast<std::size_t>(l)];
  ln.slice = std::move(slice);
  load(ln.slice.rec.group, ln.inj);
  LaneWord* const v = sweep->v.get();
  for (const auto& [g, w] : sweep->reset_image) v[g][l] = w;
  ln.all_mask = (Word{1} << ln.slice.rec.count) - 1;  // count <= 63
  ln.evaluated = 0;
  charge_lanes();
  ln.busy = true;
  ++sweep->busy;
  rebuild_fixups();
}

void GroupSimulator::Impl::finish_lane(int l, bool timed_out,
                                       const EmitSlice& emit) {
  SweepLane& ln = sweep->lanes[static_cast<std::size_t>(l)];
  charge_lanes();
  ln.busy = false;
  --sweep->busy;
  rebuild_fixups();
  GroupRecord& rec = ln.slice.rec;
  rec.timed_out = timed_out;
  rec.detected_mask = ln.slice.detected;
  rec.cycles = ln.slice.cycle;
  set_sweep_counters(rec, ln.evaluated);
  emit(std::move(ln.slice), true);
}

// The lanes share their worker's wall clock: the time since the busy set
// last changed is charged in equal shares to the lanes busy in it, so a
// run's slices add up to the time its worker was busy. Called before the
// busy set changes; with no lane busy (the worker was idle or waiting
// for a slice) it only moves the mark.
void GroupSimulator::Impl::charge_lanes() {
  LaneSweep& s = *sweep;
  const Clock::time_point now = Clock::now();
  if (s.busy != 0) {
    const double share =
        std::chrono::duration<double, std::milli>(now - s.charged).count() /
        s.busy;
    for (SweepLane& ln : s.lanes) {
      if (ln.busy) ln.slice.run_ms += share;
    }
  }
  s.charged = now;
}

void GroupSimulator::Impl::rebuild_fixups() {
  LaneSweep& s = *sweep;
  for (std::uint32_t lvl : s.fix_levels) s.fix_by_level[lvl].clear();
  s.fix_levels.clear();
  for (int l = 0; l < kLanes; ++l) {
    const SweepLane& ln = s.lanes[static_cast<std::size_t>(l)];
    if (!ln.busy) continue;
    for (nl::GateId g : ln.inj.slotted_gates()) {
      const nl::Gate& gate = netlist.gate(g);
      if (gate.kind == nl::GateKind::kDff) continue;  // D pin
      const std::uint32_t lvl = compiled->lv.level[g];
      if (s.fix_by_level[lvl].empty()) s.fix_levels.push_back(lvl);
      s.fix_by_level[lvl].push_back(
          {g,
           {compiled->pin_slot(gate.in[0]), compiled->pin_slot(gate.in[1]),
            compiled->pin_slot(gate.in[2])},
           gate.kind,
           static_cast<std::uint8_t>(l),
           ln.inj.force_record(ln.inj.slot(g))});
    }
  }
  std::sort(s.fix_levels.begin(), s.fix_levels.end());
}

GroupSimulator::GroupSimulator(
    const nl::Netlist& netlist, const nl::FaultList& faults,
    const GroupPlan& plan, std::shared_ptr<const GoodTrace> good_run,
    std::shared_ptr<const nl::CompiledNetlist> compiled)
    : impl_(std::make_unique<Impl>(netlist, faults, plan, std::move(good_run),
                                   std::move(compiled))) {}

GroupSimulator::~GroupSimulator() = default;

std::size_t GroupSimulator::lanes() const {
  return impl_->trace && impl_->trace->has_planes() ? 1 : kLanes;
}

GroupSlice GroupSimulator::slice(std::size_t group) const {
  GroupSlice s;
  s.rec = impl_->plan.unstarted_record(group);
  s.claimed = Impl::Clock::now();
  return s;
}

void GroupSimulator::run(const PullSlice& pull, const EmitSlice& emit) {
  using Clock = Impl::Clock;
  Impl& im = *impl_;
  while (std::optional<GroupSlice> s = pull(true)) {
    if (!im.trace) {
      throw std::logic_error("no recorded good run to simulate group " +
                             std::to_string(s->rec.group) + " against");
    }
    if (!im.trace->has_planes()) {
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
  /// nothing more is simulated. A slice settled once it is null does not
  /// stand.
  std::shared_ptr<const GoodTrace> current;
  Clock::time_point ended;  // the epoch until the recording ends
  std::vector<GroupSlice> parked;
  std::vector<GroupSlice> held;  // finished while recording
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
  std::vector<GroupSlice> held;
  {
    std::lock_guard<std::mutex> lock(st.mu);
    st.ended = Clock::now();
    // Work done against the recording stands only if the recording is
    // exactly what a run that recorded first would go on to simulate: it
    // ended before a drain and the run deadline. A cut (null) comes only
    // after a drain or the deadline.
    st.current = !draining() && st.ended < deadline_ ? trace : nullptr;
    st.trace = std::move(trace);
    st.live.reset();
    if (st.current != nullptr) {
      held.swap(st.held);
    } else {
      for (const GroupSlice& s : st.held) st.returned.push_back(s.rec.group);
      for (const GroupSlice& s : st.parked) st.returned.push_back(s.rec.group);
      st.held.clear();
      st.parked.clear();
    }
  }
  st.cv.notify_all();
  // Held groups fold as if each had started only now: once a drain is
  // set (say by a progress hook), the rest stay unsimulated.
  for (const GroupSlice& s : held) {
    if (draining()) break;
    fold(s.rec, /*seeded=*/false, s.run_ms);
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
  return std::make_unique<GroupSimulator>(netlist_, faults_, plan_,
                                          std::move(trace), compiled_);
}

GroupSlice GroupDriver::slice(std::size_t group) const {
  GroupSlice s;
  s.rec = plan_.unstarted_record(group);
  s.claimed = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(stream_->mu);
  bound(&s);
  return s;
}

void GroupDriver::bound(GroupSlice* s) const {
  // Unbounded before the recording completes (a slice stops at the
  // watermark); after, the group timeout counts from the later of the
  // claim and the end of the recording.
  if (stream_->live != nullptr && !stream_->live->watermark().complete) {
    return;
  }
  s->deadline = deadline_;
  if (options_.group_timeout_ms != 0) {
    s->deadline = std::min(
        deadline_, std::max(s->claimed, stream_->ended) +
                       std::chrono::milliseconds(options_.group_timeout_ms));
  }
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
      lock.unlock();
      const std::optional<std::size_t> group = claim();
      lock.lock();
      if (group) {
        s.emplace();
        s->rec = plan_.unstarted_record(*group);
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
      bound(&*s);
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
    if (st.current == nullptr) {  // the recording was cut
      st.returned.push_back(slice.rec.group);
      return;
    }
    if (!finished) {
      ++st.parks;
      st.parked.push_back(std::move(slice));
      return;
    }
    if (st.live != nullptr) {
      st.held.push_back(std::move(slice));
      return;
    }
  }
  fold(slice.rec, /*seeded=*/false, slice.run_ms);
}

// Summing per-record counters (instead of per-worker tallies) makes
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
