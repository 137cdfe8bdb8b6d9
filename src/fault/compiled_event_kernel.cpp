#include "fault/compiled_event_kernel.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <utility>

#include "sim/logicsim.h"

namespace sbst::fault {

using sim::Word;

namespace {

// Bit i of a bitmap stored in 64-bit words.
void set_bit(Word* map, std::size_t i) { map[i >> 6] |= Word{1} << (i & 63); }
Word get_bit(const Word* map, std::size_t i) {
  return (map[i >> 6] >> (i & 63)) & 1;
}

}  // namespace

void aggregate_seed_forces(const std::vector<detail::Injection>& list,
                           std::vector<SeedForce>* out) {
  out->clear();
  for (const detail::Injection& i : list) {
    SeedForce* f = nullptr;
    for (SeedForce& s : *out) {
      if (s.gate == i.gate) {
        f = &s;
        break;
      }
    }
    if (f == nullptr) {
      out->push_back(SeedForce{i.gate, 0, 0});
      f = &out->back();
    }
    if (i.stuck) {
      f->set |= i.mask;
    } else {
      f->clr |= i.mask;
    }
  }
}

CompiledEventKernel::CompiledEventKernel(
    const nl::Netlist& netlist, const nl::CompiledNetlist& cn,
    const std::vector<nl::GateId>& po_bits,
    std::shared_ptr<const GoodTrace> trace, DenseCycles dense)
    : netlist_(&netlist), cn_(&cn), trace_(std::move(trace)), dense_(dense) {
  const std::size_t n = netlist.size();
  slot_flags_.assign(n + 1, 0);
  for (nl::GateId b : po_bits) {
    if (b < n) {
      slot_flags_[b] = kSlotPo;
      po_slots_.push_back(b);
    }
  }
  for (nl::GateId g = 0; g < n; ++g) {
    if (nl::fanin_count(netlist.gate(g).kind) == 0 ||
        netlist.gate(g).kind == nl::GateKind::kDff) {
      leaf_slots_.push_back(g);
    }
  }
  // AoS repack of the compiled node streams (see header).
  nodes_.resize(cn.num_nodes());
  for (std::size_t i = 0; i < cn.num_nodes(); ++i) {
    const std::uint32_t guards = cn.guard_offset[i + 1] - cn.guard_offset[i];
    nodes_[i] = {cn.node_in0[i], cn.node_in1[i], cn.node_in2[i],
                 cn.node_gate[i],
                 static_cast<std::uint8_t>(cn.node_meta[i] |
                                           (guards << kGuardShift))};
  }
  // At least one word each, so the scan's first word always exists.
  const auto words = [](std::size_t bits) { return bits / 64 + 1; };
  vm_.assign(n + 1, 0);
  valid_.assign(words(n + 1), 0);
  wave_.assign(words(cn.num_nodes()), 0);
  wake_.assign(words(cn.dff_gate.size()), 0);
  inj_slot_of_node_.assign(cn.num_nodes(), 0);
}

const Word* CompiledEventKernel::block(std::uint64_t b) {
  if (const Word* blk = trace_->block(b)) return blk;
  if (scratch_.empty()) scratch_.assign(trace_->block_words(), 0);
  trace_->build_block(*cn_, b, scratch_.data());
  return scratch_.data();
}

CompiledEventKernel::Word CompiledEventKernel::dense_eval(const Word* blk,
                                                          std::uint64_t ci,
                                                          Word live) {
  const nl::CompiledNetlist& cn = *cn_;
  Word* const vm = vm_.data();
  const auto good_word = [&](std::uint32_t s) -> Word {
    return Word{0} - ((blk[s] >> ci) & 1);
  };
  // 1-2. Every source and flip-flop as a full word: the good word, then
  //      the carried divergence, then the Q and source forces.
  for (nl::GateId g : leaf_slots_) vm[g] = good_word(g);
  for (const auto& [g, w] : diverged_dffs_) vm[g] = w;
  for (const auto* forces : {&q_forces_, &src_forces_}) {
    for (const SeedForce& f : *forces) {
      vm[f.gate] = (vm[f.gate] | f.set) & ~f.clr;
    }
  }
  // 3-5. One sweep of the compiled runs. Each injected node is re-forced
  //      at the end of its level, before a consumer (at a higher level)
  //      reads it.
  std::size_t r = 0;
  for (std::size_t i = 0; i < dense_fix_.size();) {
    const std::uint32_t lvl = dense_fix_[i].first;
    for (const std::size_t end = cn.level_run_begin[lvl + 1]; r < end; ++r) {
      nl::eval_run(cn, cn.runs[r], vm);
    }
    for (; i < dense_fix_.size() && dense_fix_[i].first == lvl; ++i) {
      const std::uint32_t k = dense_fix_[i].second;
      const InjectedNode& in = inj_nodes_[k];
      vm[nodes_[comb_injected_[k]].gate] =
          detail::forced_eval(in.kind, in.f, vm[in.q0], vm[in.q1], vm[in.q2]);
    }
  }
  for (; r < cn.runs.size(); ++r) nl::eval_run(cn, cn.runs[r], vm);
  Word po_acc = 0;
  for (nl::GateId b : po_slots_) po_acc |= vm[b] ^ good_word(b);
  return po_acc & live;
}

void CompiledEventKernel::dense_edge(const detail::InjectionTable& inj,
                                     const Word* blk, std::uint64_t ci,
                                     Word live) {
  const nl::CompiledNetlist& cn = *cn_;
  const Word* const vm = vm_.data();
  std::size_t k = 0;  // next D-pin-injected flip-flop (dffd_dffs_ ascends)
  for (std::size_t d = 0; d < cn.dff_gate.size(); ++d) {
    const std::uint32_t s = cn.dff_d[d];
    Word next = vm[s];
    if (k < dffd_dffs_.size() && dffd_dffs_[k] == d) [[unlikely]] {
      const detail::GateForce& f =
          inj.force_record(inj.slot(cn.dff_gate[d]));
      next = (next | f.set[1]) & ~f.clr[1];
      ++k;
    }
    const Word good = Word{0} - ((blk[s] >> ci) & 1);
    if (((next ^ good) & live) != 0) {
      next_diverged_.emplace_back(cn.dff_gate[d], next);
    }
  }
}

void CompiledEventKernel::fill_chunk(const detail::InjectionTable& inj,
                                     const Word* blk, std::uint64_t len) {
  const std::size_t num_sites = inj_nodes_.size();
  std::fill_n(chunk_dv_, len, Word{0});
  std::fill_n(chunk_flags_, len, std::uint8_t{0});
  // One word per probed gate holds all 64 cycles of the block.
  for (std::size_t k = 0; k < num_sites; ++k) {
    const InjectedNode& r = inj_nodes_[k];
    const Word w0 = blk[r.q0], w1 = blk[r.q1], w2 = blk[r.q2];
    std::uint8_t* const ix_col = chunk_ix_.data() + k;
    for (std::uint64_t i = 0; i < len; ++i) {
      const unsigned ix = static_cast<unsigned>(
          ((w0 >> i) & 1) | (((w1 >> i) & 1) << 1) | (((w2 >> i) & 1) << 2));
      ix_col[i * num_sites] = static_cast<std::uint8_t>(ix);
      chunk_dv_[i] |= r.dv[ix];
    }
  }
  const auto force_excite = [&](std::uint32_t gate, Word set, Word clr,
                                std::uint8_t flag) {
    const Word good = blk[gate];
    for (std::uint64_t i = 0; i < len; ++i) {
      const Word g = Word{0} - ((good >> i) & 1);
      const Word exc = (set & ~g) | (clr & g);
      chunk_dv_[i] |= exc;
      chunk_flags_[i] |= static_cast<std::uint8_t>(flag * (exc != 0));
    }
  };
  for (const auto* forces : {&q_forces_, &src_forces_}) {
    for (const SeedForce& f : *forces) {
      force_excite(f.gate, f.set, f.clr, kSeedExcited);
    }
  }
  for (std::uint32_t d : dffd_dffs_) {
    const detail::GateForce& f =
        inj.force_record(inj.slot(cn_->dff_gate[d]));
    // A D-pin force diverges the *next* state: the cycle where it is
    // excited must run its clock edge, and the divergence itself makes
    // the following cycle active by carrying a diverged flip-flop.
    force_excite(cn_->dff_d[d], f.set[1], f.clr[1], kDffdExcited);
  }
}

// Aligned to a cache line, like LogicSim::eval: the event grade spends
// its time in this function's loops, whose placement otherwise moves
// with the code linked before it. Unaligned, a 200-byte change to the
// per-slice set-up above the loops moved the full A+B grade by 1%;
// aligned, by 0.4%.
__attribute__((aligned(64))) bool CompiledEventKernel::simulate(
    const detail::InjectionTable& inj, GroupSlice* slice) {
  using Clock = std::chrono::steady_clock;
  const GoodTrace& tr = *trace_;
  const nl::CompiledNetlist& cn = *cn_;
  GroupRecord* const rec = &slice->rec;
  const Clock::time_point deadline = slice->deadline;
  // Run to the stop cycle once the recording is complete, else to the
  // watermark, where the group parks.
  const GoodTrace::Watermark mark = tr.watermark();
  const std::uint64_t end = mark.cycles;
  const Word all_mask = (Word{1} << rec->count) - 1;  // count <= 63
  const std::uint32_t n32 = static_cast<std::uint32_t>(cn.num_gates);

  // Partition this group's injection sites. The GroupSimulator
  // constructor guarantees every non-DFF slotted gate has a compiled
  // node.
  comb_injected_.clear();
  inj_nodes_.clear();
  dffd_dffs_.clear();
  dense_fix_.clear();
  for (nl::GateId g : inj.slotted_gates()) {
    const nl::Gate& gate = netlist_->gate(g);
    if (gate.kind == nl::GateKind::kDff) {
      dffd_dffs_.push_back(cn.dff_of_gate[g]);
      continue;
    }
    const std::uint32_t nidx = cn.node_of_gate[g];
    comb_injected_.push_back(nidx);
    InjectedNode r;
    r.kind = gate.kind;
    r.f = inj.force_record(inj.slot(g));
    r.q0 = cn.pin_slot(gate.in[0]);
    r.q1 = cn.pin_slot(gate.in[1]);
    r.q2 = cn.pin_slot(gate.in[2]);
    // A pin contributes to the LUT iff it resolved to a real slot. A
    // missing pin is the zero slot, whose good bit is 0 and whose valid
    // bit is never set, so the LUT holds its input at 0 as the lane-wise
    // fallback does.
    const bool u0 = r.q0 < n32;
    const bool u1 = r.q1 < n32;
    const bool u2 = r.q2 < n32;
    for (unsigned ix = 0; ix < 8; ++ix) {
      const Word A = u0 ? Word{0} - (ix & 1) : 0;
      const Word B = u1 ? Word{0} - ((ix >> 1) & 1) : 0;
      const Word C = u2 ? Word{0} - ((ix >> 2) & 1) : 0;
      const Word w = detail::forced_eval(r.kind, r.f, A, B, C);
      r.lut[ix] = w;
      r.dv[ix] = w ^ sim::eval_gate(r.kind, A, B, C);
    }
    inj_slot_of_node_[nidx] =
        static_cast<std::uint32_t>(inj_nodes_.size());
    dense_fix_.emplace_back(cn.lv.level[g],
                            static_cast<std::uint32_t>(inj_nodes_.size()));
    inj_nodes_.push_back(r);
    nodes_[nidx].meta |= kInjected;
    // A forced select pin lets this MUX pass the data pin its select
    // slot does not pick, so no guard on that slot holds in this group.
    if (r.kind == nl::GateKind::kMux2 && (r.f.set[3] | r.f.clr[3]) != 0) {
      slot_flags_[r.q2] |= kSlotTainted;
    }
  }
  aggregate_seed_forces(inj.sources(), &src_forces_);
  aggregate_seed_forces(inj.dff_q(), &q_forces_);
  std::sort(dense_fix_.begin(), dense_fix_.end());
  std::sort(dffd_dffs_.begin(), dffd_dffs_.end());

  const std::size_t num_sites = inj_nodes_.size();
  chunk_ix_.resize(kChunk * num_sites);
  diverged_dffs_.swap(slice->diverged_dffs);
  slice->diverged_dffs.clear();
  next_diverged_.clear();

  const Node* const nodes = nodes_.data();
  Word* const vm = vm_.data();
  Word* const valid = valid_.data();
  Word* const wave = wave_.data();
  Word* const wake = wake_.data();
  const std::uint32_t* const fo_off = cn.fanout_offset.data();

  Word detected = slice->detected;
  // Machines still awaiting a verdict. Divergence is masked with this
  // before it propagates: once a machine is detected, its detection
  // mask bit is frozen (the sweep kernel masks it out of every later
  // PO comparison), so its divergence can never be observed again and
  // its wavefront collapses immediately — the event-driven form of
  // fault dropping.
  Word live = all_mask & ~detected;
  std::uint64_t total_evals = 0;
  std::uint64_t kind_evals[nl::kNumCompiledOps] = {0, 0, 0, 0};
  std::uint64_t cycles_run = 0;
  std::uint64_t cycle = slice->cycle;
  std::uint32_t dense_left = slice->dense_left;
  // The block of the current chunk: bit ci of blk[s] is slot s's good
  // value at this cycle (the zero slot's word is 0). A chunk is filled
  // from its block's first cycle, so a slice may resume at any cycle:
  // the loop enters the next block at its first cycle, a resumed slice
  // enters its own block here.
  const Word* blk = nullptr;
  const auto enter_block = [&](std::uint64_t c) {
    const std::uint64_t first = c - c % kChunk;
    blk = block(c / kChunk);
    fill_chunk(inj, blk, std::min(kChunk, end - first));
  };
  if (cycle < end && cycle % kChunk != 0) enter_block(cycle);
  // 6. Detection — identical to the sweep kernel's po_diff handling.
  //    True once every machine is detected.
  const auto detect = [&](Word po_acc) {
    const Word diff = po_acc & all_mask & ~detected;
    if (diff == 0) return false;
    for (Word d = diff; d != 0; d &= d - 1) {
      rec->detect_cycle[static_cast<std::size_t>(std::countr_zero(d))] =
          static_cast<std::int64_t>(cycle);
    }
    detected |= diff;
    live = all_mask & ~detected;
    return detected == all_mask;
  };
  for (; cycle < end; ++cycle) {
    // Same amortized watchdog cadence and verdict as the sweep kernel.
    // Keep the clock read nested: folded into this condition it cost the
    // whole loop about 7% (EXPERIMENTS.md, "One good run per campaign").
    if (deadline != Clock::time_point::max() && (cycle & 1023u) == 1023u)
        [[unlikely]] {
      if (Clock::now() >= deadline) {
        rec->timed_out = true;
        break;
      }
    }
    const std::uint64_t ci = cycle % kChunk;
    if (ci == 0) enter_block(cycle);

    // Quiet cycle: no site can diverge a live lane and no flip-flop
    // carries divergence — every net provably matches the good machine,
    // so nothing needs to be simulated or even touched. The wavefront
    // only ever starts at an excited site or a diverged flip-flop.
    if ((chunk_dv_[ci] & live) == 0 && diverged_dffs_.empty()) {
      ++cycles_run;
      dense_left = 0;  // the divergence is gone: the stretch ends
      continue;
    }

    if (dense_ == DenseCycles::kAlways || dense_left != 0) {
      // Dense cycle (see header): one sweep in place of the wavefront,
      // counted as a sweep cycle. valid_ and wake_ stay clear.
      const Word po_acc = dense_eval(blk, ci, live);
      total_evals += cn.lv.comb_order.size();
      for (std::size_t i = 0; i < nl::kNumCompiledOps; ++i) {
        kind_evals[i] += cn.sweep_evals_by_kind[i];
      }
      ++cycles_run;
      if (dense_left != 0) --dense_left;
      if (detect(po_acc)) break;  // fault dropping: group done
      next_diverged_.clear();
      dense_edge(inj, blk, ci, live);
      diverged_dffs_.swap(next_diverged_);
      continue;
    }

    const auto good_bit = [&](std::uint32_t s) -> unsigned {
      return static_cast<unsigned>((blk[s] >> ci) & 1);
    };
    const auto good_word = [&](std::uint32_t s) -> Word {
      return Word{0} - ((blk[s] >> ci) & 1);
    };
    Word po_acc = 0;
    // Highest wavefront word with a bit set; grows during the scan.
    std::uint32_t wave_hi = 0;
    const auto set_value = [&](std::uint32_t s, Word w) {
      vm[s] = w;
      set_bit(valid, s);
    };
    const auto queue = [&](std::uint32_t nidx) {
      set_bit(wave, nidx);
      wave_hi = std::max(wave_hi, nidx >> 6);
    };

    // Value of a slot as the faulty machines see it this cycle, paired
    // with the good broadcast: the diverged word when one was computed,
    // otherwise the good word itself. Branchless blend — divergence hit
    // rates hover near 50%, so a branch here mispredicts constantly.
    // The zero slot's block word is 0, so its good word is 0. Carrying the
    // good fanin words out lets the evaluator derive the good *output*
    // word by running the same op over them — the trace invariant is
    // exactly that the recorded output bit equals the op over the
    // recorded input bits — which eliminates the third trace load per
    // evaluation. Folded BUF aliases never appear here — fanins, DFF D
    // references and the fanout CSR are all fold-rooted, and recorded
    // trace bits of an alias equal its root's, so root reads are exact.
    struct VG {
      Word w;  // lane-wise faulty value
      Word g;  // good broadcast (0 for the zero slot)
    };
    auto value_of = [&](std::uint32_t s) -> VG {
      const Word good = good_word(s);
      const Word m = Word{0} - get_bit(valid, s);
      return {(vm[s] & m) | (good & ~m), good};
    };
    auto schedule_consumers = [&](std::uint32_t s) {
      const std::uint32_t* const fo = cn.fanout.data();
      const std::uint32_t end = fo_off[s + 1];
      for (std::uint32_t e = fo_off[s]; e < end; ++e) {
        const std::uint32_t entry = fo[e];
        if (entry & nl::CompiledNetlist::kDffFlag) {
          // Flip-flops do not propagate combinationally; they become
          // re-clock candidates at this cycle's edge.
          const std::uint32_t d = entry & ~nl::CompiledNetlist::kDffFlag;
          set_bit(wake, d);
        } else {
          const Node& c = nodes[entry];
          // An event on one data pin of a non-injected MUX cannot change
          // its output while the good select picks the other pin: should
          // the select diverge, its own event wakes the MUX.
          if ((c.meta & (nl::CompiledNetlist::kMetaOpMask | kInjected)) ==
                  static_cast<std::uint8_t>(nl::CompiledOp::kMux) &&
              c.in2 < n32 && s != c.in2 && (s == c.in0) != (s == c.in1) &&
              good_bit(c.in2) != static_cast<unsigned>(s == c.in1)) {
            continue;
          }
          queue(entry);
        }
      }
    };
    // True when some guard of the node has its select picking the other
    // pin in every live lane: no value of the node is observable this
    // cycle. A guard select sits at a lower level, so its value is final.
    auto unobservable = [&](std::uint32_t nidx, unsigned count) {
      const std::uint32_t* const g = cn.guards.data() + cn.guard_offset[nidx];
      for (unsigned k = 0; k < count; ++k) {
        const std::uint32_t sel = g[k] & ~nl::CompiledNetlist::kGuardPin1;
        if (slot_flags_[sel] & kSlotTainted) continue;
        const Word v = value_of(sel).w & live;
        if (v == ((g[k] & nl::CompiledNetlist::kGuardPin1) ? 0 : live)) {
          return true;
        }
      }
      return false;
    };
    // Seeds one already-valued slot: accumulate PO divergence and wake
    // its fanout iff it actually differs from the good machine. Every
    // effect is an OR, so seeding a slot twice is harmless once all its
    // writes are done.
    auto seed = [&](std::uint32_t s) {
      const Word dv = (vm[s] ^ good_word(s)) & live;
      if (dv == 0) return;
      if (slot_flags_[s] & kSlotPo) po_acc |= dv;
      schedule_consumers(s);
    };

    // 1. Carry diverged flip-flop state into this cycle.
    for (const auto& [g, w] : diverged_dffs_) set_value(g, w);
    // 2. Re-force Q-output and source-gate injections against this
    //    cycle's good values (sources and DFFs are never folded — they
    //    are their own fold roots). An unexcited force on an undiverged
    //    gate reproduces the good value, so these loops only run on
    //    cycles where a force is excited or some flip-flop diverged.
    if ((chunk_flags_[ci] & kSeedExcited) != 0 || !diverged_dffs_.empty()) {
      for (const SeedForce& f : q_forces_) {
        set_value(f.gate, (value_of(f.gate).w | f.set) & ~f.clr);
      }
      for (const SeedForce& f : src_forces_) {
        set_value(f.gate, (good_word(f.gate) | f.set) & ~f.clr);
      }
      // 3. Schedule the fanout of every diverged seed, after every write.
      for (const auto& [g, w] : diverged_dffs_) seed(g);
      for (const SeedForce& f : q_forces_) seed(f.gate);
      for (const SeedForce& f : src_forces_) seed(f.gate);
    }
    // 4. Queue this cycle's excited combinational sites straight from
    //    the schedule row (their forced output diverges from the good
    //    output given good fanins; fanin divergence is re-checked when
    //    the node is processed).
    const std::uint8_t* const row = chunk_ix_.data() + ci * num_sites;
    for (std::size_t k = 0; k < num_sites; ++k) {
      if ((inj_nodes_[k].dv[row[k]] & live) == 0) continue;
      queue(comb_injected_[k]);
    }

    // 5. Levelized wavefront: ascending node index is a levelized order,
    //    and a node only queues consumers above itself, in its own word
    //    or a later one. So the current word and wave_hi are re-read
    //    after every node; each bit is cleared as it is taken.
    std::uint64_t evals = 0;
    for (std::uint32_t wi = 0; wi <= wave_hi; ++wi) {
      while (const Word bits = wave[wi]) {
        wave[wi] = bits & (bits - 1);
        const std::uint32_t nidx =
            (wi << 6) | static_cast<std::uint32_t>(std::countr_zero(bits));
        if (wave[wi] != 0) {
          __builtin_prefetch(&nodes[(wi << 6) | std::countr_zero(wave[wi])]);
        }
        const Node& nd = nodes[nidx];
        const std::uint8_t meta = nd.meta;
        if (meta & kInjected) [[unlikely]] {
          const InjectedNode& r = inj_nodes_[inj_slot_of_node_[nidx]];
          Word w;
          if ((get_bit(valid, r.q0) | get_bit(valid, r.q1) |
               get_bit(valid, r.q2)) == 0) {
            // Fanins match the good machine: the LUT probe is exact.
            const unsigned ix = good_bit(r.q0) | (good_bit(r.q1) << 1) |
                                (good_bit(r.q2) << 2);
            const Word dv = r.dv[ix] & live;
            if (dv == 0) continue;  // queued by a consumer edge; unexcited
            w = r.lut[ix];
            set_value(nd.gate, w);
            ++evals;
            ++kind_evals[meta & nl::CompiledNetlist::kMetaOpMask];
            if (meta & nl::CompiledNetlist::kMetaPo) po_acc |= dv;
            schedule_consumers(nd.gate);
            continue;
          }
          // Lane-wise fallback on diverged fanins.
          w = detail::forced_eval(r.kind, r.f, value_of(r.q0).w,
                                  value_of(r.q1).w, value_of(r.q2).w);
          set_value(nd.gate, w);
          ++evals;
          ++kind_evals[meta & nl::CompiledNetlist::kMetaOpMask];
          const Word dv = (w ^ good_word(nd.gate)) & live;
          if (dv != 0) {
            if (meta & nl::CompiledNetlist::kMetaPo) po_acc |= dv;
            schedule_consumers(nd.gate);
          }
          continue;
        }
        if (const unsigned guards = meta >> kGuardShift;
            guards != 0 && unobservable(nidx, guards)) {
          continue;
        }
        const VG A = value_of(nd.in0);
        const VG B = value_of(nd.in1);
        Word w, gw;
        switch (meta & nl::CompiledNetlist::kMetaOpMask) {
          case 0:
            w = A.w & B.w;
            gw = A.g & B.g;
            break;
          case 1:
            w = A.w | B.w;
            gw = A.g | B.g;
            break;
          case 2:
            w = A.w ^ B.w;
            gw = A.g ^ B.g;
            break;
          default: {
            const VG C = value_of(nd.in2);
            w = (A.w & ~C.w) | (B.w & C.w);
            gw = (A.g & ~C.g) | (B.g & C.g);
            break;
          }
        }
        // Branch-free folded inversion, applied to the derived good
        // output too (the trace bit of nd.gate equals gw by the trace
        // invariant, so no output trace load is needed).
        const Word inv = Word{0} - ((meta >> 2) & 1);
        w ^= inv;
        gw ^= inv;
        set_value(nd.gate, w);
        ++evals;
        ++kind_evals[meta & nl::CompiledNetlist::kMetaOpMask];
        const Word dv = (w ^ gw) & live;
        if (dv != 0) {
          if (meta & nl::CompiledNetlist::kMetaPo) po_acc |= dv;
          schedule_consumers(nd.gate);
        }
      }
    }
    total_evals += evals;
    ++cycles_run;
    // A wide wavefront: the next active cycles run dense.
    if (dense_ == DenseCycles::kAdaptive && evals > kDenseAbove) {
      dense_left = kDenseProbe;
    }

    if (detect(po_acc)) {
      // Leave the bitmaps clear for the next group, as a cycle does.
      std::fill(valid_.begin(), valid_.end(), 0);
      // Stale wake bits are harmless (an undiverged, unexcited D gives
      // the good state) but would cost the next group D-pin reads.
      std::fill(wake_.begin(), wake_.end(), 0);
      break;  // fault dropping: group done
    }

    // 7. Clock edge: recompute the next state of every flip-flop whose
    //    D input diverged this cycle or carries an excited D-pin
    //    injection; all other flip-flops converge to the recorded good
    //    state. The edge after the recording's last cycle is computed
    //    too (while the recording streams, no cycle is known to be the
    //    last) and discarded with the group.
    if ((chunk_flags_[ci] & kDffdExcited) != 0) {
      for (std::uint32_t d : dffd_dffs_) set_bit(wake, d);
    }
    next_diverged_.clear();
    for (std::size_t wi = 0; wi < wake_.size(); ++wi) {
      for (Word bits = std::exchange(wake[wi], 0); bits != 0;
           bits &= bits - 1) {
        const std::size_t d = (wi << 6) | std::countr_zero(bits);
        const nl::GateId g = cn.dff_gate[d];
        // Good next state of a DFF is the good machine's D value now;
        // the alias trace bit equals the root's, so the root read is
        // exact even when the original D pin was a folded BUF.
        const VG dvg = value_of(cn.dff_d[d]);
        Word next = dvg.w;
        if (const std::uint32_t slot = inj.slot(g); slot != 0) {
          const detail::GateForce& f = inj.force_record(slot);
          next = (next | f.set[1]) & ~f.clr[1];
        }
        const Word dv = (next ^ dvg.g) & live;
        if (dv != 0) next_diverged_.emplace_back(g, next);
      }
    }
    std::fill(valid_.begin(), valid_.end(), 0);
    diverged_dffs_.swap(next_diverged_);
  }

  // Restore the shared meta bits for the next group.
  for (std::size_t k = 0; k < comb_injected_.size(); ++k) {
    nodes_[comb_injected_[k]].meta &= static_cast<std::uint8_t>(~kInjected);
    slot_flags_[inj_nodes_[k].q2] &= static_cast<std::uint8_t>(~kSlotTainted);
  }

  // This slice's work, added to what the group's earlier slices did.
  rec->gates_evaluated += total_evals;
  rec->sim_cycles += cycles_run;
  for (std::size_t i = 0; i < nl::kNumCompiledOps; ++i) {
    rec->evals_by_kind[i] += kind_evals[i];
  }
  rec->engine_used = GroupEngine::kEvent;
  rec->detected_mask = detected;
  rec->cycles = cycle;
  if (rec->timed_out || detected == all_mask || mark.complete) return true;
  // Parked at the watermark: carry the state over.
  slice->cycle = cycle;
  slice->detected = detected;
  slice->dense_left = dense_left;
  slice->diverged_dffs.swap(diverged_dffs_);
  return false;
}

}  // namespace sbst::fault
