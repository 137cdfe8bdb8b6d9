#include "fault/compiled_event_kernel.h"

#include <algorithm>
#include <bit>
#include <chrono>

#include "sim/logicsim.h"

namespace sbst::fault {

using sim::Word;

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
    std::shared_ptr<const GoodTrace> trace)
    : netlist_(&netlist), cn_(&cn), trace_(std::move(trace)) {
  const std::size_t n = netlist.size();
  slot_flags_.assign(n + 1, 0);
  for (nl::GateId b : po_bits) {
    if (b < n) slot_flags_[b] = kSlotPo;
  }
  // AoS repack of the compiled node streams (see header).
  nodes_.resize(cn.num_nodes());
  for (std::size_t i = 0; i < cn.num_nodes(); ++i) {
    const std::uint32_t guards = cn.guard_offset[i + 1] - cn.guard_offset[i];
    nodes_[i] = {cn.node_in0[i], cn.node_in1[i], cn.node_in2[i],
                 cn.node_gate[i], cn.node_level[i],
                 static_cast<std::uint8_t>(cn.node_meta[i] |
                                           (guards << kGuardShift))};
  }
  vm_.assign(n + 1, Slot{0, 0});
  seen_.assign(n + 1, 0);
  queued_.assign(cn.num_nodes(), 0);
  inj_slot_of_node_.assign(cn.num_nodes(), 0);
  cand_mark_.assign(cn.dff_gate.size(), 0);
  buckets_.resize(static_cast<std::size_t>(cn.lv.max_level) + 1);
}

void CompiledEventKernel::fill_chunk(const detail::InjectionTable& inj,
                                     const Word* blk, std::uint64_t len) {
  const std::size_t num_sites = inj_nodes_.size();
  std::fill_n(chunk_dv_, len, Word{0});
  std::fill_n(chunk_flags_, len, std::uint8_t{0});
  // One word per probed gate holds all 64 cycles of the block.
  for (std::size_t k = 0; k < num_sites; ++k) {
    const InjectedNode& r = inj_nodes_[k];
    const Word w0 = blk[r.p0], w1 = blk[r.p1], w2 = blk[r.p2];
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

bool CompiledEventKernel::simulate(const detail::InjectionTable& inj,
                                   GroupSlice* slice) {
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
  for (nl::GateId g : inj.slotted_gates()) {
    const nl::Gate& gate = netlist_->gate(g);
    if (gate.kind == nl::GateKind::kDff) {
      for (std::size_t d = 0; d < cn.dff_gate.size(); ++d) {
        if (cn.dff_gate[d] == g) {
          dffd_dffs_.push_back(static_cast<std::uint32_t>(d));
          break;
        }
      }
      continue;
    }
    const std::uint32_t nidx = cn.node_of_gate[g];
    comb_injected_.push_back(nidx);
    InjectedNode r;
    r.kind = gate.kind;
    r.f = inj.force_record(inj.slot(g));
    const auto pin = [&](nl::GateId d) -> std::uint32_t {
      return d < n32 ? cn.fold_root[d] : cn.zero_slot;
    };
    r.q0 = pin(gate.in[0]);
    r.q1 = pin(gate.in[1]);
    r.q2 = pin(gate.in[2]);
    // A pin contributes to the LUT iff it resolved to a real slot; the
    // lane-wise fallback sees 0 for the rest (value of the zero slot),
    // so LUT rows that differ only in a non-contributing bit coincide
    // and any probe value for that bit is exact.
    const bool u0 = r.q0 < n32;
    const bool u1 = r.q1 < n32;
    const bool u2 = r.q2 < n32;
    r.p0 = u0 ? r.q0 : 0;  // never probe the always-marked zero slot
    r.p1 = u1 ? r.q1 : r.p0;
    r.p2 = u2 ? r.q2 : r.p0;
    for (unsigned ix = 0; ix < 8; ++ix) {
      const Word A = u0 ? Word{0} - (ix & 1) : 0;
      const Word B = u1 ? Word{0} - ((ix >> 1) & 1) : 0;
      const Word C = u2 ? Word{0} - ((ix >> 2) & 1) : 0;
      const Word good = sim::eval_gate(r.kind, A, B, C);
      const Word a = (A | r.f.set[1]) & ~r.f.clr[1];
      const Word b = (B | r.f.set[2]) & ~r.f.clr[2];
      const Word c = (C | r.f.set[3]) & ~r.f.clr[3];
      const Word w =
          (sim::eval_gate(r.kind, a, b, c) | r.f.set[0]) & ~r.f.clr[0];
      r.lut[ix] = w;
      r.dv[ix] = w ^ good;
    }
    inj_slot_of_node_[nidx] =
        static_cast<std::uint32_t>(inj_nodes_.size());
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

  const std::size_t num_sites = inj_nodes_.size();
  chunk_ix_.resize(kChunk * num_sites);
  diverged_dffs_.swap(slice->diverged_dffs);
  slice->diverged_dffs.clear();
  next_diverged_.clear();
  dff_cands_.clear();

  const Node* const nodes = nodes_.data();
  Slot* const vm = vm_.data();
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
  // The block of the current chunk: bit ci of blk[s] is slot s's good
  // value at this cycle (the zero slot's word is 0). A chunk is filled
  // from its block's first cycle, so a slice may resume at any cycle:
  // the loop enters the next block at its first cycle, a resumed slice
  // enters its own block here.
  const Word* blk = nullptr;
  const auto enter_block = [&](std::uint64_t c) {
    const std::uint64_t first = c - c % kChunk;
    blk = tr.block(c / kChunk);
    fill_chunk(inj, blk, std::min(kChunk, end - first));
  };
  if (cycle < end && cycle % kChunk != 0) enter_block(cycle);
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
      continue;
    }

    const auto good_bit = [&](std::uint32_t s) -> unsigned {
      return static_cast<unsigned>((blk[s] >> ci) & 1);
    };
    const auto good_word = [&](std::uint32_t s) -> Word {
      return Word{0} - ((blk[s] >> ci) & 1);
    };
    const std::uint64_t st = ++stamp_;
    // The always-zero slot is valid every cycle.
    vm[cn.zero_slot] = {0, st};
    Word po_acc = 0;
    std::uint32_t lvl_hi = 0;

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
      const Slot& sl = vm[s];
      const Word good = good_word(s);
      const Word m = Word{0} - (sl.mark == st);
      return {(sl.v & m) | (good & ~m), good};
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
          if (cand_mark_[d] != st) {
            cand_mark_[d] = st;
            dff_cands_.push_back(d);
          }
        } else if (queued_[entry] != st) {
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
          queued_[entry] = st;
          buckets_[c.level].push_back(entry);
          if (c.level > lvl_hi) lvl_hi = c.level;
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
    // its fanout iff it actually differs from the good machine.
    auto seed = [&](std::uint32_t s) {
      if (seen_[s] == st) return;
      seen_[s] = st;
      const Word dv = (vm[s].v ^ good_word(s)) & live;
      if (dv == 0) return;
      if (slot_flags_[s] & kSlotPo) po_acc |= dv;
      schedule_consumers(s);
    };

    // 1. Carry diverged flip-flop state into this cycle.
    for (const auto& [g, w] : diverged_dffs_) {
      vm[g] = {w, st};
    }
    // 2. Re-force Q-output and source-gate injections against this
    //    cycle's good values (sources and DFFs are never folded — they
    //    are their own fold roots). An unexcited force on an undiverged
    //    gate reproduces the good value, so these loops only run on
    //    cycles where a force is excited or some flip-flop diverged.
    if ((chunk_flags_[ci] & kSeedExcited) != 0 || !diverged_dffs_.empty()) {
      for (const SeedForce& f : q_forces_) {
        const Word b =
            vm[f.gate].mark == st ? vm[f.gate].v : good_word(f.gate);
        vm[f.gate] = {(b | f.set) & ~f.clr, st};
      }
      for (const SeedForce& f : src_forces_) {
        vm[f.gate] = {(good_word(f.gate) | f.set) & ~f.clr, st};
      }
      // 3. Schedule the fanout of every diverged seed.
      for (const auto& [g, w] : diverged_dffs_) seed(g);
      for (const SeedForce& f : q_forces_) seed(f.gate);
      for (const SeedForce& f : src_forces_) seed(f.gate);
    } else {
      for (const auto& [g, w] : diverged_dffs_) seed(g);
    }
    // 4. Queue this cycle's excited combinational sites straight from
    //    the schedule row (their forced output diverges from the good
    //    output given good fanins; fanin divergence is re-checked when
    //    the node is processed).
    const std::uint8_t* const row = chunk_ix_.data() + ci * num_sites;
    for (std::size_t k = 0; k < num_sites; ++k) {
      if ((inj_nodes_[k].dv[row[k]] & live) == 0) continue;
      const std::uint32_t nidx = comb_injected_[k];
      if (queued_[nidx] != st) {
        queued_[nidx] = st;
        const std::uint32_t lvl = nodes[nidx].level;
        buckets_[lvl].push_back(nidx);
        if (lvl > lvl_hi) lvl_hi = lvl;
      }
    }

    // 5. Levelized wavefront over compiled nodes. lvl_hi can grow while
    //    iterating (consumers always sit at higher levels).
    std::uint64_t evals = 0;
    for (std::uint32_t lvl = 1; lvl <= lvl_hi; ++lvl) {
      std::vector<std::uint32_t>& bucket = buckets_[lvl];
      for (std::size_t i = 0; i < bucket.size(); ++i) {
        const std::uint32_t nidx = bucket[i];
        if (i + 1 < bucket.size()) {
          __builtin_prefetch(&nodes[bucket[i + 1]]);
        }
        const Node& nd = nodes[nidx];
        const std::uint8_t meta = nd.meta;
        if (meta & kInjected) [[unlikely]] {
          const InjectedNode& r = inj_nodes_[inj_slot_of_node_[nidx]];
          Word w;
          if (vm[r.p0].mark != st && vm[r.p1].mark != st &&
              vm[r.p2].mark != st) {
            // Fanins match the good machine: the LUT probe is exact.
            const unsigned ix = good_bit(r.p0) | (good_bit(r.p1) << 1) |
                                (good_bit(r.p2) << 2);
            const Word dv = r.dv[ix] & live;
            if (dv == 0) continue;  // queued by a consumer edge; unexcited
            w = r.lut[ix];
            vm[nd.gate] = {w, st};
            ++evals;
            ++kind_evals[meta & nl::CompiledNetlist::kMetaOpMask];
            if (meta & nl::CompiledNetlist::kMetaPo) po_acc |= dv;
            schedule_consumers(nd.gate);
            continue;
          }
          // Lane-wise fallback on diverged fanins: forced evaluation of
          // the original GateKind (pin semantics identical to the sweep
          // kernel, including pins the lowering duplicated or dropped).
          const Word a = (value_of(r.q0).w | r.f.set[1]) & ~r.f.clr[1];
          const Word b = (value_of(r.q1).w | r.f.set[2]) & ~r.f.clr[2];
          const Word c = (value_of(r.q2).w | r.f.set[3]) & ~r.f.clr[3];
          w = (sim::eval_gate(r.kind, a, b, c) | r.f.set[0]) & ~r.f.clr[0];
          vm[nd.gate] = {w, st};
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
        vm[nd.gate] = {w, st};
        ++evals;
        ++kind_evals[meta & nl::CompiledNetlist::kMetaOpMask];
        const Word dv = (w ^ gw) & live;
        if (dv != 0) {
          if (meta & nl::CompiledNetlist::kMetaPo) po_acc |= dv;
          schedule_consumers(nd.gate);
        }
      }
      bucket.clear();
    }
    total_evals += evals;
    ++cycles_run;

    // 6. Detection — identical to the sweep kernel's po_diff handling.
    const Word diff = po_acc & all_mask & ~detected;
    if (diff != 0) {
      Word d = diff;
      while (d != 0) {
        const int bit = std::countr_zero(d);
        d &= d - 1;
        rec->detect_cycle[static_cast<std::size_t>(bit)] =
            static_cast<std::int64_t>(cycle);
      }
      detected |= diff;
      if (detected == all_mask) {
        dff_cands_.clear();
        break;  // fault dropping: group done
      }
      live = all_mask & ~detected;
    }

    // 7. Clock edge: recompute the next state of every flip-flop whose
    //    D input diverged this cycle or carries an excited D-pin
    //    injection; all other flip-flops converge to the recorded good
    //    state. The edge after the recording's last cycle is computed
    //    too (while the recording streams, no cycle is known to be the
    //    last) and discarded with the group.
    if ((chunk_flags_[ci] & kDffdExcited) != 0) {
      for (std::uint32_t d : dffd_dffs_) {
        if (cand_mark_[d] != st) {
          cand_mark_[d] = st;
          dff_cands_.push_back(d);
        }
      }
    }
    next_diverged_.clear();
    for (std::uint32_t d : dff_cands_) {
      const nl::GateId g = cn.dff_gate[d];
      const std::uint32_t dslot = cn.dff_d[d];
      // Good next state of a DFF is the good machine's D value now;
      // the alias trace bit equals the root's, so the root read is
      // exact even when the original D pin was a folded BUF.
      const VG dvg = value_of(dslot);
      Word next = dvg.w;
      if (const std::uint32_t slot = inj.slot(g); slot != 0) {
        const detail::GateForce& f = inj.force_record(slot);
        next = (next | f.set[1]) & ~f.clr[1];
      }
      const Word dv = (next ^ dvg.g) & live;
      if (dv != 0) next_diverged_.emplace_back(g, next);
    }
    dff_cands_.clear();
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
  slice->diverged_dffs.swap(diverged_dffs_);
  return false;
}

}  // namespace sbst::fault
