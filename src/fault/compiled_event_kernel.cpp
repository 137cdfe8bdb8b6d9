#include "fault/compiled_event_kernel.h"

#include <algorithm>
#include <bit>

#include "sim/logicsim.h"

namespace sbst::fault {

using sim::Word;

namespace {

/// One good-trace bit of a tiled cycle row, as 0/1.
inline unsigned trace_bit(const Word* base, std::uint32_t s) {
  return static_cast<unsigned>((base[(s >> 6) << 3] >> (s & 63)) & 1);
}

}  // namespace

CompiledEventKernel::CompiledEventKernel(
    const nl::Netlist& netlist, const nl::CompiledNetlist& cn,
    const std::vector<nl::GateId>& po_bits,
    std::shared_ptr<const GoodTrace> trace)
    : netlist_(&netlist), cn_(&cn), trace_(std::move(trace)) {
  const std::size_t n = netlist.size();
  is_po_.assign(n + 1, 0);
  for (nl::GateId b : po_bits) {
    if (b < n) is_po_[b] = 1;
  }
  // AoS repack of the compiled node streams (see header).
  nodes_.resize(cn.num_nodes());
  for (std::size_t i = 0; i < cn.num_nodes(); ++i) {
    nodes_[i] = {cn.node_in0[i], cn.node_in1[i], cn.node_in2[i],
                 cn.node_gate[i], cn.node_level[i], cn.node_meta[i]};
  }
  vm_.assign(n + 1, Slot{0, 0});
  seen_.assign(n + 1, 0);
  queued_.assign(cn.num_nodes(), 0);
  inj_slot_of_node_.assign(cn.num_nodes(), 0);
  cand_mark_.assign(cn.dff_gate.size(), 0);
  buckets_.resize(static_cast<std::size_t>(cn.lv.max_level) + 1);
}

void CompiledEventKernel::fill_chunk(const detail::InjectionTable& inj,
                                     std::uint64_t lo, std::uint64_t hi) {
  const GoodTrace& tr = *trace_;
  const std::size_t num_sites = inj_nodes_.size();
  const std::uint64_t len = hi - lo;
  std::fill_n(chunk_dv_, len, Word{0});
  std::fill_n(chunk_flags_, len, std::uint8_t{0});
  // One trace-sequential scan per site: the samples of 8 adjacent
  // cycles of one gate share a cache line of the tiled trace.
  for (std::size_t k = 0; k < num_sites; ++k) {
    const InjectedNode& r = inj_nodes_[k];
    const std::uint32_t o0 = (r.p0 >> 6) << 3, s0 = r.p0 & 63;
    const std::uint32_t o1 = (r.p1 >> 6) << 3, s1 = r.p1 & 63;
    const std::uint32_t o2 = (r.p2 >> 6) << 3, s2 = r.p2 & 63;
    std::uint8_t* const ix_col = chunk_ix_.data() + k;
    for (std::uint64_t i = 0; i < len; ++i) {
      const Word* const b = tr.cycle_base(lo + i);
      const unsigned ix = static_cast<unsigned>(
          ((b[o0] >> s0) & 1) | (((b[o1] >> s1) & 1) << 1) |
          (((b[o2] >> s2) & 1) << 2));
      ix_col[i * num_sites] = static_cast<std::uint8_t>(ix);
      chunk_dv_[i] |= r.dv[ix];
    }
  }
  const auto force_excite = [&](std::uint32_t gate, Word set, Word clr,
                                std::uint8_t flag) {
    const std::uint32_t off = (gate >> 6) << 3, sh = gate & 63;
    for (std::uint64_t i = 0; i < len; ++i) {
      const Word g = Word{0} - ((tr.cycle_base(lo + i)[off] >> sh) & 1);
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

void CompiledEventKernel::simulate(const detail::InjectionTable& inj,
                                   int count,
                                   const KernelDeadlines& deadlines,
                                   GroupRecord* rec) {
  using Clock = std::chrono::steady_clock;
  const GoodTrace& tr = *trace_;
  const nl::CompiledNetlist& cn = *cn_;
  const std::uint64_t T = tr.cycles();
  const Word all_mask = (Word{1} << count) - 1;  // count <= 63
  const std::uint32_t n32 = static_cast<std::uint32_t>(cn.num_gates);

  // Partition this group's injection sites. The GroupSimulator guard
  // guarantees every non-DFF slotted gate has a compiled node.
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
    r.p0 = u0 ? r.q0 : 0;  // never probe the trace-less zero slot
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
  }
  aggregate_seed_forces(inj.sources(), &src_forces_);
  aggregate_seed_forces(inj.dff_q(), &q_forces_);

  const std::size_t num_sites = inj_nodes_.size();
  chunk_ix_.resize(kChunk * num_sites);
  diverged_dffs_.clear();
  next_diverged_.clear();
  dff_cands_.clear();

  const Node* const nodes = nodes_.data();
  Slot* const vm = vm_.data();
  const std::uint32_t* const fo_off = cn.fanout_offset.data();

  Word detected = 0;
  // Machines still awaiting a verdict — see EventKernel::simulate; the
  // fault-dropping logic is identical.
  Word live = all_mask;
  std::uint64_t total_evals = 0;
  std::uint64_t kind_evals[nl::kNumCompiledOps] = {0, 0, 0, 0};
  std::uint64_t cycle = 0;
  for (; cycle < T; ++cycle) {
    // Same amortized watchdog cadence and verdict as the sweep kernel.
    if (deadlines.active && (cycle & 1023u) == 1023u) [[unlikely]] {
      const Clock::time_point now = Clock::now();
      if (now >= deadlines.group_deadline || now >= deadlines.run_deadline) {
        rec->timed_out = true;
        break;
      }
    }
    const std::uint64_t ci = cycle % kChunk;
    if (ci == 0) fill_chunk(inj, cycle, std::min(cycle + kChunk, T));

    // Quiet cycle: no site can diverge a live lane and no flip-flop
    // carries divergence — every net provably matches the good machine,
    // so nothing needs to be simulated or even touched. The wavefront
    // only ever starts at an excited site or a diverged flip-flop.
    if ((chunk_dv_[ci] & live) == 0 && diverged_dffs_.empty()) {
      ++stats_.cycles;
      continue;
    }

    const Word* const base = tr.cycle_base(cycle);
    const std::uint64_t st = ++stamp_;
    // The always-zero slot is valid every cycle (its trace bits do not
    // exist, so it must never fall back to a trace read).
    vm[cn.zero_slot] = {0, st};
    Word po_acc = 0;
    std::uint32_t lvl_hi = 0;

    // Value of a slot as the faulty machines see it this cycle, paired
    // with the good broadcast: the diverged word when one was computed,
    // otherwise the good word itself. Branchless blend — divergence hit
    // rates hover near 50%, so a branch here mispredicts constantly.
    // The good word of the zero slot is forced to 0 (it has no trace
    // bits; the clamped read is discarded by the mask). Carrying the
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
      const Word good = GoodTrace::broadcast_bit(base, s < n32 ? s : 0) &
                        (Word{0} - static_cast<Word>(s < n32));
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
          queued_[entry] = st;
          const std::uint32_t lvl = nodes[entry].level;
          buckets_[lvl].push_back(entry);
          if (lvl > lvl_hi) lvl_hi = lvl;
        }
      }
    };
    // Seeds one already-valued slot: accumulate PO divergence and wake
    // its fanout iff it actually differs from the good machine.
    auto seed = [&](std::uint32_t s) {
      if (seen_[s] == st) return;
      seen_[s] = st;
      const Word dv = (vm[s].v ^ GoodTrace::broadcast_bit(base, s)) & live;
      if (dv == 0) return;
      if (is_po_[s]) po_acc |= dv;
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
        const Word b = vm[f.gate].mark == st
                           ? vm[f.gate].v
                           : GoodTrace::broadcast_bit(base, f.gate);
        vm[f.gate] = {(b | f.set) & ~f.clr, st};
      }
      for (const SeedForce& f : src_forces_) {
        vm[f.gate] = {
            (GoodTrace::broadcast_bit(base, f.gate) | f.set) & ~f.clr, st};
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
            const unsigned ix = trace_bit(base, r.p0) |
                                (trace_bit(base, r.p1) << 1) |
                                (trace_bit(base, r.p2) << 2);
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
          const Word dv =
              (w ^ GoodTrace::broadcast_bit(base, nd.gate)) & live;
          if (dv != 0) {
            if (meta & nl::CompiledNetlist::kMetaPo) po_acc |= dv;
            schedule_consumers(nd.gate);
          }
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
    ++stats_.cycles;

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
    //    state.
    if (cycle + 1 < T) {
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
    } else {
      dff_cands_.clear();
    }
  }

  // Restore the shared meta bits for the next group.
  for (std::uint32_t nidx : comb_injected_) {
    nodes_[nidx].meta &= static_cast<std::uint8_t>(~kInjected);
  }

  stats_.gates_evaluated += total_evals;
  for (std::size_t i = 0; i < nl::kNumCompiledOps; ++i) {
    stats_.evals_by_kind[i] += kind_evals[i];
  }
  rec->detected_mask = detected;
  rec->cycles = cycle;
}

}  // namespace sbst::fault
