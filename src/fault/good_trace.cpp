#include "fault/good_trace.h"

#include <linux/futex.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <limits>
#include <new>
#include <system_error>

namespace sbst::fault {

namespace {

using sim::Word;

/// In-place transpose of a 64x64 bit matrix: bit j of a[i] trades places
/// with bit i of a[j].
void transpose64(Word* a) {
  Word m = 0x00000000FFFFFFFFull;
  for (unsigned j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (unsigned k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const Word t = ((a[k] >> j) ^ a[k | j]) & m;
      a[k | j] ^= t;
      a[k] ^= t << j;
    }
  }
}

/// Scatters source bits recorded one row per cycle (`rows`, `row_words`
/// words per row, `len` rows) into a block as one 64-cycle word per
/// source: bit c of blk[gates[i]] is bit i of row c.
void scatter_columns(const Word* rows, std::size_t row_words, std::size_t len,
                     const std::vector<nl::GateId>& gates, Word* blk) {
  Word m[64];
  for (std::size_t k = 0; k < row_words; ++k) {
    for (std::size_t c = 0; c < 64; ++c) {
      m[c] = c < len ? rows[c * row_words + k] : 0;
    }
    transpose64(m);
    const std::size_t lo = k * 64;
    const std::size_t hi = std::min(gates.size(), lo + 64);
    for (std::size_t i = lo; i < hi; ++i) blk[gates[i]] = m[i - lo];
  }
}

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

// Not FUTEX_PRIVATE_FLAG: the word lives in a mapping shared with forked
// worker processes.
void futex_wait(std::atomic<std::uint32_t>* word, std::uint32_t seen) {
  ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word), FUTEX_WAIT,
            seen, nullptr, nullptr, 0);
}

void futex_wake_all(std::atomic<std::uint32_t>* word) {
  ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word), FUTEX_WAKE,
            INT_MAX, nullptr, nullptr, 0);
}

}  // namespace

// Other processes share the header: its atomics must be lock-free.
static_assert(std::atomic<std::uint64_t>::is_always_lock_free &&
              std::atomic<std::uint32_t>::is_always_lock_free &&
              std::atomic<std::int64_t>::is_always_lock_free);

GoodTrace::GoodTrace(const nl::Netlist& netlist, bool planes)
    : block_words_(netlist.size() + 1), planes_(planes) {
  static_assert(sizeof(Shared) <= kHeaderBytes);
  std::size_t dffs = 0;
  for (nl::GateId g = 0; g < netlist.size(); ++g) {
    const nl::GateKind k = netlist.gate(g).kind;
    if (k == nl::GateKind::kInput) inputs_.push_back(g);
    if (k == nl::GateKind::kConst1) ones_.push_back(g);
    if (k == nl::GateKind::kDff) ++dffs;
  }
  stimulus_words_ = (inputs_.size() + 63) / 64;
  q_words_ = planes ? (dffs + 63) / 64 : 0;
  const std::size_t stimulus_bytes =
      kBlockCycles * stimulus_words_ * sizeof(sim::Word);
  cached_bytes_ = block_words_ * sizeof(sim::Word) + stimulus_bytes;
  // At least a word, so that no window is empty (a netlist without
  // inputs or flip-flops records empty rows).
  plain_bytes_ = std::max(
      stimulus_bytes + kBlockCycles * q_words_ * sizeof(sim::Word),
      sizeof(sim::Word));
  page_mask_ = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE)) - 1;

  fd_ = ::memfd_create("sbst-good-trace", MFD_CLOEXEC);
  if (fd_ < 0) throw_errno("cannot create the good-run mapping");
  void* const p =
      ::ftruncate(fd_, kHeaderBytes) == 0
          ? ::mmap(nullptr, kHeaderBytes, PROT_READ | PROT_WRITE, MAP_SHARED,
                   fd_, 0)
          : MAP_FAILED;
  if (p == MAP_FAILED) {
    const int err = errno;
    ::close(fd_);
    errno = err;
    throw_errno("cannot map the good-run header");
  }
  shared_ = new (p) Shared();
}

GoodTrace::~GoodTrace() {
  for (unsigned w = 0; w < kWindows; ++w) {
    char* const base = windows_[w].load(std::memory_order_relaxed);
    if (base == nullptr) continue;
    const std::uint64_t first = (std::uint64_t{1} << w) - 1;
    ::munmap(base, offset(2 * first + 1) - window_start(w));
  }
  ::munmap(shared_, kHeaderBytes);
  ::close(fd_);
}

// Window w covers blocks [first, 2 first + 1), first = 2^w - 1. The
// recorder maps each window writable as its first block starts, after
// growing the file over the whole window; a reader maps it read-only the
// first time it reads one of its blocks.
char* GoodTrace::map_window(unsigned w, bool writable) const {
  char* base = windows_[w].load(std::memory_order_acquire);
  if (base != nullptr) return base;
  const std::uint64_t first = (std::uint64_t{1} << w) - 1;
  const std::uint64_t lo = window_start(w);
  const std::uint64_t hi = offset(2 * first + 1);
  if (writable && ::ftruncate(fd_, static_cast<off_t>(hi)) != 0) {
    throw_errno("cannot grow the good-run mapping");
  }
  void* const p =
      ::mmap(nullptr, hi - lo, writable ? PROT_READ | PROT_WRITE : PROT_READ,
             MAP_SHARED, fd_, static_cast<off_t>(lo));
  if (p == MAP_FAILED) throw std::bad_alloc();
  char* const mapped = static_cast<char*>(p);
  if (windows_[w].compare_exchange_strong(base, mapped,
                                          std::memory_order_acq_rel)) {
    return mapped;
  }
  ::munmap(mapped, hi - lo);  // another thread of this process won
  return base;
}

GoodTrace::Watermark GoodTrace::wait(std::uint64_t cycles) const {
  Shared& sh = *shared_;
  sh.waiters.fetch_add(1, std::memory_order_seq_cst);
  Watermark m;
  for (;;) {
    const std::uint32_t seen = sh.seq.load(std::memory_order_seq_cst);
    m = watermark();
    if (m.cycles > cycles || m.complete || m.cut) break;
    futex_wait(&sh.seq, seen);  // returns at once if seq moved on
  }
  sh.waiters.fetch_sub(1, std::memory_order_relaxed);
  return m;
}

void GoodTrace::publish(std::uint64_t mark) {
  Shared& sh = *shared_;
  sh.mark.store(mark, std::memory_order_release);
  sh.seq.fetch_add(1, std::memory_order_seq_cst);
  if (sh.waiters.load(std::memory_order_seq_cst) != 0) futex_wake_all(&sh.seq);
}

void GoodTrace::cut() {
  publish(shared_->mark.load(std::memory_order_relaxed) | kCut);
}

std::chrono::steady_clock::time_point GoodTrace::ended() const {
  using Clock = std::chrono::steady_clock;
  return Clock::time_point(Clock::duration(
      shared_->ended_ns.load(std::memory_order_acquire)));
}

// One compiled sweep over the block: the 64 bit lanes are its cycles.
void GoodTrace::finish_block(const nl::CompiledNetlist& cn,
                             const Word* stimulus, const Word* q,
                             std::uint64_t len, Word* blk) const {
  scatter_columns(stimulus, stimulus_words_, len, inputs_, blk);
  scatter_columns(q, q_words_, len, cn.dff_gate, blk);
  for (nl::GateId g : ones_) blk[g] = ~Word{0};
  for (const nl::CompiledRun& r : cn.runs) nl::eval_run(cn, r, blk);
  nl::apply_copies(cn, blk);
}

// The rows past the last cycle of a partial block are zero, as
// scatter_columns reads them for a cached one.
void GoodTrace::build_block(const nl::CompiledNetlist& cn, std::uint64_t b,
                            Word* blk) const {
  const Word* const stimulus = stimulus_rows(b);
  finish_block(cn, stimulus, stimulus + kBlockCycles * stimulus_words_,
               kBlockCycles, blk);
}

std::shared_ptr<const GoodTrace> record_good_trace(
    const nl::Netlist& netlist, const EnvFactory& make_env,
    std::uint64_t max_cycles, std::size_t mem_cap_bytes, bool planes,
    std::chrono::steady_clock::time_point deadline,
    const std::atomic<bool>* cancel,
    std::shared_ptr<const nl::CompiledNetlist> compiled) {
  std::function<bool()> stop;
  if (cancel != nullptr) {
    stop = [cancel] { return cancel->load(std::memory_order_relaxed); };
  }
  return record_good_trace(std::make_shared<GoodTrace>(netlist, planes),
                           netlist, make_env, max_cycles, mem_cap_bytes,
                           deadline, stop, {}, std::move(compiled));
}

std::shared_ptr<const GoodTrace> record_good_trace(
    std::shared_ptr<GoodTrace> trace, const nl::Netlist& netlist,
    const EnvFactory& make_env, std::uint64_t max_cycles,
    std::size_t mem_cap_bytes, std::chrono::steady_clock::time_point deadline,
    const std::function<bool()>& stop, const std::function<void()>& on_publish,
    std::shared_ptr<const nl::CompiledNetlist> compiled) {
  using Clock = std::chrono::steady_clock;
  constexpr std::uint64_t kBlock = GoodTrace::kBlockCycles;
  GoodTrace& tr = *trace;
  const bool has_deadline = deadline != Clock::time_point::max();
  if (compiled == nullptr) compiled = nl::compile(netlist);
  const nl::CompiledNetlist& cn = *compiled;

  // Per cycle the serial run writes the stimulus row into the block and,
  // with planes, a row of flip-flop Q bits: into `scratch` for a block
  // whose planes are built when it ends, into the block itself past the
  // cap.
  const std::vector<nl::GateId>& inputs = tr.inputs_;
  const std::size_t stimulus_words = tr.stimulus_words_;
  const std::vector<nl::GateId>& dffs = cn.dff_gate;
  const std::size_t q_words = tr.q_words_;
  std::vector<Word> scratch(kBlock * q_words);
  // The cap is checked at block granularity, so the cached planes never
  // exceed it.
  const std::size_t block_bytes = tr.block_words_ * sizeof(Word);
  tr.cached_limit_ = !tr.planes_ ? 0
                     : mem_cap_bytes == 0
                         ? std::numeric_limits<std::uint64_t>::max()
                         : mem_cap_bytes / block_bytes;
  Word* stimulus = nullptr;
  Word* q = nullptr;
  Word* blk = nullptr;  // null past the cap and without planes

  sim::LogicSim s(netlist, compiled);
  s.reset();
  std::unique_ptr<Environment> env = make_env();

  std::uint64_t cycle = 0;
  std::uint64_t built = 0;  // cycles whose block is published
  for (; cycle < max_cycles; ++cycle) {
    const std::uint64_t c = cycle % kBlock;
    if (c == 0) {  // a new block starts, its pages zero
      const std::uint64_t b = cycle / kBlock;
      // The recorder maps each window writable before anyone reads it.
      tr.map_window(std::bit_width(b + 1) - 1, true);
      Word* const start = const_cast<Word*>(tr.words(b));
      if (b < tr.cached_limit_) {
        ++tr.cached_;
        blk = start;
        stimulus = start + tr.block_words_;
        q = scratch.data();
      } else {
        blk = nullptr;
        stimulus = start;
        q = start + kBlock * stimulus_words;
      }
    }
    // Same amortized cadence as the simulation kernels' watchdog, but
    // checked as each window starts, so no cycle is recorded for a run
    // that is already past its deadline or draining.
    if ((cycle & 1023u) == 0) [[unlikely]] {
      if ((stop && stop()) || (has_deadline && Clock::now() >= deadline)) {
        return nullptr;
      }
    }

    env->drive(s, cycle);
    s.eval();

    // Every word is a broadcast, so bit 0 of each net is the good value.
    const Word* const v = s.values().data();
    Word* const in = stimulus + c * stimulus_words;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      in[i >> 6] |= (v[inputs[i]] & 1) << (i & 63);
    }
    for (std::size_t w = 0; w < q_words; ++w) {
      const std::size_t lo = w * 64;
      const std::size_t hi = std::min(dffs.size(), lo + 64);
      Word acc = 0;
      for (std::size_t d = lo; d < hi; ++d) {
        acc |= (v[dffs[d]] & 1) << (d & 63);
      }
      q[c * q_words + w] = acc;
    }
    const bool keep_going = env->observe(s, cycle);
    s.step_clock();
    if (!keep_going) {
      ++cycle;
      break;
    }
    if (c == kBlock - 1) {
      if (blk != nullptr) tr.finish_block(cn, stimulus, q, kBlock, blk);
      built = cycle + 1;
      tr.publish(built);
      if (on_publish) on_publish();
    }
  }
  if (blk != nullptr && cycle > built) {
    tr.finish_block(cn, stimulus, q, cycle - built, blk);
  }
  tr.shared_->ended_ns.store(Clock::now().time_since_epoch().count(),
                             std::memory_order_relaxed);
  tr.publish(cycle | GoodTrace::kComplete);
  if (on_publish) on_publish();
  return trace;
}

}  // namespace sbst::fault
