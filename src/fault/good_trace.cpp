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
/// words per row, 64 rows) into a block as one 64-cycle word per source:
/// bit c of blk[gates[i]] is bit i of row c.
void scatter_columns(const Word* rows, std::size_t row_words,
                     const std::vector<nl::GateId>& gates, Word* blk) {
  Word m[64];
  for (std::size_t k = 0; k < row_words; ++k) {
    for (std::size_t c = 0; c < 64; ++c) m[c] = rows[c * row_words + k];
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

/// Installs mapping `p` in `slot` unless another thread beat us to it.
char* install(std::atomic<char*>& slot, void* p, std::size_t bytes) {
  char* base = nullptr;
  if (slot.compare_exchange_strong(base, static_cast<char*>(p),
                                   std::memory_order_acq_rel)) {
    return static_cast<char*>(p);
  }
  ::munmap(p, bytes);  // another thread of this process won
  return base;
}

constexpr std::uint32_t kBuilding = 1, kBuilt = 2;  // cached block state

}  // namespace

// Other processes share the header: its atomics must be lock-free.
static_assert(std::atomic<std::uint64_t>::is_always_lock_free &&
              std::atomic<std::uint32_t>::is_always_lock_free &&
              std::atomic<std::int64_t>::is_always_lock_free);

GoodTrace::GoodTrace(const nl::Netlist& netlist, bool planes,
                     std::size_t mem_cap_bytes)
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
  // At least a word, so that no window is empty (a netlist without
  // inputs or flip-flops records empty rows).
  row_bytes_ = std::max(
      kBlockCycles * (stimulus_words_ + q_words_) * sizeof(sim::Word),
      sizeof(sim::Word));
  // Whole blocks within the cap, so the cached planes never exceed it.
  cache_blocks_ = !planes ? 0
                  : mem_cap_bytes == 0
                      ? std::numeric_limits<std::uint64_t>::max()
                      : mem_cap_bytes / (block_words_ * sizeof(sim::Word));
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
    if (char* const base = windows_[w].load(std::memory_order_relaxed)) {
      ::munmap(base, offset(2 * first_block(w) + 1) - window_start(w));
    }
    if (char* const base = cache_[w].load(std::memory_order_relaxed)) {
      ::munmap(base, cache_bytes(w));
    }
  }
  ::munmap(shared_, kHeaderBytes);
  ::close(fd_);
}

// The recorder maps each window writable as its first block starts,
// after growing the file over the whole window; a reader maps it
// read-only the first time it reads one of its blocks.
char* GoodTrace::map_window(unsigned w, bool writable) const {
  char* const base = windows_[w].load(std::memory_order_acquire);
  if (base != nullptr) return base;
  const std::uint64_t lo = window_start(w);
  const std::uint64_t hi = offset(2 * first_block(w) + 1);
  if (writable && ::ftruncate(fd_, static_cast<off_t>(hi)) != 0) {
    throw_errno("cannot grow the good-run mapping");
  }
  void* const p =
      ::mmap(nullptr, hi - lo, writable ? PROT_READ | PROT_WRITE : PROT_READ,
             MAP_SHARED, fd_, static_cast<off_t>(lo));
  if (p == MAP_FAILED) throw std::bad_alloc();
  return install(windows_[w], p, hi - lo);
}

// The plane cache is private to this process: a forked child sees it
// zero-filled, every block's state 0 (unbuilt).
char* GoodTrace::map_cache(unsigned w) const {
  const std::size_t bytes = cache_bytes(w);
  void* const p =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
             MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  if (::madvise(p, bytes, MADV_WIPEONFORK) != 0) {
    ::munmap(p, bytes);  // leaves madvise's errno
    throw_errno("cannot keep the plane cache from forked workers");
  }
  return install(cache_[w], p, bytes);
}

const Word* GoodTrace::block(const nl::CompiledNetlist& cn, std::uint64_t b,
                             std::vector<Word>* scratch) const {
  if (b >= cache_blocks_) {
    if (scratch->empty()) scratch->assign(block_words_, 0);
    finish_block(cn, b, scratch->data());
    return scratch->data();
  }
  const unsigned w = std::bit_width(b + 1) - 1;
  char* base = cache_[w].load(std::memory_order_acquire);
  if (base == nullptr) base = map_cache(w);
  Word* const blk = reinterpret_cast<Word*>(base) +
                    (b - first_block(w)) * (block_words_ + 1);
  const std::atomic_ref<std::uint32_t> state(
      *reinterpret_cast<std::uint32_t*>(blk + block_words_));
  std::uint32_t st;
  while ((st = state.load(std::memory_order_acquire)) != kBuilt) {
    if (st == 0 && state.compare_exchange_strong(st, kBuilding,
                                                 std::memory_order_acquire)) {
      finish_block(cn, b, blk);
      state.store(kBuilt, std::memory_order_release);
      state.notify_all();
    } else {
      state.wait(kBuilding, std::memory_order_acquire);  // at once if built
    }
  }
  return blk;
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
// The rows past the stop cycle of a partial block were never written and
// read as zero.
void GoodTrace::finish_block(const nl::CompiledNetlist& cn, std::uint64_t b,
                             Word* blk) const {
  const Word* const stimulus = rows(b);
  scatter_columns(stimulus, stimulus_words_, inputs_, blk);
  scatter_columns(stimulus + kBlockCycles * stimulus_words_, q_words_,
                  cn.dff_gate, blk);
  for (nl::GateId g : ones_) blk[g] = ~Word{0};
  for (const nl::CompiledRun& r : cn.runs) nl::eval_run(cn, r, blk);
  nl::apply_copies(cn, blk);
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
  return record_good_trace(
      std::make_shared<GoodTrace>(netlist, planes, mem_cap_bytes), netlist,
      make_env, max_cycles, deadline, stop, {}, std::move(compiled));
}

std::shared_ptr<const GoodTrace> record_good_trace(
    std::shared_ptr<GoodTrace> trace, const nl::Netlist& netlist,
    const EnvFactory& make_env, std::uint64_t max_cycles,
    std::chrono::steady_clock::time_point deadline,
    const std::function<bool()>& stop, const std::function<void()>& on_publish,
    std::shared_ptr<const nl::CompiledNetlist> compiled) {
  using Clock = std::chrono::steady_clock;
  constexpr std::uint64_t kBlock = GoodTrace::kBlockCycles;
  GoodTrace& tr = *trace;
  const bool has_deadline = deadline != Clock::time_point::max();
  if (compiled == nullptr) compiled = nl::compile(netlist);

  // Per cycle the serial run writes the block's stimulus row and, with
  // planes, its row of flip-flop Q bits.
  const std::vector<nl::GateId>& inputs = tr.inputs_;
  const std::size_t stimulus_words = tr.stimulus_words_;
  const std::vector<nl::GateId>& dffs = compiled->dff_gate;
  const std::size_t q_words = tr.q_words_;
  Word* stimulus = nullptr;
  Word* q = nullptr;

  sim::LogicSim s(netlist, compiled);
  s.reset();
  std::unique_ptr<Environment> env = make_env();

  std::uint64_t cycle = 0;
  for (; cycle < max_cycles; ++cycle) {
    const std::uint64_t c = cycle % kBlock;
    if (c == 0) {  // a new block starts, its pages zero
      const std::uint64_t b = cycle / kBlock;
      // The recorder maps each window writable before anyone reads it.
      tr.map_window(std::bit_width(b + 1) - 1, true);
      stimulus = const_cast<Word*>(tr.rows(b));
      q = stimulus + kBlock * stimulus_words;
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
      tr.publish(cycle + 1);
      if (on_publish) on_publish();
    }
  }
  tr.shared_->ended_ns.store(Clock::now().time_since_epoch().count(),
                             std::memory_order_relaxed);
  tr.publish(cycle | GoodTrace::kComplete);
  if (on_publish) on_publish();
  return trace;
}

}  // namespace sbst::fault
