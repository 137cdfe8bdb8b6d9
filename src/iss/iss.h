// MIPS I instruction-set simulator with Plasma-style 3-stage-pipeline
// cycle accounting.
//
// The ISS is the functional and timing oracle for the gate-level CPU in
// src/plasma: co-simulation tests compare memory-write traces, final
// architectural state and cycle counts between the two.
//
// Timing model (matching the gate-level microarchitecture):
//   - base CPI 1 (fetch is pipelined with execute over a single bus),
//   - +1 cycle for each load/store (the data access occupies the single
//     memory port, inserting one fetch bubble),
//   - branches and jumps take 1 cycle and execute one delay slot,
//   - MULT/MULTU/DIV/DIVU issue in 1 cycle and keep the mul/div unit busy
//     for kMulDivBusy cycles; any instruction touching the unit
//     (mult/div/mfhi/mflo/mthi/mtlo) stalls until it is idle,
//   - +1 startup cycle for the first instruction fetch after reset.
//
// Byte order is little-endian (a documented substitution: the original
// Plasma is big-endian; endianness does not affect any experiment, it only
// has to agree between ISS, gate-level CPU and assembler).
#pragma once

#include <cstdint>
#include <vector>

#include "isa/assembler.h"
#include "isa/mips.h"

namespace sbst::iss {

/// Cycles the mul/div unit stays busy after issue (one per iteration of
/// the 32-step sequential algorithm).
inline constexpr std::uint64_t kMulDivBusy = 32;

struct WriteOp {
  std::uint32_t addr = 0;     // full (unmasked) byte address
  std::uint32_t data = 0;     // bus word (bytes replicated per MIPS lanes)
  std::uint8_t byte_en = 0;   // bit i => byte lane i written

  friend bool operator==(const WriteOp&, const WriteOp&) = default;
};

struct RunResult {
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  bool halted = false;  // stopped by a store to isa::kHaltAddress
};

class Iss {
 public:
  /// Memory size must be a power of two; addresses are masked to it.
  explicit Iss(const isa::Program& program, std::size_t mem_bytes = 1 << 16);

  /// Runs until halt or `max_instructions`.
  RunResult run(std::uint64_t max_instructions = 10'000'000);
  /// Executes a single instruction; returns false once halted.
  bool step();

  std::uint32_t reg(int i) const { return regs_[static_cast<std::size_t>(i)]; }
  std::uint32_t hi() const { return hi_; }
  std::uint32_t lo() const { return lo_; }
  std::uint32_t pc() const { return pc_; }
  std::uint64_t cycles() const { return cycles_; }
  std::uint64_t instructions() const { return instructions_; }
  bool halted() const { return halted_; }

  const std::vector<std::uint32_t>& memory() const { return mem_; }
  const std::vector<WriteOp>& writes() const { return writes_; }

 private:
  std::size_t word_index(std::uint32_t addr) const {
    return (addr & mask_) >> 2;
  }
  void write_reg(int r, std::uint32_t v) {
    if (r != 0) regs_[static_cast<std::size_t>(r)] = v;
  }
  void do_store(std::uint32_t addr, std::uint32_t data, std::uint8_t byte_en);
  std::uint32_t shifter(isa::Mnemonic mn, std::uint32_t value,
                        std::uint32_t amount) const;

  std::vector<std::uint32_t> mem_;
  std::uint32_t mask_ = 0;
  std::uint32_t regs_[32] = {};
  std::uint32_t hi_ = 0;
  std::uint32_t lo_ = 0;
  std::uint32_t pc_ = 0;
  std::uint32_t npc_ = 4;
  std::uint64_t cycles_ = 1;  // the first fetch after reset
  std::uint64_t instructions_ = 0;
  std::uint64_t muldiv_ready_ = 0;  // absolute cycle the unit goes idle
  bool halted_ = false;
  std::vector<WriteOp> writes_;
};

/// Divide with the deterministic divide-by-zero semantics of the
/// restoring divider in src/plasma/muldiv.cpp (shared so ISS, tests and
/// the SBST expected-response generator agree). Returns {quotient,
/// remainder}.
struct DivResult {
  std::uint32_t q = 0;
  std::uint32_t r = 0;
};
DivResult divu_model(std::uint32_t a, std::uint32_t b);
DivResult div_model(std::uint32_t a, std::uint32_t b);

}  // namespace sbst::iss
