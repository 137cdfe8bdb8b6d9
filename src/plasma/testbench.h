// Closed-loop testbench around the gate-level CPU: a single-port
// synchronous memory (rdata arrives one cycle after the address), halt
// detection on stores to isa::kHaltAddress, and a write trace for
// co-simulation against the ISS.
//
// The same memory model doubles as the fault-simulation Environment: per
// DESIGN.md §5, undetected faulty machines have issued bit-identical
// memory traffic, so one good-machine memory serves all 64 machines.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "fault/faultsim.h"
#include "isa/assembler.h"
#include "iss/iss.h"
#include "plasma/cpu.h"
#include "sim/logicsim.h"

namespace sbst::plasma {

/// Memory + bus protocol model. Records stores as iss::WriteOp so traces
/// compare directly against the ISS.
class CpuMemEnv final : public fault::Environment {
 public:
  CpuMemEnv(const nl::Netlist& netlist, const isa::Program& program,
            std::size_t mem_bytes = 1 << 16, bool record_writes = false);

  void drive(sim::LogicSim& s, std::uint64_t cycle) override;
  bool observe(const sim::LogicSim& s, std::uint64_t cycle) override;

  const std::vector<iss::WriteOp>& writes() const { return writes_; }
  const std::vector<std::uint32_t>& memory() const { return mem_; }
  bool halted() const { return halted_; }

 private:
  const nl::Port* in_rdata_;
  const nl::Port* out_addr_;
  const nl::Port* out_wdata_;
  const nl::Port* out_byte_we_;
  const nl::Port* out_rd_en_;
  std::vector<std::uint32_t> mem_;
  std::uint32_t mask_ = 0;
  std::uint32_t pending_rdata_ = 0;
  bool record_writes_ = false;
  bool halted_ = false;
  std::vector<iss::WriteOp> writes_;
};

/// Convenience wrapper: run the good machine to completion.
struct GateRunResult {
  std::uint64_t cycles = 0;
  bool halted = false;
  std::vector<iss::WriteOp> writes;
  std::vector<std::uint32_t> memory;
  // Final architectural state (from PlasmaCpu::debug).
  std::array<std::uint32_t, 32> regs{};
  std::uint32_t hi = 0;
  std::uint32_t lo = 0;
  std::uint32_t pc = 0;
};

GateRunResult run_gate_cpu(const PlasmaCpu& cpu, const isa::Program& program,
                           std::uint64_t max_cycles = 1'000'000,
                           std::size_t mem_bytes = 1 << 16);

/// Reads a debug bus (e.g. a register) from the simulator's good machine.
std::uint32_t read_bus(const sim::LogicSim& s, const dsl::Bus& bus);

/// Environment factory for run_fault_sim on the CPU netlist. The program
/// image is captured by value and each call builds an independent
/// CpuMemEnv that only reads the shared netlist; the fault engine calls
/// it once per campaign, to record the good run.
fault::EnvFactory make_cpu_env_factory(const PlasmaCpu& cpu,
                                       const isa::Program& program,
                                       std::size_t mem_bytes = 1 << 16);

}  // namespace sbst::plasma
