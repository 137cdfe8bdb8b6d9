// Closed-loop byte-memory testbench for the gate-level Parwan core, plus
// the fault-simulation Environment (same PO-observation argument as the
// Plasma testbench: the bus is the observation point, one good-machine
// memory serves all fault machines).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "fault/faultsim.h"
#include "parwan/cpu.h"
#include "parwan/iss.h"
#include "sim/logicsim.h"

namespace sbst::parwan {

class ParwanMemEnv final : public fault::Environment {
 public:
  ParwanMemEnv(const nl::Netlist& netlist,
               const std::vector<std::uint8_t>& image,
               bool record_writes = false);

  void drive(sim::LogicSim& s, std::uint64_t cycle) override;
  bool observe(const sim::LogicSim& s, std::uint64_t cycle) override;

  bool halted() const { return halted_; }
  const std::vector<PWrite>& writes() const { return writes_; }
  const std::vector<std::uint8_t>& memory() const { return mem_; }

 private:
  const nl::Port* in_rdata_;
  const nl::Port* out_addr_;
  const nl::Port* out_wdata_;
  const nl::Port* out_we_;
  const nl::Port* out_rd_en_;
  std::vector<std::uint8_t> mem_;
  std::uint8_t pending_rdata_ = 0;
  bool record_writes_ = false;
  bool halted_ = false;
  std::vector<PWrite> writes_;
};

struct ParwanRunResult {
  std::uint64_t cycles = 0;
  bool halted = false;
  std::vector<PWrite> writes;
  std::uint8_t ac = 0;
  std::uint16_t pc = 0;
  std::uint8_t flags = 0;
};

ParwanRunResult run_gate_parwan(const ParwanCpu& cpu,
                                const std::vector<std::uint8_t>& image,
                                std::uint64_t max_cycles = 1'000'000);

/// Environment factory for run_fault_sim on the Parwan netlist (the image
/// is captured by value; the netlist is only read). The fault engine
/// calls it once per campaign, to record the good run.
fault::EnvFactory make_parwan_env_factory(const ParwanCpu& cpu,
                                          const std::vector<std::uint8_t>& image);

}  // namespace sbst::parwan
