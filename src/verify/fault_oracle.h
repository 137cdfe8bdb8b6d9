// Independent single-fault reference simulator.
//
// Grades one stuck-at fault the plainest way there is: the good machine
// and the one faulty machine hold one bit each per gate, every
// combinational gate is evaluated in levelized order with
// sim::eval_gate, and the fault is forced inline where it sits. It
// shares no code with the fault-simulation engines — no injection
// table, no compiled program, no good trace, no 63-fault groups, no
// lanes — so a bug in their common machinery cannot hide from it. It
// costs O(gates x cycles) per fault and is meant for tests.
//
// The cycle order is the engines' (fault/faultsim.h): drive the inputs,
// force the fault, evaluate, compare every primary-output bit, let the
// environment observe the good outputs, clock.
#pragma once

#include <cstdint>

#include "fault/faultsim.h"
#include "netlist/fault.h"
#include "netlist/netlist.h"

namespace sbst::verify {

/// First cycle at which fault `f` makes any primary output of `netlist`
/// differ from the good machine, inside the environment `make_env`
/// builds; -1 when it stays undetected for `max_cycles` cycles or until
/// the environment stops the run.
std::int64_t reference_detect_cycle(const nl::Netlist& netlist,
                                    const nl::Fault& f,
                                    const fault::EnvFactory& make_env,
                                    std::uint64_t max_cycles);

}  // namespace sbst::verify
