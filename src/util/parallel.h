// Worker-count default shared by the fault-sim executors, the CLI and
// the benches: one worker per hardware thread.
#pragma once

namespace sbst::util {

/// Number of hardware threads, never less than 1.
unsigned hardware_threads();

}  // namespace sbst::util
