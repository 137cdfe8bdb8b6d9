// Shared helpers for the table-reproduction benches.
#pragma once

#include <cstdio>
#include <fstream>
#include <string>

#include "core/classify.h"
#include "core/program.h"
#include "plasma/cpu.h"

namespace sbst::bench {

struct Context {
  plasma::PlasmaCpu cpu = plasma::build_plasma_cpu();
  std::vector<core::ComponentInfo> classified = core::classify_plasma(cpu);
};

/// Timed legs of a bench report the best of this many rounds; the
/// rounds alternate the order of the legs, so a burst of load on a
/// shared host does not always land on the same one.
inline constexpr int kBestOf = 5;

/// The host's 1-minute load average (first field of /proc/loadavg), or
/// -1 where it cannot be read.
inline double load_average() {
  std::ifstream in("/proc/loadavg");
  double load = -1;
  if (!(in >> load)) return -1;
  return load;
}

inline void header(const char* table, const char* title) {
  std::printf("==================================================================\n");
  std::printf("%s — %s\n", table, title);
  std::printf("  (paper: Kranitis et al., \"Low-Cost Software-Based Self-Testing\n");
  std::printf("   of RISC Processor Cores\", DATE 2003)\n");
  std::printf("==================================================================\n");
}

}  // namespace sbst::bench
