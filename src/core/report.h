// Coverage reporting in the paper's Table 5 format: per-component fault
// coverage (FC) and missed overall fault coverage (MOFC — the share of
// the processor's total faults left undetected inside that component).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/classify.h"
#include "fault/faultsim.h"
#include "netlist/fault.h"
#include "plasma/cpu.h"

namespace sbst::core {

struct ComponentCoverageRow {
  std::string name;
  ComponentClass cls = ComponentClass::kGlue;
  fault::Coverage coverage;
  double mofc = 0.0;  // 100 * undetected_in_component / total_processor
};

struct CoverageReport {
  std::vector<ComponentCoverageRow> rows;  // Table 2/3 component order
  fault::Coverage overall;
};

CoverageReport make_coverage_report(const plasma::PlasmaCpu& cpu,
                                    const nl::FaultList& faults,
                                    const fault::FaultSimResult& result);

/// How a percentage is rounded to the two printed decimals.
enum class Rounding {
  kNearest,  // plain values: round half away from zero
  kDown,     // ">=" lower bounds: floor, so the printed bound stays true
  kUp,       // "<=" upper bounds: ceil, symmetrically
};

/// Renders `pct` as "12.34%" with directed rounding. A ">=91.996%"
/// coverage must print as ">=91.99%", not ">=92.00%" — round-to-nearest
/// on a bound manufactures a guarantee the campaign never made. An
/// epsilon absorbs binary representation error (e.g. 91.995 stored as
/// 91.99499999...) so exactly-representable-in-decimal inputs are not
/// nudged across a hundredth.
std::string format_percent(double pct, Rounding rounding);

/// Prints one or two phases side by side in the Table 5 layout. One
/// report's column is headed "FC"; two are "Phase A FC" and "Phase A+B FC".
void print_coverage_table(std::ostream& os, const CoverageReport& phase_a,
                          const CoverageReport* phase_ab);

}  // namespace sbst::core
