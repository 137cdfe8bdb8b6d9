#include "core/report.h"

#include <cmath>
#include <cstdio>
#include <iomanip>
#include <ostream>

namespace sbst::core {

std::string format_percent(double pct, Rounding rounding) {
  // Work in scaled hundredths so the direction of the final rounding is
  // explicit. The epsilon is far below the resolution a coverage ratio
  // can produce (1/total with total in the thousands is ~1e-4 of a
  // percent) but far above the representation error of a double near
  // 100, so it only cancels binary noise — 91.995 parsed as
  // 91.99499999... still floors to 91.99 only when the true decimal
  // value is below 91.995.
  constexpr double kEps = 1e-7;
  const double scaled = pct * 100.0;
  long long hundredths = 0;
  switch (rounding) {
    case Rounding::kNearest:
      hundredths = std::llround(scaled);
      break;
    case Rounding::kDown:
      hundredths = static_cast<long long>(std::floor(scaled + kEps));
      break;
    case Rounding::kUp:
      hundredths = static_cast<long long>(std::ceil(scaled - kEps));
      break;
  }
  char buf[32];
  const char* sign = hundredths < 0 ? "-" : "";
  if (hundredths < 0) hundredths = -hundredths;
  std::snprintf(buf, sizeof(buf), "%s%lld.%02lld%%", sign, hundredths / 100,
                hundredths % 100);
  return buf;
}

namespace {

/// Fault-coverage cell: "97.31%", or "n/a" when no fault of the row was
/// simulated (sampled runs) — printing 100% there reads as perfect
/// coverage of an untested component. Rows containing timed-out
/// (inconclusive) faults render as ">=x%": the true coverage cannot be
/// lower, and folding inconclusive faults into "undetected" silently
/// would understate the campaign without saying so. Bounds round
/// towards the safe side (format_percent): a ">=" cell floors so the
/// printed figure never exceeds what the campaign proved.
std::string fc_cell(const fault::Coverage& c) {
  if (!c.defined()) return "n/a";
  if (c.is_lower_bound()) {
    return ">=" + format_percent(c.percent(), Rounding::kDown);
  }
  return format_percent(c.percent(), Rounding::kNearest);
}

std::string mofc_cell(const fault::Coverage& c, double mofc) {
  if (!c.defined()) return "n/a";
  // Symmetrically, missed coverage over inconclusive faults is an upper
  // bound, and ceils.
  if (c.is_lower_bound()) {
    return "<=" + format_percent(mofc, Rounding::kUp);
  }
  return format_percent(mofc, Rounding::kNearest);
}

}  // namespace

CoverageReport make_coverage_report(const plasma::PlasmaCpu& cpu,
                                    const nl::FaultList& faults,
                                    const fault::FaultSimResult& result) {
  CoverageReport rep;
  rep.overall = fault::overall_coverage(faults, result);
  const std::vector<fault::Coverage> per_comp =
      fault::component_coverage(cpu.netlist, faults, result);
  const std::vector<ComponentInfo> classified = classify_plasma(cpu);

  for (const ComponentInfo& info : classified) {
    ComponentCoverageRow row;
    row.name = info.name;
    row.cls = info.cls;
    row.coverage = per_comp[cpu.component_id(info.component)];
    row.mofc = rep.overall.total == 0
                   ? 0.0
                   : 100.0 *
                         static_cast<double>(row.coverage.total -
                                             row.coverage.detected) /
                         static_cast<double>(rep.overall.total);
    rep.rows.push_back(std::move(row));
  }
  return rep;
}

void print_coverage_table(std::ostream& os, const CoverageReport& phase_a,
                          const CoverageReport* phase_ab) {
  os << std::fixed;
  // One report is whatever program was graded; two are Table 5's phases.
  os << "Component   Class        " << std::right << std::setw(10)
     << (phase_ab ? "Phase A FC" : "FC") << "    MOFC";
  if (phase_ab) os << "     Phase A+B FC    MOFC";
  os << "\n";
  for (std::size_t i = 0; i < phase_a.rows.size(); ++i) {
    const ComponentCoverageRow& a = phase_a.rows[i];
    os << std::left << std::setw(12) << a.name << std::setw(13)
       << component_class_name(a.cls) << std::right << std::setw(10)
       << fc_cell(a.coverage) << std::setw(9)
       << mofc_cell(a.coverage, a.mofc);
    if (phase_ab) {
      const ComponentCoverageRow& b = phase_ab->rows[i];
      os << std::setw(14) << fc_cell(b.coverage) << std::setw(9)
         << mofc_cell(b.coverage, b.mofc);
    }
    os << "\n";
  }
  os << std::left << std::setw(25) << "Processor overall" << std::right
     << std::setw(10) << fc_cell(phase_a.overall) << std::setw(8) << " ";
  if (phase_ab) {
    os << std::setw(14) << fc_cell(phase_ab->overall);
  }
  os << "\n";
  auto inconclusive_note = [&os](const char* phase,
                                 const CoverageReport& rep) {
    const fault::Coverage& c = rep.overall;
    if (!c.is_lower_bound()) return;
    os << "note: " << phase;
    if (c.timed_out != 0) {
      os << c.timed_out << " of " << c.total
         << " faults timed out before a verdict";
    }
    if (c.timed_out != 0 && c.quarantined != 0) os << " and ";
    if (c.quarantined != 0) {
      os << c.quarantined << " of " << c.total
         << " faults were quarantined (their isolated worker died on "
            "every attempt)";
    }
    os << "; coverage above is a lower bound (re-run with a larger "
          "timeout or --retry-timeouts to resolve them)\n";
  };
  inconclusive_note(phase_ab ? "phase A: " : "", phase_a);
  if (phase_ab) inconclusive_note("phase A+B: ", *phase_ab);
}

}  // namespace sbst::core
