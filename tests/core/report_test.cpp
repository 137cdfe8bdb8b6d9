#include "core/report.h"

#include <gtest/gtest.h>

#include <sstream>

namespace sbst::core {
namespace {

const plasma::PlasmaCpu& shared_cpu() {
  static const auto* cpu = new plasma::PlasmaCpu(plasma::build_plasma_cpu());
  return *cpu;
}

// Build a synthetic result marking an arbitrary prefix of faults detected,
// then validate the MOFC arithmetic.
TEST(Report, MofcMath) {
  const auto& cpu = shared_cpu();
  const nl::FaultList faults = nl::enumerate_faults(cpu.netlist);
  fault::FaultSimResult res;
  res.detected.assign(faults.size(), 0);
  res.simulated.assign(faults.size(), 1);
  res.detect_cycle.assign(faults.size(), -1);
  for (std::size_t i = 0; i < faults.size(); i += 2) res.detected[i] = 1;

  const CoverageReport rep = make_coverage_report(cpu, faults, res);
  ASSERT_EQ(rep.rows.size(), static_cast<std::size_t>(plasma::kNumPlasmaComponents));

  double mofc_sum = 0.0;
  std::size_t total = 0, detected = 0;
  for (const auto& row : rep.rows) {
    mofc_sum += row.mofc;
    total += row.coverage.total;
    detected += row.coverage.detected;
    EXPECT_GE(row.mofc, 0.0);
  }
  // Components partition all tagged faults; untagged faults are the rest.
  EXPECT_LE(total, rep.overall.total);
  EXPECT_LE(detected, rep.overall.detected);
  // Sum of MOFC over all rows == 100% - overall FC (when every fault is
  // inside some component).
  const double missed = 100.0 - rep.overall.percent();
  EXPECT_NEAR(mofc_sum, missed, 1.0);
}

TEST(Report, AllDetectedMeansZeroMofc) {
  const auto& cpu = shared_cpu();
  const nl::FaultList faults = nl::enumerate_faults(cpu.netlist);
  fault::FaultSimResult res;
  res.detected.assign(faults.size(), 1);
  res.simulated.assign(faults.size(), 1);
  res.detect_cycle.assign(faults.size(), 0);
  const CoverageReport rep = make_coverage_report(cpu, faults, res);
  EXPECT_DOUBLE_EQ(rep.overall.percent(), 100.0);
  for (const auto& row : rep.rows) {
    EXPECT_DOUBLE_EQ(row.mofc, 0.0);
    EXPECT_DOUBLE_EQ(row.coverage.percent(), 100.0);
  }
}

TEST(Report, PrintsTableWithAllComponents) {
  const auto& cpu = shared_cpu();
  const nl::FaultList faults = nl::enumerate_faults(cpu.netlist);
  fault::FaultSimResult res;
  res.detected.assign(faults.size(), 1);
  res.simulated.assign(faults.size(), 1);
  res.detect_cycle.assign(faults.size(), 0);
  const CoverageReport rep = make_coverage_report(cpu, faults, res);
  std::ostringstream os;
  print_coverage_table(os, rep, &rep);
  const std::string text = os.str();
  for (const char* name : {"RegF", "MulD", "ALU", "BSH", "MCTRL", "PCL",
                           "CTRL", "BMUX", "PLN", "Processor overall"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
  // Two reports are Table 5's phases; one is whatever program was graded,
  // so its column names no phase.
  EXPECT_EQ(text.substr(0, text.find('\n')),
            "Component   Class        Phase A FC    MOFC     Phase A+B FC"
            "    MOFC");
  std::ostringstream one;
  print_coverage_table(one, rep, nullptr);
  EXPECT_EQ(one.str().substr(0, one.str().find('\n')),
            "Component   Class                FC    MOFC");
}

// Regression: rows whose faults were never simulated (routine in sampled
// grading runs) used to print a vacuous 100.00% — they must read "n/a".
TEST(Report, UnsimulatedComponentRendersNa) {
  const auto& cpu = shared_cpu();
  const nl::FaultList faults = nl::enumerate_faults(cpu.netlist);
  fault::FaultSimResult res;
  res.detected.assign(faults.size(), 0);
  res.simulated.assign(faults.size(), 0);
  res.detect_cycle.assign(faults.size(), -1);

  // Simulate (and detect) only the faults of one component; every other
  // row is then an unsampled hole.
  const nl::ComponentId alu =
      cpu.component_id(plasma::PlasmaComponent::kAlu);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (nl::fault_component(cpu.netlist, faults.faults[i]) == alu) {
      res.simulated[i] = 1;
      res.detected[i] = 1;
      res.detect_cycle[i] = 0;
    }
  }
  const CoverageReport rep = make_coverage_report(cpu, faults, res);
  std::ostringstream os;
  print_coverage_table(os, rep, nullptr);
  const std::string text = os.str();
  EXPECT_NE(text.find("n/a"), std::string::npos) << text;
  EXPECT_NE(text.find("100.00%"), std::string::npos) << text;  // the ALU row
  // No row may claim coverage it never measured: exactly one 100.00% FC
  // cell (the ALU) plus the overall line.
  std::size_t count = 0;
  for (std::size_t p = text.find("100.00%"); p != std::string::npos;
       p = text.find("100.00%", p + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 2u) << text;
}

// Timed-out (inconclusive) faults must surface as explicit lower bounds
// (">=x%"), with a note naming their count — never silently folded into
// the undetected bucket.
TEST(Report, TimedOutFaultsRenderAsLowerBound) {
  const auto& cpu = shared_cpu();
  const nl::FaultList faults = nl::enumerate_faults(cpu.netlist);
  fault::FaultSimResult res;
  res.detected.assign(faults.size(), 1);
  res.simulated.assign(faults.size(), 1);
  res.detect_cycle.assign(faults.size(), 0);
  res.timed_out.assign(faults.size(), 0);
  // Every fourth fault never got a verdict.
  for (std::size_t i = 0; i < faults.size(); i += 4) {
    res.detected[i] = 0;
    res.detect_cycle[i] = -1;
    res.timed_out[i] = 1;
  }
  const CoverageReport rep = make_coverage_report(cpu, faults, res);
  EXPECT_TRUE(rep.overall.is_lower_bound());
  EXPECT_GT(rep.overall.timed_out, 0u);

  std::ostringstream os;
  print_coverage_table(os, rep, nullptr);
  const std::string text = os.str();
  EXPECT_NE(text.find(">="), std::string::npos) << text;
  EXPECT_NE(text.find("timed out before a verdict"), std::string::npos)
      << text;
  EXPECT_NE(text.find("lower "), std::string::npos) << text;
}

// Quarantined faults (isolated worker died every attempt) are the other
// inconclusive verdict: same ">=x%" lower-bound rendering, with their
// own count in the note — alongside, not instead of, the timeout count.
TEST(Report, QuarantinedFaultsRenderAsLowerBound) {
  const auto& cpu = shared_cpu();
  const nl::FaultList faults = nl::enumerate_faults(cpu.netlist);
  fault::FaultSimResult res;
  res.detected.assign(faults.size(), 1);
  res.simulated.assign(faults.size(), 1);
  res.detect_cycle.assign(faults.size(), 0);
  res.timed_out.assign(faults.size(), 0);
  res.quarantined.assign(faults.size(), 0);
  for (std::size_t i = 0; i < faults.size() && i < 63; ++i) {
    res.detected[i] = 0;
    res.detect_cycle[i] = -1;
    res.quarantined[i] = 1;
  }
  const CoverageReport rep = make_coverage_report(cpu, faults, res);
  EXPECT_TRUE(rep.overall.is_lower_bound());
  EXPECT_GT(rep.overall.quarantined, 0u);
  EXPECT_EQ(rep.overall.timed_out, 0u);

  std::ostringstream os;
  print_coverage_table(os, rep, nullptr);
  const std::string text = os.str();
  EXPECT_NE(text.find(">="), std::string::npos) << text;
  EXPECT_NE(text.find("quarantined"), std::string::npos) << text;
  EXPECT_EQ(text.find("timed out"), std::string::npos)
      << "no timeouts happened, the note must not claim any: " << text;

  // Both verdicts at once: both counts appear in one note.
  for (std::size_t i = 0; i < faults.size(); i += 5) {
    if (res.quarantined[i]) continue;
    res.detected[i] = 0;
    res.detect_cycle[i] = -1;
    res.timed_out[i] = 1;
  }
  const CoverageReport both = make_coverage_report(cpu, faults, res);
  std::ostringstream os2;
  print_coverage_table(os2, both, nullptr);
  EXPECT_NE(os2.str().find("timed out before a verdict"), std::string::npos);
  EXPECT_NE(os2.str().find("quarantined"), std::string::npos);
}

// Regression: bound cells used to render with printf's round-to-nearest,
// so a campaign that proved ">=91.996%" printed ">=92.00%" — claiming a
// hundredth of coverage it never measured. Bounds must round toward the
// safe side: floor for ">=", ceil for "<=".
TEST(Report, FormatPercentRoundsBoundsTowardTheSafeSide) {
  // The whole 91.995..92.004 boundary band, in 0.001 steps.
  for (int i = 0; i <= 9; ++i) {
    const double pct = 91.995 + 0.001 * i;
    SCOPED_TRACE(pct);
    EXPECT_EQ(format_percent(pct, Rounding::kDown),
              pct < 92.0 ? "91.99%" : "92.00%");
    EXPECT_EQ(format_percent(pct, Rounding::kUp),
              pct <= 92.0 ? "92.00%" : "92.01%");
  }
  // Exactly representable inputs stay put in every mode (the epsilon
  // must only cancel binary noise, not nudge true values).
  for (const Rounding r : {Rounding::kNearest, Rounding::kDown, Rounding::kUp}) {
    EXPECT_EQ(format_percent(92.0, r), "92.00%");
    EXPECT_EQ(format_percent(0.0, r), "0.00%");
    EXPECT_EQ(format_percent(100.0, r), "100.00%");
  }
  // Plain (non-bound) cells keep round-to-nearest.
  EXPECT_EQ(format_percent(91.996, Rounding::kNearest), "92.00%");
  EXPECT_EQ(format_percent(91.994, Rounding::kNearest), "91.99%");
}

// The directed rounding must reach the printed table: a lower-bound
// coverage of 91.996% renders ">=91.99%", its missed-coverage partner
// ceils.
TEST(Report, LowerBoundCellsFloorAtPrintedPrecision) {
  const auto& cpu = shared_cpu();
  const nl::FaultList faults = nl::enumerate_faults(cpu.netlist);
  fault::FaultSimResult res;
  res.detected.assign(faults.size(), 1);
  res.simulated.assign(faults.size(), 1);
  res.detect_cycle.assign(faults.size(), 0);
  res.timed_out.assign(faults.size(), 0);
  // One inconclusive fault puts overall coverage strictly between two
  // printed hundredths (1/total of ~20k uncollapsed faults is a few
  // thousandths of a percent below 100).
  res.detected[0] = 0;
  res.detect_cycle[0] = -1;
  res.timed_out[0] = 1;
  const CoverageReport rep = make_coverage_report(cpu, faults, res);
  ASSERT_TRUE(rep.overall.is_lower_bound());
  std::ostringstream os;
  print_coverage_table(os, rep, nullptr);
  const std::string want =
      ">=" + format_percent(rep.overall.percent(), Rounding::kDown);
  EXPECT_NE(os.str().find(want), std::string::npos)
      << "expected " << want << " in:\n"
      << os.str();
}

// And a clean run must not mention bounds at all.
TEST(Report, NoTimeoutsMeansNoBoundMarkers) {
  const auto& cpu = shared_cpu();
  const nl::FaultList faults = nl::enumerate_faults(cpu.netlist);
  fault::FaultSimResult res;
  res.detected.assign(faults.size(), 1);
  res.simulated.assign(faults.size(), 1);
  res.detect_cycle.assign(faults.size(), 0);
  res.timed_out.assign(faults.size(), 0);
  const CoverageReport rep = make_coverage_report(cpu, faults, res);
  EXPECT_FALSE(rep.overall.is_lower_bound());
  std::ostringstream os;
  print_coverage_table(os, rep, nullptr);
  EXPECT_EQ(os.str().find(">="), std::string::npos);
  EXPECT_EQ(os.str().find("timed out"), std::string::npos);
  EXPECT_EQ(os.str().find("quarantined"), std::string::npos);
}

}  // namespace
}  // namespace sbst::core
