#include "netlist/levelize.h"

#include <gtest/gtest.h>

namespace sbst::nl {
namespace {

TEST(Levelize, OrdersDriversFirst) {
  Netlist n;
  const GateId a = n.add_gate(GateKind::kInput);
  const GateId b = n.add_gate(GateKind::kInput);
  const GateId x = n.add_gate(GateKind::kAnd2, a, b);
  const GateId y = n.add_gate(GateKind::kNot, x);
  const GateId z = n.add_gate(GateKind::kOr2, y, x);
  const Levelization lv = levelize(n);

  std::vector<std::size_t> pos(n.size(), SIZE_MAX);
  for (std::size_t i = 0; i < lv.comb_order.size(); ++i) {
    pos[lv.comb_order[i]] = i;
  }
  EXPECT_LT(pos[x], pos[y]);
  EXPECT_LT(pos[y], pos[z]);
  EXPECT_LT(pos[x], pos[z]);
  EXPECT_EQ(lv.comb_order.size(), 3u);
  EXPECT_EQ(lv.level[x], 1u);
  EXPECT_EQ(lv.level[y], 2u);
  EXPECT_EQ(lv.level[z], 3u);
  EXPECT_EQ(lv.max_level, 3u);
}

TEST(Levelize, DffBreaksCycles) {
  Netlist n;
  const GateId q = n.add_gate(GateKind::kDff);
  const GateId inv = n.add_gate(GateKind::kNot, q);
  n.set_gate_input(q, 0, inv);  // toggle flop
  const Levelization lv = levelize(n);
  EXPECT_EQ(lv.comb_order.size(), 1u);
  EXPECT_EQ(lv.dffs.size(), 1u);
  EXPECT_EQ(lv.dffs[0], q);
}

TEST(Levelize, DetectsCombinationalCycle) {
  Netlist n;
  const GateId a = n.add_gate(GateKind::kInput);
  // g1 and g2 feed each other.
  const GateId g1 = n.add_gate(GateKind::kAnd2, a, a);
  const GateId g2 = n.add_gate(GateKind::kOr2, g1, a);
  n.set_gate_input(g1, 1, g2);
  EXPECT_THROW(levelize(n), NetlistError);
}

TEST(Levelize, EmptyNetlistIsFine) {
  Netlist n;
  const Levelization lv = levelize(n);
  EXPECT_TRUE(lv.comb_order.empty());
  EXPECT_TRUE(lv.dffs.empty());
}

TEST(LiveMask, MarksOutputCone) {
  Netlist n;
  const GateId a = n.add_gate(GateKind::kInput);
  const GateId b = n.add_gate(GateKind::kInput);
  const GateId used = n.add_gate(GateKind::kAnd2, a, b);
  const GateId dead = n.add_gate(GateKind::kOr2, a, b);
  n.add_output("o", {used});
  const auto live = live_mask(n);
  EXPECT_TRUE(live[used]);
  EXPECT_FALSE(live[dead]);
  // Environment-facing gates always live.
  EXPECT_TRUE(live[a]);
  EXPECT_TRUE(live[b]);
  EXPECT_TRUE(live[n.const0()]);
}

TEST(LiveMask, TracesThroughDffs) {
  Netlist n;
  const GateId a = n.add_gate(GateKind::kInput);
  const GateId inv = n.add_gate(GateKind::kNot, a);
  const GateId q = n.add_dff(inv, false);
  const GateId out = n.add_gate(GateKind::kBuf, q);
  n.add_output("o", {out});
  const auto live = live_mask(n);
  EXPECT_TRUE(live[q]);
  EXPECT_TRUE(live[inv]);  // reached through the DFF's D pin
}

}  // namespace
}  // namespace sbst::nl
