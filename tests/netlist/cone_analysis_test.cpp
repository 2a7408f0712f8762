#include "netlist/cone_analysis.hpp"

#include <gtest/gtest.h>

#include "netlist/synthetic_generator.hpp"

namespace scandiag {
namespace {

// a ── g1 ──┬── ff0
//           └── g2 ── ff1
// b ── g3 ───── ff2
struct Fixture {
  Netlist nl{"cone"};
  GateId a, b, g1, g2, g3, ff0, ff1, ff2;

  Fixture() {
    a = nl.addInput("a");
    b = nl.addInput("b");
    ff0 = nl.addDff("ff0");
    ff1 = nl.addDff("ff1");
    ff2 = nl.addDff("ff2");
    g1 = nl.addGate(GateType::Not, "g1", {a});
    g2 = nl.addGate(GateType::Buf, "g2", {g1});
    g3 = nl.addGate(GateType::Not, "g3", {b});
    nl.setDffInput(ff0, g1);
    nl.setDffInput(ff1, g2);
    nl.setDffInput(ff2, g3);
    nl.markOutput(g3);
    nl.validate();
  }
};

TEST(ConeAnalysis, ReachesOnlyDownstreamDffs) {
  Fixture f;
  const Levelization lev = levelize(f.nl);
  const FaultCone cone = computeCone(f.nl, lev, f.a);
  EXPECT_TRUE(cone.reachableDffs.test(0));
  EXPECT_TRUE(cone.reachableDffs.test(1));
  EXPECT_FALSE(cone.reachableDffs.test(2));
  // Cone gates: g1 and g2, in level order.
  ASSERT_EQ(cone.gates.size(), 2u);
  EXPECT_EQ(cone.gates[0], f.g1);
  EXPECT_EQ(cone.gates[1], f.g2);
  EXPECT_TRUE(cone.reachableOutputs.empty());
}

TEST(ConeAnalysis, MidConeSite) {
  Fixture f;
  const Levelization lev = levelize(f.nl);
  const FaultCone cone = computeCone(f.nl, lev, f.g2);
  EXPECT_FALSE(cone.reachableDffs.test(0));  // g2 only feeds ff1
  EXPECT_TRUE(cone.reachableDffs.test(1));
  ASSERT_EQ(cone.gates.size(), 1u);
  EXPECT_EQ(cone.gates[0], f.g2);
}

TEST(ConeAnalysis, PrimaryOutputRecorded) {
  Fixture f;
  const Levelization lev = levelize(f.nl);
  const FaultCone cone = computeCone(f.nl, lev, f.b);
  EXPECT_TRUE(cone.reachableDffs.test(2));
  ASSERT_EQ(cone.reachableOutputs.size(), 1u);
  EXPECT_EQ(cone.reachableOutputs[0], f.g3);
}

TEST(ConeAnalysis, PropagationStopsAtDff) {
  // ff0's Q feeds g; a fault on g's driver must not "wrap around" through the
  // sequential edge back into ff0's cone.
  Netlist nl;
  const GateId ff0 = nl.addDff("ff0");
  const GateId ff1 = nl.addDff("ff1");
  const GateId g = nl.addGate(GateType::Not, "g", {ff0});
  nl.setDffInput(ff0, g);  // self-loop through the flop
  nl.setDffInput(ff1, g);
  nl.markOutput(ff1);
  nl.validate();
  const Levelization lev = levelize(nl);
  const FaultCone cone = computeCone(nl, lev, g);
  EXPECT_TRUE(cone.reachableDffs.test(0));
  EXPECT_TRUE(cone.reachableDffs.test(1));
  EXPECT_EQ(cone.gates.size(), 1u);  // g itself only — no transitive walk via ff0
}

TEST(ConeAnalysis, MatchesBruteForceOnGeneratedCircuit) {
  const Netlist nl = generateNamedCircuit("s344");
  const Levelization lev = levelize(nl);
  const auto& fanouts = nl.fanouts();
  for (GateId site = 0; site < nl.gateCount(); site += 7) {
    const FaultCone cone = computeCone(nl, lev, site);
    // Brute-force BFS.
    std::vector<bool> visited(nl.gateCount(), false);
    std::vector<GateId> queue{site};
    visited[site] = true;
    BitVector dffs(nl.dffs().size());
    while (!queue.empty()) {
      const GateId g = queue.back();
      queue.pop_back();
      for (GateId u : fanouts[g]) {
        if (nl.gate(u).type == GateType::Dff) {
          // Recorded even when u == site (self-capture via feedback).
          for (std::size_t k = 0; k < nl.dffs().size(); ++k)
            if (nl.dffs()[k] == u) dffs.set(k);
          visited[u] = true;
          continue;
        }
        if (visited[u]) continue;
        visited[u] = true;
        queue.push_back(u);
      }
    }
    EXPECT_EQ(cone.reachableDffs, dffs) << "site " << nl.gateName(site);
  }
}

}  // namespace
}  // namespace scandiag
