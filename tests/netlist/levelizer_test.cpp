#include "netlist/levelizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "netlist/bench_parser.hpp"
#include "netlist/iscas89_profiles.hpp"
#include "netlist/synthetic_generator.hpp"

namespace scandiag {
namespace {

Netlist chainCircuit() {
  Netlist nl("chain");
  const GateId a = nl.addInput("a");
  const GateId g1 = nl.addGate(GateType::Not, "g1", {a});
  const GateId g2 = nl.addGate(GateType::Not, "g2", {g1});
  const GateId g3 = nl.addGate(GateType::Not, "g3", {g2});
  nl.markOutput(g3);
  return nl;
}

TEST(Levelizer, ChainLevelsAreSequential) {
  Netlist nl = chainCircuit();
  const Levelization lev = levelize(nl);
  EXPECT_EQ(lev.order.size(), 3u);
  EXPECT_EQ(lev.level[nl.findByName("a")], 0u);
  EXPECT_EQ(lev.level[nl.findByName("g1")], 1u);
  EXPECT_EQ(lev.level[nl.findByName("g2")], 2u);
  EXPECT_EQ(lev.level[nl.findByName("g3")], 3u);
  EXPECT_EQ(lev.maxLevel, 3u);
}

TEST(Levelizer, FaninsPrecedeUsers) {
  Netlist nl = generateNamedCircuit("s953");
  const Levelization lev = levelize(nl);
  std::vector<std::size_t> rank(nl.gateCount(), 0);
  for (std::size_t i = 0; i < lev.order.size(); ++i) rank[lev.order[i]] = i + 1;
  for (GateId id : lev.order) {
    for (GateId f : nl.gate(id).fanins) {
      if (!isSourceType(nl.gate(f).type)) {
        EXPECT_LT(rank[f], rank[id]) << "gate " << nl.gateName(id);
      }
    }
  }
}

TEST(Levelizer, OrderIsSortedByLevel) {
  Netlist nl = generateNamedCircuit("s298");
  const Levelization lev = levelize(nl);
  for (std::size_t i = 1; i < lev.order.size(); ++i)
    EXPECT_LE(lev.level[lev.order[i - 1]], lev.level[lev.order[i]]);
}

TEST(Levelizer, SequentialLoopThroughDffIsFine) {
  Netlist nl;
  const GateId ff = nl.addDff("ff");
  const GateId inv = nl.addGate(GateType::Not, "inv", {ff});
  nl.setDffInput(ff, inv);  // classic toggle flop
  nl.markOutput(ff);
  EXPECT_NO_THROW(nl.validate());
  const Levelization lev = levelize(nl);
  EXPECT_EQ(lev.order.size(), 1u);
}

TEST(Levelizer, CombinationalCycleDetected) {
  Netlist nl;
  const GateId a = nl.addInput("a");
  // Build g1 -> g2 -> g1 via appendFanin.
  const GateId g1 = nl.addGate(GateType::And, "g1", {a});
  const GateId g2 = nl.addGate(GateType::And, "g2", {g1});
  nl.appendFanin(g1, g2);
  EXPECT_THROW(levelize(nl), std::invalid_argument);
}

TEST(Levelizer, CoversAllCombinationalGates) {
  Netlist nl = generateNamedCircuit("s526");
  const Levelization lev = levelize(nl);
  EXPECT_EQ(lev.order.size(), nl.combGateCount());
}

/// The order levelize gave before its counting sort: Kahn's algorithm with
/// a LIFO ready list, then std::stable_sort by level.
std::vector<GateId> stableSortedKahnOrder(const Netlist& nl, const std::vector<std::size_t>& level) {
  std::vector<std::size_t> pending(nl.gateCount(), 0);
  std::vector<GateId> ready;
  for (GateId id = 0; id < nl.gateCount(); ++id) {
    const Gate& g = nl.gate(id);
    if (isSourceType(g.type)) continue;
    for (GateId f : g.fanins) {
      if (!isSourceType(nl.gate(f).type)) ++pending[id];
    }
    if (pending[id] == 0) ready.push_back(id);
  }
  std::vector<GateId> order;
  while (!ready.empty()) {
    const GateId id = ready.back();
    ready.pop_back();
    order.push_back(id);
    for (GateId user : nl.fanouts()[id]) {
      if (!isSourceType(nl.gate(user).type) && --pending[user] == 0) ready.push_back(user);
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](GateId a, GateId b) { return level[a] < level[b]; });
  return order;
}

void expectOrderMatchesOracle(const Netlist& nl) {
  const Levelization lev = levelize(nl);
  EXPECT_EQ(lev.order, stableSortedKahnOrder(nl, lev.level)) << nl.name();
}

TEST(Levelizer, OrderMatchesStableSortOracle) {
  for (const Iscas89Profile& profile : iscas89Profiles())
    expectOrderMatchesOracle(generateCircuit(profile));
  expectOrderMatchesOracle(parseBenchFile("data/s27.bench"));

  // Gate ids deliberately out of level order, with reconvergence, so the
  // LIFO ready list pops levels interleaved and the bucketing has to
  // reorder within and across levels.
  Netlist nl("mixed");
  const GateId a = nl.addInput("a");
  const GateId b = nl.addInput("b");
  const GateId ff = nl.addDff("ff");
  const GateId n1 = nl.addGate(GateType::Not, "n1", {a});
  const GateId x1 = nl.addGate(GateType::Xor, "x1", {a, b});
  const GateId n2 = nl.addGate(GateType::Not, "n2", {n1});
  const GateId o1 = nl.addGate(GateType::Or, "o1", {b, ff});
  const GateId d1 = nl.addGate(GateType::Nand, "d1", {n2, x1, o1});
  const GateId n3 = nl.addGate(GateType::Not, "n3", {n2});
  const GateId b1 = nl.addGate(GateType::Buf, "b1", {ff});
  const GateId d2 = nl.addGate(GateType::And, "d2", {d1, n3, b1});
  nl.setDffInput(ff, d2);
  nl.markOutput(d1);
  nl.markOutput(d2);
  const Levelization lev = levelize(nl);
  ASSERT_EQ(lev.maxLevel, 4u);
  expectOrderMatchesOracle(nl);
}

}  // namespace
}  // namespace scandiag
