#include "netlist/synthetic_generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "netlist/bench_writer.hpp"
#include "netlist/cone_analysis.hpp"
#include "netlist/levelizer.hpp"
#include "bist/prpg.hpp"
#include "common/rng.hpp"
#include "sim/fault_list.hpp"
#include "sim/fault_simulator.hpp"

namespace scandiag {
namespace {

class ProfileSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(ProfileSweep, CountsMatchProfileExactly) {
  const Iscas89Profile& profile = iscas89Profile(GetParam());
  const Netlist nl = generateCircuit(profile);
  EXPECT_EQ(nl.inputs().size(), profile.numInputs);
  EXPECT_EQ(nl.dffs().size(), profile.numDffs);
  EXPECT_EQ(nl.combGateCount(), profile.numGates);
  EXPECT_EQ(nl.outputs().size(), profile.numOutputs);
  EXPECT_NO_THROW(nl.validate());
}

TEST_P(ProfileSweep, EveryGateIsObserved) {
  const Netlist nl = generateNamedCircuit(GetParam());
  const auto& fanouts = nl.fanouts();
  for (GateId id = 0; id < nl.gateCount(); ++id) {
    if (isSourceType(nl.gate(id).type)) continue;
    const bool isPo = std::find(nl.outputs().begin(), nl.outputs().end(), id) !=
                      nl.outputs().end();
    EXPECT_TRUE(isPo || !fanouts[id].empty())
        << "dangling gate " << nl.gateName(id) << " in " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Profiles, ProfileSweep,
                         ::testing::Values("s27", "s208", "s298", "s344", "s349", "s382",
                                           "s386", "s400", "s420", "s444", "s510", "s526",
                                           "s641", "s713", "s820", "s832", "s838", "s953",
                                           "s1196", "s1238", "s1423", "s1488", "s1494",
                                           "s5378", "s9234"));

TEST(SyntheticGenerator, DeterministicForSameSeed) {
  const Netlist a = generateNamedCircuit("s953");
  const Netlist b = generateNamedCircuit("s953");
  EXPECT_EQ(writeBenchString(a), writeBenchString(b));
}

TEST(SyntheticGenerator, DifferentNamesProduceDifferentStructure) {
  // Equal-size custom profiles with different names must differ (the seed is
  // mixed with the circuit name).
  Iscas89Profile p1{"alpha", 8, 4, 12, 100};
  Iscas89Profile p2{"beta", 8, 4, 12, 100};
  EXPECT_NE(writeBenchString(generateCircuit(p1)), writeBenchString(generateCircuit(p2)));
}

TEST(SyntheticGenerator, UnknownProfileNameThrows) {
  EXPECT_THROW(generateNamedCircuit("s99999"), std::invalid_argument);
}

TEST(SyntheticGenerator, RespectsLevelBound) {
  const Netlist nl = generateCircuit(iscas89Profile("s1423"));
  const Levelization lev = levelize(nl);
  EXPECT_LE(lev.maxLevel, 6u + 1);  // +1 slack for observability-sweep fanins
}

TEST(SyntheticGenerator, FailingCellsAreClustered) {
  // The property the whole paper rests on: a fault's *error-capturing* cells
  // occupy a small span of the (ordinal-ordered) scan chain. Structural cones
  // are wider (hubs/global wires create the heavy tail), so the test measures
  // the spans of actually failing cells under fault simulation and judges the
  // median.
  const Netlist nl = generateNamedCircuit("s9234");
  const PatternSet pats = generatePatterns(nl, 128);
  const FaultSimulator sim(nl, pats);
  const FaultList universe = FaultList::enumerateCollapsed(nl);
  std::vector<double> spans;
  for (const FaultSite& f : universe.sample(600, 0xC10C)) {
    const FaultResponse r = sim.simulate(f);
    if (r.failingCellCount() < 2) continue;
    const auto cells = r.failingCells.toIndices();
    spans.push_back(static_cast<double>(cells.back() - cells.front() + 1) /
                    static_cast<double>(nl.dffs().size()));
  }
  ASSERT_GT(spans.size(), 50u);
  std::nth_element(spans.begin(), spans.begin() + spans.size() / 2, spans.end());
  EXPECT_LT(spans[spans.size() / 2], 0.30)
      << "typical failing-cell sets span most of the chain — clustering is broken";
}

TEST(SyntheticGenerator, TinyCustomProfileWorks) {
  Iscas89Profile tiny{"tiny", 2, 1, 1, 3};
  const Netlist nl = generateCircuit(tiny);
  EXPECT_EQ(nl.combGateCount(), 3u);
  EXPECT_NO_THROW(nl.validate());
}

TEST(SyntheticGenerator, InvalidProfileRejected) {
  EXPECT_THROW(generateCircuit(Iscas89Profile{"x", 0, 1, 1, 3}), std::invalid_argument);
  EXPECT_THROW(generateCircuit(Iscas89Profile{"x", 1, 0, 1, 3}), std::invalid_argument);
  EXPECT_THROW(generateCircuit(Iscas89Profile{"x", 1, 1, 0, 3}), std::invalid_argument);
  EXPECT_THROW(generateCircuit(Iscas89Profile{"x", 1, 1, 1, 0}), std::invalid_argument);
}

/// Checks the gallop searches against std::lower_bound / std::upper_bound
/// for every query in `queries` plus each slot's own position and its two
/// neighbouring doubles.
void expectSearchesMatchStd(const std::vector<detail::Slot>& slots, std::vector<double> queries,
                            const char* what) {
  for (const detail::Slot& s : slots) {
    queries.push_back(s.pos);
    queries.push_back(std::nextafter(s.pos, -2.0));
    queries.push_back(std::nextafter(s.pos, 2.0));
  }
  for (double v : queries) {
    const auto lower = std::lower_bound(slots.begin(), slots.end(), v,
                                        [](const detail::Slot& s, double x) { return s.pos < x; });
    const auto upper = std::upper_bound(slots.begin(), slots.end(), v,
                                        [](double x, const detail::Slot& s) { return x < s.pos; });
    EXPECT_EQ(detail::slotLowerBound(slots, v), static_cast<std::size_t>(lower - slots.begin()))
        << what << " lower v=" << v;
    EXPECT_EQ(detail::slotUpperBound(slots, v), static_cast<std::size_t>(upper - slots.begin()))
        << what << " upper v=" << v;
  }
}

TEST(SlotSearch, MatchesStdBoundsOnEveryShape) {
  std::vector<double> queries = {-1e9, -1.0, -0.25, -1e-12, 0.0, 1.0, 1.0 + 1e-12, 1.5, 1e9};
  for (int k = 0; k <= 200; ++k) queries.push_back(-0.1 + 1.2 * k / 200.0);

  Xoroshiro128 rng(7);
  std::vector<detail::Slot> uniform;  // stratified with jitter, as the generator places gates
  for (std::size_t i = 0; i < 3000; ++i)
    uniform.push_back({static_cast<GateId>(i), (static_cast<double>(i) + rng.nextDouble()) / 3000.0});
  expectSearchesMatchStd(uniform, queries, "uniform");

  std::vector<detail::Slot> clustered;  // dense near 0, far from the interpolated guess
  for (std::size_t i = 0; i < 2000; ++i) {
    const double u = rng.nextDouble();
    clustered.push_back({static_cast<GateId>(i), u * u * u * u});
  }
  clustered.push_back({2000, 0.999});
  std::sort(clustered.begin(), clustered.end(),
            [](const detail::Slot& a, const detail::Slot& b) { return a.pos < b.pos; });
  expectSearchesMatchStd(clustered, queries, "clustered");

  std::vector<detail::Slot> duplicates;  // long runs of one position
  for (std::size_t i = 0; i < 1000; ++i)
    duplicates.push_back({static_cast<GateId>(i), static_cast<double>(i / 250) * 0.25 + 0.125});
  expectSearchesMatchStd(duplicates, queries, "duplicates");

  expectSearchesMatchStd({{0, 0.5}}, queries, "single");
  expectSearchesMatchStd({{0, 0.0}, {1, 0.0}, {2, 1.0}}, queries, "ends");
  expectSearchesMatchStd({}, queries, "empty");
}

TEST(Iscas89Profiles, TableContainsTheSixLargest) {
  for (const std::string& name : sixLargestIscas89()) {
    EXPECT_NO_THROW(iscas89Profile(name));
  }
  EXPECT_EQ(sixLargestIscas89().size(), 6u);
  EXPECT_EQ(d695Iscas89Modules().size(), 8u);
}

}  // namespace
}  // namespace scandiag
