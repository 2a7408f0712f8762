#include "atpg/podem.hpp"

#include <thread>

#include <gtest/gtest.h>

#include "bist/prpg.hpp"
#include "netlist/cone_analysis.hpp"
#include "netlist/synthetic_generator.hpp"
#include "sim/fault_list.hpp"

namespace scandiag {
namespace {

/// Detection check covering both observation sites (scan cells and POs).
bool cubeDetects(const Netlist& nl, const TestCube& cube, const FaultSite& fault) {
  PatternSet pats = patternsFromCubes(nl, {cube});
  const FaultSimulator fsim(nl, pats);
  if (fsim.simulate(fault).detected()) return true;
  // PO observation.
  const LogicSimulator sim(nl);
  std::vector<SimWord> values(nl.gateCount(), 0);
  for (GateId id = 0; id < nl.gateCount(); ++id)
    if (pats.isSource(id)) values[id] = pats.word(id, 0);
  sim.evaluate(values);
  std::vector<SimWord> good = values;
  const FaultCone cone = computeCone(nl, sim.levelization(), fault.gate);
  sim.evaluateFaulty(fault, cone, values);
  for (GateId po : nl.outputs()) {
    if ((values[po] ^ good[po]) & 1u) return true;
  }
  return false;
}

TEST(Podem, GeneratesTestForEasyFault) {
  // AND(a, b) output SA0: needs a=b=1; observed at the PO.
  Netlist nl;
  const GateId a = nl.addInput("a");
  const GateId b = nl.addInput("b");
  const GateId g = nl.addGate(GateType::And, "g", {a, b});
  const GateId ff = nl.addDff("ff");
  nl.setDffInput(ff, g);
  nl.markOutput(g);
  nl.validate();
  const PodemAtpg atpg(nl);
  const AtpgResult r = atpg.generate({g, FaultSite::kOutputPin, false});
  ASSERT_EQ(r.outcome, AtpgOutcome::Detected);
  EXPECT_TRUE(r.cube.care.test(a));
  EXPECT_TRUE(r.cube.care.test(b));
  EXPECT_TRUE(r.cube.value.test(a));
  EXPECT_TRUE(r.cube.value.test(b));
}

TEST(Podem, ProvesRedundantFaultUntestable) {
  // g = OR(a, NOT(a)) is constant 1: its SA1 is undetectable.
  Netlist nl;
  const GateId a = nl.addInput("a");
  const GateId n = nl.addGate(GateType::Not, "n", {a});
  const GateId g = nl.addGate(GateType::Or, "g", {a, n});
  nl.markOutput(g);
  nl.validate();
  const PodemAtpg atpg(nl);
  EXPECT_EQ(atpg.generate({g, FaultSite::kOutputPin, true}).outcome, AtpgOutcome::Untestable);
  // ...while its SA0 needs just any input value.
  EXPECT_EQ(atpg.generate({g, FaultSite::kOutputPin, false}).outcome, AtpgOutcome::Detected);
}

TEST(Podem, UnobservableFaultUntestable) {
  // A gate driving nothing marked as output is unobservable.
  Netlist nl;
  const GateId a = nl.addInput("a");
  const GateId dead = nl.addGate(GateType::Not, "dead", {a});
  const GateId live = nl.addGate(GateType::Buf, "live", {a});
  (void)dead;
  nl.markOutput(live);
  nl.validate();
  const PodemAtpg atpg(nl);
  EXPECT_EQ(atpg.generate({dead, FaultSite::kOutputPin, false}).outcome,
            AtpgOutcome::Untestable);
}

TEST(Podem, PropagatesThroughReconvergence) {
  // Classic reconvergent structure: fault must propagate through one branch
  // while the other is held non-controlling.
  Netlist nl;
  const GateId a = nl.addInput("a");
  const GateId b = nl.addInput("b");
  const GateId c = nl.addInput("c");
  const GateId g1 = nl.addGate(GateType::And, "g1", {a, b});
  const GateId g2 = nl.addGate(GateType::Or, "g2", {g1, c});
  const GateId g3 = nl.addGate(GateType::Nand, "g3", {g2, b});
  nl.markOutput(g3);
  nl.validate();
  const PodemAtpg atpg(nl);
  const FaultSite fault{g1, FaultSite::kOutputPin, true};
  const AtpgResult r = atpg.generate(fault);
  ASSERT_EQ(r.outcome, AtpgOutcome::Detected);
  EXPECT_TRUE(cubeDetects(nl, r.cube, fault));
}

class PodemSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(PodemSweep, EveryGeneratedCubeVerifiesBySimulation) {
  const Netlist nl = generateNamedCircuit(GetParam());
  const PodemAtpg atpg(nl);
  const FaultList universe = FaultList::enumerateCollapsed(nl);
  std::size_t detected = 0;
  for (const FaultSite& f : universe.sample(120, 0xA791)) {
    const AtpgResult r = atpg.generate(f);
    if (r.outcome != AtpgOutcome::Detected) continue;
    ++detected;
    EXPECT_TRUE(cubeDetects(nl, r.cube, f)) << describeFault(nl, f);
  }
  EXPECT_GT(detected, 60u) << "suspiciously low ATPG detection on " << GetParam();
}

TEST_P(PodemSweep, UntestableVerdictsConsistentWithRandomPatterns) {
  // Soundness of 'untestable': no random pattern may detect such a fault at
  // a scan cell (PO observation is checked inside cubeDetects-style logic
  // implicitly: scan detection is a subset of full detection, so we check
  // scan only — a scan detection alone already contradicts the verdict).
  const Netlist nl = generateNamedCircuit(GetParam());
  const PodemAtpg atpg(nl);
  const PatternSet pats = generatePatterns(nl, 256);
  const FaultSimulator fsim(nl, pats);
  for (const FaultSite& f : FaultList::enumerateCollapsed(nl).sample(120, 0xA791)) {
    if (atpg.generate(f).outcome != AtpgOutcome::Untestable) continue;
    EXPECT_FALSE(fsim.simulate(f).detected())
        << describeFault(nl, f) << " proven untestable but randomly detected";
  }
}

INSTANTIATE_TEST_SUITE_P(Circuits, PodemSweep, ::testing::Values("s298", "s526", "s953"));

TEST(Podem, CompactSetCoversItsFaults) {
  const Netlist nl = generateNamedCircuit("s526");
  const PodemAtpg atpg(nl);
  const FaultList universe = FaultList::enumerateCollapsed(nl);
  const auto faults = universe.sample(100, 0xC0DE);
  const std::vector<TestCube> cubes = atpg.generateCompactSet(faults);
  ASSERT_FALSE(cubes.empty());
  EXPECT_LT(cubes.size(), faults.size());  // dropping must compact

  // Every fault is either covered by the set (at scan cells or POs, which
  // cubeDetects checks per-cube) or untestable/aborted.
  const PatternSet pats = patternsFromCubes(nl, cubes);
  const FaultSimulator fsim(nl, pats);
  std::size_t uncovered = 0;
  for (const FaultSite& f : faults) {
    if (fsim.simulate(f).detected()) continue;
    const AtpgOutcome outcome = atpg.generate(f).outcome;
    if (outcome == AtpgOutcome::Detected) {
      // Detected faults may still be PO-only observable; accept if any
      // individual cube detects them.
      bool anyCube = false;
      for (const TestCube& cube : cubes) anyCube |= cubeDetects(nl, cube, f);
      if (!anyCube) ++uncovered;
    }
  }
  EXPECT_EQ(uncovered, 0u);
}

TEST(Podem, ConcurrentCallersSeeTheSerialSearch) {
  // generate() is const and keeps its search state local: defect-ladder
  // workers call one instance at once (the sanitizer job runs this test).
  const Netlist nl = generateNamedCircuit("s953");
  const PodemAtpg atpg(nl);
  const std::vector<FaultSite> faults = FaultList::enumerateCollapsed(nl).sample(200, 0xC0C0);
  constexpr std::size_t kBacktrackLimit = 100;
  std::vector<AtpgResult> serial;
  for (const FaultSite& f : faults) serial.push_back(atpg.generate(f, kBacktrackLimit));
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<AtpgResult>> parallel(kThreads);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // Each thread walks the list from its own offset, so calls overlap.
      for (std::size_t i = 0; i < faults.size(); ++i)
        parallel[t].push_back(atpg.generate(faults[(i + 37 * t) % faults.size()], kBacktrackLimit));
    });
  }
  for (std::thread& w : workers) w.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const AtpgResult& want = serial[(i + 37 * t) % faults.size()];
      const AtpgResult& got = parallel[t][i];
      ASSERT_EQ(got.outcome, want.outcome) << "thread " << t << " call " << i;
      ASSERT_EQ(got.stats.decisions, want.stats.decisions);
      ASSERT_EQ(got.stats.backtracks, want.stats.backtracks);
      ASSERT_EQ(got.cube.care, want.cube.care);
      ASSERT_EQ(got.cube.value, want.cube.value);
    }
  }
}

TEST(Podem, CubeApplyFillsDeterministically) {
  const Netlist nl = generateNamedCircuit("s298");
  const PodemAtpg atpg(nl);
  const FaultList universe = FaultList::enumerateCollapsed(nl);
  AtpgResult r;
  for (const FaultSite& f : universe.sample(20, 3)) {
    r = atpg.generate(f);
    if (r.outcome == AtpgOutcome::Detected) break;
  }
  ASSERT_EQ(r.outcome, AtpgOutcome::Detected);
  const PatternSet a = patternsFromCubes(nl, {r.cube}, 42);
  const PatternSet b = patternsFromCubes(nl, {r.cube}, 42);
  const PatternSet c = patternsFromCubes(nl, {r.cube}, 43);
  bool sameAb = true, anyDiffAc = false;
  for (GateId id = 0; id < nl.gateCount(); ++id) {
    if (!a.isSource(id)) continue;
    sameAb &= (a.stream(id) == b.stream(id));
    anyDiffAc |= (a.stream(id) != c.stream(id));
  }
  EXPECT_TRUE(sameAb);
  EXPECT_TRUE(anyDiffAc);  // different fill seed changes only X bits
}

}  // namespace
}  // namespace scandiag
