#include "bist/space_compactor.hpp"

#include <gtest/gtest.h>

#include "bist/bist_controller.hpp"
#include "bist/prpg.hpp"
#include "diagnosis/interval_partitioner.hpp"
#include "diagnosis/session_engine.hpp"
#include "netlist/synthetic_generator.hpp"
#include "sim/fault_list.hpp"

namespace scandiag {
namespace {

TEST(SpaceCompactor, ModuloFaninStructure) {
  const SpaceCompactor sc = SpaceCompactor::moduloFanin(8, 3);
  EXPECT_EQ(sc.inputChains(), 8u);
  EXPECT_EQ(sc.outputLines(), 3u);
  EXPECT_EQ(sc.lineMask(0), 0b01001001u);  // chains 0, 3, 6
  EXPECT_EQ(sc.lineMask(1), 0b10010010u);  // chains 1, 4, 7
  EXPECT_EQ(sc.lineMask(2), 0b00100100u);  // chains 2, 5
  EXPECT_EQ(sc.columnMask(3), 0b001u);
  EXPECT_EQ(sc.columnMask(5), 0b100u);
}

TEST(SpaceCompactor, ApplyComputesXorPerLine) {
  const SpaceCompactor sc = SpaceCompactor::moduloFanin(4, 2);
  // line0 = c0^c2, line1 = c1^c3.
  EXPECT_EQ(sc.apply(0b0000), 0b00u);
  EXPECT_EQ(sc.apply(0b0001), 0b01u);
  EXPECT_EQ(sc.apply(0b0101), 0b00u);  // c0^c2 cancels
  EXPECT_EQ(sc.apply(0b1010), 0b00u);
  EXPECT_EQ(sc.apply(0b0011), 0b11u);
}

TEST(SpaceCompactor, IsLinear) {
  const SpaceCompactor sc = SpaceCompactor::moduloFanin(8, 3);
  for (std::uint64_t a = 0; a < 256; a += 13) {
    for (std::uint64_t b = 0; b < 256; b += 29) {
      EXPECT_EQ(sc.apply(a ^ b), sc.apply(a) ^ sc.apply(b));
    }
  }
}

TEST(SpaceCompactor, ValidatesFullObservation) {
  EXPECT_THROW(SpaceCompactor({0b011}, 3), std::invalid_argument);  // chain 2 unobserved
  EXPECT_THROW(SpaceCompactor({0b1000}, 3), std::invalid_argument); // missing chain bit
  EXPECT_THROW(SpaceCompactor({}, 3), std::invalid_argument);
  EXPECT_THROW(SpaceCompactor::moduloFanin(4, 0), std::invalid_argument);
  EXPECT_THROW(SpaceCompactor::moduloFanin(4, 5), std::invalid_argument);
  EXPECT_NO_THROW(SpaceCompactor({0b111}, 3));
}

TEST(SpaceCompactor, ControllerMatchesAnalyticEngineThroughCompactor) {
  // The strongest check: clock-by-clock sessions through a real XOR network
  // must equal the analytic per-cell-signature computation via compactor
  // columns, for every group and fault.
  const Netlist nl = generateNamedCircuit("s526");
  const ScanTopology topo = ScanTopology::blockChains(nl.dffs().size(), 4);
  const SpaceCompactor compactor = SpaceCompactor::moduloFanin(4, 2);
  const std::size_t numPatterns = 8;
  const PatternSet pats = generatePatterns(nl, numPatterns);

  BistControllerConfig cc;
  cc.numPatterns = numPatterns;
  cc.compactor = &compactor;
  const BistController ctrl(nl, topo, cc);

  SessionConfig sc{SignatureMode::Misr, numPatterns};
  sc.compactor = &compactor;
  const SessionEngine engine(topo, sc);

  IntervalPartitioner gen(topo.maxChainLength(), 3);
  const PreparedPartitionSet partitions(std::vector<Partition>{gen.next()});

  const FaultSimulator fsim(nl, pats);
  std::size_t checked = 0;
  for (const FaultSite& fault : FaultList::enumerateCollapsed(nl).sample(20, 0xC0)) {
    const FaultResponse resp = fsim.simulate(fault);
    if (!resp.detected()) continue;
    ++checked;
    const GroupVerdicts verdicts = engine.runReference(partitions, resp);
    for (std::size_t g = 0; g < partitions[0].groupCount(); ++g) {
      EXPECT_EQ(ctrl.sessionErrorSignature(pats, partitions[0].groups[g], fault),
                verdicts.errorSig[0][g])
          << describeFault(nl, fault) << " group " << g;
    }
  }
  EXPECT_GT(checked, 5u);
}

TEST(SpaceCompactor, CompactionCanAliasSimultaneousErrors) {
  // Two failing cells on different chains at the same position, same error
  // pattern, chains folded onto one line: contributions cancel and the group
  // signature reads zero.
  const ScanTopology topo = ScanTopology::blockChains(8, 2);  // chains of 4
  const SpaceCompactor compactor = SpaceCompactor::moduloFanin(2, 1);
  SessionConfig sc{SignatureMode::Misr, 4};
  sc.compactor = &compactor;
  const SessionEngine engine(topo, sc);

  FaultResponse r;
  r.failingCells = BitVector(8);
  for (std::size_t cell : {1u, 5u}) {  // position 1 on chain 0 and chain 1
    r.failingCells.set(cell);
    r.failingCellOrdinals.push_back(cell);
    BitVector stream(4);
    stream.set(2);
    r.errorStreams.push_back(stream);
  }
  const PreparedPartitionSet parts(
      std::vector<Partition>{IntervalPartitioner::fromLengths({4}, 4)});
  const GroupVerdicts v = engine.runReference(parts, r);
  EXPECT_EQ(v.errorSig[0][0], 0u);       // perfect cancellation
  EXPECT_FALSE(v.failing[0].test(0));    // ...which hides the failure entirely
}

}  // namespace
}  // namespace scandiag
