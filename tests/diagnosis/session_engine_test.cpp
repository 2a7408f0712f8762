#include "diagnosis/session_engine.hpp"

#include <gtest/gtest.h>

#include "bist/primitive_polys.hpp"
#include "diagnosis/interval_partitioner.hpp"

namespace scandiag {
namespace {

/// Hand-built response: failing cells at the given cell ids, each erring on
/// pattern `t = cell % patterns` (arbitrary but deterministic).
FaultResponse makeResponse(std::size_t numCells, std::size_t patterns,
                           const std::vector<std::size_t>& failing) {
  FaultResponse r;
  r.failingCells = BitVector(numCells);
  for (std::size_t c : failing) {
    r.failingCells.set(c);
    r.failingCellOrdinals.push_back(c);
    BitVector stream(patterns);
    stream.set(c % patterns);
    r.errorStreams.push_back(stream);
  }
  return r;
}

TEST(SessionEngine, ExactVerdictsMatchGroupMembership) {
  const ScanTopology topo = ScanTopology::singleChain(12);
  const SessionEngine engine(topo, SessionConfig{SignatureMode::Exact, 8});
  // Partition: [0..3], [4..7], [8..11].
  const PreparedPartitionSet parts(
      std::vector<Partition>{IntervalPartitioner::fromLengths({4, 4, 4}, 12)});
  const FaultResponse r = makeResponse(12, 8, {1, 9});
  const GroupVerdicts v = engine.run(parts, r);
  EXPECT_TRUE(v.failing[0].test(0));
  EXPECT_FALSE(v.failing[0].test(1));
  EXPECT_TRUE(v.failing[0].test(2));
  EXPECT_FALSE(v.hasSignatures);
}

TEST(SessionEngine, NoFailingCellsMeansAllGroupsPass) {
  const ScanTopology topo = ScanTopology::singleChain(12);
  const SessionEngine engine(topo, SessionConfig{SignatureMode::Exact, 8});
  const PreparedPartitionSet parts(
      std::vector<Partition>{IntervalPartitioner::fromLengths({6, 6}, 12)});
  const FaultResponse r = makeResponse(12, 8, {});
  const GroupVerdicts v = engine.run(parts, r);
  EXPECT_TRUE(v.failing[0].none());
}

TEST(SessionEngine, MultiChainVerdictsUseShiftPositions) {
  // Two chains of 6; failing cell 7 sits on chain 1 at position 1, so the
  // group containing position 1 fails even though cell 1 (chain 0) is fine.
  const ScanTopology topo = ScanTopology::blockChains(12, 2);
  const SessionEngine engine(topo, SessionConfig{SignatureMode::Exact, 8});
  const PreparedPartitionSet parts(
      std::vector<Partition>{IntervalPartitioner::fromLengths({2, 2, 2}, 6)});
  const FaultResponse r = makeResponse(12, 8, {7});
  const GroupVerdicts v = engine.run(parts, r);
  EXPECT_TRUE(v.failing[0].test(0));   // positions 0-1
  EXPECT_FALSE(v.failing[0].test(1));
  EXPECT_FALSE(v.failing[0].test(2));
}

TEST(SessionEngine, MisrModeFlagsNonzeroSignatures) {
  const ScanTopology topo = ScanTopology::singleChain(12);
  SessionConfig config{SignatureMode::Misr, 8};
  config.misrDegree = 16;
  const SessionEngine engine(topo, config);
  const PreparedPartitionSet parts(
      std::vector<Partition>{IntervalPartitioner::fromLengths({4, 4, 4}, 12)});
  const FaultResponse r = makeResponse(12, 8, {5});
  const GroupVerdicts v = engine.run(parts, r);
  EXPECT_TRUE(v.hasSignatures);
  EXPECT_EQ(v.signatureDegree, 16u);
  EXPECT_FALSE(v.failing[0].test(0));
  EXPECT_TRUE(v.failing[0].test(1));
  EXPECT_NE(v.errorSig[0][1], 0u);
  EXPECT_EQ(v.errorSig[0][0], 0u);
}

TEST(SessionEngine, GroupSignatureIsXorOfCellSignatures) {
  const ScanTopology topo = ScanTopology::singleChain(12);
  SessionConfig config{SignatureMode::Misr, 8};
  const SessionEngine engine(topo, config);
  const PreparedPartitionSet parts(
      std::vector<Partition>{IntervalPartitioner::fromLengths({12}, 12)});

  const FaultResponse both = makeResponse(12, 8, {2, 9});
  const FaultResponse only2 = makeResponse(12, 8, {2});
  const FaultResponse only9 = makeResponse(12, 8, {9});
  const std::uint64_t sBoth = engine.run(parts, both).errorSig[0][0];
  const std::uint64_t s2 = engine.run(parts, only2).errorSig[0][0];
  const std::uint64_t s9 = engine.run(parts, only9).errorSig[0][0];
  EXPECT_EQ(sBoth, s2 ^ s9);
}

TEST(SessionEngine, CellErrorSignatureMatchesFullMisrRun) {
  // End-to-end consistency: engine's per-cell signature equals clocking a
  // real MISR over the cell's masked scan-out stream.
  const std::size_t L = 9, patterns = 5, cell = 4;
  const ScanTopology topo = ScanTopology::singleChain(L);
  SessionConfig config{SignatureMode::Misr, patterns};
  const SessionEngine engine(topo, config);

  BitVector stream(patterns);
  stream.set(0);
  stream.set(3);
  const std::uint64_t viaEngine = engine.cellErrorSignature(cell, stream);

  Misr misr(config.misrDegree, primitiveTapMask(config.misrDegree), 1);
  for (std::size_t t = 0; t < patterns; ++t)
    for (std::size_t p = 0; p < L; ++p)
      misr.clock((p == cell && stream.test(t)) ? 1 : 0);
  EXPECT_EQ(viaEngine, misr.signature());
}

TEST(SessionEngine, ExactModeComputesPruneSignaturesOnRequest) {
  const ScanTopology topo = ScanTopology::singleChain(12);
  SessionConfig config{SignatureMode::Exact, 8};
  config.computeSignatures = true;
  const SessionEngine engine(topo, config);
  const PreparedPartitionSet parts(
      std::vector<Partition>{IntervalPartitioner::fromLengths({6, 6}, 12)});
  const GroupVerdicts v = engine.run(parts, makeResponse(12, 8, {3}));
  EXPECT_TRUE(v.hasSignatures);
  EXPECT_EQ(v.signatureDegree, 32u);
  EXPECT_NE(v.errorSig[0][0], 0u);
}

TEST(SessionEngine, PartitionLengthMismatchRejected) {
  const ScanTopology topo = ScanTopology::singleChain(12);
  const SessionEngine engine(topo, SessionConfig{SignatureMode::Exact, 8});
  const PreparedPartitionSet parts(
      std::vector<Partition>{IntervalPartitioner::fromLengths({5, 5}, 10)});
  EXPECT_THROW(engine.run(parts, makeResponse(12, 8, {3})), std::invalid_argument);
  EXPECT_THROW(engine.runReference(parts, makeResponse(12, 8, {3})), std::invalid_argument);
}

}  // namespace
}  // namespace scandiag
