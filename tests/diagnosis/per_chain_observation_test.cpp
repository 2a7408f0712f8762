#include "diagnosis/per_chain_observation.hpp"

#include <gtest/gtest.h>

#include "diagnosis/experiment_driver.hpp"
#include "diagnosis/interval_partitioner.hpp"
#include "netlist/synthetic_generator.hpp"

namespace scandiag {
namespace {

FaultResponse makeResponse(std::size_t numCells, const std::vector<std::size_t>& failing) {
  FaultResponse r;
  r.failingCells = BitVector(numCells);
  for (std::size_t c : failing) {
    r.failingCells.set(c);
    r.failingCellOrdinals.push_back(c);
    BitVector stream(4);
    stream.set(0);
    r.errorStreams.push_back(stream);
  }
  return r;
}

TEST(PerChainObservation, VerdictsAreChainLocal) {
  // 2 chains of 4; failing cell 5 = chain 1, position 1.
  const ScanTopology topo = ScanTopology::blockChains(8, 2);
  const PerChainObservation obs(topo);
  const PreparedPartitionSet parts(
      std::vector<Partition>{IntervalPartitioner::fromLengths({2, 2}, 4)});
  const PerChainVerdicts v = obs.run(parts, makeResponse(8, {5}));
  EXPECT_FALSE(v.failing[0][0].test(0));  // chain 0 clean
  EXPECT_TRUE(v.failing[0][1].test(0));   // chain 1, group of positions 0-1
  EXPECT_FALSE(v.failing[0][1].test(1));
}

TEST(PerChainObservation, CandidatesStayOnTheFailingChain) {
  const ScanTopology topo = ScanTopology::blockChains(8, 2);
  const PerChainObservation obs(topo);
  const PreparedPartitionSet parts(
      std::vector<Partition>{IntervalPartitioner::fromLengths({2, 2}, 4)});
  const CandidateSet cand = obs.diagnose(parts, makeResponse(8, {5}));
  // Shared observation would give {0,1,4,5}; per-chain confines to chain 1.
  EXPECT_EQ(cand.cells.toIndices(), (std::vector<std::size_t>{4, 5}));
}

TEST(PerChainObservation, SubsetOfSharedObservation) {
  const Netlist nl = generateNamedCircuit("s953");
  WorkloadConfig wc;
  wc.numPatterns = 64;
  wc.numFaults = 80;
  const CircuitWorkload work = prepareWorkload(nl, wc, 4);
  DiagnosisConfig config;
  config.scheme = SchemeKind::TwoStep;
  config.numPartitions = 4;
  config.groupsPerPartition = 4;
  config.numPatterns = 64;
  const PreparedPartitionSet prepared(buildPartitions(config, work.topology.maxChainLength()));
  const std::vector<Partition>& partitions = prepared.partitions();
  const SessionEngine engine(work.topology, SessionConfig{SignatureMode::Exact, 64});
  const CandidateAnalyzer shared(work.topology);
  const PerChainObservation perChain(work.topology);
  bool strictlySmaller = false;
  for (const FaultResponse& r : work.responses) {
    const CandidateSet a = shared.analyze(partitions, engine.run(prepared, r));
    const CandidateSet b = perChain.diagnose(prepared, r);
    EXPECT_TRUE(b.cells.isSubsetOf(a.cells));
    EXPECT_TRUE(r.failingCells.isSubsetOf(b.cells));  // still sound
    strictlySmaller |= b.cellCount() < a.cellCount();
  }
  EXPECT_TRUE(strictlySmaller);
}

TEST(PerChainObservation, SingleChainEqualsSharedObservation) {
  const Netlist nl = generateNamedCircuit("s526");
  WorkloadConfig wc;
  wc.numPatterns = 64;
  wc.numFaults = 40;
  const CircuitWorkload work = prepareWorkload(nl, wc, 1);
  DiagnosisConfig config;
  config.scheme = SchemeKind::RandomSelection;
  config.numPartitions = 4;
  config.groupsPerPartition = 4;
  config.numPatterns = 64;
  const PreparedPartitionSet prepared(buildPartitions(config, work.topology.maxChainLength()));
  const std::vector<Partition>& partitions = prepared.partitions();
  const SessionEngine engine(work.topology, SessionConfig{SignatureMode::Exact, 64});
  const CandidateAnalyzer shared(work.topology);
  const PerChainObservation perChain(work.topology);
  for (const FaultResponse& r : work.responses) {
    EXPECT_EQ(perChain.diagnose(prepared, r).cells,
              shared.analyze(partitions, engine.run(prepared, r)).cells);
  }
}

TEST(PerChainObservation, MismatchedInputsRejected) {
  const ScanTopology topo = ScanTopology::blockChains(8, 2);
  const PerChainObservation obs(topo);
  const std::vector<Partition> parts{IntervalPartitioner::fromLengths({2, 2}, 4)};
  PerChainVerdicts empty;
  EXPECT_THROW(obs.analyze(parts, empty), std::invalid_argument);
  const PreparedPartitionSet wrong(
      std::vector<Partition>{IntervalPartitioner::fromLengths({3, 3}, 6)});
  EXPECT_THROW(obs.run(wrong, makeResponse(8, {1})), std::invalid_argument);
}

}  // namespace
}  // namespace scandiag
