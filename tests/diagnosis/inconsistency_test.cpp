// Detection invariants: analyzeChecked must flag physically impossible
// verdict patterns (a real permanent fault is seen by every partition) and
// must degrade to a candidate superset instead of an empty intersection.

#include <gtest/gtest.h>

#include "diagnosis/candidate_analyzer.hpp"
#include "diagnosis/experiment_driver.hpp"
#include "diagnosis/interval_partitioner.hpp"
#include "diagnosis/session_engine.hpp"

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

struct Fixture {
  ScanTopology topo = ScanTopology::singleChain(12);
  SessionEngine engine{topo, SessionConfig{SignatureMode::Exact, 4}};
  CandidateAnalyzer analyzer{topo};
  // Partition A: thirds; B: halves. Fault at 5 -> A fails group 1 [4..7],
  // B fails group 0 [0..5], intersection {4, 5}.
  std::vector<Partition> parts{IntervalPartitioner::fromLengths({4, 4, 4}, 12),
                               IntervalPartitioner::fromLengths({6, 6}, 12)};
  FaultResponse response = makeResponse(12, {5});
};

TEST(AnalyzeChecked, CleanVerdictsMatchAnalyze) {
  Fixture f;
  const GroupVerdicts verdicts = f.engine.run(PreparedPartitionSet(f.parts), f.response);
  const CheckedAnalysis checked = f.analyzer.analyzeChecked(f.parts, verdicts);
  EXPECT_TRUE(checked.consistent());
  EXPECT_EQ(checked.candidates.cells.toIndices(),
            f.analyzer.analyze(f.parts, verdicts).cells.toIndices());
  EXPECT_EQ(checked.usedPartitions, (std::vector<std::size_t>{0, 1}));
}

TEST(AnalyzeChecked, AllPassingScheduleIsConsistentlyEmpty) {
  Fixture f;
  GroupVerdicts verdicts = f.engine.run(PreparedPartitionSet(f.parts), f.response);
  for (BitVector& row : verdicts.failing) row.resetAll();
  const CheckedAnalysis checked = f.analyzer.analyzeChecked(f.parts, verdicts);
  EXPECT_TRUE(checked.consistent());
  EXPECT_EQ(checked.candidates.cellCount(), 0u);
}

TEST(AnalyzeChecked, LostFailVerdictFlagsAllGroupsPassing) {
  Fixture f;
  GroupVerdicts verdicts = f.engine.run(PreparedPartitionSet(f.parts), f.response);
  verdicts.failing[1].reset(0);  // B's only failing group reads pass
  const CheckedAnalysis checked = f.analyzer.analyzeChecked(f.parts, verdicts);
  ASSERT_EQ(checked.inconsistencies.size(), 1u);
  EXPECT_EQ(checked.inconsistencies[0].kind, InconsistencyKind::AllGroupsPassing);
  EXPECT_EQ(checked.inconsistencies[0].partition, 1u);
  // B is excluded; the superset is A's failing union, which keeps cell 5.
  EXPECT_EQ(checked.candidates.cells.toIndices(), (std::vector<std::size_t>{4, 5, 6, 7}));
  EXPECT_EQ(checked.usedPartitions, (std::vector<std::size_t>{0}));
}

TEST(AnalyzeChecked, SpuriousFailFlagsPhantomGroup) {
  Fixture f;
  GroupVerdicts verdicts = f.engine.run(PreparedPartitionSet(f.parts), f.response);
  verdicts.failing[0].set(2);  // pass->fail on A group 2 [8..11], disjoint from {4,5}
  const CheckedAnalysis checked = f.analyzer.analyzeChecked(f.parts, verdicts);
  ASSERT_EQ(checked.inconsistencies.size(), 1u);
  EXPECT_EQ(checked.inconsistencies[0].kind, InconsistencyKind::PhantomFailingGroup);
  EXPECT_EQ(checked.inconsistencies[0].partition, 0u);
  EXPECT_EQ(checked.inconsistencies[0].group, 2u);
  // The phantom widens a union but cannot shrink the intersection.
  EXPECT_EQ(checked.candidates.cells.toIndices(), (std::vector<std::size_t>{4, 5}));
}

TEST(AnalyzeChecked, DisjointUnionIsSkippedNotIntersected) {
  // Third partition in pairs; move its fail verdict from the true group [4,5]
  // to the unrelated group [0,1] — its union is now disjoint from {4..7}.
  Fixture f;
  f.parts.push_back(IntervalPartitioner::fromLengths({2, 2, 2, 2, 2, 2}, 12));
  GroupVerdicts verdicts = f.engine.run(PreparedPartitionSet(f.parts), f.response);
  verdicts.failing[2].reset(2);
  verdicts.failing[2].set(0);
  const CheckedAnalysis checked = f.analyzer.analyzeChecked(f.parts, verdicts);
  ASSERT_FALSE(checked.consistent());
  EXPECT_EQ(checked.inconsistencies[0].kind, InconsistencyKind::DisjointFailingUnion);
  EXPECT_EQ(checked.inconsistencies[0].partition, 2u);
  // Partitions A and B still intersect to {4, 5}; cell 5 survives.
  EXPECT_TRUE(checked.candidates.cells.test(5));
  EXPECT_EQ(checked.usedPartitions, (std::vector<std::size_t>{0, 1}));
}

TEST(AnalyzeChecked, ReportsDescribeThemselves) {
  Fixture f;
  GroupVerdicts verdicts = f.engine.run(PreparedPartitionSet(f.parts), f.response);
  verdicts.failing[1].reset(0);
  const CheckedAnalysis checked = f.analyzer.analyzeChecked(f.parts, verdicts);
  ASSERT_FALSE(checked.inconsistencies.empty());
  const std::string text = checked.inconsistencies[0].describe();
  EXPECT_NE(text.find("partition 1"), std::string::npos) << text;
  EXPECT_NE(text.find(inconsistencyKindName(InconsistencyKind::AllGroupsPassing)),
            std::string::npos)
      << text;
}

// Exhaustive single-flip sweep: for a single-failing-cell fault, a flip at
// ANY (partition, group) must leave analyzeChecked with a nonempty candidate
// set that still contains the true cell — detection plus degradation alone,
// no retries.
TEST(AnalyzeChecked, SingleFlipAnywhereKeepsTrueCell) {
  for (const SchemeKind scheme :
       {SchemeKind::IntervalBased, SchemeKind::RandomSelection, SchemeKind::TwoStep}) {
    const ScanTopology topo = ScanTopology::singleChain(24);
    DiagnosisConfig config;
    config.scheme = scheme;
    config.numPartitions = 4;
    config.groupsPerPartition = 4;
    config.numPatterns = 4;
    const PreparedPartitionSet prepared(buildPartitions(config, topo.maxChainLength()));
    const std::vector<Partition>& parts = prepared.partitions();
    const SessionEngine engine(topo, SessionConfig{SignatureMode::Exact, 4});
    const CandidateAnalyzer analyzer(topo);
    for (const std::size_t cell : {std::size_t{0}, std::size_t{11}, std::size_t{23}}) {
      const FaultResponse response = makeResponse(24, {cell});
      const GroupVerdicts clean = engine.run(prepared, response);
      for (std::size_t p = 0; p < parts.size(); ++p) {
        for (std::size_t g = 0; g < parts[p].groupCount(); ++g) {
          GroupVerdicts noisy = clean;
          noisy.failing[p].flip(g);
          const CheckedAnalysis checked = analyzer.analyzeChecked(parts, noisy);
          EXPECT_GT(checked.candidates.cellCount(), 0u)
              << schemeName(scheme) << " cell " << cell << " flip p" << p << " g" << g;
          EXPECT_TRUE(checked.candidates.cells.test(cell))
              << schemeName(scheme) << " cell " << cell << " flip p" << p << " g" << g;
        }
      }
    }
  }
}

}  // namespace
}  // namespace scandiag
