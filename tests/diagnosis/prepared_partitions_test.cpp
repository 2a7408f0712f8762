#include "diagnosis/prepared_partitions.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <set>
#include <string>
#include <utility>

#include "diagnosis/adaptive_planner.hpp"
#include "diagnosis/experiment_driver.hpp"
#include "diagnosis/interval_partitioner.hpp"
#include "diagnosis/superposition_pruner.hpp"
#include "netlist/synthetic_generator.hpp"
#include "obs/metrics.hpp"

namespace scandiag {
namespace {

// Parity contract of the prepared schedule: its one group layout must agree
// with the Partition it indexes, and everything scored or pruned through it
// must match the per-session reference scorer and a Partition-level oracle,
// for every scheme the pipeline can build.

const SchemeKind kSchemes[] = {SchemeKind::IntervalBased, SchemeKind::RandomSelection,
                               SchemeKind::TwoStep};
const SchemeKind kFixedSchemes[] = {SchemeKind::IntervalBased, SchemeKind::RandomSelection,
                                    SchemeKind::TwoStep, SchemeKind::DeterministicInterval};

DiagnosisConfig configFor(SchemeKind scheme, std::size_t numPatterns) {
  DiagnosisConfig config;
  config.scheme = scheme;
  config.numPartitions = 6;
  config.groupsPerPartition = 8;
  config.numPatterns = numPatterns;
  config.pruning = true;  // forces signature computation, the layout-using path
  return config;
}

/// The prepared layout agrees with the Partition it indexes at every position.
void expectLayoutMatchesPartitions(const PreparedPartitionSet& prepared) {
  const std::size_t length = prepared.empty() ? 0 : prepared.partition(0).length();
  std::size_t total = 0;
  for (std::size_t p = 0; p < prepared.size(); ++p) {
    EXPECT_EQ(prepared.groupOffset(p), total) << "partition " << p;
    total += prepared.partition(p).groupCount();
    const std::vector<std::size_t> table = prepared.partition(p).groupTable();
    for (std::size_t pos = 0; pos < length; ++pos) {
      ASSERT_EQ(prepared.groupsAtPosition(pos)[p] - prepared.groupOffset(p), table[pos])
          << "partition " << p << " position " << pos;
    }
  }
  EXPECT_EQ(prepared.totalGroups(), total);
}

/// Partition-level oracle for one fault: a group fails iff it holds a
/// failing position (exact) or its signature — the XOR of its cells' error
/// signatures, each cell placed by Partition::groupOf — is nonzero (MISR).
void expectVerdictsMatchPartitions(const SessionEngine& engine,
                                   const PreparedPartitionSet& prepared,
                                   const FaultResponse& r, const GroupVerdicts& v) {
  const ScanTopology& topo = engine.topology();
  const BitVector failingPositions = topo.collapseCells(r.failingCells);
  ASSERT_EQ(v.failing.size(), prepared.size());
  for (std::size_t p = 0; p < prepared.size(); ++p) {
    const Partition& partition = prepared.partition(p);
    std::vector<std::uint64_t> sig(partition.groupCount(), 0);
    for (std::size_t i = 0; i < r.failingCellOrdinals.size(); ++i) {
      const std::size_t cell = r.failingCellOrdinals[i];
      sig[partition.groupOf(topo.location(cell).position)] ^=
          engine.cellErrorSignature(cell, r.errorStreams[i]);
    }
    for (std::size_t g = 0; g < partition.groupCount(); ++g) {
      const bool expected = engine.config().mode == SignatureMode::Exact
                                ? partition.groups[g].intersects(failingPositions)
                                : sig[g] != 0;
      ASSERT_EQ(v.failing[p].test(g), expected) << "partition " << p << " group " << g;
      if (v.hasSignatures) {
        ASSERT_EQ(v.errorSig[p][g], sig[g]) << "partition " << p << " group " << g;
      }
    }
  }
}

TEST(PreparedPartitionSet, TablesMatchPerCallGroupTable) {
  for (const std::size_t chainLength : {2u, 7u, 29u, 211u}) {
    for (const SchemeKind scheme : kSchemes) {
      DiagnosisConfig config = configFor(scheme, 32);
      // Random selection requires a power-of-two group count <= chainLength.
      config.groupsPerPartition =
          std::min(config.groupsPerPartition, std::bit_floor(chainLength));
      const std::vector<Partition> partitions = buildPartitions(config, chainLength);
      const PreparedPartitionSet prepared(partitions);
      ASSERT_EQ(prepared.size(), partitions.size());
      SCOPED_TRACE(schemeName(scheme) + " length " + std::to_string(chainLength));
      expectLayoutMatchesPartitions(prepared);
      for (std::size_t p = 0; p < partitions.size(); ++p) {
        EXPECT_EQ(&prepared.partition(p), &prepared.partitions()[p]);
      }
    }
  }
}

TEST(PreparedPartitionSet, EmptySet) {
  const PreparedPartitionSet prepared;
  EXPECT_TRUE(prepared.empty());
  EXPECT_EQ(prepared.size(), 0u);
  EXPECT_EQ(prepared.totalGroups(), 0u);
}

TEST(PreparedPartitionSet, MixedLengthScheduleRejected) {
  std::vector<Partition> mixed{IntervalPartitioner::fromLengths({4, 4}, 8),
                               IntervalPartitioner::fromLengths({3, 3}, 6)};
  EXPECT_THROW(PreparedPartitionSet{std::move(mixed)}, std::invalid_argument);
}

TEST(PreparedPartitionSet, EmptySetScoresToZeroRows) {
  const ScanTopology topo = ScanTopology::singleChain(8);
  const PreparedPartitionSet empty;
  FaultResponse r;
  r.failingCells = BitVector(8);
  r.failingCells.set(3);
  r.failingCellOrdinals.push_back(3);
  r.errorStreams.push_back(BitVector(4, true));
  for (const SignatureMode mode : {SignatureMode::Exact, SignatureMode::Misr}) {
    SessionConfig sc{mode, 4};
    sc.computeSignatures = true;
    const SessionEngine engine(topo, sc);
    for (const GroupVerdicts& v : {engine.run(empty, r), engine.runReference(empty, r)}) {
      EXPECT_TRUE(v.failing.empty());
      EXPECT_TRUE(v.errorSig.empty());
    }
    // Nothing was observed, so nothing can be pruned.
    CandidateSet all;
    all.positions = BitVector(8, true);
    all.cells = BitVector(8, true);
    PruneStats stats;
    const CandidateSet out =
        SuperpositionPruner(topo).prune(empty, engine.run(empty, r), all, &stats);
    EXPECT_EQ(out.cells, all.cells);
    EXPECT_EQ(stats.atoms, 0u);
  }
}

class PreparedParityFixture : public ::testing::Test {
 protected:
  // s953 profile, the paper's Table 1 circuit: 29-cell single chain, enough
  // faults to exercise multi-cell responses.
  static const CircuitWorkload& work() {
    static const CircuitWorkload w = [] {
      WorkloadConfig wc;
      wc.numPatterns = 96;
      wc.numFaults = 60;
      return prepareWorkload(generateNamedCircuit("s953"), wc);
    }();
    return w;
  }
  // The same circuit on 4 balanced chains of 8 positions: a fault's failing
  // cells often sit at one position on different chains.
  static const CircuitWorkload& multiChainWork() {
    static const CircuitWorkload w = [] {
      WorkloadConfig wc;
      wc.numPatterns = 96;
      wc.numFaults = 60;
      return prepareWorkload(generateNamedCircuit("s953"), wc, 4);
    }();
    return w;
  }
};

// Batched scorer == per-session reference == Partition-level oracle, with
// pruning signatures on (exact verdicts).
TEST_F(PreparedParityFixture, EngineRunMatchesVectorOverload) {
  for (const SchemeKind scheme : kSchemes) {
    SCOPED_TRACE(schemeName(scheme));
    const DiagnosisConfig config = configFor(scheme, work().patternsApplied);
    const PreparedPartitionSet prepared(
        buildPartitions(config, work().topology.maxChainLength()));

    SessionConfig sc{SignatureMode::Exact, config.numPatterns};
    sc.computeSignatures = true;
    const SessionEngine engine(work().topology, sc);
    for (const FaultResponse& r : work().responses) {
      const GroupVerdicts batched = engine.run(prepared, r);
      const GroupVerdicts reference = engine.runReference(prepared, r);
      ASSERT_EQ(batched.failing, reference.failing);
      ASSERT_EQ(batched.errorSig, reference.errorSig);
      EXPECT_EQ(batched.hasSignatures, reference.hasSignatures);
      EXPECT_EQ(batched.signatureDegree, reference.signatureDegree);
      expectVerdictsMatchPartitions(engine, prepared, r, reference);
    }
  }
}

TEST_F(PreparedParityFixture, MisrModeRunMatchesVectorOverload) {
  const DiagnosisConfig config = configFor(SchemeKind::TwoStep, work().patternsApplied);
  const PreparedPartitionSet prepared(
      buildPartitions(config, work().topology.maxChainLength()));

  const SessionConfig sc{SignatureMode::Misr, config.numPatterns};
  const SessionEngine engine(work().topology, sc);
  for (const FaultResponse& r : work().responses) {
    const GroupVerdicts batched = engine.run(prepared, r);
    const GroupVerdicts reference = engine.runReference(prepared, r);
    ASSERT_EQ(batched.failing, reference.failing);
    ASSERT_EQ(batched.errorSig, reference.errorSig);
    expectVerdictsMatchPartitions(engine, prepared, r, reference);
  }
}

// runPartition(prepared, p) reproduces row p of both whole-schedule scorers,
// in exact, MISR and prune-signature modes, for every fixed scheme and the
// adaptive planner's pool, on the single-chain workload and on a 4-chain one
// whose cells share positions across chains. Each call counts one partition's
// sessions and the reference's hashed signature words, and no batch counter.
TEST_F(PreparedParityFixture, RunPartitionMatchesVectorOverload) {
  for (const CircuitWorkload* w : {&work(), &multiChainWork()}) {
    const std::size_t length = w->topology.maxChainLength();
    SCOPED_TRACE(std::to_string(w->topology.numChains()) + " chains");
    std::vector<std::pair<std::string, PreparedPartitionSet>> schedules;
    for (const SchemeKind scheme : kFixedSchemes) {
      DiagnosisConfig config = configFor(scheme, w->patternsApplied);
      config.groupsPerPartition = std::min(config.groupsPerPartition, std::bit_floor(length));
      schedules.emplace_back(schemeName(scheme),
                             PreparedPartitionSet(buildPartitions(config, length)));
    }
    DiagnosisConfig adaptive = configFor(SchemeKind::Adaptive, w->patternsApplied);
    adaptive.pruning = false;
    schedules.emplace_back("adaptive pool", AdaptivePlanner(w->topology, adaptive).pool());

    std::size_t sharedPositions = 0;  // faults with two failing cells at one position
    for (const FaultResponse& r : w->responses) {
      if (w->topology.collapseCells(r.failingCells).count() < r.failingCellCount()) {
        ++sharedPositions;
      }
    }
    if (w->topology.numChains() > 1) {
      EXPECT_GT(sharedPositions, 0u);
    }

    struct Mode {
      SignatureMode mode;
      bool computeSignatures;
      const char* name;
    };
    for (const Mode m : {Mode{SignatureMode::Exact, false, "exact"},
                         Mode{SignatureMode::Misr, false, "misr"},
                         Mode{SignatureMode::Exact, true, "prune-signature"}}) {
      SessionConfig sc{m.mode, w->patternsApplied};
      sc.computeSignatures = m.computeSignatures;
      const SessionEngine engine(w->topology, sc);
      for (const auto& [name, prepared] : schedules) {
        SCOPED_TRACE(name + " " + m.name);
        ASSERT_GT(prepared.size(), 0u);
        SessionBatchScratch scratch;
        for (const FaultResponse& r : w->responses) {
          const GroupVerdicts batched = engine.run(prepared, r);
          GroupVerdicts reference;
          std::array<std::uint64_t, obs::kNumCounters> referenceDeltas{};
          {
            obs::DeltaCapture capture;
            reference = engine.runReference(prepared, r);
            referenceDeltas = capture.deltas();
          }
          for (std::size_t p = 0; p < prepared.size(); ++p) {
            PartitionVerdictRow row;
            std::array<std::uint64_t, obs::kNumCounters> deltas{};
            {
              obs::DeltaCapture capture;
              row = engine.runPartition(prepared, p, r, p % 2 ? &scratch : nullptr);
              deltas = capture.deltas();
            }
            ASSERT_EQ(row.failing, batched.failing[p]) << "partition " << p;
            ASSERT_EQ(row.failing, reference.failing[p]) << "partition " << p;
            if (batched.hasSignatures) {
              ASSERT_EQ(row.errorSig, batched.errorSig[p]) << "partition " << p;
              ASSERT_EQ(row.errorSig, reference.errorSig[p]) << "partition " << p;
            } else {
              ASSERT_TRUE(row.errorSig.empty());
            }
            for (std::size_t c = 0; c < obs::kNumCounters; ++c) {
              const auto counter = static_cast<obs::Counter>(c);
              const std::uint64_t expected =
                  counter == obs::Counter::PartitionsEvaluated ? 1
                  : counter == obs::Counter::SessionsRun
                      ? prepared.partition(p).groupCount()
                  : counter == obs::Counter::SignatureWordsHashed ? referenceDeltas[c]
                                                                  : 0;
              ASSERT_EQ(deltas[c], expected)
                  << "partition " << p << " counter " << obs::counterName(counter);
            }
          }
        }
      }
    }
  }
}

// Pruning reads only the prepared layout: its atoms are exactly the classes
// of candidate positions that Partition::groupOf places alike in every
// partition, the result is the same from either scorer's verdicts, and it
// keeps every true failing position.
TEST_F(PreparedParityFixture, PrunerMatchesVectorOverload) {
  for (const SchemeKind scheme : kSchemes) {
    SCOPED_TRACE(schemeName(scheme));
    const DiagnosisConfig config = configFor(scheme, work().patternsApplied);
    const PreparedPartitionSet prepared(
        buildPartitions(config, work().topology.maxChainLength()));

    SessionConfig sc{SignatureMode::Exact, config.numPatterns};
    sc.computeSignatures = true;
    const SessionEngine engine(work().topology, sc);
    const CandidateAnalyzer analyzer(work().topology);
    const SuperpositionPruner pruner(work().topology);
    for (const FaultResponse& r : work().responses) {
      const GroupVerdicts batched = engine.run(prepared, r);
      const GroupVerdicts reference = engine.runReference(prepared, r);
      const CandidateSet candidates = analyzer.analyze(prepared.partitions(), reference);
      PruneStats statsBatched, statsReference;
      const CandidateSet viaBatched =
          pruner.prune(prepared, batched, candidates, &statsBatched);
      const CandidateSet viaReference =
          pruner.prune(prepared, reference, candidates, &statsReference);
      ASSERT_EQ(viaBatched.positions, viaReference.positions);
      ASSERT_EQ(viaBatched.cells, viaReference.cells);
      EXPECT_EQ(statsBatched.prunedAtoms, statsReference.prunedAtoms);
      EXPECT_EQ(statsBatched.prunedPositions, statsReference.prunedPositions);
      EXPECT_EQ(statsBatched.consistent, statsReference.consistent);

      std::set<std::vector<std::size_t>> membership;
      for (const std::size_t pos : candidates.positions.toIndices()) {
        std::vector<std::size_t> key;
        for (const Partition& partition : prepared.partitions()) {
          key.push_back(partition.groupOf(pos));
        }
        membership.insert(std::move(key));
      }
      EXPECT_EQ(statsReference.atoms, membership.size());
      EXPECT_TRUE(viaReference.positions.isSubsetOf(candidates.positions));
      EXPECT_TRUE(r.failingCells.isSubsetOf(viaReference.cells));
    }
  }
}

TEST(PreparedPartitionSetPipeline, PipelineExposesPreparedSchedule) {
  // The pipeline's prepared() view and partitions() accessor stay consistent,
  // on a synthetic circuit small enough for an exhaustive table check.
  const Netlist nl = generateNamedCircuit("s344");
  WorkloadConfig wc;
  wc.numPatterns = 64;
  wc.numFaults = 20;
  const CircuitWorkload work = prepareWorkload(nl, wc);
  for (const SchemeKind scheme : kSchemes) {
    const DiagnosisConfig config = configFor(scheme, wc.numPatterns);
    const DiagnosisPipeline pipeline(work.topology, config);
    ASSERT_EQ(pipeline.prepared().size(), pipeline.partitions().size());
    EXPECT_EQ(&pipeline.prepared().partitions(), &pipeline.partitions());
    expectLayoutMatchesPartitions(pipeline.prepared());
    // End-to-end: the pipeline's diagnose matches a hand-rolled run through
    // the per-session reference scorer.
    SessionConfig sc{SignatureMode::Exact, config.numPatterns};
    sc.computeSignatures = true;
    const SessionEngine engine(work.topology, sc);
    const CandidateAnalyzer analyzer(work.topology);
    const SuperpositionPruner pruner(work.topology);
    for (const FaultResponse& r : work.responses) {
      const FaultDiagnosis d = pipeline.diagnose(r);
      const GroupVerdicts verdicts = engine.runReference(pipeline.prepared(), r);
      CandidateSet expected = analyzer.analyze(pipeline.partitions(), verdicts);
      expected = pruner.prune(pipeline.prepared(), verdicts, expected);
      EXPECT_EQ(d.candidates.positions, expected.positions) << schemeName(scheme);
      EXPECT_EQ(d.candidates.cells, expected.cells) << schemeName(scheme);
    }
  }
}

}  // namespace
}  // namespace scandiag
