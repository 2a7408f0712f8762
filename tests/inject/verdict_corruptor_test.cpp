// VerdictCorruptor: seeded, replayable noise on session verdicts. The core
// contract is determinism — corruption of (fault, attempt, partition) is a
// pure function of the seed — plus the per-model semantics.

#include <gtest/gtest.h>

#include <cmath>

#include "diagnosis/interval_partitioner.hpp"
#include "inject/verdict_corruptor.hpp"

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
  ScanTopology topo = ScanTopology::singleChain(16);
  SessionEngine engine{topo, SessionConfig{SignatureMode::Exact, 4}};
  std::vector<Partition> parts{IntervalPartitioner::fromLengths({4, 4, 4, 4}, 16),
                               IntervalPartitioner::fromLengths({8, 8}, 16)};
  FaultResponse response = makeResponse(16, {5});
  BitVector failingPositions = topo.collapseCells(response.failingCells);

  GroupVerdicts clean() const { return engine.run(PreparedPartitionSet(parts), response); }
};

TEST(VerdictCorruptor, RatesOutsideUnitIntervalRejected) {
  NoiseConfig bad;
  bad.flipRate = -0.1;
  EXPECT_THROW(VerdictCorruptor{bad}, std::invalid_argument);
  bad.flipRate = 0.0;
  bad.aliasRate = 1.5;
  EXPECT_THROW(VerdictCorruptor{bad}, std::invalid_argument);
}

TEST(VerdictCorruptor, ZeroNoiseIsANoOp) {
  Fixture f;
  GroupVerdicts verdicts = f.clean();
  const GroupVerdicts before = verdicts;
  const VerdictCorruptor corruptor{NoiseConfig{}};
  const CorruptionTrace trace =
      corruptor.corrupt(verdicts, f.parts, f.failingPositions, 42);
  EXPECT_FALSE(trace.any());
  for (std::size_t p = 0; p < f.parts.size(); ++p) {
    EXPECT_EQ(verdicts.failing[p].toIndices(), before.failing[p].toIndices());
  }
}

TEST(VerdictCorruptor, SameSeedSameFaultReplaysExactly) {
  Fixture f;
  NoiseConfig noise;
  noise.flipRate = 0.3;
  noise.intermittentRate = 0.2;
  noise.seed = 0xABCD;
  const VerdictCorruptor corruptor{noise};

  GroupVerdicts a = f.clean(), b = f.clean();
  const CorruptionTrace ta = corruptor.corrupt(a, f.parts, f.failingPositions, 7);
  const CorruptionTrace tb = corruptor.corrupt(b, f.parts, f.failingPositions, 7);
  ASSERT_EQ(ta.count(), tb.count());
  for (std::size_t i = 0; i < ta.count(); ++i) {
    EXPECT_EQ(ta.events[i].kind, tb.events[i].kind);
    EXPECT_EQ(ta.events[i].partition, tb.events[i].partition);
    EXPECT_EQ(ta.events[i].group, tb.events[i].group);
  }
  for (std::size_t p = 0; p < f.parts.size(); ++p) {
    EXPECT_EQ(a.failing[p].toIndices(), b.failing[p].toIndices());
  }
}

TEST(VerdictCorruptor, DistinctFaultsAndAttemptsDrawIndependentStreams) {
  Fixture f;
  NoiseConfig noise;
  noise.flipRate = 0.5;
  const VerdictCorruptor corruptor{noise};
  // With flip rate 0.5 over 24 sessions x several keys, two streams agreeing
  // everywhere would mean the key is being ignored.
  bool faultKeyMatters = false, attemptMatters = false;
  for (std::uint64_t key = 0; key < 8 && !(faultKeyMatters && attemptMatters); ++key) {
    GroupVerdicts a = f.clean(), b = f.clean(), c = f.clean();
    corruptor.corrupt(a, f.parts, f.failingPositions, key, 0);
    corruptor.corrupt(b, f.parts, f.failingPositions, key + 100, 0);
    corruptor.corrupt(c, f.parts, f.failingPositions, key, 1);
    for (std::size_t p = 0; p < f.parts.size(); ++p) {
      if (a.failing[p].toIndices() != b.failing[p].toIndices()) faultKeyMatters = true;
      if (a.failing[p].toIndices() != c.failing[p].toIndices()) attemptMatters = true;
    }
  }
  EXPECT_TRUE(faultKeyMatters);
  EXPECT_TRUE(attemptMatters);
}

TEST(VerdictCorruptor, CorruptRowMatchesWholeScheduleStream) {
  Fixture f;
  NoiseConfig noise;
  noise.flipRate = 0.4;
  noise.xMaskRate = 0.2;
  const VerdictCorruptor corruptor{noise};
  GroupVerdicts whole = f.clean();
  corruptor.corrupt(whole, f.parts, f.failingPositions, 9, 0);
  for (std::size_t p = 0; p < f.parts.size(); ++p) {
    PartitionVerdictRow row;
    row.failing = f.clean().failing[p];
    corruptor.corruptRow(row, f.parts[p], p, f.failingPositions, 9, 0);
    EXPECT_EQ(row.failing.toIndices(), whole.failing[p].toIndices()) << "partition " << p;
  }
}

TEST(VerdictCorruptor, FlipRateOneFlipsEverySession) {
  Fixture f;
  NoiseConfig noise;
  noise.flipRate = 1.0;
  const VerdictCorruptor corruptor{noise};
  const GroupVerdicts before = f.clean();
  GroupVerdicts after = before;
  const CorruptionTrace trace = corruptor.corrupt(after, f.parts, f.failingPositions, 1);
  std::size_t sessions = 0;
  for (std::size_t p = 0; p < f.parts.size(); ++p) {
    sessions += f.parts[p].groupCount();
    for (std::size_t g = 0; g < f.parts[p].groupCount(); ++g) {
      EXPECT_NE(after.failing[p].test(g), before.failing[p].test(g));
    }
  }
  EXPECT_EQ(trace.count(), sessions);
}

TEST(VerdictCorruptor, IntermittencyOnlySilencesFailingSessions) {
  Fixture f;
  NoiseConfig noise;
  noise.intermittentRate = 1.0;
  const VerdictCorruptor corruptor{noise};
  GroupVerdicts verdicts = f.clean();
  const CorruptionTrace trace = corruptor.corrupt(verdicts, f.parts, f.failingPositions, 2);
  for (const BitVector& row : verdicts.failing) EXPECT_TRUE(row.none());
  for (const CorruptionEvent& e : trace.events) {
    EXPECT_EQ(e.kind, CorruptionEvent::Kind::Intermittent);
    EXPECT_FALSE(e.nowFailing);
  }
}

TEST(VerdictCorruptor, FullXMaskSilencesEveryFailingSession) {
  Fixture f;
  NoiseConfig noise;
  noise.xMaskRate = 1.0;  // every position masked: nothing observable remains
  const VerdictCorruptor corruptor{noise};
  GroupVerdicts verdicts = f.clean();
  const CorruptionTrace trace = corruptor.corrupt(verdicts, f.parts, f.failingPositions, 3);
  for (const BitVector& row : verdicts.failing) EXPECT_TRUE(row.none());
  EXPECT_TRUE(trace.any());
}

TEST(VerdictCorruptor, AliasingZeroesTheSignature) {
  Fixture f;
  SessionConfig sessionConfig{SignatureMode::Exact, 4};
  sessionConfig.computeSignatures = true;
  const SessionEngine sigEngine(f.topo, sessionConfig);
  GroupVerdicts verdicts = sigEngine.run(PreparedPartitionSet(f.parts), f.response);
  ASSERT_TRUE(verdicts.hasSignatures);

  NoiseConfig noise;
  noise.aliasRate = 1.0;
  const VerdictCorruptor corruptor{noise};
  const CorruptionTrace trace = corruptor.corrupt(verdicts, f.parts, f.failingPositions, 4);
  EXPECT_TRUE(trace.any());
  for (std::size_t p = 0; p < f.parts.size(); ++p) {
    for (std::size_t g = 0; g < f.parts[p].groupCount(); ++g) {
      EXPECT_FALSE(verdicts.failing[p].test(g));
      EXPECT_EQ(verdicts.errorSig[p][g], 0u);
    }
  }
  for (const CorruptionEvent& e : trace.events) {
    EXPECT_EQ(e.kind, CorruptionEvent::Kind::Aliasing);
  }
}

TEST(VerdictCorruptor, AliasingProbabilityMatchesDegree) {
  EXPECT_DOUBLE_EQ(misrAliasingProbability(1), 1.0);
  EXPECT_DOUBLE_EQ(misrAliasingProbability(2), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(misrAliasingProbability(16), 1.0 / 65535.0);
  EXPECT_NEAR(misrAliasingProbability(64), std::ldexp(1.0, -64), 1e-30);
  EXPECT_GT(misrAliasingProbability(64), 0.0);
}

}  // namespace
}  // namespace scandiag
