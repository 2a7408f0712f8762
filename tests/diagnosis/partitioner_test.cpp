#include <gtest/gtest.h>

#include "diagnosis/interval_partitioner.hpp"
#include "diagnosis/random_selection_partitioner.hpp"
#include "diagnosis/two_step_scheme.hpp"

namespace scandiag {
namespace {

bool groupIsContiguousInterval(const BitVector& group) {
  const std::size_t first = group.findFirst();
  if (first == BitVector::npos) return true;  // empty
  std::size_t expected = first;
  for (std::size_t pos = first; pos != BitVector::npos; pos = group.findNext(pos)) {
    if (pos != expected) return false;
    ++expected;
  }
  return true;
}

// ---- RandomSelectionPartitioner -------------------------------------------

TEST(RandomSelectionPartitioner, PartitionsAreValidAndDistinct) {
  RandomSelectionPartitioner gen(kRandomSelectionSeed, 211, 16);
  Partition a = gen.next();
  Partition b = gen.next();
  EXPECT_NO_THROW(a.validate());
  EXPECT_NO_THROW(b.validate());
  EXPECT_EQ(a.groupCount(), 16u);
  bool anyDiff = false;
  for (std::size_t g = 0; g < 16; ++g) anyDiff |= (a.groups[g] != b.groups[g]);
  EXPECT_TRUE(anyDiff);
}

TEST(RandomSelectionPartitioner, RequiresPowerOfTwoGroups) {
  EXPECT_THROW(RandomSelectionPartitioner(kRandomSelectionSeed, 100, 3),
               std::invalid_argument);
  EXPECT_THROW(RandomSelectionPartitioner(kRandomSelectionSeed, 100, 1),
               std::invalid_argument);
  EXPECT_NO_THROW(RandomSelectionPartitioner(kRandomSelectionSeed, 100, 4));
}

TEST(RandomSelectionPartitioner, Deterministic) {
  RandomSelectionPartitioner g1(kRandomSelectionSeed, 100, 8);
  RandomSelectionPartitioner g2(kRandomSelectionSeed, 100, 8);
  for (int i = 0; i < 3; ++i) {
    const Partition a = g1.next(), b = g2.next();
    for (std::size_t g = 0; g < 8; ++g) EXPECT_EQ(a.groups[g], b.groups[g]);
  }
}

TEST(RandomSelectionPartitioner, GroupsAreScattered) {
  RandomSelectionPartitioner gen(kRandomSelectionSeed, 512, 4);
  const Partition p = gen.next();
  // With 512 positions and 4 groups, at least one group must be non-contiguous
  // (the probability of all being intervals is astronomically small).
  bool anyScattered = false;
  for (const BitVector& g : p.groups) anyScattered |= !groupIsContiguousInterval(g);
  EXPECT_TRUE(anyScattered);
}

TEST(RandomSelectionPartitioner, GroupSizesRoughlyBalanced) {
  RandomSelectionPartitioner gen(kRandomSelectionSeed, 4096, 4);
  const Partition p = gen.next();
  for (const BitVector& g : p.groups) {
    EXPECT_GT(g.count(), 4096u / 4 / 2);
    EXPECT_LT(g.count(), 4096u / 4 * 2);
  }
}

// ---- IntervalPartitioner ---------------------------------------------------

TEST(IntervalPartitioner, GroupsAreContiguousIntervals) {
  IntervalPartitioner gen(211, 8);
  for (int i = 0; i < 3; ++i) {
    const Partition p = gen.next();
    EXPECT_NO_THROW(p.validate());
    EXPECT_EQ(p.groupCount(), 8u);
    for (const BitVector& g : p.groups) {
      EXPECT_TRUE(groupIsContiguousInterval(g));
      EXPECT_GE(g.count(), 1u);  // seed search guarantees nonempty groups
    }
  }
}

TEST(IntervalPartitioner, SuccessivePartitionsUseFreshSeeds) {
  IntervalPartitioner gen(211, 8);
  const Partition a = gen.next();
  const Partition b = gen.next();
  ASSERT_EQ(gen.usedSeeds().size(), 2u);
  EXPECT_NE(gen.usedSeeds()[0].seed, gen.usedSeeds()[1].seed);
  bool anyDiff = false;
  for (std::size_t g = 0; g < 8; ++g) anyDiff |= (a.groups[g] != b.groups[g]);
  EXPECT_TRUE(anyDiff);
}

TEST(IntervalPartitioner, FromLengthsBuildsExactIntervals) {
  const Partition p = IntervalPartitioner::fromLengths({2, 3, 1}, 6);
  EXPECT_EQ(p.groups[0].toIndices(), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(p.groups[1].toIndices(), (std::vector<std::size_t>{2, 3, 4}));
  EXPECT_EQ(p.groups[2].toIndices(), (std::vector<std::size_t>{5}));
  EXPECT_THROW(IntervalPartitioner::fromLengths({2, 3}, 6), std::invalid_argument);
  EXPECT_THROW(IntervalPartitioner::fromLengths({4, 3}, 6), std::invalid_argument);
}

TEST(IntervalPartitioner, ParameterValidation) {
  EXPECT_THROW(IntervalPartitioner(0, 4), std::invalid_argument);
  EXPECT_THROW(IntervalPartitioner(3, 4), std::invalid_argument);
}

// ---- TwoStepScheme ---------------------------------------------------------

TEST(TwoStepScheme, FirstPartitionIsIntervalRestAreRandom) {
  SchemeConfig config;  // intervalPartitions = 1
  TwoStepScheme gen(config, 211, 8);
  const Partition first = gen.next();
  for (const BitVector& g : first.groups) EXPECT_TRUE(groupIsContiguousInterval(g));
  const Partition second = gen.next();
  bool anyScattered = false;
  for (const BitVector& g : second.groups) anyScattered |= !groupIsContiguousInterval(g);
  EXPECT_TRUE(anyScattered);
}

TEST(TwoStepScheme, IntervalCountRespected) {
  SchemeConfig config;
  config.intervalPartitions = 3;
  TwoStepScheme gen(config, 211, 8);
  for (int i = 0; i < 3; ++i) {
    const Partition p = gen.next();
    for (const BitVector& g : p.groups) EXPECT_TRUE(groupIsContiguousInterval(g));
  }
  const Partition p = gen.next();
  bool anyScattered = false;
  for (const BitVector& g : p.groups) anyScattered |= !groupIsContiguousInterval(g);
  EXPECT_TRUE(anyScattered);
}

TEST(TwoStepScheme, MatchesComponentGenerators) {
  // Two-step's partitions must equal those of the standalone interval/random
  // generators (the schemes share the selection LFSR and its seeds).
  TwoStepScheme twoStep(SchemeConfig{}, 100, 4);
  IntervalPartitioner interval(100, 4);
  RandomSelectionPartitioner random(kRandomSelectionSeed, 100, 4);
  const Partition t1 = twoStep.next();
  const Partition i1 = interval.next();
  for (std::size_t g = 0; g < 4; ++g) EXPECT_EQ(t1.groups[g], i1.groups[g]);
  const Partition t2 = twoStep.next();
  const Partition r1 = random.next();
  for (std::size_t g = 0; g < 4; ++g) EXPECT_EQ(t2.groups[g], r1.groups[g]);
}

TEST(MakeScheme, FactoryCoversAllKinds) {
  SchemeConfig config;
  for (SchemeKind kind : {SchemeKind::IntervalBased, SchemeKind::RandomSelection,
                          SchemeKind::TwoStep}) {
    auto scheme = makeScheme(kind, config, 64, 4);
    ASSERT_NE(scheme, nullptr);
    EXPECT_EQ(scheme->name(), schemeName(kind));
    EXPECT_NO_THROW(scheme->next().validate());
  }
}

TEST(TakePartitions, TakesExactly) {
  SchemeConfig config;
  auto scheme = makeScheme(SchemeKind::RandomSelection, config, 64, 4);
  const auto partitions = takePartitions(*scheme, 5);
  EXPECT_EQ(partitions.size(), 5u);
}

}  // namespace
}  // namespace scandiag
