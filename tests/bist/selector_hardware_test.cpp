// The hardware-equivalence tests: the cycle-accurate register model of the
// paper's Figure 1 must generate exactly the partitions the algorithmic
// generators in src/diagnosis produce. This pins the software to the silicon.
#include "bist/selector_hardware.hpp"

#include <gtest/gtest.h>

#include "bist/interval_seed_search.hpp"
#include "diagnosis/interval_partitioner.hpp"
#include "diagnosis/random_selection_partitioner.hpp"

namespace scandiag {
namespace {

// The hardware model runs on the partitioners' selection LFSR.
constexpr LfsrConfig kCfg = kSelectionLfsr;

TEST(SelectorHardware, RandomSelectionMasksArePartition) {
  const std::size_t L = 97;
  const unsigned r = 3;  // 8 groups
  SelectorHardware hw(kCfg, L);
  hw.loadIvr(0xACE1);
  BitVector uni(L);
  for (std::uint64_t g = 0; g < 8; ++g) {
    const BitVector mask = hw.unloadRandomSelection(r, g);
    EXPECT_FALSE(mask.intersects(uni)) << "group " << g << " overlaps";
    uni |= mask;
  }
  EXPECT_TRUE(uni.all());
}

TEST(SelectorHardware, RandomSelectionMatchesPartitioner) {
  const std::size_t L = 211, groups = 16;
  RandomSelectionPartitioner partitioner(0xACE1, L, groups);
  SelectorHardware hw(kCfg, L);
  hw.loadIvr(0xACE1);
  for (int p = 0; p < 4; ++p) {
    const Partition part = partitioner.next();
    for (std::uint64_t g = 0; g < groups; ++g) {
      EXPECT_EQ(hw.unloadRandomSelection(4, g), part.groups[g])
          << "partition " << p << " group " << g;
    }
    hw.advancePartition();
  }
}

TEST(SelectorHardware, RepeatedUnloadsOfSameGroupIdentical) {
  // Within one partition every BIST pattern unload reloads the LFSR from the
  // IVR, so the mask is the same for all patterns of a session.
  SelectorHardware hw(kCfg, 64);
  hw.loadIvr(0x1234);
  const BitVector first = hw.unloadRandomSelection(2, 1);
  const BitVector second = hw.unloadRandomSelection(2, 1);
  EXPECT_EQ(first, second);
}

TEST(SelectorHardware, AdvancePartitionChangesMasks) {
  SelectorHardware hw(kCfg, 64);
  hw.loadIvr(0x1234);
  const BitVector before = hw.unloadRandomSelection(2, 0);
  hw.advancePartition();
  const BitVector after = hw.unloadRandomSelection(2, 0);
  EXPECT_NE(before, after);
}

TEST(SelectorHardware, IntervalMasksMatchSeedSearchLengths) {
  const std::size_t L = 211, groups = 8;
  const unsigned rlen = defaultIntervalBits(L, groups, kCfg.degree);
  const auto seed = findIntervalSeed(kCfg, rlen, groups, L, 0xBEEF);
  ASSERT_TRUE(seed.has_value());

  SelectorHardware hw(kCfg, L);
  hw.loadIvr(seed->seed);
  const Partition expected = IntervalPartitioner::fromLengths(seed->lengths, L);
  for (std::uint64_t g = 0; g < groups; ++g) {
    hw.loadIvr(seed->seed);  // each session reloads the same partition seed
    EXPECT_EQ(hw.unloadInterval(rlen, g), expected.groups[g]) << "group " << g;
  }
}

TEST(SelectorHardware, IntervalMatchesIntervalPartitioner) {
  const std::size_t L = 113, groups = 4;
  IntervalPartitioner partitioner(L, groups);
  const unsigned rlen = partitioner.intervalBits();
  for (int p = 0; p < 3; ++p) {
    const Partition part = partitioner.next();
    SelectorHardware hw(kCfg, L);
    for (std::uint64_t g = 0; g < groups; ++g) {
      hw.loadIvr(partitioner.usedSeeds()[p].seed);
      EXPECT_EQ(hw.unloadInterval(rlen, g), part.groups[g])
          << "partition " << p << " group " << g;
    }
  }
}

TEST(SelectorHardware, GroupNumberBounds) {
  SelectorHardware hw(kCfg, 10);
  hw.loadIvr(1);
  EXPECT_THROW(hw.unloadRandomSelection(2, 4), std::invalid_argument);
}

TEST(SelectorHardware, InvalidIvrRejected) {
  SelectorHardware hw(kCfg, 10);
  EXPECT_THROW(hw.loadIvr(0), std::invalid_argument);
}

}  // namespace
}  // namespace scandiag
