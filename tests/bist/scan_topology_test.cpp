#include "bist/scan_topology.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace scandiag {
namespace {

TEST(ScanTopology, SingleChainIdentityLayout) {
  const ScanTopology t = ScanTopology::singleChain(10);
  EXPECT_EQ(t.numCells(), 10u);
  EXPECT_EQ(t.numChains(), 1u);
  EXPECT_EQ(t.maxChainLength(), 10u);
  for (std::size_t c = 0; c < 10; ++c) {
    EXPECT_EQ(t.location(c).chain, 0u);
    EXPECT_EQ(t.location(c).position, c);
  }
}

TEST(ScanTopology, BlockChainsBalancedContiguous) {
  const ScanTopology t = ScanTopology::blockChains(10, 3);
  EXPECT_EQ(t.numChains(), 3u);
  EXPECT_EQ(t.chainLength(0), 4u);
  EXPECT_EQ(t.chainLength(1), 3u);
  EXPECT_EQ(t.chainLength(2), 3u);
  EXPECT_EQ(t.maxChainLength(), 4u);
  // Cells 0..3 on chain 0, 4..6 on chain 1, 7..9 on chain 2.
  EXPECT_EQ(t.location(3).chain, 0u);
  EXPECT_EQ(t.location(4).chain, 1u);
  EXPECT_EQ(t.location(4).position, 0u);
  EXPECT_EQ(t.location(9).chain, 2u);
  EXPECT_EQ(t.location(9).position, 2u);
}

TEST(ScanTopology, FromChainsCustomStitching) {
  const ScanTopology t = ScanTopology::fromChains({{2, 0}, {1, 3, 4}});
  EXPECT_EQ(t.numCells(), 5u);
  EXPECT_EQ(t.location(2).chain, 0u);
  EXPECT_EQ(t.location(2).position, 0u);
  EXPECT_EQ(t.location(0).position, 1u);
  EXPECT_EQ(t.location(4).position, 2u);
}

TEST(ScanTopology, FromChainsValidation) {
  EXPECT_THROW(ScanTopology::fromChains({}), std::invalid_argument);
  EXPECT_THROW(ScanTopology::fromChains({{}}), std::invalid_argument);
  EXPECT_THROW(ScanTopology::fromChains({{0, 0}}), std::invalid_argument);   // repeated
  EXPECT_THROW(ScanTopology::fromChains({{0, 5}}), std::invalid_argument);   // out of range
  EXPECT_THROW(ScanTopology::fromChains({{0}, {0}}), std::invalid_argument); // cross-chain dup
}

TEST(ScanTopology, BlockChainsEdgeCases) {
  EXPECT_THROW(ScanTopology::blockChains(5, 0), std::invalid_argument);
  EXPECT_THROW(ScanTopology::blockChains(3, 4), std::invalid_argument);
  const ScanTopology t = ScanTopology::blockChains(4, 4);
  EXPECT_EQ(t.maxChainLength(), 1u);
}

TEST(ScanTopology, ExpandCollapseSingleChainAreInverse) {
  const ScanTopology t = ScanTopology::singleChain(20);
  BitVector pos(20);
  pos.set(3);
  pos.set(17);
  const BitVector cells = t.expandPositions(pos);
  EXPECT_EQ(cells.toIndices(), (std::vector<std::size_t>{3, 17}));
  EXPECT_EQ(t.collapseCells(cells), pos);
}

TEST(ScanTopology, ExpandCoversAllChainsAtPosition) {
  // 2 chains of 3: position 1 selects cells 1 and 4.
  const ScanTopology t = ScanTopology::blockChains(6, 2);
  BitVector pos(3);
  pos.set(1);
  const BitVector cells = t.expandPositions(pos);
  EXPECT_EQ(cells.toIndices(), (std::vector<std::size_t>{1, 4}));
}

TEST(ScanTopology, CollapseMapsCellToItsPosition) {
  const ScanTopology t = ScanTopology::blockChains(7, 2);  // chains: 4 + 3
  BitVector cells(7);
  cells.set(6);  // chain 1, position 2
  const BitVector pos = t.collapseCells(cells);
  EXPECT_EQ(pos.toIndices(), (std::vector<std::size_t>{2}));
}

TEST(ScanTopology, UnevenChainsPadAtTail) {
  const ScanTopology t = ScanTopology::fromChains({{0, 1, 2}, {3}});
  EXPECT_EQ(t.maxChainLength(), 3u);
  BitVector pos(3);
  pos.set(2);  // only chain 0 has a cell at position 2
  EXPECT_EQ(t.expandPositions(pos).toIndices(), (std::vector<std::size_t>{2}));
}

TEST(ScanTopology, SizeMismatchesRejected) {
  const ScanTopology t = ScanTopology::singleChain(5);
  EXPECT_THROW(t.expandPositions(BitVector(4)), std::invalid_argument);
  EXPECT_THROW(t.collapseCells(BitVector(6)), std::invalid_argument);
  EXPECT_THROW(t.location(5), std::invalid_argument);
}

TEST(ScanTopology, ExpandPositionsMatchesPerCellScan) {
  // Oracle: test every cell's position against the mask.
  const auto perCellScan = [](const ScanTopology& t, const BitVector& positions) {
    BitVector cells(t.numCells());
    for (std::size_t cell = 0; cell < t.numCells(); ++cell) {
      if (positions.test(t.location(cell).position)) cells.set(cell);
    }
    return cells;
  };
  // Ragged stitching: chains of 37, 1, 20 and 12 cells, ids interleaved by a
  // stride coprime to the 70 cells.
  std::vector<std::vector<std::size_t>> ragged(4);
  std::size_t cell = 0;
  const std::size_t lengths[] = {37, 1, 20, 12};
  for (std::size_t c = 0; c < 4; ++c) {
    for (std::size_t p = 0; p < lengths[c]; ++p) {
      ragged[c].push_back(cell);
      cell = (cell + 3) % 70;
    }
  }
  const std::pair<std::string, ScanTopology> topologies[] = {
      {"single", ScanTopology::singleChain(129)},
      {"block", ScanTopology::blockChains(203, 7)},
      {"ragged", ScanTopology::fromChains(std::move(ragged))},
  };
  Xoroshiro128 rng(0x5CA7);
  for (const auto& [name, t] : topologies) {
    const std::size_t length = t.maxChainLength();
    std::vector<BitVector> masks = {BitVector(length), BitVector(length, true)};
    for (const double density : {0.02, 0.1, 0.5, 0.9}) {
      for (int trial = 0; trial < 8; ++trial) {
        BitVector mask(length);
        for (std::size_t pos = 0; pos < length; ++pos) {
          if (rng.nextDouble() < density) mask.set(pos);
        }
        masks.push_back(std::move(mask));
      }
    }
    for (std::size_t m = 0; m < masks.size(); ++m) {
      EXPECT_EQ(t.expandPositions(masks[m]), perCellScan(t, masks[m]))
          << name << " mask " << m << " (" << masks[m].count() << " positions)";
    }
    EXPECT_EQ(t.expandPositions(masks[0]).count(), 0u) << name;
    EXPECT_EQ(t.expandPositions(masks[1]).count(), t.numCells()) << name;
  }
}

}  // namespace
}  // namespace scandiag
