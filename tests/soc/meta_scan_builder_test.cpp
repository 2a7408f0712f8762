#include "soc/meta_scan_builder.hpp"

#include <gtest/gtest.h>

namespace scandiag {
namespace {

TEST(MetaScanBuilder, SingleChainConcatenatesCores) {
  const ScanTopology t = buildMetaChains({3, 2, 4}, 1);
  EXPECT_EQ(t.numChains(), 1u);
  EXPECT_EQ(t.numCells(), 9u);
  // Daisy order: core0 cells 0..2, core1 cells 3..4, core2 cells 5..8.
  for (std::size_t cell = 0; cell < 9; ++cell) {
    EXPECT_EQ(t.location(cell).position, cell);
  }
}

TEST(MetaScanBuilder, BalancedChains) {
  const ScanTopology t = buildMetaChains({8, 8}, 4);
  EXPECT_EQ(t.numChains(), 4u);
  for (std::size_t c = 0; c < 4; ++c) EXPECT_EQ(t.chainLength(c), 4u);
}

TEST(MetaScanBuilder, EveryCellPlacedExactlyOnce) {
  const std::vector<std::size_t> counts = {5, 13, 7, 2};
  const ScanTopology t = buildMetaChains(counts, 3);
  EXPECT_EQ(t.numCells(), 27u);
  std::vector<int> seen(27, 0);
  for (std::size_t c = 0; c < t.numChains(); ++c) {
    for (std::size_t cell : t.chain(c)) ++seen[cell];
  }
  for (int s : seen) EXPECT_EQ(s, 1);
}

TEST(MetaScanBuilder, CoreOccupiesContiguousRunPerChain) {
  const std::vector<std::size_t> counts = {10, 20, 30};
  const ScanTopology t = buildMetaChains(counts, 4);
  // On every chain, cells of one core must be consecutive and ordered by core.
  for (std::size_t c = 0; c < t.numChains(); ++c) {
    std::size_t lastCore = 0;
    for (std::size_t i = 1; i < t.chain(c).size(); ++i) {
      const std::size_t cell = t.chain(c)[i];
      const std::size_t core = cell < 10 ? 0 : cell < 30 ? 1 : 2;
      EXPECT_GE(core, lastCore) << "core order broken on chain " << c;
      lastCore = core;
    }
  }
}

TEST(MetaScanBuilder, ChainsBalancedWithinOneCell) {
  const ScanTopology t = buildMetaChains({211, 638, 534, 1728, 1636, 1426}, 8);
  std::size_t mn = static_cast<std::size_t>(-1), mx = 0;
  for (std::size_t c = 0; c < t.numChains(); ++c) {
    mn = std::min(mn, t.chainLength(c));
    mx = std::max(mx, t.chainLength(c));
  }
  EXPECT_LE(mx - mn, 6u);  // at most one cell skew per core
}

TEST(MetaScanBuilder, InvalidInputsRejected) {
  EXPECT_THROW(buildMetaChains({}, 1), std::invalid_argument);
  EXPECT_THROW(buildMetaChains({3}, 0), std::invalid_argument);
}

TEST(MetaScanBuilder, TinyCoreSmallerThanTam) {
  // A 2-cell core on an 8-bit TAM occupies only 2 sub-chains.
  const ScanTopology t = buildMetaChains({2, 16}, 8);
  EXPECT_EQ(t.numCells(), 18u);
  EXPECT_EQ(t.numChains(), 8u);
}

}  // namespace
}  // namespace scandiag
