#include "soc/meta_scan_builder.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace scandiag {

namespace {

/// Length of core sub-chain c when n cells are split into W balanced blocks.
std::size_t subChainLength(std::size_t n, std::size_t tamWidth, std::size_t c) {
  return n / tamWidth + (c < n % tamWidth ? 1 : 0);
}

}  // namespace

ScanTopology buildMetaChains(const std::vector<std::size_t>& cellCounts, std::size_t tamWidth) {
  SCANDIAG_REQUIRE(tamWidth >= 1, "TAM width must be >= 1");
  SCANDIAG_REQUIRE(!cellCounts.empty(), "no cores");
  std::vector<std::vector<std::size_t>> chains(tamWidth);
  std::size_t offset = 0;
  for (std::size_t n : cellCounts) {
    // Contiguous local blocks per sub-chain keep each core's structural
    // locality intact within every meta chain.
    std::size_t local = 0;
    for (std::size_t c = 0; c < tamWidth; ++c) {
      const std::size_t len = subChainLength(n, tamWidth, c);
      for (std::size_t i = 0; i < len; ++i) chains[c].push_back(offset + local++);
    }
    SCANDIAG_ASSERT(local == n, "sub-chain split lost cells");
    offset += n;
  }
  // Drop empty meta chains (possible when some tiny core is the only one and
  // tamWidth exceeds every core's cell count — pathological but legal input).
  chains.erase(std::remove_if(chains.begin(), chains.end(),
                              [](const auto& c) { return c.empty(); }),
               chains.end());
  return ScanTopology::fromChains(std::move(chains));
}

ScanTopology coreLocalTopology(std::size_t cellCount, std::size_t tamWidth) {
  SCANDIAG_REQUIRE(tamWidth >= 1, "TAM width must be >= 1");
  SCANDIAG_REQUIRE(cellCount >= 1, "core has no scan cells");
  std::vector<std::vector<std::size_t>> chains(tamWidth);
  std::size_t local = 0;
  for (std::size_t c = 0; c < tamWidth; ++c) {
    const std::size_t len = subChainLength(cellCount, tamWidth, c);
    for (std::size_t i = 0; i < len; ++i) chains[c].push_back(local++);
  }
  SCANDIAG_ASSERT(local == cellCount, "sub-chain split lost cells");
  chains.erase(std::remove_if(chains.begin(), chains.end(),
                              [](const auto& c) { return c.empty(); }),
               chains.end());
  return ScanTopology::fromChains(std::move(chains));
}

}  // namespace scandiag
