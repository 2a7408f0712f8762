// Meta scan chain construction for a daisy-chain TestRail.
//
// With a W-bit TAM, each core's internal scan cells are reorganized into W
// balanced sub-chains; meta chain c is the concatenation of every core's
// sub-chain c in daisy-chain order (paper Fig. 4). With W = 1 this degenerates
// to one meta chain threading all cores back to back (the paper's first SOC).
// Either way a core occupies a *contiguous run of shift positions* on every
// meta chain — the clustering property that makes interval-based partitioning
// effective for SOC diagnosis (paper §5).
#pragma once

#include <cstddef>
#include <vector>

#include "bist/scan_topology.hpp"

namespace scandiag {

/// cellCounts[k] = number of scan cells of core k (daisy-chain order); cells
/// of core k get global ids [Σ_{i<k} cellCounts[i], ...). Returns the meta
/// topology over all cells.
ScanTopology buildMetaChains(const std::vector<std::size_t>& cellCounts, std::size_t tamWidth);

/// The topology one core contributes to a W-bit TAM, in *local* cell ids:
/// the same W balanced sub-chains buildMetaChains would thread through it
/// (empty sub-chains dropped). Every instance of a structural class yields
/// the same local topology, which is what lets the class-deduped sweep
/// diagnose once per class and transfer the result to all siblings.
ScanTopology coreLocalTopology(std::size_t cellCount, std::size_t tamWidth);

}  // namespace scandiag
