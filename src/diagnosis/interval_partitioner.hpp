// Interval-based partitioning (paper §2.2) — step 1 of the contribution.
//
// Each group of a partition is an *interval* of consecutive shift positions;
// interval lengths are read from rlen LFSR stages (one LFSR step per interval
// boundary), and the IVR seed is pre-computed so the configured number of
// intervals covers the chain with no empty group (see interval_seed_search).
// Clustered failing cells — one fault cone mapping to a short run of the
// chain — land in one or two intervals, so a single partition already
// exonerates most of the chain.
#pragma once

#include <cstdint>

#include "bist/interval_seed_search.hpp"
#include "diagnosis/partition.hpp"

namespace scandiag {

/// Seed-search starting point of the precomputed IVR seeds; successive
/// partitions take successive covering seeds.
inline constexpr std::uint64_t kIntervalStartSeed = 0xBEEF;

class IntervalPartitioner final : public PartitionScheme {
 public:
  /// Reads interval lengths from kSelectionLfsr in fields of
  /// defaultIntervalBits(chainLength, groupCount) bits.
  IntervalPartitioner(std::size_t chainLength, std::size_t groupCount);

  Partition next() override;
  std::string name() const override { return "interval-based"; }

  unsigned intervalBits() const { return rlen_; }
  /// Seeds consumed so far, in partition order.
  const std::vector<IntervalSeedResult>& usedSeeds() const { return used_; }

  /// Builds the partition induced by explicit interval lengths (sum == chain
  /// length). Exposed for tests and for the hardware-equivalence check.
  static Partition fromLengths(const std::vector<std::size_t>& lengths,
                               std::size_t chainLength);

 private:
  std::size_t chainLength_;
  std::size_t groupCount_;
  unsigned rlen_;
  std::uint64_t nextSeed_ = kIntervalStartSeed;
  std::vector<IntervalSeedResult> used_;
};

}  // namespace scandiag
