#include "diagnosis/interval_partitioner.hpp"

#include "common/assert.hpp"
#include "obs/metrics.hpp"

namespace scandiag {

IntervalPartitioner::IntervalPartitioner(std::size_t chainLength, std::size_t groupCount)
    : chainLength_(chainLength), groupCount_(groupCount) {
  SCANDIAG_REQUIRE(chainLength >= 1, "empty scan chain");
  SCANDIAG_REQUIRE(groupCount >= 1 && groupCount <= chainLength,
                   "group count must be in [1, chain length]");
  rlen_ = defaultIntervalBits(chainLength, groupCount, kSelectionLfsr.degree);
}

Partition IntervalPartitioner::fromLengths(const std::vector<std::size_t>& lengths,
                                           std::size_t chainLength) {
  Partition p;
  p.groups.assign(lengths.size(), BitVector(chainLength));
  std::size_t pos = 0;
  for (std::size_t g = 0; g < lengths.size(); ++g) {
    for (std::size_t i = 0; i < lengths[g]; ++i) {
      SCANDIAG_REQUIRE(pos < chainLength, "interval lengths exceed chain");
      p.groups[g].set(pos++);
    }
  }
  SCANDIAG_REQUIRE(pos == chainLength, "interval lengths do not cover chain");
  return p;
}

Partition IntervalPartitioner::next() {
  obs::PhaseScope phase(obs::Phase::PartitionGen);
  obs::count(obs::Counter::PartitionsGenerated);
  auto seed = findIntervalSeed(kSelectionLfsr, rlen_, groupCount_, chainLength_, nextSeed_);
  SCANDIAG_REQUIRE(seed.has_value(),
                   "no covering interval seed for this chain/group configuration");
  nextSeed_ = seed->seed + 1;
  used_.push_back(*seed);
  return fromLengths(used_.back().lengths, chainLength_);
}

}  // namespace scandiag
